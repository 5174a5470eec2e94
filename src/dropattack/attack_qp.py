"""Non-stationary packet-drop attacks: one loss rate per step and channel.

Letting the attacker vary the per-step means over the prediction horizon
turns the scalar quadratic of the stationary attack into the
box-constrained quadratic program built by
:func:`~dropattack.attack_iid.build_qp`: maximize z'Hz + c'z over the
per-channel detection bands.  Restricted to a constant schedule z = a 1 it
reduces exactly to the stationary objective, so the best schedule can never
lose to the best stationary rate once the stationary optimum is kept as a
candidate.

The maximization is NOT a convex program (for udp H is traceless, hence
indefinite whenever it is nonzero), and the general box QP is NP-hard.
The solver is deliberately plain, with explicit candidate bookkeeping so
ties break toward the nominal rates, and it is exact in one regime only:

* exact: d <= ``_VERTEX_CAP`` and diag(H) >= 0, which every QP
  :func:`build_qp` makes satisfies.  The objective is then convex along
  each coordinate, so some vertex is a global maximizer, and enumerating
  all 2^d vertices finds it;
* heuristic: d > ``_VERTEX_CAP`` or a negative diagonal entry (hand-built
  QPs, some per-channel restrictions in :func:`solve_iid_constrained`).
  Monotone projected gradient ascent from many starts joins the vertices
  (when enumerated) and, for negative definite H, a feasible
  unconstrained peak; the best of them is returned with no optimality
  certificate.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .attack_iid import AttackContext, BoxQP, build_qp
from .controller import Protocol
from .errors import DimensionError

__all__ = [
    "AttackSchedule",
    "build_qp_udp",
    "build_qp_tcp",
    "schedule_objective",
    "solve_box_qp_max",
    "solve_iid_constrained",
]


# solver constants; the fixed seed makes every schedule reproducible
_MULTISTARTS = 32
_MAX_ITERATIONS = 500
_BACKTRACK = 0.5
_STATIONARITY_TOL = 1e-8
_VERTEX_CAP = 16  # exhaustive enumeration up to 2^cap vertices
_SEED = 0


@dataclass(frozen=True, eq=False)
class AttackSchedule:
    """A per-step deliverability schedule and the objective it achieves.

    ``means[k, i]`` is the delivery probability of channel i at horizon
    step k.  ``winner`` records which candidate family produced the
    returned point; ``stationarity`` is the projected-gradient residual
    there (unit step), zero at an exactly optimal vertex.
    """

    means: np.ndarray
    objective: float
    winner: str
    stationarity: float

    def as_stack(self) -> np.ndarray:
        """Step-major flattening matching the decision vector layout."""
        return self.means.reshape(-1).copy()


def build_qp_udp(ctx: AttackContext) -> BoxQP:
    """:func:`build_qp` for a context that must be udp-like."""
    ctx.require_protocol(Protocol.UDP_LIKE, "build_qp_udp")
    return build_qp(ctx)


def build_qp_tcp(ctx: AttackContext) -> BoxQP:
    """:func:`build_qp` for a context that must be tcp-like."""
    ctx.require_protocol(Protocol.TCP_LIKE, "build_qp_tcp")
    return build_qp(ctx)


def schedule_objective(qp: BoxQP, schedule: np.ndarray) -> float:
    """Objective of a (horizon, m) schedule under ``qp``."""
    schedule = np.asarray(schedule, dtype=float)
    if schedule.shape != (qp.horizon, qp.m):
        raise DimensionError(
            f"schedule must have shape {(qp.horizon, qp.m)}, "
            f"got {schedule.shape}"
        )
    return qp.objective(schedule.reshape(-1))


# ------------------------------------------------------------- solver core

_OBJECTIVE = "sd,de,se->s"


@functools.lru_cache(maxsize=128)
def _objective_path(s, d):
    """Contraction order ``np.einsum(..., optimize=True)`` picks for (s, d).

    The greedy search depends only on the shapes, so it is planned once per
    shape instead of once per call; the contraction itself is unchanged.
    """
    Z, H = np.empty((s, d)), np.empty((d, d))
    return np.einsum_path(_OBJECTIVE, Z, H, Z, optimize=True)[0]


def _batch_objective(H, c, Z):
    path = _objective_path(*Z.shape)
    return np.einsum(_OBJECTIVE, Z, H, Z, optimize=path) + Z @ c


def _residuals(H, c, lo, hi, Z):
    G = 2.0 * Z @ H + c
    proj = np.clip(Z + G, lo, hi)
    return np.max(np.abs(proj - Z), axis=1)


def _ascend(H, c, lo, hi, Z0, eigs):
    """Monotone projected gradient ascent, batched over starting points.

    ``eigs`` is the spectrum of H; it fixes the initial step.
    """
    Z = Z0.copy()
    vals = _batch_objective(H, c, Z)
    lipschitz = 2.0 * max(float(np.abs(eigs).max()), 1e-300)
    t = np.full(Z.shape[0], 1.0 / lipschitz)
    tol = _STATIONARITY_TOL * (1.0 + float(np.linalg.norm(c)))
    for _ in range(_MAX_ITERATIONS):
        res = _residuals(H, c, lo, hi, Z)
        live = (res > tol) & (t > 1e-18)
        if not live.any():
            break
        G = 2.0 * Z @ H + c
        trial = np.clip(Z + t[:, None] * G, lo, hi)
        tvals = _batch_objective(H, c, trial)
        accept = live & (tvals >= vals)
        Z[accept] = trial[accept]
        vals[accept] = tvals[accept]
        reject = live & ~accept
        t[reject] *= _BACKTRACK
        t[accept] *= 1.25  # cheap recovery after over-shrinking
    return Z, vals


def _maximize_box(H, c, lo, hi, nominal):
    """Candidate-based maximization of z'Hz + c'z over a box.

    Returns (z, value, winner, residual).  Candidate families: the nominal
    point, exhaustive vertices (small d), the unconstrained stationary
    point when H is negative definite, and projected gradient ascent from
    multiple starts.  When the vertices are enumerated and diag(H) >= 0
    the best vertex is the exact maximum, and only the nominal point and
    the vertices are scored.
    """
    d = c.size
    if d == 0:
        raise DimensionError("empty decision vector")
    if np.any(lo > hi):
        raise DimensionError("box has lo > hi entries")

    candidates = [(np.clip(nominal, lo, hi), "nominal")]

    if d <= _VERTEX_CAP:
        idx = np.arange(2 ** d, dtype=np.uint32)
        bits = ((idx[:, None] >> np.arange(d)) & 1).astype(float)
        V = lo + bits * (hi - lo)
        vv = _batch_objective(H, c, V)
        candidates.append((V[int(np.argmax(vv))].copy(), "vertex"))
        if np.all(np.diag(H) >= 0.0):
            # convex along every coordinate: some vertex attains the maximum
            return _best_candidate(H, c, lo, hi, nominal, candidates)

    eigs = np.linalg.eigvalsh(H)
    if eigs[-1] < 0.0:
        # strictly concave: the unconstrained peak is the global maximizer
        # whenever it is feasible
        z_int = np.linalg.solve(-2.0 * H, c)
        if np.all(z_int >= lo) and np.all(z_int <= hi):
            candidates.append((z_int, "interior"))

    rng = np.random.default_rng(_SEED)
    starts = [np.clip(nominal, lo, hi), 0.5 * (lo + hi)]
    starts += [z for z, _ in candidates[1:]]
    while len(starts) < _MULTISTARTS:
        if len(starts) % 2:
            z = lo + rng.random(d) * (hi - lo)
        else:
            z = lo + rng.integers(0, 2, d) * (hi - lo)
        starts.append(z)
    Z0 = np.array(starts[:_MULTISTARTS])
    Z, vals = _ascend(H, c, lo, hi, Z0, eigs)
    candidates.append((Z[int(np.argmax(vals))].copy(), "gradient"))
    return _best_candidate(H, c, lo, hi, nominal, candidates)


def _best_candidate(H, c, lo, hi, nominal, candidates):
    """Highest-scoring (z, tag) candidate; near ties go to the nominal."""

    def val(z):
        return float(z @ (H @ z) + c @ z)

    scored = [(z, val(z), tag) for z, tag in candidates]
    best_val = max(s for _, s, _ in scored)
    tol = 1e-12 * (1.0 + abs(best_val))
    tied = [item for item in scored if best_val - item[1] <= tol]
    z, value, winner = min(
        tied, key=lambda item: float(np.linalg.norm(item[0] - nominal))
    )
    residual = float(_residuals(H, c, lo, hi, z[None, :])[0])
    return z, value, winner, residual


def solve_box_qp_max(
    qp: BoxQP, *, iid: AttackSchedule | None = None
) -> AttackSchedule:
    """Best schedule attack for ``qp``.

    The stationary (per-channel constant) optimum is always kept as a
    candidate, so the result never falls below it: varying the schedule can
    only help.  ``iid`` is that optimum when the caller has already solved
    it with :func:`solve_iid_constrained` on the same ``qp``.
    """
    if iid is None:
        iid = solve_iid_constrained(qp)
    z, value, winner, residual = _maximize_box(
        qp.H, qp.c, qp.lo, qp.hi, qp.nominal
    )
    if iid.objective > value + 1e-12 * (1.0 + abs(value)):
        z, value, winner = iid.as_stack(), iid.objective, "iid"
        residual = float(_residuals(qp.H, qp.c, qp.lo, qp.hi, z[None, :])[0])
    return AttackSchedule(
        means=z.reshape(qp.horizon, qp.m),
        objective=value,
        winner=winner,
        stationarity=residual,
    )


def solve_iid_constrained(qp: BoxQP) -> AttackSchedule:
    """Best schedule constant in time: one rate per channel.

    Substituting z = R a (R the 0/1 map repeating each channel's rate over
    the horizon) reduces the QP to m variables, solved by the same
    candidate machinery.  On a single shared channel this reproduces the
    stationary-rate closed forms: endpoints, plus the interior peak when
    the reduced curvature is negative.
    """
    d = qp.c.size
    m = qp.m
    R = np.zeros((d, m))
    for i, (_, ch) in enumerate(qp.index_map):
        R[i, ch] = 1.0
    Hr = R.T @ qp.H @ R
    Hr = 0.5 * (Hr + Hr.T)
    cr = R.T @ qp.c
    lo_r = qp.lo[:m].copy()
    hi_r = qp.hi[:m].copy()
    nominal_r = qp.nominal[:m].copy()
    a, value, winner, _ = _maximize_box(Hr, cr, lo_r, hi_r, nominal_r)
    z = R @ a
    residual = float(_residuals(qp.H, qp.c, qp.lo, qp.hi, z[None, :])[0])
    return AttackSchedule(
        means=np.tile(a, (qp.horizon, 1)),
        objective=qp.objective(z),
        winner=f"iid-{winner}",
        stationarity=residual,
    )
