"""The attack quadratic at one state, and the stationary (IID) attack.

With the operator's input sequence held at its nominal gain, letting the
attacker choose the stacked per-step, per-channel delivery rates ``z``
(step-major, matching the input stack) shifts the expected horizon cost by

    obj(z) = z' H z + c' z,
    H = (G_in - V) o U,
    c = -[(V + P + 2 (G_in - V) Nu) U]_diag

with ``U = u u'`` the outer product of the nominal optimal sequence,
``G_in`` the input Gramian, ``P`` the input penalty, ``Nu`` the stacked
nominal means, ``o`` the elementwise product and ``_diag`` the matrix
diagonal.  ``V = diag(gain.paid_variance)`` is the delivery variance the
protocol pays: the Gramian's diagonal for the udp-like loop, zero for the
tcp-like loop.  The gain decides it once (``controller.control_gain``);
:func:`build_qp` and :func:`flooding_condition` read it and never the
protocol.

The stationary attack replaces every channel's rate by one shared ``alpha``
inside the monitor's tolerance band, i.e. restricts the quadratic to the
line z = alpha 1:

    obj(alpha) = (1'H1) alpha^2 + (1'c) alpha.

Positive values mean the operator pays more than under the nominal channel.
A one-dimensional quadratic is maximized over the admissible interval by
comparing the endpoints and, when the curve is concave, its interior
stationary point; the tcp curve is convex (H is positive semidefinite), so
its maximum is always at an endpoint.
"""

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ChannelSpec, DetectionSpec
from .controller import ControllerGain, Protocol, control_gain, optimal_input_sequence
from .errors import DimensionError, InfeasibleRegionError
from .model import PredictionEnsemble, SystemModel, _count, _frozen

__all__ = [
    "Convexity",
    "AttackBox",
    "AttackContext",
    "BoxQP",
    "ObjectiveQuadratic",
    "AttackCharacterization",
    "FloodingCondition",
    "attack_context",
    "build_qp",
    "optimal_alpha",
    "optimal_alpha_udp",
    "optimal_alpha_tcp",
    "flooding_condition",
]


class Convexity(enum.Enum):
    CONCAVE = "concave"
    CONVEX = "convex"
    LINEAR = "linear"


@dataclass(frozen=True, eq=False)
class AttackBox:
    """The schedule QP's box: one detection band and nominal rate per channel.

    The monitor watches each channel's average rate, so its band holds at
    every step of the ``horizon``.  ``channel_lo``, ``channel_hi`` and
    ``channel_nominal`` are read-only m-vectors; the step-major ``lo`` and
    ``hi``, the clipped nominal point ``start`` and ``region`` are built
    from them on first use and kept (the gain holds the nominal stack).
    """

    channel_lo: np.ndarray
    channel_hi: np.ndarray
    channel_nominal: np.ndarray
    horizon: int

    def __post_init__(self):
        _count(self.horizon, "box horizon", 1)
        names = ("channel_lo", "channel_hi", "channel_nominal")
        lo, hi, nominal = (_frozen(getattr(self, name)) for name in names)
        if not lo.size or not (lo.size,) == lo.shape == hi.shape == nominal.shape:
            raise DimensionError("box needs equal nonempty per-channel vectors")
        if not np.isfinite((lo, hi, nominal)).all() or (lo > hi).any():
            raise DimensionError("box needs finite entries and lo <= hi")
        for name, values in zip(names, (lo, hi, nominal)):
            object.__setattr__(self, name, values)

    @property
    def m(self) -> int:
        return self.channel_lo.size

    def _stacked(self, values):
        """``values`` repeated once per step, step-major, read-only."""
        stacked = np.concatenate((values,) * self.horizon)
        stacked.setflags(write=False)
        return stacked

    @cached_property
    def lo(self) -> np.ndarray:
        return self._stacked(self.channel_lo)

    @cached_property
    def hi(self) -> np.ndarray:
        return self._stacked(self.channel_hi)

    @cached_property
    def region(self) -> tuple | None:
        """The rates inside every channel's band, or None when there are none."""
        lo, hi = float(np.max(self.channel_lo)), float(np.min(self.channel_hi))
        return (lo, hi) if lo <= hi else None

    @cached_property
    def start(self) -> np.ndarray:
        """The nominal point clipped into the box."""
        lo, hi = self.channel_lo, self.channel_hi
        return self._stacked(np.clip(self.channel_nominal, lo, hi))


def _attack_box(channel: ChannelSpec, detection: DetectionSpec, horizon: int):
    """The box of ``channel``'s bands under ``detection`` over ``horizon``."""
    return AttackBox(*detection.bounds(channel), channel.mean_diag, horizon)


@dataclass(frozen=True, eq=False)
class AttackContext:
    """Everything the attack formulas need at one state.

    ``u_star`` caches the operator's optimal sequence at ``x`` so every
    quadratic form is evaluated against it instead of re-solving or forming
    an explicit kernel inverse.  The quadratic's state-free parts are the
    gain's coupling and load and the ``box`` of the channels' bands.
    ``region`` is the scalar admissible interval (the intersection of all
    per-channel bands), or None when the channels' bands do not overlap;
    schedule attacks, which do not need a common rate, read each channel's
    band off the box.  ``model`` is the one ``ens`` and ``gain`` were built
    from; the formulas read its weights.
    """

    ens: PredictionEnsemble
    gain: ControllerGain
    model: SystemModel
    x: np.ndarray
    u_star: np.ndarray
    box: AttackBox

    @property
    def protocol(self) -> Protocol:
        return self.gain.protocol

    @property
    def region(self) -> tuple | None:
        return self.box.region

    @cached_property
    def qp(self) -> "BoxQP":
        """The attack quadratic at this state, built on first use."""
        return build_qp(self)

    @cached_property
    def line(self) -> "ObjectiveQuadratic":
        """The attack quadratic restricted to a shared rate, z = a 1.

        Its curvature 1'H1 = u'(G_in - V)u counts as flat within
        1e-12 |G_in| u'u of zero.  For udp (V = D_in) it is the off-diagonal
        form, zero for decoupled plants (A = 0, diagonal B) and for one step
        of one channel; for tcp (V = 0) it is positive on reachable plants.
        """
        qp = self.qp
        curvature = float(np.sum(qp.H))
        u2 = float(self.u_star @ self.u_star)
        tol = 1e-12 * (float(np.linalg.norm(self.ens.input_gram)) * u2)
        if curvature < -tol:
            convexity = Convexity.CONCAVE
        elif curvature > tol:
            convexity = Convexity.CONVEX
        else:
            convexity = Convexity.LINEAR
        return ObjectiveQuadratic(
            linear=float(np.sum(qp.c)), curvature=curvature, convexity=convexity
        )

    def require_protocol(self, protocol: Protocol, fname: str):
        if self.protocol is not protocol:
            raise DimensionError(
                f"{fname} needs a {protocol.value}-like context, got "
                f"{self.protocol.value}-like"
            )

    def require_region(self):
        if self.region is None:
            raise InfeasibleRegionError(
                "no single loss rate lies inside every channel's "
                "detection band; use a per-channel attack instead"
            )
        return self.region

    @property
    def nominal_scalar(self) -> float:
        """Tie-break target: the nominal rate (mean of per-channel rates)."""
        return float(np.mean(self.box.channel_nominal))


def attack_context(
    ens: PredictionEnsemble,
    model: SystemModel,
    channel: ChannelSpec,
    detection: DetectionSpec,
    protocol: Protocol,
    x: np.ndarray,
    gain: ControllerGain | None = None,
) -> AttackContext:
    """Assemble an :class:`AttackContext` for state ``x``.

    A given ``gain`` must have been built by ``control_gain`` from ``ens``,
    for ``protocol`` and the channel's nominal means: its coupling and
    load then carry the quadratic's state-free parts, so a caller that
    passes one gain to many states builds them once.  The box is built
    for each call; it is three m-entry vectors.  The ensemble is
    checked first, so a gain of another horizon is named as such.
    """
    if channel.m != ens.m:
        raise DimensionError(
            f"channel has {channel.m} entries for {ens.m} actuator channels"
        )
    box = _attack_box(channel, detection, ens.horizon)
    if gain is None:
        gain = control_gain(ens, model, channel.mean_diag, protocol)
    elif gain.ens is not ens:
        raise DimensionError("gain was built from another prediction ensemble")
    elif gain.protocol is not protocol:
        raise DimensionError("gain was built for a different protocol")
    elif not np.array_equal(gain.mean_stack[: ens.m], box.channel_nominal):
        raise DimensionError("gain was built for other nominal means")
    x = np.asarray(x, dtype=float)
    return AttackContext(
        ens=ens,
        gain=gain,
        model=model,
        x=x,
        u_star=optimal_input_sequence(gain, ens, x),
        box=box,
    )


@dataclass(frozen=True, eq=False)
class BoxQP:
    """maximize z' H z + c' z subject to lo <= z <= hi elementwise.

    H and c are finite and H is exactly symmetric, as every solver kernel
    assumes.  The bounds, and the clipped nominal point that only breaks
    ties and seeds the solver, are the state-free ``box``'s; ``lo``,
    ``hi``, ``horizon`` and ``m`` read it.
    """

    H: np.ndarray
    c: np.ndarray
    box: AttackBox

    def __post_init__(self):
        box = self.box
        d = box.horizon * box.m
        object.__setattr__(self, "H", np.asarray(self.H, dtype=float))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        if self.H.shape != (d, d) or self.c.shape != (d,):
            raise DimensionError(
                f"BoxQP over {box.horizon} steps of {box.m} channels needs "
                f"a {d}x{d} H and length-{d} c"
            )
        if not (np.all(np.isfinite(self.H)) and np.all(np.isfinite(self.c))):
            raise DimensionError("BoxQP needs a finite H and c")
        if not np.array_equal(self.H, self.H.T):
            raise DimensionError("BoxQP needs a symmetric H")

    @property
    def lo(self) -> np.ndarray:
        return self.box.lo

    @property
    def hi(self) -> np.ndarray:
        return self.box.hi

    @property
    def horizon(self) -> int:
        return self.box.horizon

    @property
    def m(self) -> int:
        return self.box.m

    def objective(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ (self.H @ z) + self.c @ z)


def build_qp(ctx: AttackContext) -> BoxQP:
    """Schedule-attack QP at the context's state.

    H and c are the gain's state-free coupling and load weighted by the
    optimal sequence u; the box is the context's.
    """
    H, c = _quadratic(ctx.gain, ctx.u_star)
    return BoxQP(H=H, c=c, box=ctx.box)


def _quadratic(gain, u, v=None):
    """The attack quadratic's (H, c) for the input sequence ``u``.

    With ``v``, the (H, c) of its symmetric bilinear form in u and v: U =
    u v' + v u' in place of u u', and c = -(u o load v + v o load u).
    """
    w = u if v is None else v
    # c_i = -[(load) U]_ii = -u_i * (load @ u)_i
    outer, linear = np.outer(u, w), u * (gain.load @ w)
    if v is not None:
        outer += outer.T
        linear += v * (gain.load @ u)
    H = gain.coupling * outer
    H = 0.5 * (H + H.T)
    return H, -linear


@dataclass(frozen=True)
class ObjectiveQuadratic:
    """The attack objective as a quadratic through the origin.

    obj(a) = curvature * a^2 + linear * a.  ``curvature`` is half the second
    derivative; its sign decides ``convexity`` and hence where the maximum
    sits.
    """

    linear: float
    curvature: float
    convexity: Convexity

    @property
    def stationary(self) -> float | None:
        """The peak of a concave line, the trough of a convex one (the attack
        that HELPS most; on tcp it exceeds the nominal rate, where the slope
        is -u'Pu < 0), None for a flat one.  Unclamped to [0, 1).

        A udp peak with equal nominal means mu lies below mu - 1/2.  There
        the curvature is u'(G_in - D_in)u and the linear coefficient
        -u'(D_in + P)u - 2 mu curvature, so the stationary rate is
        mu + u'(D_in + P)u / (2 curvature).  G_in is PSD, so a concave
        line has 0 < -curvature <= u'D_in u, and the peak is at most
        mu - 1/2 - u'Pu / (2 u'D_in u) < mu - 1/2 for positive definite P.
        A band whose lower edge lies above mu - 1/2 never contains it; once
        the lower edge is below mu - 1/2, the peak can fall inside the band
        and be :func:`optimal_alpha`'s answer (a tolerance of 1 about
        mu = 0.85, band [0, 1], does it on a two-state plant)."""
        if self.convexity is Convexity.LINEAR:
            return None
        return -self.linear / (2.0 * self.curvature)

    def value(self, alpha: float) -> float:
        return alpha * (self.linear + alpha * self.curvature)


@dataclass(frozen=True)
class AttackCharacterization:
    """Outcome of the scalar-rate attack search over one admissible band."""

    protocol: Protocol
    convexity: Convexity
    alpha_star: float
    objective_star: float
    candidates: list  # [(alpha, objective value), ...] actually compared
    alpha_peak: float | None = None  # interior stationary point, if concave
    curvature: float = 0.0
    degenerate: bool = field(default=False)  # flat objective, rate moot


def _beats_nominal(value, nominal):
    """Whether objective ``value`` beats the clipped nominal point's
    ``nominal`` by more than 1e-12 (1 + |best|), elementwise.

    A near tie keeps the nominal point, the box point closest to the
    nominal rates, so a flat objective never sends the attacker to an
    arbitrary vertex.  It is the one tie rule of the attack layer.
    """
    best = np.maximum(value, nominal)
    return value - nominal > 1e-12 * (1.0 + np.abs(best))


def _pick(candidates, nominal):
    """The highest-valued of the ``(point, value, ...)`` candidates.

    The candidates that the best one does not beat (:func:`_beats_nominal`)
    tie, and go to the point closest to ``nominal``, so a flat objective
    never sends the attacker to an arbitrary endpoint or vertex; the first
    such point wins.
    """
    best = max(item[1] for item in candidates)
    tied = [item for item in candidates if not _beats_nominal(best, item[1])]
    if len(tied) == 1:  # the usual case: no distance to measure
        return tied[0]
    return min(
        tied,
        key=lambda item: float(np.linalg.norm(np.subtract(item[0], nominal))),
    )


def optimal_alpha(ctx: AttackContext) -> AttackCharacterization:
    """Best stationary attack rate.

    The maximum of a quadratic over an interval is at an endpoint, or at
    the interior stationary point when the curve is concave and the point
    falls inside the band.  A flat objective (zero sequence, e.g. x = 0)
    is flagged degenerate and answered with the nominal rate.
    """
    lo, hi = ctx.require_region()
    line = ctx.line
    concave = line.convexity is Convexity.CONCAVE
    assert ctx.gain.paid_variance.any() or not concave, (
        "with no variance paid the curvature u'G_in u is nonnegative"
    )

    # the linear coefficient is u'(P + V - 2 K)u
    slope_scale = (
        float(np.linalg.norm(ctx.model.input_penalty))
        + float(np.linalg.norm(ctx.ens.input_gram))
        + 2.0 * float(np.linalg.norm(ctx.gain.kernel))
    ) * float(ctx.u_star @ ctx.u_star)
    flat = abs(line.linear) <= 1e-12 * max(1e-300, slope_scale)
    degenerate = line.convexity is Convexity.LINEAR and flat
    if degenerate:
        mu = min(max(ctx.nominal_scalar, lo), hi)
        candidates = [(mu, line.value(mu))]
    else:
        candidates = [(lo, line.value(lo)), (hi, line.value(hi))]
    alpha_peak = line.stationary if concave else None
    if concave and lo <= alpha_peak <= hi:
        candidates.append((alpha_peak, line.value(alpha_peak)))
    alpha_star, objective_star = _pick(candidates, ctx.nominal_scalar)
    return AttackCharacterization(
        protocol=ctx.protocol,
        convexity=line.convexity,
        alpha_star=alpha_star,
        objective_star=objective_star,
        candidates=candidates,
        alpha_peak=alpha_peak,
        curvature=line.curvature,
        degenerate=degenerate,
    )


def optimal_alpha_udp(ctx: AttackContext) -> AttackCharacterization:
    """:func:`optimal_alpha` for a context that must be udp-like."""
    ctx.require_protocol(Protocol.UDP_LIKE, "optimal_alpha_udp")
    return optimal_alpha(ctx)


def optimal_alpha_tcp(ctx: AttackContext) -> AttackCharacterization:
    """:func:`optimal_alpha` for a context that must be tcp-like."""
    ctx.require_protocol(Protocol.TCP_LIKE, "optimal_alpha_tcp")
    return optimal_alpha(ctx)


@dataclass(frozen=True, eq=False)
class FloodingCondition:
    """Does delivering EVERY packet hurt the operator at this state?

    With C = ``gain.coupling`` = G_in - V and V = diag(paid variance), the
    attack objective at rate 1 is ``objective_at_one`` = lhs - rhs, with

        lhs = u'(I - 2 Nu) C u,    rhs = u'(P + V)u.

    It is the cost of flooding over that of a total blackout, so when it is
    positive (``state_positive``) a perfect channel is worse for the
    operator than no channel at all, and so than the nominal lossy one.
    ``matrix_definite`` is the state-independent sufficient condition,
    positive definiteness of

        S = sym(C - load) = sym(C (I - 2 Nu)) - P - V,

    with ``gain.load`` = V + P + 2 C Nu, whose eigenvalues are computed
    only when ``min_eigenvalue`` is read.  It never holds for a udp-like
    loop: V is then the Gramian's diagonal, so C has a zero diagonal and
    S's diagonal is -(V + diag P) < 0.
    """

    lhs: float
    rhs: float
    objective_at_one: float
    _gain: ControllerGain = field(repr=False)

    @property
    def state_positive(self) -> bool:
        return bool(self.objective_at_one > 0.0)

    @cached_property
    def min_eigenvalue(self) -> float:
        S = self._gain.coupling - self._gain.load
        S = S + S.T
        S *= 0.5
        return float(np.linalg.eigvalsh(S)[0])

    @property
    def matrix_definite(self) -> bool:
        return bool(self.min_eigenvalue > 0.0)


def flooding_condition(ctx: AttackContext) -> FloodingCondition:
    """The two sides of the flooding condition at the context's state.

    The objective at rate 1 is 1'H1 + 1'c = u'C u - u'(load) u, and
    u'(load) u = rhs + 2 u'C Nu u, so lhs is rhs plus that objective.
    """
    u, paid = ctx.u_star, ctx.gain.paid_variance
    rhs = float(u @ (ctx.model.input_penalty * u)) + float(u @ (paid * u))
    objective_at_one = ctx.line.value(1.0)
    return FloodingCondition(
        lhs=rhs + objective_at_one,
        rhs=rhs,
        objective_at_one=objective_at_one,
        _gain=ctx.gain,
    )
