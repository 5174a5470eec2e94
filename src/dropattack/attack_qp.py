"""Non-stationary packet-drop attacks: one loss rate per step and channel.

Letting the attacker vary the per-step means over the prediction horizon
turns the scalar quadratic of the stationary attack into the
box-constrained quadratic program built by
:func:`~dropattack.attack_iid.build_qp`: maximize z'Hz + c'z over the
per-channel detection bands.  Restricted to a constant schedule z = a 1 it
reduces exactly to the stationary objective, so the best schedule can never
lose to the best stationary rate: the solver is exact, or it climbs from
the stationary optimum.

The maximization is NOT a convex program (for udp H is traceless, hence
indefinite whenever it is nonzero), and the general box QP is NP-hard.
The solver is deliberately plain: one candidate against the clipped
nominal point, which keeps ties (``attack_iid._beats_nominal``).  With q
the number of negative diagonal entries of H, it has two regimes:

* exact: d <= ``_VERTEX_CAP`` (20) and the faces with a free coordinate
  hold at most ``_FACE_BUDGET`` (2^16) points, (3^q - 2^q) 2^(d-q).
  Along a coordinate with H_ii >= 0 the objective is convex, and a
  coordinate with H_ii < 0 is at a bound or stationary given the others,
  so the best vertex and the best face point, one linear solve per face,
  hold the maximum.  The 2^d vertex values are summed from the vertices
  of a low and a high block of coordinates, one bounded block of values
  at a time, without forming the 2^d x d vertex matrix; only the face
  points are materialized.  Every QP :func:`build_qp` makes has q = 0,
  hence no faces, so every built QP up to d = 20 is solved exactly, and the
  m-variable restriction of :func:`solve_iid_constrained` is exact at
  least up to m = 10;
* local: beyond it, an exact coordinate ascent from a given start (the
  stationary optimum for a schedule), which ends optimal along every
  coordinate but carries no global certificate.  A built QP has q = 0,
  so some maximizer is a vertex (Rosenberg 1972), and every move of the
  ascent sends a coordinate to a bound.

A solve reads the bands and the clipped nominal point off the QP's
:class:`~dropattack.attack_iid.AttackBox`, one band per channel; the
constant schedules solve over its channel bands.  Vertices, faces and the
attack table share one vertex order (:func:`_corner_bits`).  Residuals
wait for a read.  Closed-loop episodes read their schedules off an
attack table instead (:func:`_attack_table`), which tabulates this
solver's exact answer as a quadratic form in the state.
"""

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .attack_iid import AttackContext, BoxQP, _beats_nominal, _quadratic, build_qp
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


_VERTEX_CAP = 20  # exact vertex evaluation up to d = cap when q = 0
_FACE_BUDGET = 2 ** 16  # exact face enumeration up to this many points
_VALUES_BLOCK = 2 ** 16  # vertex values held at once by _best_vertex
_MOVES_PER_COORDINATE = 8  # the coordinate ascent's move cap, per coordinate
_TABLE_CAP = 2 ** 16  # vertex values of an attack table, 2^d n (n + 1) / 2


@dataclass(frozen=True, eq=False)
class AttackSchedule:
    """A per-step deliverability schedule of ``qp`` and its objective.

    ``means[k, i]`` is the delivery probability of channel i at horizon
    step k.  ``winner`` records which candidate produced the returned
    point: ``nominal``, ``vertex`` or ``interior`` (an enumerated point
    with some coordinate strictly inside its band), ``coordinate`` (the
    coordinate ascent moved from its start), ``iid`` (no single coordinate
    move gains on the stationary optimum) or, from
    :func:`solve_iid_constrained`, ``iid-`` and the tag of the reduced
    solve.
    """

    means: np.ndarray
    objective: float
    winner: str
    qp: BoxQP = field(repr=False)

    @property
    def stationarity(self) -> float:
        """Projected-gradient residual (unit step), scored when read; zero at
        an exactly optimal vertex."""
        qp, z = self.qp, self.means.reshape(1, -1)
        return float(_residuals(qp.H, qp.c, qp.lo, qp.hi, z)[0])


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

@lru_cache(maxsize=None)
def _corner_bits(k):
    """Read-only 2^k x k matrix whose row j holds the binary digits of j.

    Row j is vertex j of a k-coordinate box: coordinate i at its upper
    bound when bit i of j is set.  Every caller keeps k <= 16: the vertex
    halves of :func:`_best_vertex` in the exact regime (d <= 20) have at
    most 10 columns, the face budget bounds :func:`_face_points`', and the
    attack table's cap (2^d values per pair product of the state) bounds
    its k = d.  That bounds the cache.
    """
    bits = ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(float)
    bits.flags.writeable = False
    return bits


def _batch_objective(H, c, Z):
    """z'Hz + c'z for every row z of Z."""
    return ((Z @ H) * Z).sum(axis=1) + Z @ c


def _residuals(H, c, lo, hi, Z):
    """Projected-gradient step lengths of the rows of Z."""
    proj = np.clip(Z + (2.0 * Z @ H + c), lo, hi)
    return np.max(np.abs(proj - Z), axis=1)


def _coordinate_ascent(H, c, lo, hi, z):
    """Exact coordinate ascent of z'Hz + c'z over the box from ``z``.

    Returns a new final point and the number of moves made.  Moving z_i by
    s gains s (g_i + H_ii s), with g = 2 H z + c: convex in s where H_ii >=
    0, so the best move goes to a bound, and concave where H_ii < 0, so it
    goes to the clipped stationary point.  Each step makes the move with
    the largest gain and recomputes g from the new point.  The ascent stops
    when no move gains more than the 1e-12 (1 + |value|) tie rule, so its
    point is optimal along each coordinate: the one-flip local search of
    Boros & Hammer 2002.  Such a search can need exponentially many moves
    (Schaeffer & Yannakakis 1991), so ``_MOVES_PER_COORDINATE`` caps it at
    8d products with H, O(d^3) like the gain's inverse; a capped
    search still gains on its start.  The cap is wide: from the iid
    optimum, 440 built QPs with d > 20 (synth-sweep and horizon-check, 20
    seeds) took at most 0.33 d moves, 160 random indefinite QPs 2.2 d.
    """
    h = np.diag(H)
    curvature = np.where(h < 0.0, 2.0 * h, np.inf)  # a peak only if H_ii < 0
    z = np.array(z, dtype=float)
    cap = _MOVES_PER_COORDINATE * z.size
    for moves in range(cap):
        Hz = H @ z
        g, value = 2.0 * Hz + c, float(z @ Hz + c @ z)
        # each coordinate's moves: to either bound, and to its clipped peak
        ends = np.stack((lo, hi, np.clip(z - g / curvature, lo, hi)))
        steps = ends - z
        gains = steps * (g + h * steps)
        k = int(np.argmax(gains))
        if gains.flat[k] <= 1e-12 * (1.0 + abs(value)):
            return z, moves
        z[k % z.size] = ends.flat[k]
    return z, cap


def _face_points(H, c, lo, hi, free):
    """Candidate points of the face whose coordinates ``free`` are interior.

    The other k coordinates take each of their 2^k lo/hi assignments, in
    the order of :func:`_corner_bits`, and z_F solves the stationarity
    condition 2 H_FF z_F = -(c_F + 2 H_FX z_X) given them.  Rows with z_F
    outside the box are dropped, and a singular H_FF gives no rows: a
    maximizer on that face can slide along a null direction of H_FF, where
    the objective is flat, onto a smaller face.
    """
    d = c.size
    fixed = np.setdiff1d(np.arange(d), free)
    X = lo[fixed] + _corner_bits(fixed.size) * (hi[fixed] - lo[fixed])
    rhs = c[free, None] + 2.0 * H[np.ix_(free, fixed)] @ X.T
    try:
        zf = np.linalg.solve(-2.0 * H[np.ix_(free, free)], rhs).T
    except np.linalg.LinAlgError:
        return np.empty((0, d))
    Z = np.empty((X.shape[0], d))
    Z[:, fixed], Z[:, free] = X, zf
    return Z[np.all((zf >= lo[free]) & (zf <= hi[free]), axis=1)]


def _enumerate(H, c, lo, hi, neg):
    """Exact maximizer of z'Hz + c'z over the box, and its tag.

    ``neg`` lists the coordinates with H_ii < 0.  Along any other
    coordinate the objective is convex, so some maximizer has it at a
    bound (Rosenberg's vertex argument, one coordinate at a time).  A
    coordinate of ``neg`` is then at a bound or stationary given the rest,
    so the points of the faces with free sets F within ``neg`` contain a
    maximizer.  The best vertex (F empty) comes from :func:`_best_vertex`;
    the faces with a free coordinate follow in order of size, and the
    first maximizer wins.  It is tagged ``vertex`` when F is empty and
    ``interior`` otherwise; with ``neg`` empty there is no face, and the
    best vertex is returned without scoring it.
    """
    vertex = _best_vertex(H, c, lo, hi)
    if neg.size == 0:
        return vertex, "vertex"
    faces = [
        _face_points(H, c, lo, hi, list(free))
        for size in range(1, neg.size + 1)
        for free in itertools.combinations(neg.tolist(), size)
    ]
    Z = np.concatenate([vertex[None, :], *faces])
    j = int(np.argmax(_batch_objective(H, c, Z)))
    return Z[j].copy(), "vertex" if j == 0 else "interior"


def _best_vertex(H, c, lo, hi):
    """First vertex of the box that maximizes z'Hz + c'z.

    Vertex j sets coordinate i to hi_i when bit i of j is set, as in
    :func:`_corner_bits`.  The coordinates split into a low block of
    l = ceil(d / 2) and a high block of the rest, each with its vertices
    XL and XH, so j = low + 2^l high, and the value of vertex j is
    the low block's self-term, plus the high block's, plus 2 z_H' H_HL z_L.
    Each self-term is computed once over its block's vertices; the cross
    terms are one product per chunk of high vertices, each chunk holding
    at most ``_VALUES_BLOCK`` values, written into one buffer that every
    chunk reuses.  Ties go to the smallest j: the first
    maximum within a chunk, and a later chunk only on a strictly larger
    value.
    """
    l = (c.size + 1) // 2
    XL, XH = (
        a + _corner_bits(a.size) * (b - a)
        for a, b in ((lo[:l], hi[:l]), (lo[l:], hi[l:]))
    )
    sL = _batch_objective(H[:l, :l], c[:l], XL)
    sH = _batch_objective(H[l:, l:], c[l:], XH)
    cross = 2.0 * H[l:, :l] @ XL.T
    rows = _VALUES_BLOCK >> l
    values = np.empty((min(rows, XH.shape[0]), XL.shape[0]))
    best, best_j = -np.inf, 0
    for start in range(0, XH.shape[0], rows):
        np.matmul(XH[start:start + rows], cross, out=values)
        values += sH[start:start + rows, None]
        values += sL
        k = int(np.argmax(values))
        if values.flat[k] > best:
            best, best_j = values.flat[k], (start << l) + k
    return np.concatenate((XL[best_j & ((1 << l) - 1)], XH[best_j >> l]))


@dataclass(frozen=True, eq=False)
class _AttackTable:
    """The exact schedule of every state of one gain and box, tabulated.

    Row 0 of ``points`` is the box's clipped nominal point and row 1 + j
    its vertex j, in the order of :func:`_corner_bits` and
    :func:`_best_vertex`.  ``values[i, p]`` is the coefficient of
    x_a x_b, (a, b) the p-th pair of ``pairs`` (a <= b), in the objective
    of point i at state x, so that objective is the product of the pair
    products x_a x_b with row i.
    """

    points: np.ndarray
    values: np.ndarray
    pairs: tuple
    horizon: int
    m: int

    def schedules(self, X):
        """The (rows, horizon, m) schedules at the rows of the states X.

        Each is the first best vertex, or the nominal point unless that
        vertex beats it (:func:`_beats_nominal`), as the solver picks.
        Each row's scores are one stacked matrix-vector product, so a
        state's schedule does not depend on the other rows of X.
        """
        a, b = self.pairs
        scores = (self.values @ (X[:, a] * X[:, b])[:, :, None])[:, :, 0]
        j = 1 + np.argmax(scores[:, 1:], axis=1)
        vertex, nominal = scores[np.arange(j.size), j], scores[:, 0]
        j[~_beats_nominal(vertex, nominal)] = 0
        return self.points[j].reshape(-1, self.horizon, self.m)


def _attack_table(gain, box):
    """The :class:`_AttackTable` of ``gain`` over ``box``, or None.

    With u = K x and K = -kernel^{-1} ``cross_gram``, the objective of a
    schedule z at state x, f(z; x) = (z o u)' C (z o u) - (z o u)' (load)
    u with C = ``gain.coupling``, is a quadratic form in x.  Column (a, b)
    of the table is the objective of every point under the attack
    quadratic's bilinear form in columns a and b of K for a < b, and
    under its quadratic at K_a for a = b (``attack_iid._quadratic``).
    The table is built only while its 2^d n (n + 1) / 2 vertex values
    stay within ``_TABLE_CAP``, so d <= 16 <= ``_VERTEX_CAP``, and when
    no diagonal entry of C is negative, so H_ii = C_ii u_i^2 >= 0 at
    every state: there the solver is exact and picks between the nominal
    point and the first best vertex, as the table does.  Else the answer
    is None.  Its points and values take about 100 KB at n = 2 and
    d = 10.
    """
    d, n = box.lo.size, gain.ens.n
    pairs = np.triu_indices(n)
    too_big = 2 ** d * pairs[0].size > _TABLE_CAP
    if too_big or np.any(np.diagonal(gain.coupling) < 0.0):
        return None
    K = -gain.solve(gain.ens.cross_gram)
    points = np.vstack(
        (box.start, box.lo + _corner_bits(d) * (box.hi - box.lo))
    )
    columns = []
    for a, b in zip(*pairs):
        H, c = _quadratic(gain, K[:, a], K[:, b] if a != b else None)
        columns.append(_batch_objective(H, c, points))
    values = np.stack(columns, axis=1)
    for array in (points, values):
        array.setflags(write=False)
    return _AttackTable(points, values, pairs, box.horizon, box.m)


def _maximize_box(H, c, lo, hi, nominal, start):
    """Candidate-based maximization of z'Hz + c'z over the box [lo, hi].

    Returns (z, value, winner).  The candidate is the exact maximizer by
    :func:`_enumerate`, when d <= ``_VERTEX_CAP`` and the (3^q - 2^q)
    2^(d-q) points of its faces with a free coordinate (q the number of
    negative diagonal entries of H) number at most ``_FACE_BUDGET``, or
    else the end of the coordinate ascent from ``start``, tagged ``iid``
    when it did not move.  The clipped nominal point ``nominal``, on its
    own copy, wins unless the candidate beats it (:func:`_beats_nominal`).
    """
    d = c.size
    neg = np.flatnonzero(np.diag(H) < 0.0)
    q = neg.size
    if d <= _VERTEX_CAP and (3 ** q - 2 ** q) * 2 ** (d - q) <= _FACE_BUDGET:
        z, tag = _enumerate(H, c, lo, hi, neg)
    else:
        z, moves = _coordinate_ascent(H, c, lo, hi, start)
        tag = "coordinate" if moves else "iid"
    nominal = nominal.copy()
    value, nominal_value = (float(p @ (H @ p) + c @ p) for p in (z, nominal))
    if _beats_nominal(value, nominal_value):
        return z, value, tag
    return nominal, nominal_value, "nominal"


def solve_box_qp_max(
    qp: BoxQP, *, iid: AttackSchedule | None = None
) -> AttackSchedule:
    """Best schedule attack for ``qp``, never below the iid optimum.

    ``iid`` is that optimum when the caller has already solved it with
    :func:`solve_iid_constrained` on the same ``qp``.  The exact regime
    finds a maximizer; beyond it the coordinate ascent climbs from the iid
    point, so an unmoved answer is tagged ``iid``, on a copy of its means.
    """
    if iid is None:
        iid = solve_iid_constrained(qp)
    z, value, winner = _maximize_box(
        qp.H, qp.c, qp.lo, qp.hi, qp.box.start, iid.means.reshape(-1)
    )
    return AttackSchedule(z.reshape(qp.horizon, qp.m), value, winner, qp)


def solve_iid_constrained(qp: BoxQP) -> AttackSchedule:
    """Best schedule constant in time: one rate per channel.

    With z_k = a at every step k, the QP becomes one over the m rates a:
    Hr sums the (N, N) grid of H's m x m step blocks and cr the N step
    blocks of c.  It is solved over the box's own channel bands, from its
    clipped nominal rates, by the same candidate machinery: exactly while
    3^m - 2^m <= ``_FACE_BUDGET`` (2^16), so up to m = 10, since a
    reduced diagonal entry may be negative (udp), and up to m =
    ``_VERTEX_CAP`` when none is.  On a single shared channel this
    reproduces the stationary-rate closed forms: endpoints, plus the
    interior peak when the reduced curvature is negative.
    """
    box, N, m = qp.box, qp.horizon, qp.m
    Hr = qp.H.reshape(N, m, N, m).sum(axis=(0, 2))
    Hr = 0.5 * (Hr + Hr.T)
    cr = qp.c.reshape(N, m).sum(axis=0)
    lo, hi, nominal = box.channel_lo, box.channel_hi, box.start[:m]
    a, _, winner = _maximize_box(Hr, cr, lo, hi, nominal, nominal)
    z = np.tile(a, N)
    means, value = z.reshape(N, m), qp.objective(z)
    return AttackSchedule(means, value, f"iid-{winner}", qp)
