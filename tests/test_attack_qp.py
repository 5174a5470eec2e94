"""Schedule-attack QP: construction, restriction identity, and the solver."""

import dataclasses
import importlib.util
import itertools
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from dropattack import (
    AttackBox,
    AttackSchedule,
    BoxQP,
    DimensionError,
    Protocol,
    attack_context,
    build_prediction_ensemble,
    build_qp,
    control_gain,
    load_experiment,
    optimal_alpha,
    parse_experiment,
    run_episode,
    schedule_objective,
    solve_box_qp_max,
    solve_iid_constrained,
)

from dropattack import attack_iid, attack_qp
from dropattack.attack_iid import _pick

from conftest import (
    best_single_move,
    blockwise_vertex_max,
    milp_vertex_max,
    multistart_ascent_max,
    random_channel,
    random_detection,
    random_model,
    repeat_map_restriction,
    rotation_model,
    shared_channel,
    shared_detection,
    slow_box_max,
    slow_vertex_max,
    tcp_objective,
    udp_objective,
)

from test_attack_iid import DEMO_CONFIGS, make_ctx


def build_for(rng, protocol, **kw):
    ctx, model = make_ctx(rng, protocol, **kw)
    return ctx, build_qp(ctx)


def test_qp_construction_matches_definitions(rng):
    for protocol in Protocol:
        ctx, qp = build_for(rng, protocol)
        u = ctx.u_star
        ens = ctx.ens
        nu = ctx.gain.mean_stack
        if protocol is Protocol.UDP_LIKE:
            coupling = ens.input_gram - np.diag(np.diagonal(ens.input_gram))
            load = (
                np.diag(np.diagonal(ens.input_gram))
                + np.diag(ctx.model.input_penalty)
                + 2.0 * coupling * nu[None, :]
            )
        else:
            coupling = ens.input_gram
            load = (
                np.diag(ctx.model.input_penalty)
                + 2.0 * ens.input_gram * nu[None, :]
            )
        H_want = 0.5 * (coupling * np.outer(u, u) + (coupling * np.outer(u, u)).T)
        c_want = -(u * (load @ u))
        np.testing.assert_allclose(qp.H, H_want, atol=1e-12)
        np.testing.assert_allclose(qp.c, c_want, atol=1e-12)
        np.testing.assert_allclose(qp.H, qp.H.T, atol=0)
        if protocol is Protocol.UDP_LIKE:
            assert np.trace(qp.H) == pytest.approx(0.0, abs=1e-14)
        # per-channel box tiling
        N = ens.horizon
        np.testing.assert_array_equal(qp.lo, np.tile(ctx.box.channel_lo, N))
        np.testing.assert_array_equal(qp.hi, np.tile(ctx.box.channel_hi, N))


def test_constant_schedules_reduce_to_rate_objectives(rng):
    # small version of the acceptance identity: obj(a*1) == f(a) / g(a)
    alphas = np.linspace(0.0, 1.0, 9)
    for protocol, scalar in (
        (Protocol.UDP_LIKE, udp_objective),
        (Protocol.TCP_LIKE, tcp_objective),
    ):
        for _ in range(8):
            ctx, qp = build_for(rng, protocol)
            ones = np.ones(qp.c.size)
            coeffs = ctx.line
            for a in alphas:
                want = scalar(ctx, a)
                got = qp.objective(a * ones)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
                assert coeffs.value(a) == pytest.approx(got, rel=1e-10, abs=1e-10)


def test_schedule_objective_shape_guard(rng):
    _, qp = build_for(rng, Protocol.UDP_LIKE)
    with pytest.raises(DimensionError):
        schedule_objective(qp, np.zeros((qp.horizon + 1, qp.m)))
    z = np.full((qp.horizon, qp.m), 0.5)
    assert schedule_objective(qp, z) == pytest.approx(
        qp.objective(z.reshape(-1))
    )


def hand_qp(H, c, lo, hi, nominal=None, m=1):
    # m channels over d / m steps: lo, hi and nominal are per channel, a
    # scalar for every channel; per-entry bands need m = d
    H = np.asarray(H, float)
    c = np.asarray(c, float)
    lo, hi = np.full(m, lo, dtype=float), np.full(m, hi, dtype=float)
    nominal = 0.5 * (lo + hi) if nominal is None else np.full(m, nominal, float)
    box = AttackBox(lo, hi, nominal, horizon=c.size // m)
    return BoxQP(H=H, c=c, box=box)


def test_box_holds_one_band_per_channel(rng, monkeypatch):
    # the box stores each channel's band once: its step-major arrays repeat
    # the bands over the horizon, so no band can change from step to step
    for m, horizon in ((1, 1), (1, 6), (2, 5), (3, 4)):
        channel, detection = random_channel(rng, m), random_detection(rng, m)
        box = attack_iid._attack_box(channel, detection, horizon)
        lo, hi = detection.bounds(channel)
        mean = channel.mean_diag
        assert (box.m, box.horizon) == (m, horizon)
        np.testing.assert_array_equal(box.channel_nominal, mean)
        for got, want in (
            (box.lo, lo), (box.hi, hi), (box.start, np.clip(mean, lo, hi)),
        ):
            np.testing.assert_array_equal(got, np.tile(want, horizon))
    start = AttackBox([0.2, 0.5], [0.4, 0.6], [0.9, 0.1], horizon=3).start
    np.testing.assert_array_equal(start, np.tile([0.4, 0.5], 3))

    # the iid restriction solves over the same box's channel bands, from
    # its clipped nominal rates
    seen, _ = record_restrictions(monkeypatch)
    model = random_model(rng, m=2, horizon=5)
    _, qp = build_for(rng, Protocol.UDP_LIKE, model=model)
    solve_iid_constrained(qp)
    ((_, _, lo, hi, nominal, start),) = seen
    assert lo is qp.box.channel_lo and hi is qp.box.channel_hi
    for point in (nominal, start):
        np.testing.assert_array_equal(point, qp.box.start[:2])

    lo, hi, nominal = [0.2, 0.4], [0.6, 0.8], [0.5, 0.5]
    AttackBox(lo, hi, nominal, horizon=1)
    bad = [
        ([0.2], hi, nominal, 3),  # unequal lengths
        (lo, hi, [0.5, 0.5, 0.5], 3),
        ([], [], [], 3),  # no channel
        (0.2, 0.6, 0.5, 3),  # not a vector
        ([[0.2], [0.4]], [[0.6], [0.8]], [[0.5], [0.5]], 3),
        ([0.2, np.nan], hi, nominal, 1),  # non-finite, even at one step
        (lo, [0.6, np.inf], nominal, 3),
        (lo, hi, [np.nan, 0.5], 2),
        (hi, lo, nominal, 3),  # lo > hi
        (lo, hi, nominal, 0),  # no step
        (lo, hi, nominal, -1),
        (lo, hi, nominal, 2.0),
    ]
    for args in bad:
        with pytest.raises(DimensionError):
            AttackBox(*args)

    # a QP's H and c must fit its box
    H, c = np.eye(3), np.ones(3)
    with pytest.raises(DimensionError):
        hand_qp(np.eye(2), c, 0.0, 1.0)
    with pytest.raises(DimensionError):
        hand_qp(H, np.ones(4), 0.0, 1.0, m=3)
    # per-entry bands are one block when every entry is its own channel
    qp = hand_qp(H, c, [0.0, 0.5, 0.2], [1.2, 0.6, 0.4], m=3)
    assert solve_iid_constrained(qp).means.shape == (1, 3)


def test_box_qp_needs_a_symmetric_h():
    # every kernel reads H as symmetric (the 2 H_HL cross term, the 2 H_FF
    # face system, the gradient 2 H z + c), so an asymmetric H would get a
    # wrong exact answer: z1 z2 over [0, 1]^2 peaks at (1, 1) with 1, but
    # the kernels read [[0, 1], [0, 0]] as the nominal point's 0.25
    with pytest.raises(DimensionError, match="symmetric"):
        hand_qp([[0.0, 1.0], [0.0, 0.0]], [0.0, 0.0], 0.0, 1.0, m=2)
    with pytest.raises(DimensionError, match="symmetric"):
        near = np.nextafter(0.5, 1.0)
        hand_qp([[1.0, 0.5], [near, 1.0]], [0.0, 0.0], 0.0, 1.0, m=2)
    qp = hand_qp([[0.0, 0.5], [0.5, 0.0]], [0.0, 0.0], 0.0, 1.0, m=2)
    sol = solve_box_qp_max(qp)
    np.testing.assert_array_equal(sol.means, [[1.0, 1.0]])
    assert sol.objective == 1.0


def test_box_qp_reads_lists_as_arrays():
    # a list H or c is read as a float array, and a wrong shape is a
    # DimensionError whether it comes as a list or as an array
    box = AttackBox([0.2, 0.3], [0.8, 0.9], [0.5, 0.6], horizon=2)
    H, c = np.eye(4), np.array([1.0, 0.0, 0.0, 0.0])
    want = solve_box_qp_max(BoxQP(H=H, c=c, box=box))
    for H_in, c_in in (
        (H, c.tolist()), (H.tolist(), c), (H.tolist(), [1, 0, 0, 0]),
    ):
        qp = BoxQP(H=H_in, c=c_in, box=box)
        assert isinstance(qp.H, np.ndarray) and isinstance(qp.c, np.ndarray)
        assert qp.H.dtype == qp.c.dtype == np.float64
        sol = solve_box_qp_max(qp)
        np.testing.assert_array_equal(sol.means, want.means)
        assert sol.objective == want.objective
    for H_in, c_in in (
        (H, [1.0, 0.0, 0.0]), (H[:3, :3].tolist(), c), (H, c[:3]),
        (H[:3, :3], c), ([1.0, 0.0, 0.0, 0.0], c), (H, H.tolist()),
    ):
        with pytest.raises(DimensionError, match="4x4 H and length-4 c"):
            BoxQP(H=H_in, c=c_in, box=box)


def test_box_qp_needs_a_finite_h_and_c():
    # an infinite c entry was solved to the nominal point with objective
    # inf, and a NaN one to nan
    for value in (np.inf, -np.inf, np.nan):
        c = np.array([1.0, 0.0, 0.0, 0.0])
        c[1] = value
        with pytest.raises(DimensionError, match="finite"):
            hand_qp(np.eye(4), c, 0.2, 0.8, m=2)
        H = np.eye(4)
        H[2, 2] = value
        with pytest.raises(DimensionError, match="finite"):
            hand_qp(H, np.zeros(4), 0.2, 0.8, m=2)


def test_interior_maximum_found():
    # -(z - 1/2)^2 + 1/4 on [0, 2]: strict interior peak
    qp = hand_qp([[-1.0]], [1.0], 0.0, 2.0, nominal=[1.7])
    sol = solve_box_qp_max(qp)
    assert sol.objective == pytest.approx(0.25, abs=1e-10)
    assert sol.means[0, 0] == pytest.approx(0.5, abs=1e-8)
    assert sol.stationarity <= 1e-8


def test_mixed_vertex_maximum_found():
    # indefinite coupling: the best point is a disagreeing vertex pair
    H = np.array([[0.0, -2.0], [-2.0, 0.0]])
    c = np.array([0.5, 0.5])
    qp = hand_qp(H, c, 0.0, 1.0, nominal=0.5)
    sol = solve_box_qp_max(qp)
    # candidates: (1,0) and (0,1) give 0.5; (1,1) gives -3; interior saddle
    assert sol.objective == pytest.approx(0.5, abs=1e-12)
    assert sorted(sol.means.ravel()) == pytest.approx([0.0, 1.0])


def test_vertex_enumeration_matches_brute_force(rng):
    for _ in range(10):
        d = int(rng.integers(2, 7))
        M = rng.normal(size=(d, d))
        H = 0.5 * (M + M.T)
        c = rng.normal(size=d)
        qp = hand_qp(H, c, 0.0, 1.0)
        sol = solve_box_qp_max(qp)
        best = -np.inf
        for corner in itertools.product((0.0, 1.0), repeat=d):
            best = max(best, qp.objective(np.array(corner)))
        # the enumeration covers every vertex (and face) at this size
        assert sol.objective >= best - 1e-12 * (1.0 + abs(best))


def count_ascents(monkeypatch):
    """Record the start shape of every coordinate ascent."""
    calls = []
    ascend = attack_qp._coordinate_ascent

    def counted(*args):
        calls.append(args[4].shape)
        return ascend(*args)

    monkeypatch.setattr(attack_qp, "_coordinate_ascent", counted)
    return calls


def test_built_qps_up_to_vertex_cap_are_solved_exactly(rng, monkeypatch):
    # every built QP has diag(H) >= 0, so the best vertex is the maximum;
    # neither the schedule solve nor its restriction ascends
    for protocol in Protocol:
        for horizon, m in ((2, 1), (5, 1), (3, 2), (3, 4), (8, 2)):
            model = random_model(rng, m=m, horizon=horizon)
            _, qp = build_for(rng, protocol, model=model)
            assert qp.c.size <= attack_qp._VERTEX_CAP
            assert np.all(np.diag(qp.H) >= 0.0)
            with monkeypatch.context() as patch:
                calls = count_ascents(patch)
                iid = solve_iid_constrained(qp)
                sol = solve_box_qp_max(qp, iid=iid)
            assert calls == []
            best = slow_vertex_max(qp.H, qp.c, qp.lo, qp.hi)
            assert abs(sol.objective - best) <= 1e-12 * abs(best)
            assert sol.winner in ("vertex", "nominal")


def plain_vertex(H, c, lo, hi):
    """Every vertex materialized, in corner order; the first maximum."""
    Z = lo + attack_qp._corner_bits(c.size) * (hi - lo)
    return Z[int(np.argmax(attack_qp._batch_objective(H, c, Z)))]


def twin_qp(rng, d, i, k):
    """Integer QP with interchangeable coordinates i and k.

    Every vertex value is a small integer, so it is exact in any order of
    summation, and the best vertices set exactly one of the twins.
    """
    M = rng.integers(-3, 4, size=(d, d)).astype(float)
    H = M + M.T
    np.fill_diagonal(H, rng.integers(0, 4, size=d))
    c = rng.integers(-3, 4, size=d).astype(float)
    H[k] = H[i]
    H[:, k] = H[:, i]
    H[i, i] = H[k, k] = 0.0
    H[i, k] = H[k, i] = -1000.0
    c[i] = c[k] = 1000.0
    return H, c


def test_best_vertex_is_the_enumerations_vertex(rng):
    # built QPs at every size the plain enumeration reaches, and exact
    # ties, where the first vertex in enumeration order must win
    for protocol in Protocol:
        for horizon, m in ((1, 1), (2, 1), (5, 1), (5, 2), (8, 2)):
            model = random_model(rng, m=m, horizon=horizon)
            _, qp = build_for(rng, protocol, model=model)
            np.testing.assert_array_equal(
                attack_qp._best_vertex(qp.H, qp.c, qp.lo, qp.hi),
                plain_vertex(qp.H, qp.c, qp.lo, qp.hi),
            )
    for d in (1, 2, 5, 10, 16):
        lo = rng.uniform(0.0, 0.5, size=d)
        hi = rng.uniform(0.5, 1.0, size=d)
        H, c = np.zeros((d, d)), np.zeros(d)
        np.testing.assert_array_equal(
            attack_qp._best_vertex(H, c, lo, hi), lo
        )
        np.testing.assert_array_equal(plain_vertex(H, c, lo, hi), lo)
    for d, i, k in ((2, 0, 1), (5, 1, 4), (12, 3, 11), (16, 0, 15)):
        H, c = twin_qp(rng, d, i, k)
        lo, hi = np.zeros(d), np.ones(d)
        z = attack_qp._best_vertex(H, c, lo, hi)
        np.testing.assert_array_equal(z, plain_vertex(H, c, lo, hi))
        assert (z[i], z[k]) == (1.0, 0.0)


def test_best_vertex_keeps_the_first_maximum_across_chunks(rng):
    # above 2^16 vertices the values come in several chunks; a tie with a
    # later chunk keeps the earlier vertex
    d = 20
    lo = rng.uniform(0.0, 0.5, size=d)
    hi = rng.uniform(0.5, 1.0, size=d)
    z = attack_qp._best_vertex(np.zeros((d, d)), np.zeros(d), lo, hi)
    np.testing.assert_array_equal(z, lo)
    d, i, k = 18, 2, 17
    H, c = twin_qp(rng, d, i, k)
    lo, hi = np.zeros(d), np.ones(d)
    _, first = blockwise_vertex_max(H, c, lo, hi)
    z = attack_qp._best_vertex(H, c, lo, hi)
    np.testing.assert_array_equal(z, (first >> np.arange(d)) & 1)
    assert (z[i], z[k]) == (1.0, 0.0)


def test_built_qps_up_to_twenty_are_solved_exactly(rng, monkeypatch):
    # beyond the plain enumeration, the split still finds the best vertex
    for protocol in Protocol:
        for horizon in (9, 10):
            model = random_model(rng, m=2, horizon=horizon)
            _, qp = build_for(rng, protocol, model=model)
            assert qp.c.size <= attack_qp._VERTEX_CAP
            with monkeypatch.context() as patch:
                calls = count_ascents(patch)
                sol = solve_box_qp_max(qp)
            assert calls == []
            assert sol.winner == "vertex"
            best, _ = blockwise_vertex_max(qp.H, qp.c, qp.lo, qp.hi)
            assert abs(sol.objective - best) <= 1e-12 * abs(best)


def test_vertex_solve_at_twenty_stays_small(rng):
    # the 2^20 x 20 vertex matrix alone would take 168 MB
    model = random_model(rng, m=2, horizon=10)
    _, qp = build_for(rng, Protocol.UDP_LIKE, model=model)
    tracemalloc.start()
    try:
        sol = solve_box_qp_max(qp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.winner == "vertex"
    assert peak < 4 * 2 ** 20


def restriction(qp):
    """The QP in one rate per channel, z = R a, with its box."""
    R = np.tile(np.eye(qp.m), (qp.horizon, 1))
    return R.T @ qp.H @ R, R.T @ qp.c, qp.lo[: qp.m], qp.hi[: qp.m]


def test_small_box_qps_are_solved_exactly(rng, monkeypatch):
    # mixed-sign diagonals: a negative entry lets its coordinate peak
    # inside its band, so the maximum can sit on a face, not a vertex
    negative = 0
    for _ in range(60):
        d = int(rng.integers(1, 8))
        M = rng.normal(size=(d, d))
        H = 0.5 * (M + M.T)
        lo = rng.uniform(-1.0, 0.5, size=d)
        hi = lo + rng.uniform(0.05, 1.5, size=d)
        qp = hand_qp(H, rng.normal(size=d), lo, hi, m=d)
        negative += bool(np.any(np.diag(H) < 0.0))
        with monkeypatch.context() as patch:
            calls = count_ascents(patch)
            sol = solve_box_qp_max(qp)
        assert calls == []
        best = slow_box_max(qp.H, qp.c, qp.lo, qp.hi)
        assert abs(sol.objective - best) <= 1e-12 * abs(best)
    # the per-channel restriction of a built udp QP has m variables
    for m in (1, 2, 3):
        for _ in range(8):
            model = random_model(rng, m=m)
            _, qp = build_for(rng, Protocol.UDP_LIKE, model=model)
            Hr, cr, lo, hi = restriction(qp)
            negative += bool(np.any(np.diag(Hr) < 0.0))
            with monkeypatch.context() as patch:
                calls = count_ascents(patch)
                iid = solve_iid_constrained(qp)
            assert calls == []
            best = slow_box_max(Hr, cr, lo, hi)
            assert abs(iid.objective - best) <= 1e-12 * abs(best)
    assert negative >= 20


def free_face_max(H, c, lo, hi, i):
    """Largest z'Hz + c'z with coordinate i stationary, the rest at bounds.

    One corner of the other coordinates at a time, in blocks; z_i solves
    2 H_ii z_i = -(c_i + 2 H_iX z_X) and must lie in its band.
    """
    d = len(c)
    rest = np.delete(np.arange(d), i)
    best = -np.inf
    for start in range(0, 2 ** (d - 1), 2 ** 12):
        j = np.arange(start, start + 2 ** 12)
        Z = np.empty((j.size, d))
        bits = (j[:, None] >> np.arange(d - 1)) & 1
        Z[:, rest] = np.where(bits, hi[rest], lo[rest])
        Z[:, i] = -(c[i] + 2.0 * Z[:, rest] @ H[i, rest]) / (2.0 * H[i, i])
        Z = Z[(Z[:, i] >= lo[i]) & (Z[:, i] <= hi[i])]
        if Z.size:
            values = np.einsum("sd,de,se->s", Z, H, Z) + Z @ c
            best = max(best, float(values.max()))
    return best


def test_one_free_coordinate_at_seventeen_is_solved_exactly(rng, monkeypatch):
    # q = 1 at d = 17: the one face with a free coordinate has exactly
    # 2^16 points, so the enumeration is exact there, without an ascent
    d = 17
    M = rng.normal(size=(d, d))
    H = 0.5 * (M + M.T)
    np.fill_diagonal(H, np.abs(np.diag(H)))
    H[0, 0], H[0, 1:], H[1:, 0] = -40.0, 0.1, 0.1
    c = rng.normal(size=d)
    c[0] = 40.0
    lo, hi = np.zeros(d), np.ones(d)
    qp = hand_qp(H, c, 0.0, 1.0)
    assert (3 - 2) * 2 ** (d - 1) == attack_qp._FACE_BUDGET
    with monkeypatch.context() as patch:
        calls = count_ascents(patch)
        sol = solve_box_qp_max(qp)
    assert calls == []
    vertex, _ = blockwise_vertex_max(H, c, lo, hi)
    face = free_face_max(H, c, lo, hi, 0)
    best = max(vertex, face)
    assert face > vertex
    assert abs(sol.objective - best) <= 1e-12 * abs(best)
    assert sol.winner == "interior"
    assert 0.0 < sol.means[0, 0] < 1.0


def test_schedule_scores_its_residual_when_read(rng, monkeypatch):
    # a solve scores no residual, neither the schedule's nor the iid
    # candidate's; reading stationarity scores one, on the full QP
    model = random_model(rng, m=2, horizon=5)
    _, qp = build_for(rng, Protocol.UDP_LIKE, model=model)
    calls = []
    residuals = attack_qp._residuals

    def counted(*args):
        calls.append(args[0].shape)
        return residuals(*args)

    monkeypatch.setattr(attack_qp, "_residuals", counted)
    sol = solve_box_qp_max(qp)
    assert sol.winner in ("vertex", "nominal")
    assert calls == []
    z = sol.means.reshape(1, -1)
    want = float(residuals(qp.H, qp.c, qp.lo, qp.hi, z)[0])
    assert sol.stationarity == want
    assert calls == [qp.H.shape]


def test_unmoved_iid_start_is_returned_as_iid(rng, monkeypatch):
    # beyond the enumeration budget, an iid optimum that no single move
    # improves comes back as "iid", on a copy of its means, with its
    # residual scored only when read: a linear objective whose iid optimum
    # is the upper vertex, and built QPs whose ascent does not move
    d = 21
    cases = [hand_qp(np.zeros((d, d)), np.ones(d), 0.0, 1.0)]
    for protocol in Protocol:
        for _ in range(4):
            model = random_model(rng, m=2, horizon=20)
            cases.append(build_for(rng, protocol, model=model)[1])
    residuals = attack_qp._residuals
    unmoved = 0
    for qp in cases:
        iid = solve_iid_constrained(qp)
        calls = []

        def counted(*args):
            calls.append(args[0].shape)
            return residuals(*args)

        with monkeypatch.context() as patch:
            patch.setattr(attack_qp, "_residuals", counted)
            sol = solve_box_qp_max(qp, iid=iid)
            assert calls == []
            if sol.winner != "iid":
                assert sol.winner == "coordinate"
                assert sol.objective > iid.objective
                continue
            unmoved += 1
            assert sol.objective == iid.objective
            np.testing.assert_array_equal(sol.means, iid.means)
            assert not np.shares_memory(sol.means, iid.means)
            assert sol.qp is qp and sol.stationarity == iid.stationarity
            assert calls == [qp.H.shape, qp.H.shape]
    assert unmoved >= 2


def test_ascent_runs_once_beyond_the_enumeration_budget(rng, monkeypatch):
    # a built QP beyond the vertex cap, and a hand-built one whose every
    # diagonal entry is negative, so 3^11 - 2^11 face points exceed the
    # budget; their m-channel restrictions are exact
    model = random_model(rng, m=2, horizon=11)
    _, built = build_for(rng, Protocol.TCP_LIKE, model=model)
    assert built.c.size > attack_qp._VERTEX_CAP
    d = 11
    M = rng.normal(size=(d, d))
    H = 0.5 * (M + M.T)
    np.fill_diagonal(H, -np.abs(np.diag(H)) - 0.1)
    hand = hand_qp(H, rng.normal(size=d), 0.0, 1.0)
    assert 3 ** d - 2 ** d > attack_qp._FACE_BUDGET
    for qp in (built, hand):
        with monkeypatch.context() as patch:
            calls = count_ascents(patch)
            iid = solve_iid_constrained(qp)
            sol = solve_box_qp_max(qp, iid=iid)
        assert calls == [(qp.c.size,)]
        assert sol.objective >= iid.objective
        assert sol.winner in ("coordinate", "iid")


def stable_model(rng, m, horizon):
    """A random plant rescaled to spectral radius 0.95, so that its gain
    kernel stays well conditioned over long horizons."""
    model = random_model(rng, m=m, horizon=horizon)
    radius = np.abs(np.linalg.eigvals(model.A)).max()
    return dataclasses.replace(model, A=model.A * (0.95 / radius))


def ascent_cases(rng):
    """Built udp and tcp QPs at d = 22, 40 and 160, and hand-built QPs at
    d = 21, 40 and 160 with negative diagonal entries, once with one band
    over all steps and once as one step of channels with their own bands,
    some of zero width; each hand-built QP also with H = 0."""
    built, hand = [], []
    for protocol in Protocol:
        for m, horizon in ((2, 11), (1, 22), (2, 20), (2, 80)):
            model = stable_model(rng, m, horizon)
            built.append(build_for(rng, protocol, model=model)[1])
    for d in (21, 40, 160):
        M = rng.normal(size=(d, d))
        H = 0.5 * (M + M.T)
        assert np.any(np.diag(H) < 0.0)
        lo = rng.uniform(0.0, 0.5, d)
        hi = lo + rng.uniform(0.0, 0.5, d)
        hi[::5] = lo[::5]
        c = rng.normal(size=d)
        for H in (H, np.zeros((d, d))):
            hand += [hand_qp(H, c, 0.2, 0.7), hand_qp(H, c, lo, hi, m=d)]
    return built, hand


def test_ascent_ends_optimal_along_every_coordinate(rng):
    # from the iid optimum, or on a one-step box, whose iid restriction is
    # the QP itself, from the clipped nominal rates: within the move cap,
    # never below its start, and no single coordinate move gains more than
    # the tie rule
    built, hand = ascent_cases(rng)
    moved = 0
    for qp in built + hand:
        iid = solve_iid_constrained(qp)
        one_step = qp.horizon == 1
        start = qp.box.start if one_step else iid.means.reshape(-1)
        d = start.size
        z, moves = attack_qp._coordinate_ascent(qp.H, qp.c, qp.lo, qp.hi, start)
        moved += moves > 0
        assert moves < attack_qp._MOVES_PER_COORDINATE * d
        assert np.all((qp.lo <= z) & (z <= qp.hi))
        value = qp.objective(z)
        assert value >= qp.objective(start)
        gain = best_single_move(qp.H, qp.c, qp.lo, qp.hi, z)
        assert gain <= 1e-12 * (1.0 + abs(value)), (d, gain, value)
        if one_step:
            np.testing.assert_array_equal(iid.means.reshape(-1), z)
            assert iid.winner == ("iid-coordinate" if moves else "iid-nominal")
        else:
            sol = solve_box_qp_max(qp, iid=iid)
            np.testing.assert_array_equal(sol.means.reshape(-1), z)
            assert sol.winner == ("coordinate" if moves else "iid")
    assert moved >= 10
    # without H, every free coordinate goes to the bound that c favours,
    # one move each
    for qp in (qp for qp in hand if not qp.H.any()):
        z, moves = attack_qp._coordinate_ascent(
            qp.H, qp.c, qp.lo, qp.hi, qp.box.start
        )
        np.testing.assert_array_equal(z, np.where(qp.c > 0.0, qp.hi, qp.lo))
        assert moves == np.count_nonzero(qp.lo < qp.hi)


def test_ascent_is_at_least_the_multistart_ascent(rng):
    # on built QPs beyond the vertex cap, one ascent from the iid optimum
    # never ends below the best of the 32-start projected-gradient ascent
    built, _ = ascent_cases(rng)
    for qp in built:
        sol = solve_box_qp_max(qp)
        best = multistart_ascent_max(qp.H, qp.c, qp.lo, qp.hi, qp.box.start)
        assert sol.objective >= best - 1e-12 * (1.0 + abs(best))


def demo_qp(horizon, protocol):
    """The two-channel demo's QP at its initial state, over ``horizon``."""
    with open(DEMO_CONFIGS / "two_channel_schedule.json") as handle:
        doc = json.load(handle)
    doc["system"]["N"], doc["protocol"] = horizon, protocol
    exp = parse_experiment(doc)
    ens = build_prediction_ensemble(exp.model)
    return attack_context(
        ens, exp.model, exp.channel, exp.detection, exp.protocol,
        exp.model.init_mean,
    ).qp


def test_built_schedules_match_a_milp_optimum(rng):
    # beyond the vertex cap, on built QPs at d = 22 and 40 and on the
    # two-channel demo at N = 11 and 20 as tcp, the schedule's value is
    # the exact optimum of the 0/1 linearization, solved by HiGHS
    cases = []
    for protocol in Protocol:
        for m, horizon in ((2, 11), (1, 22), (2, 20)):
            model = stable_model(rng, m, horizon)
            cases.append(build_for(rng, protocol, model=model)[1])
    cases += [demo_qp(11, "tcp"), demo_qp(20, "tcp")]
    for qp in cases:
        assert qp.c.size > attack_qp._VERTEX_CAP
        best = milp_vertex_max(qp.H, qp.c, qp.lo, qp.hi)
        sol = solve_box_qp_max(qp)
        assert abs(sol.objective - best) <= 1e-12 * (1.0 + abs(best))
    # at N = 20 the schedule beats the iid optimum by 0.0216
    iid = solve_iid_constrained(qp)
    assert sol.winner == "coordinate"
    assert sol.objective - iid.objective == pytest.approx(0.0216, abs=1e-4)


def test_batch_objective_matches_a_per_row_loop(rng):
    # the one batched objective against z @ (H @ z) + c @ z row by row,
    # within 4 ulps of the absolute sum |z|'|H||z| + |c|'|z|: both add the
    # same d^2 + d terms in different orders, and on 40 seeds of these
    # draws they never differed by more than 2 ulps of that sum
    for d in (1, 2, 5, 10, 16, 20, 160):
        M = rng.normal(size=(d, d))
        H = 0.5 * (M + M.T)
        c = rng.normal(size=d)
        full = 2 ** d <= attack_qp._FACE_BUDGET
        for s in (1, 32) + ((2 ** d,) if full else ()):
            Z = rng.uniform(size=(s, d))
            got = attack_qp._batch_objective(H, c, Z)
            want = np.array([z @ (H @ z) + c @ z for z in Z])
            scale = np.abs(Z) @ np.abs(H) * np.abs(Z)
            scale = scale.sum(axis=1) + np.abs(Z) @ np.abs(c)
            bound = 4.0 * np.spacing(scale)
            assert got.shape == (s,)
            assert np.all(np.abs(got - want) <= bound), (d, s)


def test_solver_beats_coarse_grid_in_eight_dims(rng):
    # spot check beyond the exhaustive-vertex regime of convex problems:
    # indefinite 8-d instance against a 5-point-per-axis grid
    d = 8
    M = rng.normal(size=(d, d))
    H = 0.5 * (M + M.T)
    np.fill_diagonal(H, 0.0)
    c = rng.normal(size=d)
    qp = hand_qp(H, c, 0.0, 1.0)
    sol = solve_box_qp_max(qp)
    axes = [np.linspace(0.0, 1.0, 5)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    vals = np.einsum("ri,ij,rj->r", grid, H, grid) + grid @ c
    assert sol.objective >= vals.max() - 1e-9 * (1.0 + abs(vals.max()))


def test_schedule_never_loses_to_iid(rng):
    for protocol in Protocol:
        for _ in range(10):
            _, qp = build_for(rng, protocol)
            free = solve_box_qp_max(qp)
            tied = solve_iid_constrained(qp)
            assert free.objective >= tied.objective - 1e-9 * (
                1.0 + abs(tied.objective)
            )
            assert np.all(free.means.reshape(-1) >= qp.lo - 1e-12)
            assert np.all(free.means.reshape(-1) <= qp.hi + 1e-12)
            assert isinstance(free, AttackSchedule)


def test_iid_constrained_agrees_with_stationary_closed_forms(rng):
    # single shared channel: the reduced QP is the stationary-attack problem
    for protocol in (Protocol.UDP_LIKE, Protocol.TCP_LIKE):
        for _ in range(8):
            model = random_model(rng, m=1)
            channel = shared_channel(1, mean=float(rng.uniform(0.3, 0.8)))
            detection = shared_detection(1, tol=float(rng.uniform(0.05, 0.2)))
            ctx, qp = build_for(
                rng, protocol, model=model, channel=channel,
                detection=detection,
            )
            char = optimal_alpha(ctx)
            tied = solve_iid_constrained(qp)
            assert tied.objective == pytest.approx(
                char.objective_star, rel=1e-9, abs=1e-12
            )
            np.testing.assert_allclose(
                tied.means, np.full_like(tied.means, char.alpha_star),
                atol=1e-8,
            )


def record_restrictions(monkeypatch):
    """Record the arguments of every box solve; return the record and the
    unpatched solve."""
    seen, maximize = [], attack_qp._maximize_box

    def recorded(*args):
        seen.append(args)
        return maximize(*args)

    monkeypatch.setattr(attack_qp, "_maximize_box", recorded)
    return seen, maximize


def assert_restriction_is_the_repeat_map(qp, seen, maximize):
    """``solve_iid_constrained(qp)`` solves as the repeat map's R'HR does.

    Its (Hr, cr) must be the oracle's within 1e-13 relative, and its means
    and winner the oracle restriction's, solved over the same bands;
    returns that winner.
    """
    seen.clear()
    sol = solve_iid_constrained(qp)
    ((Hr, cr, *_),) = seen
    for got, want in zip((Hr, cr), repeat_map_restriction(qp)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    box, nominal = qp.box, qp.box.start[: qp.m]
    a, _, winner = maximize(
        *repeat_map_restriction(qp), box.channel_lo, box.channel_hi,
        nominal, nominal,
    )
    np.testing.assert_array_equal(sol.means, np.tile(a, (qp.horizon, 1)))
    assert sol.winner == f"iid-{winner}"
    return winner


@pytest.mark.parametrize(
    "workload", ["synth-sweep", "horizon-check", "receding-attack"]
)
def test_iid_restriction_is_the_repeat_map_on_the_workloads(
    tmp_path, rng, monkeypatch, workload
):
    # every built QP of the workload's experiments, at the initial mean
    # and at 20 random states: summing H's step blocks restricts it to the
    # constant schedules as R'HR does
    seen, maximize = record_restrictions(monkeypatch)
    count = 0
    for exp in workload_experiments(tmp_path, workload, "FULL"):
        model = exp.model
        ens = build_prediction_ensemble(model)
        gain = control_gain(ens, model, exp.channel.mean_diag, exp.protocol)
        scales = rng.uniform(0.1, 3.0, size=(20, 1))
        for x in (model.init_mean, *rng.normal(size=(20, model.n)) * scales):
            ctx = attack_context(
                ens, model, exp.channel, exp.detection, exp.protocol, x, gain
            )
            assert_restriction_is_the_repeat_map(ctx.qp, seen, maximize)
            count += 1
    assert count == 21 * {
        "synth-sweep": 50, "horizon-check": 8, "receding-attack": 16
    }[workload]


def test_iid_restriction_is_the_repeat_map_on_hand_built_qps(
    rng, monkeypatch
):
    # integer H and c, so both restrictions are exact; negative diagonal
    # entries of the reduced H make its faces run
    seen, maximize = record_restrictions(monkeypatch)
    winners = []
    for _ in range(60):
        m, horizon = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        d = m * horizon
        M = rng.integers(-4, 5, size=(d, d)).astype(float)
        c = rng.integers(-6, 7, size=d).astype(float)
        lo = rng.uniform(0.0, 0.5, size=m)
        hi = lo + rng.uniform(0.1, 1.0, size=m)
        box = AttackBox(lo, hi, rng.uniform(0.0, 1.0, size=m), horizon)
        qp = BoxQP(H=M + M.T, c=c, box=box)
        winners.append(assert_restriction_is_the_repeat_map(qp, seen, maximize))
    assert "interior" in winners and "vertex" in winners


def test_iid_restriction_builds_no_box(rng, monkeypatch):
    # the restriction solves over the schedule's own box: no AttackBox is
    # constructed, for the restriction or for the schedule solve after it
    model = random_model(rng, m=2, horizon=5)
    _, qp = build_for(rng, Protocol.UDP_LIKE, model=model)
    built, init = [], AttackBox.__post_init__

    def counted(box):
        built.append(box)
        init(box)

    monkeypatch.setattr(AttackBox, "__post_init__", counted)
    solve_box_qp_max(qp, iid=solve_iid_constrained(qp))
    assert built == []


def test_zero_state_ties_to_nominal(rng):
    model = random_model(rng)
    ctx, qp = build_for(
        rng, Protocol.UDP_LIKE, model=model, x=np.zeros(model.n)
    )
    sol = solve_box_qp_max(qp)
    assert sol.objective == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(
        sol.means.reshape(-1), ctx.gain.mean_stack, atol=1e-12
    )


def test_nominal_tie_rule_is_the_two_candidate_pick():
    # the solver and the attack table keep the clipped nominal point unless
    # the other point beats it beyond 1e-12 (1 + |best|): _pick's answer on
    # the two candidates, the nominal point first and closest to the
    # nominal rates, at an exact tie, at and around +-tol, and at zero and
    # negative values
    start, other = np.array([0.5, 0.5]), np.array([1.0, 0.0])
    pairs = []
    for nominal in (0.0, -0.0, 1.0, -1.0, -2.5e-3, 3.7e5, -3.7e5):
        tol = 1e-12 * (1.0 + abs(nominal))
        for delta in (0.0, 0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
            pairs.append((nominal, nominal + delta * tol))
        # on either side of the value that first beats the nominal one
        edge = nominal + tol
        pairs += [(nominal, np.nextafter(edge, up)) for up in (-1e9, 1e9)]
    beats = [bool(attack_qp._beats_nominal(b, a)) for a, b in pairs]
    for (a, b), won in zip(pairs, beats):
        candidates = [(start, a, "nominal"), (other, b, "other")]
        assert won == (_pick(candidates, start)[2] == "other"), (a, b)
    assert any(beats) and not all(beats)
    assert not any(beats[i] for i, (a, b) in enumerate(pairs) if a == b)
    values, nominals = np.array(pairs)[:, 1], np.array(pairs)[:, 0]
    assert attack_qp._beats_nominal(values, nominals).tolist() == beats


def test_multistart_determinism(rng):
    _, qp = build_for(rng, Protocol.UDP_LIKE)
    a = solve_box_qp_max(qp)
    b = solve_box_qp_max(qp)
    np.testing.assert_array_equal(a.means, b.means)
    assert a.objective == b.objective and a.winner == b.winner


def fresh_qp(ctx):
    """The context's QP with every state-free part built anew.

    H and c follow the definitions from the ensemble, the model's penalty
    and the gain's means and paid variance, and the box is a new one.
    """
    ens, gain, u = ctx.ens, ctx.gain, ctx.u_star
    paid = np.diag(gain.paid_variance)
    coupling = ens.input_gram - paid
    load = paid + np.diag(ctx.model.input_penalty)
    load = load + 2.0 * coupling * gain.mean_stack[None, :]
    H = coupling * np.outer(u, u)
    H = 0.5 * (H + H.T)
    bands = (ctx.box.channel_lo, ctx.box.channel_hi, ctx.box.channel_nominal)
    box = AttackBox(*(band.copy() for band in bands), horizon=ens.horizon)
    return BoxQP(H=H, c=-(u * (load @ u)), box=box)


def assert_same_schedule(got, want):
    np.testing.assert_array_equal(got.means, want.means)
    assert (got.objective, got.winner, got.stationarity) == (
        want.objective, want.winner, want.stationarity
    )


@pytest.mark.parametrize("protocol", list(Protocol))
def test_shared_parts_solve_bitwise_as_fresh_ones(rng, protocol):
    # the states of one operation share the gain's coupling and load;
    # every solve must be bitwise the solve of a QP whose parts are all
    # built for it alone
    for horizon, m, states in (
        (1, 1, 40), (2, 1, 40), (5, 1, 40), (5, 2, 40), (8, 2, 12), (10, 2, 3)
    ):
        model = random_model(rng, m=m, horizon=horizon)
        ens = build_prediction_ensemble(model)
        channel = random_channel(rng, m)
        detection = random_detection(rng, m)
        gain = control_gain(ens, model, channel.mean_diag, protocol)
        for _ in range(states):
            x = rng.normal(size=model.n) * rng.uniform(0.1, 3.0)
            ctx = attack_context(
                ens, model, channel, detection, protocol, x, gain
            )
            qp, fresh = ctx.qp, fresh_qp(ctx)
            np.testing.assert_array_equal(qp.H, fresh.H)
            np.testing.assert_array_equal(qp.c, fresh.c)
            assert_same_schedule(
                solve_iid_constrained(qp), solve_iid_constrained(fresh)
            )
            assert_same_schedule(solve_box_qp_max(qp), solve_box_qp_max(fresh))


def test_shared_parts_are_read_only(rng):
    model = random_model(rng, m=2, horizon=5)
    ctx, qp = build_for(rng, Protocol.UDP_LIKE, model=model)
    solve_box_qp_max(qp)
    box, gain = qp.box, ctx.gain
    shared = [
        gain.kernel, gain.mean_stack, gain.paid_variance, gain.coupling,
        gain.load, box.channel_lo, box.channel_hi, box.channel_nominal,
        box.lo, box.hi, box.start,
    ]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.5
    # a nominal winner is the caller's own array, not the shared start
    ctx, qp = build_for(rng, Protocol.UDP_LIKE, model=model, x=np.zeros(model.n))
    for sol in (solve_box_qp_max(qp), solve_iid_constrained(qp)):
        assert sol.winner in ("nominal", "iid-nominal")
        assert sol.means.flags.writeable
        assert not np.shares_memory(sol.means, qp.box.start)


def test_schedules_are_homogeneous_in_the_state(rng):
    # u = K x is linear in x and H, c are quadratic in u, so f(z; s x) =
    # s^2 f(z; x) for every schedule z: the maximizers at x and s x are
    # one point, or tie, and the optimum scales by s^2.  The attack table
    # rests on this.
    signs = rng.choice([-1.0, 1.0], size=4)
    scales = (0.01, -0.01, 100.0, -100.0, -1.0) + tuple(
        signs * np.exp(rng.uniform(np.log(0.01), np.log(100.0), 4))
    )
    for _ in range(10):
        model = random_model(rng, horizon=int(rng.integers(1, 4)))
        ens = build_prediction_ensemble(model)
        channel = random_channel(rng, model.m)
        detection = random_detection(rng, model.m)
        x = rng.normal(size=model.n)
        for protocol in Protocol:
            gain = control_gain(ens, model, channel.mean_diag, protocol)

            def qp_at(state):
                return attack_context(
                    ens, model, channel, detection, protocol, state, gain
                ).qp

            base = qp_at(x)
            for s in scales:
                qp = qp_at(s * x)
                for solve in (solve_box_qp_max, solve_iid_constrained):
                    want, got = solve(base), solve(qp)
                    assert got.objective == pytest.approx(
                        s * s * want.objective, rel=1e-12, abs=0.0
                    )
                    if not np.array_equal(got.means, want.means):
                        other = schedule_objective(qp, want.means)
                        tol = 1e-12 * (1.0 + abs(got.objective))
                        assert abs(got.objective - other) <= tol


def table_and_solver(model, channel, detection, protocol):
    """The attack table of a fresh gain, and the solver's schedule at x."""
    ens = build_prediction_ensemble(model)
    gain = control_gain(ens, model, channel.mean_diag, protocol)
    box = attack_context(
        ens, model, channel, detection, protocol, model.init_mean, gain
    ).box
    table = attack_qp._attack_table(gain, box)

    def solved(x):
        return solve_box_qp_max(
            attack_context(ens, model, channel, detection, protocol, x, gain).qp
        )

    return table, solved


def assert_table_is_the_solver(table, solved, states):
    """Each state's table schedule is the solver's, or ties with it by the
    solver's 1e-12 (1 + |value|) rule; returns how many were equal."""
    equal = 0
    for x, got in zip(states, table.schedules(np.asarray(states))):
        sol = solved(x)
        if np.array_equal(got, sol.means):
            equal += 1
            continue
        value = schedule_objective(sol.qp, got)
        assert abs(value - sol.objective) <= 1e-12 * (1.0 + abs(sol.objective))
    return equal


def workload_experiments(tmp_path, workload, sizes):
    """Every experiment of one benchmark workload at seed 101."""
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.build(
        workload, 101, str(tmp_path / workload), str(root),
        getattr(workloads, sizes),
    )
    return [load_experiment(op["config"]) for op in ops]


def receding_workload_states(tmp_path, sizes):
    """Every experiment of the benchmark's receding-attack workload at seed
    101, with each state at which its episodes synthesize."""
    for exp in workload_experiments(tmp_path, "receding-attack", sizes):
        states = [
            run_episode(exp, r).states[exp.plan.onset : exp.T]
            for r in range(exp.realizations)
        ]
        yield exp, np.concatenate(states)


@pytest.mark.parametrize("sizes", ["QUICK", "FULL"])
def test_attack_table_is_the_solver_on_the_receding_workload(tmp_path, sizes):
    # every per-step state of the benchmark's receding-attack workload, on
    # its own protocol and on the other one
    count = equal = 0
    for exp, states in receding_workload_states(tmp_path, sizes):
        for protocol in Protocol:
            table, solved = table_and_solver(
                exp.model, exp.channel, exp.detection, protocol
            )
            equal += assert_table_is_the_solver(table, solved, states)
            count += len(states)
    assert count == {"QUICK": 2 * 2 * 5, "FULL": 16 * 2 * 15}[sizes]
    assert equal == count  # no tie was needed on these states


def test_attack_table_is_the_solver_on_random_qps(rng):
    # random plants, channels and bands up to d = 12 on both protocols, at
    # random states over four decades and at x = 0, where every point
    # scores 0 and the nominal point wins the tie
    for _ in range(16):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 12 // m + 1))
        model = (
            rotation_model(rng, horizon=horizon)
            if n == 2 and m == 2 else random_model(rng, n, m, horizon)
        )
        channel = random_channel(rng, model.m)
        detection = random_detection(rng, model.m)
        scales = np.exp(rng.uniform(np.log(0.01), np.log(100.0), (24, 1)))
        states = rng.normal(size=(24, model.n)) * scales
        states[0] = 0.0
        for protocol in Protocol:
            table, solved = table_and_solver(
                model, channel, detection, protocol
            )
            assert table is not None
            assert_table_is_the_solver(table, solved, states)
            np.testing.assert_array_equal(
                table.schedules(states[:1])[0].reshape(-1), table.points[0]
            )


def test_attack_table_stays_within_its_cap(rng):
    # 2^d n (n + 1) / 2 vertex values: one state (one pair product) at
    # d = 16 fits the cap, two states (three) fit up to d = 14, not d = 16
    for n, m, horizon, built in (
        (1, 2, 8, True), (1, 1, 17, False), (2, 2, 7, True), (2, 2, 8, False),
    ):
        model = random_model(rng, n, m, horizon)
        channel = random_channel(rng, m)
        detection = random_detection(rng, m)
        d, pairs = m * horizon, n * (n + 1) // 2
        assert (2 ** d * pairs <= attack_qp._TABLE_CAP) == built
        for protocol in Protocol:
            table, solved = table_and_solver(
                model, channel, detection, protocol
            )
            assert (table is not None) == built
            if built:
                assert table.values.shape == (2 ** d + 1, pairs)
                states = rng.normal(size=(3, n))
                assert_table_is_the_solver(table, solved, states)
