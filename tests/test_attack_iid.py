"""Stationary attack rates: objective shapes and closed-form optimizers."""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from dropattack import (
    ChannelSpec,
    Convexity,
    DetectionSpec,
    DimensionError,
    InfeasibleRegionError,
    Protocol,
    attack_context,
    build_prediction_ensemble,
    build_qp,
    build_qp_tcp,
    build_qp_udp,
    control_gain,
    empirical_increases,
    flooding_condition,
    horizon_cost_samples,
    load_experiment,
    optimal_alpha,
    optimal_alpha_tcp,
    optimal_alpha_udp,
    optimal_input_sequence,
    parse_experiment,
)

from conftest import (
    grid_argmax,
    make_model,
    memoryless_model,
    random_channel,
    random_detection,
    random_model,
    shared_channel,
    shared_detection,
    tcp_objective,
    udp_objective,
)

DEMO_CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "configs"


def make_ctx(rng, protocol, model=None, channel=None, detection=None, x=None):
    if model is None:
        model = random_model(rng)
    ens = build_prediction_ensemble(model)
    if channel is None:
        channel = random_channel(rng, model.m)
    if detection is None:
        detection = random_detection(rng, model.m)
    if x is None:
        x = rng.normal(size=model.n)
    return attack_context(ens, model, channel, detection, protocol, x), model


def test_coeffs_reproduce_objective_on_grid(rng):
    alphas = np.linspace(0.0, 1.0, 21)
    for _ in range(12):
        ctx, _ = make_ctx(rng, Protocol.UDP_LIKE)
        coeffs = ctx.line
        for a in alphas:
            assert coeffs.value(a) == pytest.approx(
                udp_objective(ctx, a), rel=1e-10, abs=1e-10
            )
        ctx, _ = make_ctx(rng, Protocol.TCP_LIKE)
        coeffs = ctx.line
        for a in alphas:
            assert coeffs.value(a) == pytest.approx(
                tcp_objective(ctx, a), rel=1e-10, abs=1e-10
            )


def test_slope_at_nominal_rate(rng):
    # shared channels: udp slope is -u'(P + D_in)u, tcp slope is -u'Pu
    for _ in range(10):
        model = random_model(rng)
        channel = shared_channel(model.m, mean=rng.uniform(0.3, 0.8))
        mu = float(channel.mean_diag[0])
        ctx, _ = make_ctx(rng, Protocol.UDP_LIKE, model=model, channel=channel)
        u = ctx.u_star
        gram_diag = np.diagonal(ctx.ens.input_gram)
        want = -(u @ (model.input_penalty @ u) + u @ (gram_diag * u))
        line = ctx.line
        slope = line.linear + 2.0 * line.curvature * mu
        assert slope == pytest.approx(want, rel=1e-9)

        ctx, _ = make_ctx(rng, Protocol.TCP_LIKE, model=model, channel=channel)
        u = ctx.u_star
        want = -u @ (model.input_penalty @ u)
        line = ctx.line
        slope = line.linear + 2.0 * line.curvature * mu
        assert slope == pytest.approx(want, rel=1e-9)


def test_tcp_trough_exceeds_nominal(rng):
    # negative slope at the nominal rate pushes the minimizer strictly above
    for _ in range(10):
        model = random_model(rng)
        channel = shared_channel(model.m, mean=rng.uniform(0.3, 0.8))
        ctx, _ = make_ctx(rng, Protocol.TCP_LIKE, model=model, channel=channel)
        if float(ctx.u_star @ ctx.u_star) < 1e-12:
            continue
        assert ctx.line.stationary > float(channel.mean_diag[0])


def test_udp_peak_lies_below_half_under_equal_means(rng):
    # the bound in ObjectiveQuadratic.stationary: with equal nominal means
    # mu, a concave udp line peaks below mu - 1/2, outside every band
    concave = 0
    for _ in range(1000):
        model = random_model(rng)
        mu = rng.uniform(0.25, 0.85)
        channel = shared_channel(model.m, mu)
        ctx, _ = make_ctx(rng, Protocol.UDP_LIKE, model=model, channel=channel)
        line = ctx.line
        if line.convexity is Convexity.CONCAVE:
            concave += 1
            assert line.stationary < mu - 0.5
    assert concave >= 20


def peak_doc():
    """A udp experiment whose stationary optimum is the interior peak.

    One channel with mu = 0.85 and tolerance 1, so the band is [0, 1] and
    its lower edge lies below mu - 1/2, where a concave udp line peaks.
    """
    return {
        "system": {
            "A": [[-0.36, -0.74], [-0.66, 1.93]],
            "B": [[0.84], [-1.08]],
            "Sigma_W": [0.01, 0.01],
            "Sigma_X": [0.01, 0.01],
            "X_bar": [0.59, 0.15],
            "Q_diag": [1.0, 1.0],
            "Omega_diag": [2.69, 1.62],
            "Psi_diag": [0.095],
            "N": 3,
        },
        "channel": {"M_diag": [0.85], "L_diag": [1.0]},
        "protocol": "udp",
        "simulation": {"T": 50, "R": 10, "seed": 101},
    }


def test_udp_peak_inside_a_wide_band_is_the_optimum():
    # the interior-peak candidate of optimal_alpha is reachable: the band
    # reaches below mu - 1/2, the line is concave and peaks inside it
    exp = parse_experiment(peak_doc())
    model = exp.model
    ctx = attack_context(
        build_prediction_ensemble(model), model, exp.channel, exp.detection,
        exp.protocol, model.init_mean,
    )
    char = optimal_alpha(ctx)
    assert ctx.region == (0.0, 1.0)
    assert char.convexity is Convexity.CONCAVE
    assert 0.0 < char.alpha_peak < 0.85 - 0.5
    assert char.alpha_star == char.alpha_peak
    assert len(char.candidates) == 3
    assert char.candidates[2] == (char.alpha_peak, char.objective_star)
    assert char.objective_star > max(value for _, value in char.candidates[:2])
    alphas = np.linspace(0.0, 1.0, 2001)
    grid = max(udp_objective(ctx, a) for a in alphas)
    assert char.objective_star >= grid - 1e-12
    assert char.objective_star == pytest.approx(grid, rel=1e-5)


def test_scalar_tcp_trough_by_hand():
    model = make_model([[1.0]], [[1.0]], horizon=1)
    ens = build_prediction_ensemble(model)
    channel = ChannelSpec(mean_diag=np.array([0.5]))
    det = DetectionSpec(tol_diag=np.array([0.2]))
    ctx = attack_context(
        ens, model, channel, det, Protocol.TCP_LIKE, np.array([1.0])
    )
    # objective -a u^2 (2 - a) has its trough exactly at rate 1
    assert ctx.line.stationary == pytest.approx(1.0, abs=1e-12)
    coeffs = ctx.line
    u2 = (2.0 / 3.0) ** 2
    assert coeffs.curvature == pytest.approx(u2, rel=1e-12)
    assert coeffs.linear == pytest.approx(-2.0 * u2, rel=1e-12)


def test_udp_optimizer_matches_grid(rng):
    hits = 0
    while hits < 10:
        ctx, _ = make_ctx(rng, Protocol.UDP_LIKE)
        if ctx.region is None:
            continue
        hits += 1
        char = optimal_alpha(ctx)
        lo, hi = ctx.region
        a_grid, v_grid = grid_argmax(lambda a: udp_objective(ctx, a), lo, hi)
        assert char.objective_star >= v_grid - 1e-9 * (1.0 + abs(v_grid))
        assert abs(char.alpha_star - a_grid) <= 1e-4 or char.objective_star == pytest.approx(v_grid, abs=1e-8)
        assert lo <= char.alpha_star <= hi


def test_tcp_optimizer_is_endpoint(rng):
    hits = 0
    while hits < 10:
        ctx, _ = make_ctx(rng, Protocol.TCP_LIKE)
        if ctx.region is None:
            continue
        hits += 1
        char = optimal_alpha(ctx)
        lo, hi = ctx.region
        if not char.degenerate:
            assert char.alpha_star in (lo, hi)
        a_grid, v_grid = grid_argmax(lambda a: tcp_objective(ctx, a), lo, hi)
        assert char.objective_star >= v_grid - 1e-9 * (1.0 + abs(v_grid))


def test_memoryless_plant_is_exactly_linear(rng):
    # A = 0 kills the cross Gramian: u* = 0, so the flat case is also
    # degenerate and answered with the nominal rate
    model = memoryless_model(rng, n=3)
    channel = shared_channel(3, mean=0.6)
    ctx, _ = make_ctx(
        rng, Protocol.UDP_LIKE, model=model, channel=channel,
        detection=shared_detection(3, tol=0.15),
    )
    coeffs = ctx.line
    assert coeffs.curvature == 0.0  # off-diagonal coupling identically absent
    char = optimal_alpha(ctx)
    assert char.convexity is Convexity.LINEAR
    assert char.degenerate and char.alpha_star == pytest.approx(0.6)
    assert ctx.line.stationary is None


def test_single_step_single_input_is_linear_with_signal(rng):
    # one stacked input: no off-diagonal terms at all, yet u* != 0, so the
    # objective is genuinely linear and the optimum sits at an endpoint
    for _ in range(5):
        model = random_model(rng, n=2, m=1, horizon=1)
        channel = shared_channel(1, mean=0.5)
        ctx, _ = make_ctx(
            rng, Protocol.UDP_LIKE, model=model, channel=channel,
            detection=shared_detection(1, tol=0.2),
            x=np.array([1.0, -2.0]),
        )
        coeffs = ctx.line
        assert coeffs.curvature == 0.0
        assert coeffs.linear < 0  # slope -u'(P + D_in)u
        char = optimal_alpha(ctx)
        assert char.convexity is Convexity.LINEAR
        assert not char.degenerate
        assert char.alpha_star == ctx.region[0]


def test_zero_state_is_degenerate(rng):
    for protocol in (Protocol.UDP_LIKE, Protocol.TCP_LIKE):
        model = random_model(rng)
        channel = shared_channel(model.m, mean=0.55)
        ctx, _ = make_ctx(
            rng, protocol, model=model, channel=channel,
            detection=shared_detection(model.m, tol=0.2),
            x=np.zeros(model.n),
        )
        char = optimal_alpha(ctx)
        assert char.degenerate
        assert char.alpha_star == pytest.approx(0.55)
        assert char.objective_star == pytest.approx(0.0, abs=1e-15)


def test_disjoint_bands_have_no_common_rate(rng):
    model = random_model(rng, m=2)
    channel = ChannelSpec(mean_diag=np.array([0.2, 0.9]))
    det = DetectionSpec(tol_diag=np.array([0.05, 0.05]))
    ctx, _ = make_ctx(
        rng, Protocol.UDP_LIKE, model=model, channel=channel, detection=det
    )
    assert ctx.region is None
    with pytest.raises(InfeasibleRegionError):
        ctx.require_region()
    with pytest.raises(InfeasibleRegionError):
        optimal_alpha(ctx)
    # per-channel bounds survive for schedule attacks
    np.testing.assert_allclose(ctx.box.channel_lo, [0.15, 0.85])
    np.testing.assert_allclose(ctx.box.channel_hi, [0.25, 0.95])


def test_protocol_mismatch_is_rejected(rng):
    # the protocol-specific entry points refuse the other protocol's context
    # and answer their own protocol's as the protocol-free ones do; the
    # shared band gives the scalar search a region
    model = random_model(rng)
    band = dict(
        model=model, channel=shared_channel(model.m),
        detection=shared_detection(model.m),
    )
    tcp_ctx, _ = make_ctx(rng, Protocol.TCP_LIKE, **band)
    for entry in (optimal_alpha_udp, build_qp_udp):
        with pytest.raises(DimensionError):
            entry(tcp_ctx)
    udp_ctx, _ = make_ctx(rng, Protocol.UDP_LIKE, **band)
    for entry in (optimal_alpha_tcp, build_qp_tcp):
        with pytest.raises(DimensionError):
            entry(udp_ctx)
    for ctx, qp_entry, alpha_entry in (
        (udp_ctx, build_qp_udp, optimal_alpha_udp),
        (tcp_ctx, build_qp_tcp, optimal_alpha_tcp),
    ):
        got, want = qp_entry(ctx), build_qp(ctx)
        for part in ("H", "c", "lo", "hi"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
        assert got.box is want.box
        assert alpha_entry(ctx) == optimal_alpha(ctx)


def test_gain_for_another_law_is_rejected():
    # the gain carries the quadratic's coupling and load, which read its
    # protocol and its nominal means: a gain built for other means or the
    # other protocol would put them into every state's QP
    exp = load_experiment(DEMO_CONFIGS / "two_channel_schedule.json")
    model, channel, detection = exp.model, exp.channel, exp.detection
    ens = build_prediction_ensemble(model)
    x = model.init_mean
    udp, tcp = Protocol.UDP_LIKE, Protocol.TCP_LIKE
    for means, protocol in (([0.3, 0.3], udp), (channel.mean_diag, tcp)):
        gain = control_gain(ens, model, np.array(means), protocol)
        with pytest.raises(DimensionError, match="gain was built for"):
            attack_context(ens, model, channel, detection, udp, x, gain)
    gain = control_gain(ens, model, channel.mean_diag, udp)
    ctx = attack_context(ens, model, channel, detection, udp, x, gain)
    fresh = attack_context(ens, model, channel, detection, udp, x)
    np.testing.assert_array_equal(build_qp(ctx).c, build_qp(fresh).c)


def test_gain_from_another_ensemble_is_rejected():
    # the same channel law on another plant: model A's gain would plan
    # model B's sequence from A's kernel (qp.c[0] -0.0553 instead of
    # -0.1893 on this demo) and roll B's horizon out under it
    exp = load_experiment(DEMO_CONFIGS / "two_channel_schedule.json")
    model_a, channel, detection = exp.model, exp.channel, exp.detection
    model_b = replace(model_a, A=np.array([[0.5, 0.0], [0.0, 0.2]]))
    ens_a = build_prediction_ensemble(model_a)
    ens_b = build_prediction_ensemble(model_b)
    protocol, x = exp.protocol, model_a.init_mean
    gain_a = control_gain(ens_a, model_a, channel.mean_diag, protocol)
    match = "gain was built from another prediction ensemble"
    with pytest.raises(DimensionError, match=match):
        attack_context(ens_b, model_b, channel, detection, protocol, x, gain_a)
    rollouts = ((empirical_increases, [0.5]), (horizon_cost_samples, 0.5))
    for rollout, law in rollouts:
        with pytest.raises(DimensionError, match=match):
            rollout(ens_b, model_b, gain_a, x, law, 10)
    # an equal ensemble built anew is another ensemble too
    with pytest.raises(DimensionError, match=match):
        optimal_input_sequence(gain_a, build_prediction_ensemble(model_a), x)
    gain_b = control_gain(ens_b, model_b, channel.mean_diag, protocol)
    ctx = attack_context(ens_b, model_b, channel, detection, protocol, x, gain_b)
    assert build_qp(ctx).c[0] == pytest.approx(-0.1893, abs=5e-5)


def test_gain_of_another_horizon_names_its_ensemble():
    # the demo's N = 5 gain with an N = 3 ensemble of the same plant: its
    # mean stack is longer than the box's, but the cause is the ensemble
    path = DEMO_CONFIGS / "two_channel_schedule.json"
    exp = load_experiment(path)
    model, channel, detection = exp.model, exp.channel, exp.detection
    doc = json.loads(path.read_text())
    doc["system"]["N"] = 3
    short = parse_experiment(doc).model
    ens, ens_short = (build_prediction_ensemble(m) for m in (model, short))
    gain = control_gain(ens, model, channel.mean_diag, exp.protocol)
    assert gain.mean_stack.size != channel.m * short.horizon
    with pytest.raises(
        DimensionError, match="gain was built from another prediction ensemble"
    ):
        attack_context(
            ens_short, short, channel, detection, exp.protocol,
            model.init_mean, gain,
        )


def test_perfect_channel_report(rng):
    # weak input penalty on an unstable plant: full delivery hurts
    model = make_model(
        [[1.4, 0.3], [0.0, 1.2]], np.eye(2), horizon=4,
        psi=[0.01, 0.01], omega=[1.0, 1.0],
    )
    ens = build_prediction_ensemble(model)
    channel = shared_channel(2, mean=0.05)
    det = shared_detection(2, tol=0.3)
    x = np.array([1.0, -0.5])
    ctx = attack_context(ens, model, channel, det, Protocol.TCP_LIKE, x)
    report = flooding_condition(ctx)
    assert report.objective_at_one == pytest.approx(
        tcp_objective(ctx, 1.0), rel=1e-12
    )
    if report.matrix_definite:
        assert report.min_eigenvalue > 0
        assert report.state_positive  # sufficient condition in action
    assert report.state_positive == (report.objective_at_one > 0)

    # heavy input penalty flips the answer
    tame = make_model(
        [[0.5, 0.0], [0.0, 0.4]], np.eye(2), horizon=4,
        psi=[50.0, 50.0], omega=[1.0, 1.0],
    )
    ens2 = build_prediction_ensemble(tame)
    ctx2 = attack_context(
        ens2, tame, shared_channel(2, mean=0.6), det, Protocol.TCP_LIKE, x
    )
    report2 = flooding_condition(ctx2)
    assert not report2.state_positive
    assert not report2.matrix_definite


def test_candidate_lists_cover_region_endpoints(rng):
    hits = 0
    while hits < 6:
        ctx, _ = make_ctx(rng, Protocol.UDP_LIKE)
        if ctx.region is None:
            continue
        hits += 1
        char = optimal_alpha(ctx)
        if char.degenerate:
            continue
        alphas = [a for a, _ in char.candidates]
        lo, hi = ctx.region
        assert lo in alphas and hi in alphas
        if char.alpha_peak is not None and lo <= char.alpha_peak <= hi:
            assert char.alpha_peak in alphas
