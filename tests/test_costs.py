"""Analytic cost accounting for the attack regimes."""

import numpy as np
import pytest

from dropattack import (
    DimensionError,
    Protocol,
    attack_context,
    build_prediction_ensemble,
    build_qp,
    control_gain,
    cost_regimes,
    expected_attacked_cost,
    feedback_benefit,
    initial_state_average,
    nominal_expected_cost,
    objective_coeffs,
    perfect_channel_condition_tcp,
    solve_box_qp_max,
    stack_channel_means,
)

from conftest import (
    random_channel,
    random_detection,
    random_model,
    shared_channel,
    shared_detection,
    slow_expected_cost,
    tcp_objective,
    udp_objective,
)

from test_attack_iid import make_ctx


def test_increase_is_objective_plus_blackout_benefit(rng):
    # the structural identity behind every regime, checked against the
    # paper's scalar closed forms
    for protocol, scalar in (
        (Protocol.UDP_LIKE, udp_objective),
        (Protocol.TCP_LIKE, tcp_objective),
    ):
        for _ in range(10):
            ctx, model = make_ctx(rng, protocol)
            q0 = feedback_benefit(ctx)
            regimes = cost_regimes(ctx, model)
            zero = regimes["alpha_0"]
            assert zero.regime == "alpha0"
            assert zero.increase == pytest.approx(q0, rel=1e-12)
            assert zero.increase == pytest.approx(
                scalar(ctx, 0.0) + q0, abs=1e-12 * (1 + abs(q0))
            )
            one = regimes["alpha_1"]
            assert one.regime == "alpha1"
            want = scalar(ctx, 1.0) + q0
            assert one.increase == pytest.approx(
                want, rel=1e-9, abs=1e-10 * (1 + abs(want))
            )
            baseline = nominal_expected_cost(ctx.ens, model, ctx.gain, ctx.x)
            for report in regimes.values():
                assert report.protocol is protocol
                assert report.baseline == baseline
                assert report.attacked == pytest.approx(
                    report.baseline + report.increase, rel=1e-12
                )
                # the attacked cost is the closed form at the regime's rate
                alpha = {"alpha0": 0.0, "alpha1": 1.0}.get(
                    report.regime, report.details.get("alpha_peak")
                )
                assert report.attacked == pytest.approx(
                    slow_expected_cost(
                        model, ctx.x, ctx.u_star,
                        np.full(model.horizon * model.m, alpha), protocol,
                    ),
                    rel=1e-9,
                )


def test_blackout_increase_positive_for_active_feedback(rng):
    for _ in range(10):
        model = random_model(rng)
        ctx, _ = make_ctx(rng, Protocol.UDP_LIKE, model=model)
        if float(ctx.u_star @ ctx.u_star) < 1e-14:
            continue
        assert feedback_benefit(ctx) > 0.0


def test_peak_regime_bonus(rng):
    found = absent = 0
    while found < 6 or absent < 3:
        ctx, model = make_ctx(rng, Protocol.UDP_LIKE)
        coeffs = objective_coeffs(ctx)
        regimes = cost_regimes(ctx, model)
        if coeffs.curvature >= 0.0:
            absent += 1
            assert list(regimes) == ["alpha_0", "alpha_1"]
            continue
        if coeffs.curvature >= -1e-10:
            continue
        found += 1
        assert list(regimes) == ["alpha_0", "alpha_1", "alpha_peak"]
        report = regimes["alpha_peak"]
        assert report.regime == "alpha_peak"
        peak = report.details["alpha_peak"]
        assert report.details["peak_bonus"] > 0.0
        assert report.details["peak_bonus"] == pytest.approx(
            -(coeffs.linear ** 2) / (4.0 * coeffs.curvature), rel=1e-12
        )
        assert report.increase == pytest.approx(
            udp_objective(ctx, peak) + feedback_benefit(ctx), rel=1e-9
        )
        # the peak is the stationary point of the unconstrained objective
        scale = abs(coeffs.linear) + abs(coeffs.curvature)
        assert abs(coeffs.slope(peak)) <= 1e-9 * scale
        eps = 1e-6
        slack = 1e-9 * (1.0 + abs(udp_objective(ctx, peak)))
        assert udp_objective(ctx, peak) >= udp_objective(ctx, peak + eps) - slack
        assert udp_objective(ctx, peak) >= udp_objective(ctx, peak - eps) - slack
    # a tcp-like curve is convex, so it never has a peak regime
    for _ in range(4):
        ctx, model = make_ctx(rng, Protocol.TCP_LIKE)
        assert "alpha_peak" not in cost_regimes(ctx, model)


def test_flooding_flags_match_signs(rng):
    for _ in range(8):
        ctx, model = make_ctx(rng, Protocol.UDP_LIKE)
        rep = cost_regimes(ctx, model)["alpha_1"]
        assert rep.details["cost_increasing"] == (rep.increase > 0)
        ctx, model = make_ctx(rng, Protocol.TCP_LIKE)
        rep = cost_regimes(ctx, model)["alpha_1"]
        assert rep.details["flooding_term_positive"] == (
            rep.details["flooding_term"] > 0
        )


def test_flooding_details_follow_protocol():
    # udp carries the two sides of its flooding condition, whose difference
    # is the objective at rate 1; tcp carries that objective itself, the
    # number the perfect-channel check reports
    rng = np.random.default_rng(5)
    for _ in range(4):
        ctx, model = make_ctx(rng, Protocol.UDP_LIKE)
        details = cost_regimes(ctx, model)["alpha_1"].details
        assert list(details) == [
            "objective_condition_lhs", "objective_condition_rhs",
            "cost_increasing",
        ]
        gap = details["objective_condition_lhs"] - details["objective_condition_rhs"]
        want = udp_objective(ctx, 1.0)
        assert gap == pytest.approx(want, rel=1e-9, abs=1e-10 * (1 + abs(want)))

        ctx, model = make_ctx(rng, Protocol.TCP_LIKE)
        details = cost_regimes(ctx, model)["alpha_1"].details
        assert list(details) == ["flooding_term", "flooding_term_positive"]
        assert details["flooding_term"] == (
            perfect_channel_condition_tcp(ctx).objective_at_one
        )
        want = tcp_objective(ctx, 1.0)
        assert details["flooding_term"] == pytest.approx(
            want, rel=1e-9, abs=1e-10 * (1 + abs(want))
        )


def test_attacked_cost_none_reproduces_nominal(rng):
    for protocol in Protocol:
        for _ in range(8):
            ctx, model = make_ctx(rng, protocol)
            want = nominal_expected_cost(ctx.ens, model, ctx.gain, ctx.x)
            got = expected_attacked_cost(ctx, model, attack=None)
            assert got == pytest.approx(want, rel=1e-12)


def test_attacked_cost_matches_bernoulli_moment_oracle(rng):
    for protocol in Protocol:
        for _ in range(8):
            model = random_model(rng)
            ens = build_prediction_ensemble(model)
            channel = random_channel(rng, model.m)
            detection = random_detection(rng, model.m)
            x = rng.normal(size=model.n)
            ctx = attack_context(
                ens, model, channel, detection, protocol, x
            )
            # scalar rate
            alpha = float(rng.uniform(0.0, 1.0))
            got = expected_attacked_cost(ctx, model, alpha)
            wantt = slow_expected_cost(
                model, x, ctx.u_star,
                np.full(model.horizon * model.m, alpha), protocol,
            )
            assert got == pytest.approx(wantt, rel=1e-9)
            # full (N, m) schedule
            sched = rng.uniform(0.0, 1.0, (model.horizon, model.m))
            got = expected_attacked_cost(ctx, model, sched)
            want = slow_expected_cost(
                model, x, ctx.u_star, sched.reshape(-1), protocol
            )
            assert got == pytest.approx(want, rel=1e-9)
            # per-channel vector tiles across the horizon
            vec = rng.uniform(0.0, 1.0, model.m)
            got = expected_attacked_cost(ctx, model, vec)
            want = slow_expected_cost(
                model, x, ctx.u_star,
                stack_channel_means(vec, model.horizon), protocol,
            )
            assert got == pytest.approx(want, rel=1e-9)


def test_attacked_cost_rejects_bad_rates(rng):
    ctx, model = make_ctx(rng, Protocol.UDP_LIKE)
    for attack in (1.5, -0.1, np.full(ctx.ens.m + 1, 0.5)):
        with pytest.raises(DimensionError):
            expected_attacked_cost(ctx, model, attack)


def test_attacked_cost_accepts_solver_output(rng):
    ctx, model = make_ctx(rng, Protocol.UDP_LIKE)
    qp = build_qp(ctx)
    sol = solve_box_qp_max(qp)
    via_object = expected_attacked_cost(ctx, model, sol)
    via_array = expected_attacked_cost(ctx, model, sol.means)
    assert via_object == via_array
    # solver output can only raise the cost relative to the nominal law
    nominal = expected_attacked_cost(ctx, model, None)
    assert via_object >= nominal - 1e-9 * (1.0 + abs(nominal))


def test_initial_state_average_exact_on_known_quadratic(rng):
    # contract: closure is a quadratic form plus a constant, which is what
    # every per-state expected cost in the package looks like (u* is linear
    # in x, so no linear term survives)
    model = random_model(rng, n=3)
    H = rng.normal(size=(3, 3))
    H = H @ H.T
    c0 = 1.7

    def cost(x):
        return float(x @ H @ x) + c0

    got = initial_state_average(model, cost)
    want = cost(model.init_mean) + float(np.sum(H * model.init_cov))
    assert got == pytest.approx(want, rel=1e-12)


def test_initial_state_average_consistent_with_pointwise(rng):
    # aggregate minus pointwise equals the covariance trace term
    model = random_model(rng, n=2)
    ens = build_prediction_ensemble(model)
    channel = shared_channel(model.m, 0.7)
    detection = shared_detection(model.m, 0.1)
    gain = control_gain(ens, model, channel.mean_diag, Protocol.UDP_LIKE)

    def attacked(x):
        ctx = attack_context(
            ens, model, channel, detection, Protocol.UDP_LIKE, x, gain=gain
        )
        return expected_attacked_cost(ctx, model, 0.4)

    agg = initial_state_average(model, attacked)
    # recompute the trace correction by finite polarization at scale 1
    e = np.eye(2)
    z = attacked(np.zeros(2))
    d = [attacked(e[i]) - z for i in range(2)]
    cross = attacked(e[0] + e[1]) - z - d[0] - d[1]
    Hm = np.array([[d[0], cross / 2.0], [cross / 2.0, d[1]]])
    want = attacked(model.init_mean) + float(np.sum(Hm * model.init_cov))
    assert agg == pytest.approx(want, rel=1e-10)
