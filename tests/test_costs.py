"""Analytic cost accounting for the attack regimes."""

from dataclasses import replace

import numpy as np
import pytest

from dropattack import (
    DimensionError,
    Protocol,
    attack_context,
    build_prediction_ensemble,
    build_qp,
    cost_regimes,
    expected_attacked_cost,
    optimal_alpha,
    feedback_benefit,
    flooding_condition,
    solve_box_qp_max,
)

from conftest import (
    make_model,
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
            regimes = cost_regimes(ctx)
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
            baseline = expected_attacked_cost(ctx)
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
        coeffs = ctx.line
        regimes = cost_regimes(ctx)
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
        slope = coeffs.linear + 2.0 * coeffs.curvature * peak
        assert abs(slope) <= 1e-9 * scale
        eps = 1e-6
        slack = 1e-9 * (1.0 + abs(udp_objective(ctx, peak)))
        assert udp_objective(ctx, peak) >= udp_objective(ctx, peak + eps) - slack
        assert udp_objective(ctx, peak) >= udp_objective(ctx, peak - eps) - slack
    # a tcp-like curve is convex, so it never has a peak regime
    for _ in range(4):
        ctx, model = make_ctx(rng, Protocol.TCP_LIKE)
        assert "alpha_peak" not in cost_regimes(ctx)


def test_flooding_flags_match_signs(rng):
    for _ in range(8):
        ctx, model = make_ctx(rng, Protocol.UDP_LIKE)
        rep = cost_regimes(ctx)["alpha_1"]
        assert rep.details["cost_increasing"] == (rep.increase > 0)
        ctx, model = make_ctx(rng, Protocol.TCP_LIKE)
        rep = cost_regimes(ctx)["alpha_1"]
        assert rep.details["flooding_term_positive"] == (
            rep.details["flooding_term"] > 0
        )


def test_flooding_details_are_protocol_free():
    # both protocols carry the two sides of the flooding condition, whose
    # difference is the objective at rate 1, and that objective itself
    rng = np.random.default_rng(5)
    for _ in range(4):
        for protocol, scalar in (
            (Protocol.UDP_LIKE, udp_objective),
            (Protocol.TCP_LIKE, tcp_objective),
        ):
            ctx, model = make_ctx(rng, protocol)
            details = cost_regimes(ctx)["alpha_1"].details
            assert list(details) == [
                "objective_condition_lhs", "objective_condition_rhs",
                "flooding_term", "flooding_term_positive", "cost_increasing",
            ]
            gap = (
                details["objective_condition_lhs"]
                - details["objective_condition_rhs"]
            )
            want = scalar(ctx, 1.0)
            assert gap == pytest.approx(
                want, rel=1e-9, abs=1e-10 * (1 + abs(want))
            )
            assert details["flooding_term"] == (
                flooding_condition(ctx).objective_at_one
            )
            assert details["flooding_term"] == pytest.approx(
                want, rel=1e-9, abs=1e-10 * (1 + abs(want))
            )


def flooding_contexts(rng, protocol):
    """Random contexts, then weakly penalized unstable plants on a rarely
    delivering channel, where full delivery can hurt for any state."""
    for _ in range(8):
        yield make_ctx(rng, protocol)
    for _ in range(8):
        model = random_model(rng, spread=1.6)
        model = make_model(
            model.A, model.B, horizon=model.horizon,
            psi=np.full(model.m, 0.01),
        )
        channel = shared_channel(model.m, mean=rng.uniform(0.02, 0.1))
        yield make_ctx(rng, protocol, model=model, channel=channel)


def test_flooding_condition_sides_differ_by_objective_at_one():
    rng = np.random.default_rng(23)
    for protocol, scalar in (
        (Protocol.UDP_LIKE, udp_objective),
        (Protocol.TCP_LIKE, tcp_objective),
    ):
        for ctx, _ in flooding_contexts(rng, protocol):
            cond = flooding_condition(ctx)
            want = scalar(ctx, 1.0)
            assert cond.lhs - cond.rhs == pytest.approx(
                want, rel=1e-9, abs=1e-10 * (1 + abs(want))
            )
            assert cond.objective_at_one == pytest.approx(
                want, rel=1e-9, abs=1e-10 * (1 + abs(want))
            )
            assert cond.state_positive == (cond.objective_at_one > 0)


def test_definite_flooding_matrix_implies_state_positive():
    rng = np.random.default_rng(23)
    definite = {}
    for protocol in (Protocol.UDP_LIKE, Protocol.TCP_LIKE):
        definite[protocol] = 0
        for ctx, _ in flooding_contexts(rng, protocol):
            cond = flooding_condition(ctx)
            assert cond.matrix_definite == (cond.min_eigenvalue > 0)
            if cond.matrix_definite:
                definite[protocol] += 1
                assert cond.state_positive
    # udp's matrix has diagonal -(P + D_in), so it is never definite; the
    # tcp cases make the implication non-vacuous
    assert definite[Protocol.UDP_LIKE] == 0
    assert definite[Protocol.TCP_LIKE] > 0


def test_udp_flooding_matrix_is_never_definite():
    # a udp gain pays the Gramian's diagonal, so its coupling's diagonal
    # is zero and S = sym(coupling - load) has diagonal -(V + diag P) < 0
    rng = np.random.default_rng(31)
    for ctx, model in flooding_contexts(rng, Protocol.UDP_LIKE):
        gain = ctx.gain
        S = gain.coupling - gain.load
        want = -(gain.paid_variance + model.input_penalty)
        assert np.array_equal(np.diagonal(0.5 * (S + S.T)), want)
        assert np.all(want < 0.0)
        cond = flooding_condition(ctx)
        assert cond.matrix_definite is False
        assert cond.min_eigenvalue < 0.0


def test_flooding_condition_matches_its_defining_formulas():
    # lhs = u'(I - 2 Nu)(G_in - V)u and S = sym((G_in - V)(I - 2 Nu)) - P - V
    # with V the Gramian's diagonal for udp and 0 for tcp, built from the
    # ensemble rather than the gain's coupling and load
    rng = np.random.default_rng(37)
    for protocol in Protocol:
        for ctx, model in flooding_contexts(rng, protocol):
            G = ctx.ens.input_gram
            V = np.diag(np.diagonal(G)) if protocol is Protocol.UDP_LIKE \
                else np.zeros_like(G)
            scaled = (G - V) @ np.diag(1.0 - 2.0 * ctx.gain.mean_stack)
            u = ctx.u_star
            lhs = float(u @ (scaled.T @ u))
            S = 0.5 * (scaled + scaled.T) - np.diag(model.input_penalty) - V
            eig = float(np.linalg.eigvalsh(S)[0])
            cond = flooding_condition(ctx)
            assert abs(cond.lhs - lhs) <= 1e-12 * (1.0 + abs(lhs))
            assert abs(cond.min_eigenvalue - eig) <= 1e-12 * (1.0 + abs(eig))


def test_cost_regimes_solve_no_eigenproblem(rng, monkeypatch):
    # the flooding matrix's eigenvalues are computed only when asked for
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a)
    )
    for protocol in Protocol:
        ctx, model = make_ctx(rng, protocol)
        cost_regimes(ctx)
        assert calls == []
        assert flooding_condition(ctx).matrix_definite in (True, False)
        assert len(calls) == 1
        calls.clear()


def test_attacked_cost_none_reproduces_nominal(rng):
    # the nominal law's quadratic against the operator's own closed form,
    # x'(Q + state_gram)x + noise trace + ups' D(means) (2 cross_gram x
    # + kernel ups), with ups the optimal sequence
    for protocol in Protocol:
        for _ in range(8):
            ctx, model = make_ctx(rng, protocol)
            ens, ups, nu = ctx.ens, ctx.u_star, ctx.gain.mean_stack
            fx = ens.cross_gram @ ctx.x
            want = (
                float(ctx.x @ (np.diag(model.Q) + ens.state_gram) @ ctx.x)
                + ens.noise_cost
                + float(ups @ (nu * (2.0 * fx + ctx.gain.kernel @ ups)))
            )
            got = expected_attacked_cost(ctx, attack=None)
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
            got = expected_attacked_cost(ctx, alpha)
            wantt = slow_expected_cost(
                model, x, ctx.u_star,
                np.full(model.horizon * model.m, alpha), protocol,
            )
            assert got == pytest.approx(wantt, rel=1e-9)
            # full (N, m) schedule
            sched = rng.uniform(0.0, 1.0, (model.horizon, model.m))
            got = expected_attacked_cost(ctx, sched)
            want = slow_expected_cost(
                model, x, ctx.u_star, sched.reshape(-1), protocol
            )
            assert got == pytest.approx(want, rel=1e-9)
            # per-channel vector tiles across the horizon
            vec = rng.uniform(0.0, 1.0, model.m)
            got = expected_attacked_cost(ctx, vec)
            want = slow_expected_cost(
                model, x, ctx.u_star,
                np.tile(vec, model.horizon), protocol,
            )
            assert got == pytest.approx(want, rel=1e-9)


def test_attacked_cost_rejects_bad_rates(rng):
    ctx, model = make_ctx(rng, Protocol.UDP_LIKE)
    for attack in (1.5, -0.1, np.nan, np.full(ctx.ens.m + 1, 0.5)):
        with pytest.raises(DimensionError):
            expected_attacked_cost(ctx, attack)


def test_attacked_cost_accepts_solver_output(rng):
    ctx, model = make_ctx(rng, Protocol.UDP_LIKE)
    qp = build_qp(ctx)
    sol = solve_box_qp_max(qp)
    via_object = expected_attacked_cost(ctx, sol)
    via_array = expected_attacked_cost(ctx, sol.means)
    assert via_object == via_array
    # solver output can only raise the cost relative to the nominal law
    nominal = expected_attacked_cost(ctx, None)
    assert via_object >= nominal - 1e-9 * (1.0 + abs(nominal))


def test_costs_read_the_contexts_model():
    # the weights come from the model the context was built from: a
    # separate model argument let another Q change the cost silently
    model = make_model([[1.03, 0.005], [0.35, 0.5]], [[1.0], [1.0]], horizon=5)
    heavy = replace(model, Q=10.0 * model.Q)
    x = np.array([1.0, 1.0])
    for protocol in Protocol:
        ctxs = [
            attack_context(
                build_prediction_ensemble(m), m, shared_channel(1),
                shared_detection(1), protocol, x,
            )
            for m in (model, heavy)
        ]
        assert ctxs[0].model is model and ctxs[1].model is heavy
        base, scaled = (expected_attacked_cost(ctx) for ctx in ctxs)
        extra = 9.0 * float(x @ (model.Q * x))
        assert scaled - base == pytest.approx(extra, rel=1e-12)
        alpha = optimal_alpha(ctxs[0]).alpha_star
        assert expected_attacked_cost(ctxs[1], alpha) - expected_attacked_cost(
            ctxs[0], alpha
        ) == pytest.approx(extra, rel=1e-12)
        regimes = [cost_regimes(ctx)["alpha_1"] for ctx in ctxs]
        assert regimes[1].baseline == scaled
        assert regimes[1].increase == regimes[0].increase
