"""Horizon controllers under both acknowledgment regimes."""

import numpy as np
import pytest

from dropattack import (
    ChannelSpec,
    DimensionError,
    NumericalError,
    Protocol,
    attack_context,
    build_prediction_ensemble,
    control_gain,
    empirical_increases,
    expected_attacked_cost,
    load_experiment,
    optimal_input_sequence,
)
from dropattack.controller import _feedback_map

from conftest import (
    make_model,
    random_channel,
    random_model,
    shared_detection,
    slow_expected_cost,
)
from test_cli import ROOT, bench_workloads


def test_protocol_parse():
    assert Protocol.parse("udp") is Protocol.UDP_LIKE
    assert Protocol.parse(" TCP ") is Protocol.TCP_LIKE
    with pytest.raises(ValueError):
        Protocol.parse("smtp")


def scalar_setup(mean=0.5):
    model = make_model([[1.0]], [[1.0]], horizon=1)
    ens = build_prediction_ensemble(model)
    return model, ens, np.array([mean])


def test_scalar_gains_by_hand():
    # one step, A=B=1, unit weights, mean 0.5:
    # acknowledged kernel 1 + 1*0.5 = 1.5, blind kernel adds (1-0.5)*1
    model, ens, mu = scalar_setup()
    tcp = control_gain(ens, model, mu, Protocol.TCP_LIKE)
    udp = control_gain(ens, model, mu, Protocol.UDP_LIKE)
    assert tcp.kernel[0, 0] == pytest.approx(1.5)
    assert udp.kernel[0, 0] == pytest.approx(2.0)
    # the protocol's one effect: the delivery variance the gain pays
    assert tcp.paid_variance.tolist() == [0.0]
    assert udp.paid_variance[0] == pytest.approx(1.0)
    x = np.array([1.0])
    assert optimal_input_sequence(tcp, ens, x)[0] == pytest.approx(-2.0 / 3.0)
    assert optimal_input_sequence(udp, ens, x)[0] == pytest.approx(-0.5)


def test_scalar_nominal_cost_by_hand():
    # constant part 1 + 1 + 0.3, feedback benefit 1/3
    model = make_model([[1.0]], [[1.0]], horizon=1, q=[1.0], noise=[0.3])
    ens = build_prediction_ensemble(model)
    ctx = attack_context(
        ens, model, ChannelSpec(mean_diag=np.array([0.5])),
        shared_detection(1), Protocol.TCP_LIKE, np.array([1.0]),
    )
    cost = expected_attacked_cost(ctx)
    assert cost == pytest.approx(1.0 + 1.0 + 0.3 - 1.0 / 3.0, rel=1e-12)


def test_gain_solves_normal_equations(rng):
    for protocol in Protocol:
        for _ in range(10):
            model = random_model(rng)
            ens = build_prediction_ensemble(model)
            mu = random_channel(rng, model.m).mean_diag
            gain = control_gain(ens, model, mu, protocol)
            x = rng.normal(size=model.n)
            u = optimal_input_sequence(gain, ens, x)
            np.testing.assert_allclose(
                gain.kernel @ u, -ens.cross_gram @ x, atol=1e-8
            )


def test_heterogeneous_means_give_a_nonsymmetric_kernel(rng):
    # unequal means make the blind kernel nonsymmetric; the map still
    # solves it exactly
    model = random_model(rng, m=3)
    ens = build_prediction_ensemble(model)
    mu = np.array([0.2, 0.5, 0.8])
    gain = control_gain(ens, model, mu, Protocol.UDP_LIKE)
    assert not np.allclose(gain.kernel, gain.kernel.T)
    np.testing.assert_allclose(
        gain.kernel @ gain.feedback, -ens.cross_gram, atol=1e-8
    )
    rhs = rng.normal(size=(ens.horizon * ens.m, 3))
    solution = -_feedback_map(gain.kernel, rhs)[0]
    np.testing.assert_allclose(gain.kernel @ solution, rhs, atol=1e-8)


def conditioned(rng, d, smallest, symmetric):
    """A d x d matrix with singular values from 1 down to ``smallest``."""
    U = np.linalg.qr(rng.normal(size=(d, d)))[0]
    V = U if symmetric else np.linalg.qr(rng.normal(size=(d, d)))[0]
    values = np.geomspace(1.0, smallest or 1e-3, d)
    values[-1] = smallest
    return U @ np.diag(values) @ V.T


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "general"])
def test_nearly_singular_kernels_are_refused(rng, symmetric):
    # below rcond = d eps the map may hold no correct digit; above it
    # rcond is the kernel's 1-norm rcond
    d = 6
    eps_d = d * np.finfo(float).eps
    for smallest in (1e-6, 1e-12):
        K = conditioned(rng, d, smallest, symmetric)
        K = 0.5 * (K + K.T) if symmetric else K
        rhs = rng.normal(size=(d, 2))
        feedback, rcond = _feedback_map(K, rhs)
        exact = 1.0 / (np.linalg.norm(K, 1) * np.linalg.norm(np.linalg.inv(K), 1))
        # inv(K) itself errs by about cond(K) eps relative
        assert 0.99 * exact <= rcond <= 10.0 * exact
        assert rcond >= eps_d
        np.testing.assert_allclose(K @ -feedback, rhs, atol=1e-3)
    for smallest in (1e-17, 0.0):
        K = conditioned(rng, d, smallest, symmetric)
        K = 0.5 * (K + K.T) if symmetric else K
        with pytest.raises(NumericalError, match="reciprocal condition estimate"):
            _feedback_map(K, rng.normal(size=(d, 2)))


def test_built_symmetric_kernels_are_positive_definite(rng):
    # equal channel means (one channel, or m shared) make the kernel
    # diag(psi) + G diag(nu) + diag(paid (1 - nu)) symmetric; for nu > 0 it
    # is (diag((psi + paid (1 - nu)) / nu) + G) diag(nu), an SPD matrix
    # times a positive diagonal, and at nu = 0 it is diag(psi + paid), so
    # no gain needs a definiteness check
    smallest = []
    for protocol in Protocol:
        for _ in range(40):
            model = random_model(rng, spread=rng.uniform(0.5, 1.6))
            ens = build_prediction_ensemble(model)
            for mean in (0.0, rng.uniform(0.0, 0.999), 0.999):
                gain = control_gain(ens, model, np.full(model.m, mean), protocol)
                K = gain.kernel
                # symmetric up to the Gramian's own rounding
                assert np.allclose(K, K.T, rtol=0.0, atol=1e-12 * abs(K).max())
                smallest.append(np.linalg.eigvalsh(0.5 * (K + K.T))[0])
    assert min(smallest) > 0.0


def test_gain_keeps_its_kernels_rcond(rng):
    model = random_model(rng, m=2)
    ens = build_prediction_ensemble(model)
    for mu in (np.array([0.6, 0.6]), np.array([0.2, 0.8])):
        gain = control_gain(ens, model, mu, Protocol.UDP_LIKE)
        feedback, rcond = _feedback_map(gain.kernel, ens.cross_gram)
        assert gain.rcond == rcond
        assert np.array_equal(gain.feedback, feedback)
        assert len(ens.input_gram) * np.finfo(float).eps <= gain.rcond <= 1.0


def test_solver_matches_lu_on_the_largest_synth_sweep_kernels(tmp_path):
    # synth-sweep's d = 160 kernels at seed 101, at their nominal means and
    # at one shared rate (a symmetric kernel): the feedback map and a map
    # of random right-hand sides match an LU solve, and rcond is the exact
    # 1-norm one
    from scipy.linalg import lu_factor, lu_solve

    workloads = bench_workloads()
    ops = workloads.build(
        "synth-sweep", 101, str(tmp_path), str(ROOT), workloads.FULL
    )
    rng = np.random.default_rng(160)
    kernels = 0
    for op in ops:
        if not op["name"].startswith("d160-"):
            continue
        exp = load_experiment(op["config"])
        ens = build_prediction_ensemble(exp.model)
        means = exp.channel.mean_diag
        for mu in (means, np.full(ens.m, means.mean())):
            gain = control_gain(ens, exp.model, mu, exp.protocol)
            K = gain.kernel
            factor = lu_factor(K)
            rhs = rng.normal(size=(len(K), 2))
            for got, want in (
                (gain.feedback, -lu_solve(factor, ens.cross_gram)),
                (_feedback_map(K, rhs)[0], -lu_solve(factor, rhs)),
            ):
                error = np.abs(got - want).max()
                assert error <= 1e-10 * np.abs(want).max(), op["name"]
            exact = 1.0 / (np.linalg.norm(K, 1) * np.linalg.norm(np.linalg.inv(K), 1))
            assert gain.rcond == pytest.approx(exact, rel=1e-12)
            kernels += 1
    assert kernels == 20


def refined_reference(K, rhs):
    """-K^{-1} rhs, refined four times with long-double residuals: a
    reference whose error is far below the map's."""
    wide = np.longdouble
    K_wide, rhs_wide = K.astype(wide), rhs.astype(wide)
    solution = np.linalg.solve(K, rhs.astype(float)).astype(wide)
    for _ in range(4):
        residual = rhs_wide - K_wide @ solution
        solution += np.linalg.solve(K, residual.astype(float))
    return -solution


def test_input_sequence_is_accurate_on_the_d160_workload_plants(tmp_path):
    # the d = 160 plants of synth-sweep and horizon-check at seed 101, each
    # at ten random states: feedback @ x against a long-double-refined
    # -K^{-1} cross_gram x
    workloads = bench_workloads()
    rng = np.random.default_rng(101)
    plants = 0
    for name in ("synth-sweep", "horizon-check"):
        ops = workloads.build(
            name, 101, str(tmp_path / name), str(ROOT), workloads.FULL
        )
        for op in ops:
            if not op["name"].startswith("d160-"):
                continue
            exp = load_experiment(op["config"])
            ens = build_prediction_ensemble(exp.model)
            gain = control_gain(ens, exp.model, exp.channel.mean_diag, exp.protocol)
            X = rng.normal(size=(ens.n, 10))
            rhs = ens.cross_gram.astype(np.longdouble) @ X.astype(np.longdouble)
            want = refined_reference(gain.kernel, rhs)
            for x, column in zip(X.T, want.T):
                got = optimal_input_sequence(gain, ens, x)
                error = float(np.abs(got - column).max() / np.abs(column).max())
                assert error <= 1e-10, (name, op["name"], error)
            plants += 1
    assert plants == 12


def test_non_finite_state_raises_numerical_error():
    # a NaN state entry makes the input sequence NaN: every consumer of
    # feedback @ x refuses it, never computes on it
    exp = load_experiment(ROOT / "demos" / "configs" / "two_channel_schedule.json")
    ens = build_prediction_ensemble(exp.model)
    gain = control_gain(ens, exp.model, exp.channel.mean_diag, exp.protocol)
    x = np.array([np.nan, 0.0])
    with pytest.raises(NumericalError, match="non-finite"):
        optimal_input_sequence(gain, ens, x)
    with pytest.raises(NumericalError, match="non-finite"):
        empirical_increases(ens, exp.model, gain, x, [0.5], 100)
    with pytest.raises(NumericalError, match="non-finite"):
        attack_context(
            ens, exp.model, exp.channel, exp.detection, exp.protocol, x, gain
        ).qp


def dense_gain_parts(ens, model, mu, protocol):
    """Kernel, coupling and load from the dense ``np.diag`` formulas."""
    nu = np.tile(mu, ens.horizon)
    G = ens.input_gram
    paid = np.diagonal(G) if protocol is Protocol.UDP_LIKE else np.zeros_like(nu)
    penalty = np.diag(model.input_penalty)
    kernel = penalty + G * nu[None, :]
    kernel = kernel + np.diag(paid * (1.0 - nu))
    variance = np.diag(paid)
    coupling = G - variance
    load = variance + penalty + 2.0 * coupling * nu[None, :]
    return kernel, coupling, load


def test_gain_diagonals_are_the_dense_formulas_bitwise(rng):
    for protocol in Protocol:
        for _ in range(10):
            model = random_model(rng, m=2)
            ens = build_prediction_ensemble(model)
            for mu in (np.full(2, rng.uniform(0.1, 0.9)), rng.uniform(0.1, 0.9, 2)):
                gain = control_gain(ens, model, mu, protocol)
                kernel, coupling, load = dense_gain_parts(ens, model, mu, protocol)
                assert np.array_equal(gain.kernel, kernel)
                assert np.array_equal(gain.coupling, coupling)
                assert np.array_equal(gain.load, load)


def test_nominal_cost_matches_bernoulli_moment_oracle(rng):
    for protocol in Protocol:
        for _ in range(15):
            model = random_model(rng)
            ens = build_prediction_ensemble(model)
            channel = random_channel(rng, model.m)
            mu = channel.mean_diag
            x = rng.normal(size=model.n)
            ctx = attack_context(
                ens, model, channel, shared_detection(model.m), protocol, x
            )
            u = ctx.u_star
            mine = expected_attacked_cost(ctx)
            thresholds = np.tile(mu, model.horizon)
            want = slow_expected_cost(model, x, u, thresholds, protocol)
            assert mine == pytest.approx(want, rel=1e-10)


def test_mean_validation():
    model, ens, _ = scalar_setup()
    with pytest.raises(DimensionError):
        control_gain(ens, model, np.array([1.0]), Protocol.TCP_LIKE)  # kernel needs < 1
    with pytest.raises(DimensionError):
        control_gain(ens, model, np.array([-0.1]), Protocol.TCP_LIKE)
    with pytest.raises(DimensionError):
        control_gain(ens, model, np.array([np.nan]), Protocol.TCP_LIKE)
    with pytest.raises(DimensionError):
        control_gain(ens, model, np.array([0.5, 0.5]), Protocol.TCP_LIKE)
