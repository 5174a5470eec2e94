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
    expected_attacked_cost,
    optimal_input_sequence,
)
from dropattack.controller import _make_solver

from conftest import (
    make_model,
    random_channel,
    random_model,
    shared_detection,
    slow_expected_cost,
)


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


def test_heterogeneous_means_take_lu_path(rng):
    # unequal means make the blind kernel nonsymmetric; solve still exact
    model = random_model(rng, m=3)
    ens = build_prediction_ensemble(model)
    mu = np.array([0.2, 0.5, 0.8])
    gain = control_gain(ens, model, mu, Protocol.UDP_LIKE)
    assert not np.allclose(gain.kernel, gain.kernel.T)
    rhs = rng.normal(size=ens.horizon * ens.m)
    np.testing.assert_allclose(gain.kernel @ gain.solve(rhs), rhs, atol=1e-8)


def conditioned(rng, d, smallest, symmetric):
    """A d x d matrix with singular values from 1 down to ``smallest``."""
    U = np.linalg.qr(rng.normal(size=(d, d)))[0]
    V = U if symmetric else np.linalg.qr(rng.normal(size=(d, d)))[0]
    values = np.geomspace(1.0, smallest or 1e-3, d)
    values[-1] = smallest
    return U @ np.diag(values) @ V.T


@pytest.mark.parametrize("symmetric", [True, False], ids=["cholesky", "lu"])
def test_nearly_singular_kernels_are_refused(rng, symmetric):
    # below rcond = d eps the solve may hold no correct digit; above it the
    # estimate is the kernel's 1-norm rcond within LAPACK's factor of it
    d = 6
    eps_d = d * np.finfo(float).eps
    for smallest in (1e-6, 1e-12):
        K = conditioned(rng, d, smallest, symmetric)
        K = 0.5 * (K + K.T) if symmetric else K
        solve, rcond = _make_solver(K)
        exact = 1.0 / (np.linalg.norm(K, 1) * np.linalg.norm(np.linalg.inv(K), 1))
        # inv(K) itself errs by about cond(K) eps relative
        assert 0.99 * exact <= rcond <= 10.0 * exact
        assert rcond >= eps_d
        rhs = rng.normal(size=d)
        np.testing.assert_allclose(K @ solve(rhs), rhs, atol=1e-3)
    for smallest in (1e-17, 0.0):
        K = conditioned(rng, d, smallest, symmetric)
        K = 0.5 * (K + K.T) if symmetric else K
        with pytest.raises(NumericalError, match="reciprocal condition estimate"):
            _make_solver(K)


def test_indefinite_symmetric_kernel_is_refused():
    with pytest.raises(NumericalError, match="estimate 0 "):
        _make_solver(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_gain_keeps_its_kernels_rcond(rng):
    model = random_model(rng, m=2)
    ens = build_prediction_ensemble(model)
    for mu in (np.array([0.6, 0.6]), np.array([0.2, 0.8])):
        gain = control_gain(ens, model, mu, Protocol.UDP_LIKE)
        assert gain.rcond == _make_solver(gain.kernel)[1]
        assert len(ens.input_gram) * np.finfo(float).eps <= gain.rcond <= 1.0


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
