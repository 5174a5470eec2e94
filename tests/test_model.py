"""Plant description, prediction stack, and Gramians."""

from dataclasses import fields, replace

import numpy as np
import pytest

from dropattack import (
    DimensionError,
    SystemModel,
    build_prediction_ensemble,
)

from conftest import (
    make_model, random_model, reachable, slow_ensemble, slow_stack, slow_step,
)


def test_prediction_matrices_match_loop_assembly(rng):
    for _ in range(25):
        model = random_model(rng)
        ens = build_prediction_ensemble(model)
        Phi, Gamma, Lam = slow_stack(model)
        np.testing.assert_allclose(ens.state_map, Phi, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ens.input_map, Gamma, rtol=0, atol=1e-13)
        np.testing.assert_allclose(ens.noise_map, Lam, rtol=0, atol=1e-13)


@pytest.mark.parametrize("horizon", [1, 2, 5, 20, 80])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_ensemble_is_bitwise_the_block_loop(rng, horizon, m):
    # the gathered block maps and the row-scaled Gramians repeat the
    # per-block loop's floating-point operations exactly
    for n in (1, 3):
        base = random_model(rng, n=n, m=m, horizon=horizon)
        root = rng.normal(size=(n, n))
        # a non-diagonal noise covariance for n = 3
        model = replace(base, noise_cov=root @ root.T + 0.1 * np.eye(n))
        ens = build_prediction_ensemble(model)
        want = slow_ensemble(model)
        for field in fields(ens):
            got = getattr(ens, field.name)
            if not isinstance(got, np.ndarray):
                continue
            ref = want[field.name]
            assert np.array_equal(got, ref), field.name
            assert np.array_equal(np.signbit(got), np.signbit(ref)), field.name


def test_gramians_match_definitions(rng):
    for _ in range(25):
        model = random_model(rng)
        ens = build_prediction_ensemble(model)
        Om = np.diag(model.state_penalty)
        np.testing.assert_allclose(
            ens.state_gram, ens.state_map.T @ Om @ ens.state_map, atol=1e-10
        )
        np.testing.assert_allclose(
            ens.input_gram, ens.input_map.T @ Om @ ens.input_map, atol=1e-10
        )
        np.testing.assert_allclose(
            ens.cross_gram, ens.input_map.T @ Om @ ens.state_map, atol=1e-10
        )
        Sigma = np.kron(np.eye(model.horizon), model.noise_cov)
        want = np.trace(ens.noise_map.T @ Om @ ens.noise_map @ Sigma)
        assert ens.noise_cost == pytest.approx(want, rel=1e-12)


def test_scalar_hand_stack():
    # A=2, B=1, N=3: state map stacks (2, 4, 8); identity weights give 84
    model = make_model([[2.0]], [[1.0]], horizon=3)
    ens = build_prediction_ensemble(model)
    np.testing.assert_array_equal(ens.state_map.ravel(), [2.0, 4.0, 8.0])
    assert ens.state_gram[0, 0] == pytest.approx(84.0, abs=1e-12)
    # input map is lower triangular in step blocks: row i, col j -> 2^(i-j)
    expect = np.array([[1, 0, 0], [2, 1, 0], [4, 2, 1]], dtype=float)
    np.testing.assert_array_equal(ens.input_map, expect)


def test_noise_cost_trace_matches_slow(rng):
    # the row-norm form folds in the Cholesky factor of a full covariance
    for _ in range(10):
        model = random_model(rng)
        root = rng.normal(size=(model.n, model.n))
        model = replace(model, noise_cov=root @ root.T + 0.1 * np.eye(model.n))
        ens = build_prediction_ensemble(model)
        _, _, Lam = slow_stack(model)
        Sigma = np.kron(np.eye(model.horizon), model.noise_cov)
        Om = np.diag(model.state_penalty)
        want = np.trace(Lam.T @ Om @ Lam @ Sigma)
        assert ens.noise_cost == pytest.approx(want, rel=1e-12)


def test_step_plant_hand_example():
    model = make_model([[1.03, 0.005], [0.35, 0.5]], np.eye(2), horizon=5)
    x = np.array([1.0, 1.0])
    u = np.array([-1.0, 7.0])
    v = np.array([1.0, 0.0])  # second packet dropped
    out = slow_step(model, x, u, v, np.zeros(2))
    np.testing.assert_allclose(out, [0.035, 0.85], atol=1e-15)


def test_model_arrays_frozen():
    model = make_model([[1.0]], [[1.0]], horizon=2)
    with pytest.raises(ValueError):
        model.A[0, 0] = 5.0
    ens = build_prediction_ensemble(model)
    with pytest.raises(ValueError):
        ens.input_gram[0, 0] = 5.0


def test_model_validation_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        make_model([[1.0, 0.0]], [[1.0]], horizon=2)  # A not square
    with pytest.raises(DimensionError):
        make_model([[1.0]], [[1.0], [1.0]], horizon=2)  # B rows mismatch
    with pytest.raises(DimensionError):
        make_model([[1.0]], [[1.0]], horizon=0)


def test_horizon_must_be_an_integer():
    # a float or a bool was truncated by int(): 2.7 built horizon 2 and
    # True horizon 1; a numpy integer is an integer
    two = make_model([[1.0]], [[1.0]], horizon=2)
    one = make_model([[1.0]], [[1.0]], horizon=1)
    for base, horizon in ((two, 2.7), (two, 2.0), (one, True)):
        with pytest.raises(DimensionError, match="horizon must be an integer"):
            replace(base, horizon=horizon)
    model = replace(two, horizon=np.int64(2))
    assert model.horizon == 2 and type(model.horizon) is int


def test_model_validation_rejects_bad_penalties():
    # each weight is the read-only vector of its diagonal, checked by
    # length and by being finite and strictly positive
    base = make_model([[1.0, 0.2], [0.0, 0.5]], [[1.0], [0.5]], horizon=3)
    fields = {
        "A": base.A, "B": base.B, "Q": base.Q,
        "state_penalty": base.state_penalty,
        "input_penalty": base.input_penalty,
        "noise_cov": base.noise_cov,
        "init_cov": base.init_cov, "init_mean": base.init_mean,
        "horizon": base.horizon,
    }
    for name, size in (("Q", 2), ("state_penalty", 6), ("input_penalty", 3)):
        weights = getattr(base, name)
        assert weights.shape == (size,) and not weights.flags.writeable
        for bad in (np.eye(size), np.ones(size + 1), np.ones(size - 1)):
            message = f"{name} must be a vector"
            with pytest.raises(DimensionError, match=message):
                SystemModel(**{**fields, name: bad})
        for value, problem in (
            (0.0, "strictly positive"), (-1.0, "strictly positive"),
            (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
        ):
            bad = np.ones(size)
            bad[-1] = value
            message = f"{name} must be {problem}"
            with pytest.raises(DimensionError, match=message):
                SystemModel(**{**fields, name: bad})
    # noise covariance must be positive definite
    with pytest.raises(DimensionError):
        make_model([[1.0]], [[1.0]], horizon=2, noise=[0.0])


def test_model_rejects_non_finite_arrays():
    # a NaN initial mean or an infinite noise variance ran, and reported a
    # NaN mean cost; a NaN in A surfaced as a singular gain kernel
    base = make_model([[1.0, 0.2], [0.0, 0.5]], np.eye(2), horizon=3)
    for name in ("A", "B", "init_mean", "noise_cov", "init_cov"):
        for value in (np.nan, np.inf, -np.inf):
            bad = np.array(getattr(base, name))
            bad.flat[0] = value
            with pytest.raises(DimensionError, match=f"{name} must be finite"):
                replace(base, **{name: bad})


def test_covariance_factors_are_built_with_the_model(rng):
    # noise_chol and init_chol are each covariance's Cholesky factor,
    # computed when the model is built and never passed in
    model = random_model(rng, n=3)
    root = rng.normal(size=(3, 3))
    model = replace(model, noise_cov=root @ root.T + 0.1 * np.eye(3))
    for factor, cov in (
        (model.noise_chol, model.noise_cov), (model.init_chol, model.init_cov),
    ):
        assert np.array_equal(factor, np.linalg.cholesky(cov))
        assert not factor.flags.writeable
    fields = {
        name: getattr(model, name)
        for name in ("A", "B", "Q", "state_penalty", "input_penalty",
                     "noise_cov", "init_cov", "init_mean", "horizon")
    }
    with pytest.raises(TypeError):
        SystemModel(**fields, noise_chol=model.noise_chol)


def test_reachability_report():
    ok = make_model([[1.03, 0.005], [0.35, 0.5]], np.eye(2), horizon=5)
    assert reachable(ok)

    # input only ever excites the first coordinate: rank 1 of a possible 2
    stuck = make_model(np.eye(2), [[1.0], [0.0]], horizon=4)
    assert not reachable(stuck)
