"""Plant and horizon-prediction model for control over a lossy actuation link.

The plant is linear with additive Gaussian noise,

    x(k+1) = A x(k) + B V(k) u(k) + w(k),

where V(k) is a diagonal 0/1 matrix of per-channel packet outcomes (1 means
the actuator command was delivered).  Stacking the next ``N`` states gives
the prediction used by the receding-horizon controller,

    chi = state_map @ x + input_map @ (nu * ups) + noise_map @ xi,

with ``ups`` the stacked input sequence, ``nu`` the stacked loss outcomes and
``xi`` the stacked process noise.  The quadratic-cost Gramians of the state
and input maps (and the cross term between them), with the noise map's
expected cost, are what every downstream formula consumes, so they are
assembled once here and reused.

Diagonal matrices are passed around as 1-D arrays of their diagonals: loss
outcomes, channel means and the cost weights, whose stacked diagonals are
step-major (entry k*n + i weights coordinate i of predicted step k + 1).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

__all__ = [
    "SystemModel",
    "PredictionEnsemble",
    "build_prediction_ensemble",
]


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _count(value, name: str, minimum: int):
    """Raise unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < minimum):
        raise DimensionError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )


def _require_finite(M, name):
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} must be finite")


def _require_weights(w, name, size):
    if w.shape != (size,):
        raise DimensionError(
            f"{name} must be a vector of length {size}, got shape {w.shape}"
        )
    _require_finite(w, name)
    if np.any(w <= 0.0):
        raise DimensionError(f"{name} must be strictly positive")


def _require_sym_pd(M, name, n):
    """Check ``M`` and return its read-only Cholesky factor."""
    if M.shape != (n, n):
        raise DimensionError(f"{name} must have shape {(n, n)}, got {M.shape}")
    _require_finite(M, name)
    scale = max(1.0, float(np.abs(M).max()))
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-12 * scale):
        raise DimensionError(f"{name} must be symmetric")
    try:
        return _frozen(np.linalg.cholesky(M))
    except np.linalg.LinAlgError:
        raise DimensionError(f"{name} must be positive definite") from None


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Plant matrices, cost weights and noise statistics.

    Attributes
    ----------
    A, B : ndarray
        Plant dynamics (n, n) and input map (n, m).
    Q : ndarray
        Positive weights (n,), the diagonal of the weight on the state at
        the decision step.
    state_penalty : ndarray
        Positive weights (N*n,), the diagonal of the weight on the
        predicted state stack.
    input_penalty : ndarray
        Positive weights (N*m,), the diagonal of the weight on the
        delivered-input stack.
    noise_cov : ndarray
        Process-noise covariance (n, n), symmetric positive definite.
    init_cov, init_mean : ndarray
        Second and first moments of the initial state.
    horizon : int
        Prediction length N >= 1.
    noise_chol, init_chol : ndarray
        Lower Cholesky factors of ``noise_cov`` and ``init_cov``, computed
        when the model is built; not constructor arguments.

    Every array is read-only and finite.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    state_penalty: np.ndarray
    input_penalty: np.ndarray
    noise_cov: np.ndarray
    init_cov: np.ndarray
    init_mean: np.ndarray
    horizon: int
    noise_chol: np.ndarray = field(init=False, repr=False)
    init_chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = _frozen(self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionError(f"A must be square, got shape {A.shape}")
        _require_finite(A, "A")
        n = A.shape[0]
        B = _frozen(self.B)
        if B.ndim != 2 or B.shape[0] != n:
            raise DimensionError(
                f"B must have {n} rows to match A, got shape {B.shape}"
            )
        _require_finite(B, "B")
        m = B.shape[1]
        _count(self.horizon, "horizon", 1)
        N = int(self.horizon)
        Q = _frozen(self.Q)
        Om = _frozen(self.state_penalty)
        Ps = _frozen(self.input_penalty)
        _require_weights(Q, "Q", n)
        _require_weights(Om, "state_penalty", N * n)
        _require_weights(Ps, "input_penalty", N * m)
        Sw = _frozen(self.noise_cov)
        Sx = _frozen(self.init_cov)
        noise_chol = _require_sym_pd(Sw, "noise_cov", n)
        init_chol = _require_sym_pd(Sx, "init_cov", n)
        xb = _frozen(self.init_mean)
        if xb.shape != (n,):
            raise DimensionError(
                f"init_mean must have shape {(n,)}, got {xb.shape}"
            )
        _require_finite(xb, "init_mean")
        for name, val in (
            ("A", A), ("B", B), ("Q", Q), ("state_penalty", Om),
            ("input_penalty", Ps), ("noise_cov", Sw), ("init_cov", Sx),
            ("init_mean", xb), ("noise_chol", noise_chol),
            ("init_chol", init_chol),
        ):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "horizon", N)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class PredictionEnsemble:
    """Stacked prediction maps and their cost Gramians.

    ``state_map`` is (N*n, n): rows are A, A^2, ..., A^N.  ``input_map`` is
    (N*n, N*m) block lower triangular with block (i, j) = A^(i-j) B, and
    ``noise_map`` is its square analogue with B replaced by the identity.
    The Gramians are taken against W = diag(w), w = ``state_penalty``:

        state_gram = state_map' W state_map      (n, n)
        input_gram = input_map' W input_map      (N*m, N*m)
        cross_gram = input_map' W state_map      (N*m, n)

    The noise enters the cost only as the constant ``noise_cost``, the
    expected stacked-noise cost trace(noise_map' W noise_map (I kron
    Sigma_W)).  With L = ``noise_chol`` it is the weighted squared norm
    sum_i w_i |row i of noise_map (I kron L)|^2, one (N*N*n, n) x (n, n)
    product: O(N^2 n^3), against O((N n)^3) for the noise Gramian.
    """

    state_map: np.ndarray
    input_map: np.ndarray
    noise_map: np.ndarray
    state_gram: np.ndarray
    input_gram: np.ndarray
    cross_gram: np.ndarray
    noise_cost: float
    n: int
    m: int
    horizon: int


def _block_toeplitz(blocks: np.ndarray) -> np.ndarray:
    """The (N r, N c) block lower triangular matrix whose block (i, j) is
    ``blocks[i - j]`` for i >= j, from an (N, r, c) stack of blocks."""
    N, r, c = blocks.shape
    padded = np.concatenate([np.zeros((N - 1, r, c)), blocks])
    steps = np.arange(N)
    lags = (N - 1) + steps[:, None] - steps[None, :]  # i - j, into padded
    # gathered as (row, i, j, column), then one copy to (i, row, j, column)
    gathered = padded.transpose(1, 0, 2).take(lags, axis=1)
    return gathered.transpose(1, 0, 2, 3).reshape(N * r, N * c)


def build_prediction_ensemble(model: SystemModel) -> PredictionEnsemble:
    """Assemble the stacked prediction maps and Gramians for ``model``."""
    A, B = model.A, model.B
    n, m, N = model.n, model.m, model.horizon

    # powers[p] = A^p, p = 0..N
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(A @ powers[-1])

    state_map = np.vstack(powers[1:])

    # block (i, j) depends only on the lag i - j
    input_map = _block_toeplitz(np.array([power @ B for power in powers[:N]]))
    noise_map = _block_toeplitz(np.array(powers[:N]))

    # W is diagonal, so W @ X is a row scaling by its diagonal
    w = model.state_penalty[:, None]
    w_state = w * state_map
    state_gram = state_map.T @ w_state
    input_gram = input_map.T @ (w * input_map)
    cross_gram = input_map.T @ w_state

    # each row of noise_map (I kron L) is its row's n-column blocks times L
    noise_root = noise_map.reshape(N * n * N, n) @ model.noise_chol
    noise_cost = float(np.sum(w * noise_root.reshape(N * n, N * n) ** 2))

    return PredictionEnsemble(
        state_map=_frozen(state_map),
        input_map=_frozen(input_map),
        noise_map=_frozen(noise_map),
        state_gram=_frozen(state_gram),
        input_gram=_frozen(input_gram),
        cross_gram=_frozen(cross_gram),
        noise_cost=noise_cost,
        n=n,
        m=m,
        horizon=N,
    )

