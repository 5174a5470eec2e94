"""Receding-horizon controllers for the lossy actuation link.

Two acknowledgement disciplines are supported.  Under the TCP-like protocol
the operator learns each packet's fate, so only the expected delivery rate
enters the input-sequence gain.  Under the UDP-like protocol no
acknowledgements arrive, so the operator also pays each delivery's
variance: the diagonal of the input Gramian weighted by the missing mass
of each channel.  :func:`control_gain` is the one place that reads the
protocol; it records the variance the gain pays as
``ControllerGain.paid_variance`` (the input Gramian's diagonal for udp,
zeros for tcp), and every later formula reads that instead.

Both controllers minimize the same horizon-quadratic cost and produce a
stacked input sequence that is linear in the current state,

    ups = -gain_kernel^{-1} @ cross_gram @ x,

of which only the first input block is transmitted each step.  The
expected cost this sequence achieves is the attack quadratic at the
nominal rates, ``costs.expected_attacked_cost(ctx)``.

The gain inverts its kernel once, with numpy alone.  Each solve is the
inverse's product followed by one step of iterative refinement against the
kernel, and the gain keeps the kernel's exact 1-norm reciprocal condition
number as ``rcond``; a kernel with rcond below d eps is refused.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalError
from .model import PredictionEnsemble, SystemModel

__all__ = [
    "Protocol",
    "ControllerGain",
    "control_gain",
    "optimal_input_sequence",
]


class Protocol(enum.Enum):
    """Acknowledgement discipline of the actuation link."""

    TCP_LIKE = "tcp"
    UDP_LIKE = "udp"

    @classmethod
    def parse(cls, text: str) -> "Protocol":
        table = {"tcp": cls.TCP_LIKE, "udp": cls.UDP_LIKE}
        try:
            return table[str(text).strip().lower()]
        except KeyError:
            raise ValueError(
                f"protocol must be 'tcp' or 'udp', got {text!r}"
            ) from None


@dataclass(frozen=True, eq=False)
class ControllerGain:
    """Input-sequence gain kernel for one protocol and channel law.

    ``kernel`` is the (N*m, N*m) matrix inverted against ``cross_gram @ x``,
    through an inverse stored once.  ``mean_stack`` is the
    stacked per-step channel mean diagonal as a 1-D array of length N*m,
    and ``paid_variance`` the stacked weight of each delivery's variance in
    the cost: the input Gramian's diagonal for udp, zeros for tcp.

    ``coupling`` and ``load`` are the state-free matrices of the attack
    quadratic (``attack_iid.build_qp``), C = input_gram - diag(paid) and
    diag(paid) + diag(input_penalty) + 2 C diag(mean_stack); every state's H
    and c are them weighted by the optimal sequence.  All arrays are
    read-only, so one gain serves every state of an operation.
    """

    kernel: np.ndarray
    mean_stack: np.ndarray
    paid_variance: np.ndarray
    coupling: np.ndarray
    load: np.ndarray
    protocol: Protocol
    rcond: float  # 1 / (|kernel|_1 |kernel^-1|_1)
    _solve: object  # callable rhs -> kernel^{-1} rhs
    ens: PredictionEnsemble = field(repr=False)  # the one it was built from

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """kernel^{-1} @ rhs, refined once against the kernel."""
        out = self._solve(rhs)
        if not np.all(np.isfinite(out)):
            raise NumericalError("gain solve produced non-finite values")
        return out


def _make_solver(kernel: np.ndarray):
    """The kernel's solve, and its exact 1-norm reciprocal condition number.

    The kernel is inverted once, and rcond = 1 / (|K|_1 |K^-1|_1) is read
    off the inverse: the exact value, never above an estimate of it.  A
    symmetric kernel (homogeneous channel means make it so) must also be
    positive definite, as every built one is; one that is not gets rcond
    0.  Each solve is the inverse's product with one step of iterative
    refinement, x + K^-1 (rhs - K x) (Skeel 1980), so it costs O(d^2) and
    errs about as a backward-stable solve does: by up to about
    d eps / rcond relative.  Below rcond = d eps that bound passes 1 and
    the input sequence may hold no correct digit: such a kernel, or a
    singular one, raises ``NumericalError``.
    """
    # np.allclose(kernel, kernel.T, rtol=0, atol=...) at half its cost
    scale = max(1.0, float(np.abs(kernel).max()))
    sym = np.abs(kernel - kernel.T).max() <= 1e-12 * scale
    try:
        inverse = np.linalg.inv(kernel)
    except np.linalg.LinAlgError:
        rcond = 0.0
    else:
        norms = np.linalg.norm(kernel, 1) * np.linalg.norm(inverse, 1)
        rcond = float(1.0 / norms) if not sym or _definite(kernel) else 0.0
    threshold = kernel.shape[0] * np.finfo(float).eps
    if not rcond >= threshold:
        raise NumericalError(
            f"gain kernel is numerically singular: reciprocal condition "
            f"estimate {rcond:.3g} is below d eps = {threshold:.3g}"
        )

    def solve(rhs):
        x = inverse @ rhs
        return x + inverse @ (rhs - kernel @ x)

    return solve, rcond


def _definite(kernel: np.ndarray) -> bool:
    """Whether a symmetric kernel is positive definite: every pivot of its
    LDL' factorization, built column by column, is positive."""
    d = len(kernel)
    unit = np.zeros((d, d))  # L, unit lower triangular
    pivots = np.empty(d)  # D
    for k in range(d):
        column = kernel[k:, k] - unit[k:, :k] @ (unit[k, :k] * pivots[:k])
        if not column[0] > 0.0:
            return False
        pivots[k] = column[0]
        unit[k:, k] = column / column[0]
    return True


def _expand_step_means(ens: PredictionEnsemble, step_means) -> np.ndarray:
    """(N, m) per-step delivery rates from a scalar, a per-channel vector
    tiled over the horizon, or a full schedule, each rate in [0, 1]."""
    step_means = np.asarray(step_means, dtype=float)
    if step_means.ndim == 0:
        step_means = np.full((ens.horizon, ens.m), float(step_means))
    elif step_means.ndim == 1:
        if step_means.size != ens.m:
            raise DimensionError(
                f"per-channel means must have {ens.m} entries, "
                f"got {step_means.size}"
            )
        step_means = np.tile(step_means, (ens.horizon, 1))
    if step_means.shape != (ens.horizon, ens.m):
        raise DimensionError(
            f"step means must have shape {(ens.horizon, ens.m)}, "
            f"got {step_means.shape}"
        )
    if not np.all((0.0 <= step_means) & (step_means <= 1.0)):
        raise DimensionError("step means must lie in [0, 1]")
    return step_means


def control_gain(
    ens: PredictionEnsemble,
    model: SystemModel,
    mean_diag: np.ndarray,
    protocol: Protocol,
) -> ControllerGain:
    """Build the input-sequence gain kernel for the given channel means.

    ``mean_diag`` holds the per-channel delivery probabilities, each in
    [0, 1).  The kernel is diag(input_penalty) + input_gram * means plus the
    diagonal paid_variance * (1 - means).  The protocol decides only the
    paid variance: a udp-like loop never learns a packet's fate and pays
    the input Gramian's diagonal; a tcp-like loop pays none.
    """
    mean_diag = np.asarray(mean_diag, dtype=float)
    if mean_diag.shape != (ens.m,):
        raise DimensionError(
            f"mean_diag must have shape {(ens.m,)}, got {mean_diag.shape}"
        )
    if not np.all((0.0 <= mean_diag) & (mean_diag < 1.0)):
        raise DimensionError("channel means must lie in [0, 1)")
    # stacked step-major: channel i of step k at k*m + i
    nu = np.tile(mean_diag, ens.horizon)
    # the one protocol decision: the delivery variance the cost pays
    udp = protocol is Protocol.UDP_LIKE
    paid = np.diagonal(ens.input_gram) if udp else np.zeros_like(nu)
    # diagonal terms are added in place, with no dense diagonal matrix
    diagonal = np.diag_indices(len(nu))
    kernel = ens.input_gram * nu[None, :]
    kernel[diagonal] += model.input_penalty
    kernel[diagonal] += paid * (1.0 - nu)
    # the attack quadratic's state-free parts: the paid variance leaves the
    # coupling and joins the load
    coupling = ens.input_gram.copy()
    coupling[diagonal] -= paid
    load = 2.0 * coupling * nu[None, :]
    load[diagonal] += paid + model.input_penalty
    for array in (kernel, nu, paid, coupling, load):
        array.setflags(write=False)
    solve, rcond = _make_solver(kernel)
    return ControllerGain(
        kernel=kernel,
        mean_stack=nu,
        paid_variance=paid,
        coupling=coupling,
        load=load,
        protocol=protocol,
        rcond=rcond,
        _solve=solve,
        ens=ens,
    )


def optimal_input_sequence(
    gain: ControllerGain, ens: PredictionEnsemble, x: np.ndarray
) -> np.ndarray:
    """Stacked optimal input sequence -kernel^{-1} cross_gram x, length N*m."""
    if gain.ens is not ens:
        raise DimensionError("gain was built from another prediction ensemble")
    x = np.asarray(x, dtype=float)
    if x.shape != (ens.n,):
        raise DimensionError(f"x must have shape {(ens.n,)}, got {x.shape}")
    return -gain.solve(ens.cross_gram @ x)
