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
"""

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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

    ``kernel`` is the (N*m, N*m) matrix inverted (implicitly, via a stored
    factorization) against ``cross_gram @ x``.  ``mean_stack`` is the
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
    rcond: float  # LAPACK's 1-norm reciprocal condition estimate of kernel
    _solve: object  # callable rhs -> kernel^{-1} rhs
    ens: PredictionEnsemble = field(repr=False)  # the one it was built from

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """kernel^{-1} @ rhs without forming an explicit inverse."""
        out = self._solve(rhs)
        if not np.all(np.isfinite(out)):
            raise NumericalError("gain solve produced non-finite values")
        return out


def _make_solver(kernel: np.ndarray):
    """The kernel's solve, and LAPACK's estimate of its 1-norm rcond.

    Cholesky when the kernel is symmetric (homogeneous channel means make
    it so), else LU, since heterogeneous means scale its columns.  Each
    solve is the one LAPACK call that cho_solve and lu_solve end in, looked
    up once: their argument handling costs more than a small solve.
    ``pocon`` or ``gecon`` estimates rcond from the same factorization in
    O(d^2) (Hager 1984; Higham 1988).  A backward-stable solve errs by up
    to about d eps / rcond relative, so below rcond = d eps that bound
    passes 1 and the input sequence may hold no correct digit: such a
    kernel, or one whose factorization fails, raises ``NumericalError``.
    """
    sym = np.allclose(kernel, kernel.T, rtol=0.0,
                      atol=1e-12 * max(1.0, float(np.abs(kernel).max())))
    names = ("potrf", "potrs", "pocon") if sym else ("getrf", "getrs", "gecon")
    factorize, solve, estimate = scipy.linalg.get_lapack_funcs(names, (kernel,))
    factor, *piv, info = factorize(kernel)
    anorm = float(np.abs(kernel).sum(axis=0).max())
    rcond = float(estimate(factor, anorm)[0]) if info == 0 else 0.0
    threshold = kernel.shape[0] * np.finfo(float).eps
    if not rcond >= threshold:
        raise NumericalError(
            f"gain kernel is numerically singular: reciprocal condition "
            f"estimate {rcond:.3g} is below d eps = {threshold:.3g}"
        )
    return lambda rhs: _solved(*solve(factor, *piv, rhs)), rcond


def _solved(x, info):
    if info != 0:
        raise NumericalError(f"gain solve: bad LAPACK argument {-info}")
    return x


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
    penalty = np.diag(model.input_penalty)
    kernel = penalty + ens.input_gram * nu[None, :]
    kernel = kernel + np.diag(paid * (1.0 - nu))
    # the attack quadratic's state-free parts: the paid variance leaves the
    # coupling and joins the load
    variance = np.diag(paid)
    coupling = ens.input_gram - variance
    load = variance + penalty + 2.0 * coupling * nu[None, :]
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
