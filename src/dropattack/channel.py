"""Bernoulli packet channel, empirical-mean monitor and RNG streams.

Each actuator channel drops packets independently: the i-th diagonal entry
of the loss matrix at step k is 1 with probability mean_i.  The operator
watches the running empirical delivery rate of every channel and flags the
link as soon as any rate leaves the declared tolerance band mean_i +- tol_i,
clamped to [0, 1], with both edges included (within a slack of 1e-12).

An attacker who keeps the per-step means inside that band therefore stays
undetected up to the usual concentration error of the empirical mean.

Randomness is organized as named counter-based streams: every
(seed, realization, purpose) triple owns an independent Philox generator, so
noise draws are identical across runs that differ only in their attack, and
simulations are reproducible bit for bit regardless of evaluation order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = [
    "ChannelSpec",
    "DetectionSpec",
    "MonitorState",
    "philox_stream",
    "STREAM_NOISE",
    "STREAM_LOSS",
    "STREAM_INIT",
    "fresh_monitor",
    "update_monitor",
    "in_safe_region",
]

# purpose tags for philox_stream keys
STREAM_NOISE = 0
STREAM_LOSS = 1
STREAM_INIT = 2


def philox_stream(*key) -> np.random.Generator:
    """Independent counter-based generator for an integer key tuple."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=[int(k) for k in key]))
    )


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Nominal per-channel delivery probabilities, each in [0, 1)."""

    mean_diag: np.ndarray

    def __post_init__(self):
        md = np.array(self.mean_diag, dtype=float)
        if md.ndim != 1 or md.size == 0:
            raise DimensionError("mean_diag must be a non-empty 1-D array")
        if not np.all((0.0 <= md) & (md < 1.0)):
            raise DimensionError("channel means must lie in [0, 1)")
        md.setflags(write=False)
        object.__setattr__(self, "mean_diag", md)

    @property
    def m(self) -> int:
        return self.mean_diag.size


# nominal +- tol and count/k each round a few ulps off their exact values;
# the slack keeps a mean exactly on either band edge inside the band
_EDGE_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class DetectionSpec:
    """Per-channel tolerance band half-widths, each nonnegative.

    ``bounds`` gives the admissible mean interval for each channel, clamped
    to the unit interval: [max(0, mean - tol), min(1, mean + tol)].  The
    nominal mean always lies inside its own band, so the band is never
    empty; an attacker constrained to a single shared rate may still face an
    empty intersection across channels, which callers must handle.
    """

    tol_diag: np.ndarray

    def __post_init__(self):
        td = np.array(self.tol_diag, dtype=float)
        if td.ndim != 1 or td.size == 0:
            raise DimensionError("tol_diag must be a non-empty 1-D array")
        if not np.all(td >= 0.0):
            raise DimensionError("detection tolerances must be >= 0")
        td.setflags(write=False)
        object.__setattr__(self, "tol_diag", td)

    def bounds(self, channel: ChannelSpec):
        if self.tol_diag.size != channel.m:
            raise DimensionError(
                f"tol_diag has {self.tol_diag.size} entries for "
                f"{channel.m} channels"
            )
        lo = np.maximum(0.0, channel.mean_diag - self.tol_diag)
        hi = np.minimum(1.0, channel.mean_diag + self.tol_diag)
        return lo, hi

    def contains(self, channel: ChannelSpec, means) -> np.ndarray:
        """Band membership of ``means`` (channels last), edges included."""
        lo, hi = self.bounds(channel)
        inside = (lo - _EDGE_SLACK <= means) & (means <= hi + _EDGE_SLACK)
        return np.all(inside, axis=-1)

    def monitor(self, channel: ChannelSpec, deliveries, min_steps: int = 1):
        """Running means and first flag steps of (..., T, m) 0/1 deliveries.

        The means are bitwise :func:`update_monitor`'s (the counts are exact
        integers); armed from step ``min_steps``, -1 where none flags.
        """
        means = np.cumsum(deliveries, axis=-2, dtype=float)
        means /= np.arange(1, means.shape[-2] + 1)[:, None]
        outside = ~self.contains(channel, means)
        outside[..., : max(min_steps - 1, 0)] = False
        return means, np.where(outside.any(-1), outside.argmax(-1), -1)


@dataclass(frozen=True, eq=False)
class MonitorState:
    """Running per-channel delivery counts after ``steps`` observed steps.

    ``means`` is counts/steps, or NaN before the first observation.
    """

    steps: int
    counts: np.ndarray
    means: np.ndarray


def fresh_monitor(m: int) -> MonitorState:
    return MonitorState(
        steps=0, counts=np.zeros(m), means=np.full(m, np.nan)
    )


def update_monitor(state: MonitorState, v: np.ndarray) -> MonitorState:
    """Fold one loss outcome into the running empirical means."""
    v = np.asarray(v, dtype=float)
    if v.shape != state.counts.shape:
        raise DimensionError(
            f"v must have shape {state.counts.shape}, got {v.shape}"
        )
    counts = state.counts + v
    steps = state.steps + 1
    return MonitorState(steps=steps, counts=counts, means=counts / steps)


def in_safe_region(
    observed: np.ndarray, channel: ChannelSpec, detection: DetectionSpec
) -> bool:
    """Whether every mean is in its band, edges included, within 1e-12."""
    return bool(detection.contains(channel, observed))
