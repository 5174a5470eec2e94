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

A stream is the Philox stream whose key numpy's
``SeedSequence(entropy=[seed, realization, purpose]).generate_state(2,
np.uint64)`` gives, from counter 0.  :func:`philox_keys` computes those
keys for many (realization, purpose) pairs at once: it runs SeedSequence's
own hash over a (words, keys) uint32 array, one numpy operation per step
of the hash for all keys, and the hash constants, which do not depend on
the entropy, are computed at import.  Philox is counter-based, so its
stream is fixed by the key alone (Salmon et al. 2011): one generator reset
to a key (counter 0, an empty buffer) draws bit for bit what a generator
built on that key's SeedSequence draws, and the engine resets one
generator per stream instead of building a SeedSequence, a Philox and a
Generator for each.  A seed of any size enters as its 32-bit words, as in
SeedSequence; realizations and purpose tags must each fit one word.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .model import _count

__all__ = [
    "ChannelSpec",
    "DetectionSpec",
    "MonitorState",
    "philox_keys",
    "philox_stream",
    "STREAM_NOISE",
    "STREAM_LOSS",
    "STREAM_INIT",
    "fresh_monitor",
    "update_monitor",
    "in_safe_region",
]

# purpose tags of the stream keys
STREAM_NOISE = 0
STREAM_LOSS = 1
STREAM_INIT = 2

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, each the hashmix of an entropy word, cross-mixed, with any
# further entropy words mixed into every pool word, then hashed out
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _chain(init, mult, count):
    """The hash constants init * mult^t mod 2^32 for t < count, as a column."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# hashmix call t xors constant t and multiplies by constant t + 1; the
# pool takes 4 calls to fill and 4 * 3 to cross-mix, and each entropy word
# beyond the pool 4 more: a seed of 2^64 or more has three or more words,
# and the chain below covers seeds below 2^192
_MIX_CONSTS = _chain(_INIT_A, _MULT_A, _POOL * _POOL + 1 + 4 * _POOL)
_OUT_CONSTS = _chain(_INIT_B, _MULT_B, _POOL + 1)
# the pool rows a source row is cross-mixed into, in order
_OTHERS = [[i for i in range(_POOL) if i != src] for src in range(_POOL)]
# the counter and the buffer at the start of a Philox stream
_ZEROS = np.zeros(4, dtype=np.uint64)


def _hashmix(values, consts):
    """SeedSequence's hashmix of ``values`` against len(consts) - 1 rows."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> _SHIFT
    return out


def _mix(x, y):
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> _SHIFT
    return out


def _word_row(values, name):
    """``values`` as a row of single uint32 entropy words."""
    row = np.asarray(values)
    if row.ndim != 1 or row.size and (
        row.dtype.kind not in "iu" or row.min() < 0 or row.max() > _MASK32
    ):
        # a larger value would take two words and shift the rest of its key
        raise DimensionError(
            f"{name} must be a 1-D list of integers in [0, 2^32)"
        )
    return row.astype(np.uint32)


def philox_keys(seed, realizations, purposes) -> np.ndarray:
    """Philox keys of every (realization, purpose) pair under ``seed``.

    Returns a (len(realizations), len(purposes), 2) uint64 array whose
    [i, j] entry is ``SeedSequence(entropy=[seed, realizations[i],
    purposes[j]]).generate_state(2, np.uint64)``, bit for bit, computed for
    all pairs in one pass.  ``seed`` is any integer >= 0; realizations and
    purpose tags must lie in [0, 2^32), one entropy word each, so that no
    two pairs share a key.
    """
    _count(seed, "seed", 0)
    r = _word_row(realizations, "realizations")
    p = _word_row(purposes, "purposes")
    # little-endian 32-bit words, and 0 is one word, as in SeedSequence
    seed = int(seed)
    words = [
        seed >> shift & _MASK32
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ]
    size = len(words) + 2
    entropy = np.zeros((max(size, _POOL), r.size, p.size), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None, None]
    entropy[len(words)] = r[:, None]
    entropy[len(words) + 1] = p
    entropy = entropy.reshape(len(entropy), r.size * p.size)

    needed = _POOL * _POOL + 1 + _POOL * max(size - _POOL, 0)
    consts = _MIX_CONSTS
    if len(consts) < needed:
        consts = _chain(_INIT_A, _MULT_A, needed)
    pool = _hashmix(entropy[:_POOL], consts[: _POOL + 1])
    t = _POOL
    for src, others in enumerate(_OTHERS):
        # each other row mixes in its own hashmix of the source row
        pool[others] = _mix(
            pool[others], _hashmix(pool[src], consts[t : t + _POOL])
        )
        t += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, consts[t : t + _POOL + 1]))
        t += _POOL
    state = _hashmix(pool, _OUT_CONSTS).astype(np.uint64)
    # little-endian word pairs, as generate_state views them
    keys = state[0::2] | state[1::2] << np.uint64(32)
    return keys.T.reshape(r.size, p.size, 2)


def _rekey(gen: np.random.Generator, key) -> np.random.Generator:
    """``gen``, a Philox generator, reset to the start of ``key``'s stream.

    The reset state is the one a Philox built on the key starts in:
    counter 0, an empty buffer and no spare 32-bit half.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def philox_stream(seed, realization, purpose) -> np.random.Generator:
    """The generator of one (seed, realization, purpose) stream.

    The one-key case of :func:`philox_keys`.
    """
    key = philox_keys(seed, [realization], [purpose])[0, 0]
    return np.random.Generator(np.random.Philox(key=key))


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
