"""Loss channel, stream keying, and the packet-loss monitor."""

import numpy as np
import pytest

from dropattack import (
    ChannelSpec,
    DetectionSpec,
    DimensionError,
    STREAM_INIT,
    STREAM_LOSS,
    STREAM_NOISE,
    fresh_monitor,
    in_safe_region,
    philox_keys,
    philox_stream,
    update_monitor,
)
from dropattack.channel import _rekey

from conftest import seeded_stream


def test_streams_are_deterministic_and_independent():
    a = philox_stream(7, 0, STREAM_NOISE).random(6)
    b = philox_stream(7, 0, STREAM_NOISE).random(6)
    np.testing.assert_array_equal(a, b)
    c = philox_stream(7, 0, STREAM_LOSS).random(6)
    d = philox_stream(7, 1, STREAM_NOISE).random(6)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# one, two, three and seven 32-bit words; the last runs past the hash
# constants computed at import
KEY_SEEDS = [0, 1, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1, 2 ** 70 + 3,
             np.int64(3), 2 ** 200 + 5]
# both sides of the 64-realization blocks of the lockstep engine
KEY_REALIZATIONS = [0, 1, 63, 64, 65, 127, 128]
PURPOSES = [STREAM_NOISE, STREAM_LOSS, STREAM_INIT]
F32 = np.float32


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", KEY_SEEDS, ids=str)
def test_keys_are_seed_sequences(seed):
    # uint32 wraparound in the hash must raise no warning either
    keys = philox_keys(seed, KEY_REALIZATIONS, PURPOSES)
    assert keys.shape == (len(KEY_REALIZATIONS), len(PURPOSES), 2)
    assert keys.dtype == np.uint64
    gen = np.random.Generator(np.random.Philox(key=0))
    for i, r in enumerate(KEY_REALIZATIONS):
        for j, purpose in enumerate(PURPOSES):
            entropy = [int(seed), r, purpose]
            want = np.random.SeedSequence(entropy).generate_state(2, np.uint64)
            np.testing.assert_array_equal(keys[i, j], want)
            # the generator is reset from the last stream's mid-buffer
            # state with a spare 32-bit half (three float32 uniforms draw
            # three halves), and draws what one built on the SeedSequence
            # draws; so does the one-key path
            ref = seeded_stream(seed, r, purpose)
            want = [ref.random(5), ref.standard_normal(7), ref.random(3, F32)]
            one = philox_stream(seed, r, purpose)
            for got in (_rekey(gen, keys[i, j]), one):
                np.testing.assert_array_equal(got.random(5), want[0])
                np.testing.assert_array_equal(got.standard_normal(7), want[1])
                np.testing.assert_array_equal(got.random(3, F32), want[2])


def test_key_words_are_bounded():
    # a realization or purpose of 2^32 or more would take two entropy
    # words, so its key is refused, not wrapped onto r mod 2^32
    with pytest.raises(DimensionError, match=r"2\^32"):
        philox_keys(7, [0, 2 ** 32], PURPOSES)
    with pytest.raises(DimensionError, match=r"2\^32"):
        philox_keys(7, [2 ** 40], PURPOSES)
    with pytest.raises(DimensionError, match=r"2\^32"):
        philox_stream(7, 2 ** 32, STREAM_NOISE)
    with pytest.raises(DimensionError, match=r"2\^32"):
        philox_keys(7, [0], [2 ** 32])
    with pytest.raises(DimensionError):
        philox_keys(7, [-1], PURPOSES)
    with pytest.raises(DimensionError):
        philox_keys(-1, [0], PURPOSES)
    # the largest one-word realization is still a key
    last = np.random.SeedSequence([7, 2 ** 32 - 1, 0]).generate_state(
        2, np.uint64
    )
    np.testing.assert_array_equal(philox_keys(7, [2 ** 32 - 1], [0])[0, 0], last)


def test_channel_spec_validation():
    spec = ChannelSpec(mean_diag=np.array([0.0, 0.7]))
    assert spec.m == 2
    with pytest.raises(ValueError):
        spec.mean_diag[0] = 0.5  # frozen
    with pytest.raises(DimensionError):
        ChannelSpec(mean_diag=np.array([1.0]))  # 1 excluded
    with pytest.raises(DimensionError):
        ChannelSpec(mean_diag=np.array([-0.01]))
    with pytest.raises(DimensionError):
        ChannelSpec(mean_diag=np.array([0.5, np.nan]))  # fails every comparison
    with pytest.raises(DimensionError):
        ChannelSpec(mean_diag=np.zeros((2, 2)))


def test_detection_bounds_clamp_to_unit_interval():
    channel = ChannelSpec(mean_diag=np.array([0.05, 0.95]))
    det = DetectionSpec(tol_diag=np.array([0.1, 0.1]))
    lo, hi = det.bounds(channel)
    np.testing.assert_allclose(lo, [0.0, 0.85])
    np.testing.assert_allclose(hi, [0.15, 1.0])
    with pytest.raises(DimensionError):
        DetectionSpec(tol_diag=np.array([-0.1]))
    with pytest.raises(DimensionError):
        DetectionSpec(tol_diag=np.array([0.1, np.nan]))
    with pytest.raises(DimensionError):
        det.bounds(ChannelSpec(mean_diag=np.array([0.5])))


def test_monitor_running_means(rng):
    mon = fresh_monitor(2)
    assert mon.steps == 0
    assert np.all(np.isnan(mon.means))

    outcomes = (rng.random((40, 2)) < 0.6).astype(float)
    for k, v in enumerate(outcomes, start=1):
        mon = update_monitor(mon, v)
        assert mon.steps == k
        np.testing.assert_allclose(mon.means, outcomes[:k].mean(axis=0))
    with pytest.raises(DimensionError):
        update_monitor(mon, np.ones(3))


def test_safe_region_is_boundary_inclusive():
    # dyadic values so the boundary comparison is exact in binary floats
    channel = ChannelSpec(mean_diag=np.array([0.5]))
    det = DetectionSpec(tol_diag=np.array([0.25]))
    assert in_safe_region(np.array([0.75]), channel, det)
    assert in_safe_region(np.array([0.25]), channel, det)
    assert not in_safe_region(np.array([0.750001]), channel, det)
    # any single violating channel flags the whole vector
    wide = ChannelSpec(mean_diag=np.array([0.7, 0.7]))
    det2 = DetectionSpec(tol_diag=np.array([0.1, 0.1]))
    assert not in_safe_region(np.array([0.7, 0.2]), wide, det2)


def test_band_edges_are_symmetric():
    # running means exactly on either edge of 0.7 +- 0.1 lie in the band
    channel = ChannelSpec(mean_diag=np.array([0.7]))
    det = DetectionSpec(tol_diag=np.array([0.1]))
    for steps in (5, 30, 50):
        for count in (round(0.6 * steps), round(0.8 * steps)):
            assert in_safe_region(np.array([count / steps]), channel, det), (
                f"{count}/{steps}"
            )
