"""Loss channel, stream keying, and the packet-loss monitor."""

import numpy as np
import pytest

from dropattack import (
    ChannelSpec,
    DetectionSpec,
    DimensionError,
    STREAM_LOSS,
    STREAM_NOISE,
    fresh_monitor,
    in_safe_region,
    philox_stream,
    update_monitor,
)


def test_streams_are_deterministic_and_independent():
    a = philox_stream(7, 0, STREAM_NOISE).random(6)
    b = philox_stream(7, 0, STREAM_NOISE).random(6)
    np.testing.assert_array_equal(a, b)
    c = philox_stream(7, 0, STREAM_LOSS).random(6)
    d = philox_stream(7, 1, STREAM_NOISE).random(6)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


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
