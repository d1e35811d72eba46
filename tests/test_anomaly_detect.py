"""Unit tests for the robust z-score behind T7's day-14 "extreme value"."""

import numpy as np
import pytest

from repro.core.tables import _robust_z


def test_robust_z_rejects_zero_mad():
    """A flat series has no robust scale: raise, do not switch to another."""
    with pytest.raises(ValueError, match="nonzero MAD"):
        _robust_z(np.array([5.0] * 20))


def test_robust_z_centers_on_median():
    z = _robust_z(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    assert z[2] == 0.0
    assert z[-1] > 10


def test_robust_z_not_masked_by_outlier():
    """Mean/std would be dragged by the spike; median/MAD must not be."""
    vals = np.append(np.linspace(3.9, 4.1, 50), 40.0)
    z = _robust_z(vals)
    classic = (40 - vals.mean()) / vals.std()
    assert z[-1] > classic


def test_detect_high_spike():
    z = _robust_z([3.8, 3.9, 3.7, 3.85, 6.2, 3.75, 3.8, 3.9, 3.82, 3.78])
    assert list(np.flatnonzero(z >= 4)) == [4]
    assert z[4] > 4


def test_detect_nothing_on_smooth_series():
    rng = np.random.default_rng(0)
    z = _robust_z(rng.normal(4, 0.1, 200))
    assert not (np.abs(z) >= 6).any()
