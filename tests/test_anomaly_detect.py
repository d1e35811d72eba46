"""Unit tests for robust z-score spike detection."""

import numpy as np
import pandas as pd
import pytest

from repro.core.anomaly_detect import detect_spikes, robust_z


def _series(values):
    return pd.DataFrame({"window_id": range(len(values)), "x": values})


def test_robust_z_zero_on_flat_series():
    z = robust_z(np.array([5.0] * 20))
    assert (z == 0).all()


def test_robust_z_centers_on_median():
    z = robust_z(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    assert z[2] == 0.0
    assert z[-1] > 10


def test_robust_z_not_masked_by_outlier():
    """Mean/std would be dragged by the spike; median/MAD must not be."""
    vals = np.array([4.0] * 50 + [40.0])
    z = robust_z(vals)
    classic = (40 - vals.mean()) / vals.std()
    assert z[-1] > classic


def test_detect_high_spike():
    s = _series([3.8, 3.9, 3.7, 3.85, 6.2, 3.75, 3.8, 3.9, 3.82, 3.78])
    out = detect_spikes(s, "x", z_threshold=4, direction="high")
    assert list(out["window_id"]) == [4]
    assert out["z"].iloc[0] > 4


def test_detect_low_drop():
    s = _series([5, 5, 4, 5, 4, 1, 5, 4, 5, 4])
    out = detect_spikes(s, "x", z_threshold=3, direction="low")
    assert list(out["window_id"]) == [5]


def test_detect_both_directions():
    s = _series([5.0, 5.1, 4.9, 5.0, 9.0, 1.0, 5.05, 4.95, 5.0, 5.1])
    out = detect_spikes(s, "x", z_threshold=4, direction="both")
    assert set(out["window_id"]) == {4, 5}


def test_detect_nothing_on_smooth_series():
    rng = np.random.default_rng(0)
    s = _series(rng.normal(4, 0.1, 200))
    assert detect_spikes(s, "x", z_threshold=6).empty


def test_unknown_direction_rejected():
    with pytest.raises(ValueError, match="unknown direction"):
        detect_spikes(_series([1, 2, 3]), "x", direction="sideways")


def test_output_sorted_by_window():
    s = pd.DataFrame({"window_id": [9, 2, 5], "x": [100.0, 100.0, 1.0]})
    s = pd.concat([s, pd.DataFrame({"window_id": range(10, 40), "x": [1.0] * 30})])
    out = detect_spikes(s, "x", z_threshold=4, direction="high")
    assert list(out["window_id"]) == [2, 9]
