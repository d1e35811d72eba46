"""Unit tests for the window-range mode behind T2's "stable at 4" rows."""

import pandas as pd
import pytest

from repro.core.tables import _mode_in_window_range


@pytest.fixture()
def series():
    return pd.DataFrame(
        {
            "window_id": range(1, 11),
            "nakamoto": [4, 4, 4, 5, 5, 4, 4, 2, 4, 4],
        }
    )


def test_mode_in_window_range(series):
    assert _mode_in_window_range(series, "nakamoto", 1, 10) == 4
    assert _mode_in_window_range(series, "nakamoto", 4, 5) == 5


def test_mode_empty_range_rejected(series):
    with pytest.raises(ValueError, match="no windows"):
        _mode_in_window_range(series, "nakamoto", 100, 200)
