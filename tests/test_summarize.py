"""Unit tests for the series summary helpers."""

import pandas as pd
import pytest

from repro.core.summarize import (
    frac_in_range,
    frac_in_set,
    mode_in_window_range,
)


@pytest.fixture()
def series():
    return pd.DataFrame(
        {
            "window_id": range(1, 11),
            "gini": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            "entropy": [3.0] * 5 + [4.0] * 5,
            "nakamoto": [4, 4, 4, 5, 5, 4, 4, 2, 4, 4],
        }
    )


def test_frac_in_range(series):
    assert frac_in_range(series, "gini", 0.25, 0.65) == pytest.approx(0.4)
    assert frac_in_range(series, "gini", 0.0, 2.0) == 1.0
    assert frac_in_range(series, "gini", 5.0, 6.0) == 0.0
    # bounds inclusive
    assert frac_in_range(series, "gini", 0.1, 0.1) == pytest.approx(0.1)


def test_frac_in_set(series):
    assert frac_in_set(series, "nakamoto", {4, 5}) == pytest.approx(0.9)
    assert frac_in_set(series, "nakamoto", {2}) == pytest.approx(0.1)
    assert frac_in_set(series, "nakamoto", {99}) == 0.0


def test_mode_in_window_range(series):
    assert mode_in_window_range(series, "nakamoto", 1, 10) == 4
    assert mode_in_window_range(series, "nakamoto", 4, 5) == 5


def test_mode_empty_range_rejected(series):
    with pytest.raises(ValueError, match="no windows"):
        mode_in_window_range(series, "nakamoto", 100, 200)
