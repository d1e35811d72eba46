"""Summary statistics over per-window metric series.

The paper reports its results as ranges ("most daily Gini within 0.45
to 0.60"), means ("average sliding entropy 3.810") and stability
("Ethereum is more stable"). These helpers compute exactly those
statistics from a collected series.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def frac_in_range(pdf: pd.DataFrame, col: str, lo: float, hi: float) -> float:
    """Fraction of windows whose metric lies in [lo, hi] — the paper's
    'most of the values are within …' statements."""
    v = pdf[col].to_numpy(dtype=float)
    return float(((v >= lo) & (v <= hi)).mean())


def frac_in_set(pdf: pd.DataFrame, col: str, values) -> float:
    """Fraction of windows whose (integer) metric is in a value set —
    e.g. 'Nakamoto fluctuates between 2 and 3'."""
    v = pdf[col].to_numpy()
    return float(np.isin(v, list(values)).mean())


def mode_in_window_range(
    pdf: pd.DataFrame, col: str, lo_window: int, hi_window: int
) -> float:
    """Most frequent value of a metric over windows in [lo, hi] —
    used for 'stable at 4 from day 100 to day 260'."""
    sel = pdf[(pdf["window_id"] >= lo_window) & (pdf["window_id"] <= hi_window)]
    if sel.empty:
        raise ValueError(f"no windows in [{lo_window}, {hi_window}]")
    return float(sel[col].mode().iloc[0])
