"""Cross-interval anomaly detection on metric series (paper §III).

The paper's argument for sliding windows is that an event straddling a
fixed-window boundary is diluted in fixed windows and therefore missed,
while some M = N/2 sliding window aligns with it. We operationalize
"detected" with a robust z-score threshold on the per-window series, so
the day-14 entropy spike of Table T7 is a concrete, testable claim
rather than a visual one.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def robust_z(values: np.ndarray) -> np.ndarray:
    """Robust z-score: (x − median) / (1.4826·MAD).

    Median/MAD (not mean/std) so that the anomaly itself does not mask
    its own detection in short series. A zero MAD (constant series)
    falls back to the interquartile range, then to std.
    """
    v = np.asarray(values, dtype=float)
    med = np.median(v)
    mad = np.median(np.abs(v - med))
    scale = 1.4826 * mad
    if scale == 0:
        scale = (np.percentile(v, 75) - np.percentile(v, 25)) / 1.349
    if scale == 0:
        scale = np.std(v)
    if scale == 0:
        return np.zeros_like(v)
    return (v - med) / scale


def detect_spikes(
    pdf: pd.DataFrame, col: str, z_threshold: float = 4.0, direction: str = "both"
) -> pd.DataFrame:
    """Windows whose metric deviates beyond the robust z threshold.

    ``direction`` is "low" (drops, e.g. Nakamoto collapse), "high"
    (spikes, e.g. entropy) or "both". Returns the flagged rows with a
    ``z`` column, ordered by window id.
    """
    z = robust_z(pdf[col].to_numpy())
    if direction == "low":
        mask = z <= -z_threshold
    elif direction == "high":
        mask = z >= z_threshold
    elif direction == "both":
        mask = np.abs(z) >= z_threshold
    else:
        raise ValueError(f"unknown direction {direction!r}")
    out = pdf.loc[mask].copy()
    out["z"] = z[mask]
    return out.sort_values("window_id").reset_index(drop=True)
