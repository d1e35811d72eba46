"""Expected outputs for the benchmark's correctness checks.

Everything here is computed from the generated pandas frame with numpy
and ``repro.metrics.reference``, never from Spark, so a Spark result is
checked against an independent computation of the same quantity.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pandas as pd

from repro.chain.params import ChainSpec
from repro.metrics import reference

WINDOWINGS = tuple(
    (kind, g) for kind in ("fixed", "sliding") for g in ("day", "week", "month")
)
SERIES_COLUMNS = ("window_id", "n_miners", "n_credits", "gini", "entropy", "nakamoto")
TOLERANCE = 1e-9
EXPECTED_TABLES = Path(__file__).resolve().parent / "expected_tables.json"


def window_ranges(pdf: pd.DataFrame, spec: ChainSpec, kind: str, granularity: str):
    """``(window_ids, lo, hi)``: each window is the row slice ``lo:hi``.

    Rows are in block order, so every fixed and sliding window is one
    contiguous slice; a frame out of block order is an error, not a
    case to handle.
    """
    block_idx = pdf["block_idx"].to_numpy()
    if (np.diff(block_idx) < 0).any():
        raise ValueError("producer frame is not in block order")
    if kind == "sliding":
        n = spec.sliding_sizes[granularity]
        step = n // 2
        n_windows = (spec.total_blocks - n) // step + 1  # Eq. 5, complete windows only
        starts = np.arange(n_windows) * step
        lo = np.searchsorted(block_idx, starts, side="left")
        hi = np.searchsorted(block_idx, starts + n, side="left")
        return starts // step, lo, hi
    doy = pdf["day_of_year"].to_numpy().astype(np.int64)
    ids = {
        "day": doy,
        "week": (doy - 1) // 7 + 1,
        "month": pdf["ts"].dt.month.to_numpy(),
    }[granularity]
    cuts = np.flatnonzero(np.diff(ids)) + 1
    lo = np.concatenate([[0], cuts])
    hi = np.concatenate([cuts, [len(ids)]])
    return ids[lo], lo, hi


def expected_series(pdf: pd.DataFrame, spec: ChainSpec, kind: str, granularity: str) -> pd.DataFrame:
    """Per-window metrics of one windowing, from the numpy reference."""
    codes, _ = pd.factorize(pdf["miner"])
    ids, lo, hi = window_ranges(pdf, spec, kind, granularity)
    rows = []
    for wid, a, b in zip(ids, lo, hi):
        counts = np.bincount(codes[a:b])
        counts = counts[counts > 0]
        rows.append((int(wid), counts.size, int(b - a), reference.gini(counts),
                     reference.shannon_entropy(counts), reference.nakamoto(counts)))
    return pd.DataFrame(rows, columns=list(SERIES_COLUMNS))


def expected_shares(pdf: pd.DataFrame, spec: ChainSpec, kind: str, granularity: str,
                    miner: str) -> pd.DataFrame:
    """Per-window credit share of one miner (``miner_share_series``)."""
    is_miner = (pdf["miner"] == miner).to_numpy()
    ids, lo, hi = window_ranges(pdf, spec, kind, granularity)
    share = [is_miner[a:b].sum() / (b - a) for a, b in zip(lo, hi)]
    return pd.DataFrame({"window_id": ids.astype(np.int64), "share": share})


def member_rows(pdf: pd.DataFrame, spec: ChainSpec) -> int:
    """Window-member rows over all six windowings of one chain."""
    total = 0
    for kind, g in WINDOWINGS:
        _, lo, hi = window_ranges(pdf, spec, kind, g)
        total += int((hi - lo).sum())
    return total


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= TOLERANCE * max(1.0, abs(want))


def frame_mismatch(got: pd.DataFrame, want: pd.DataFrame) -> str | None:
    """Why ``got`` differs from ``want`` (same columns), or None.

    Integer columns must be equal; float columns within ``TOLERANCE``.
    """
    if len(got) != len(want):
        return f"{len(got)} windows, expected {len(want)}"
    for col in want.columns:
        g, w = got[col].to_numpy(), want[col].to_numpy()
        if np.issubdtype(w.dtype, np.integer):
            bad = np.flatnonzero(g.astype(np.int64) != w)
        else:
            bad = [i for i in range(len(w)) if not _close(float(g[i]), float(w[i]))]
        if len(bad):
            i = bad[0]
            return f"{col} row {i}: {g[i]!r}, expected {w[i]!r} ({len(bad)} rows differ)"
    return None


def load_expected_tables() -> dict:
    return json.loads(EXPECTED_TABLES.read_text())


def table_mismatch(pdf: pd.DataFrame, expected: list[list]) -> str | None:
    """Compare a table's (item, measured) rows with the recorded values."""
    got = list(zip(pdf["item"], pdf["measured"]))
    if [item for item, _ in got] != [item for item, _ in expected]:
        return "table items differ from the recorded ones"
    for (item, value), (_, want) in zip(got, expected):
        if not _close(float(value), float(want)):
            return f"{item}: {value!r}, expected {want!r}"
    return None
