"""Sliding block-count windows (paper §III.A, Fig. 8 and Eq. 5).

Window ``i`` (0-based) covers block indices ``[i·M, i·M + N)`` for
window size ``N`` and step ``M``. The paper fixes ``M = N/2`` (here
``N // 2``), so two consecutive windows overlap in ``N − M`` blocks and
each block belongs to at most 2 windows for even ``N`` (every spec's
sizes) and at most 3 for odd ``N``; membership is materialized with
``explode(sequence(...))``, keeping the blow-up bounded.

Eq. 5: a stream of ``S`` blocks yields ``L = ⌊(S − N)/M⌋ + 1`` full
windows (the paper omits the floor; we only emit complete windows, so
partial trailing windows are dropped).
"""

from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def num_windows(total_blocks: int, window_size: int, step: int) -> int:
    """Eq. 5: number of complete sliding windows over the stream."""
    if window_size <= 0 or step <= 0:
        raise ValueError(
            f"window_size {window_size} and step {step} must be positive"
        )
    if total_blocks < window_size:
        return 0
    return (total_blocks - window_size) // step + 1


def with_sliding_window(
    df: DataFrame, total_blocks: int, window_size: int
) -> DataFrame:
    """Explode each credit row into the sliding windows its block belongs to.

    The step is the paper's ``M = window_size // 2``, so a window under
    2 blocks is rejected. A block at index ``b`` is a member of windows
    ``⌈(b − N + 1)/M⌉ … ⌊b/M⌋`` clipped to the ``L`` complete windows, so
    trailing blocks that only fall in partial windows produce no rows.
    """
    step = window_size // 2
    n_windows = num_windows(total_blocks, window_size, step)
    if n_windows == 0:
        raise ValueError(
            f"stream of {total_blocks} blocks shorter than window {window_size}"
        )
    b = F.col("block_idx")
    lo = F.greatest(F.lit(0), F.ceil((b - window_size + 1) / step))
    hi = F.least(F.lit(n_windows - 1), F.floor(b / step))
    # sequence(lo, hi) would count *down* when lo > hi (trailing blocks
    # that only fall in partial windows) — emit no windows instead.
    members = F.when(lo <= hi, F.sequence(lo, hi)).otherwise(
        F.array().cast("array<bigint>")
    )
    return (
        df.withColumn("window_id", F.explode(members))
        .withColumn("window_id", F.col("window_id").cast("int"))
    )
