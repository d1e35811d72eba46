"""Per-window decentralization metrics as Spark DataFrame aggregations.

This is the paper's core computation expressed in Catalyst-planned
dataflow. Input is the producer-credit relation with a window-id column
(added by ``repro.windows``); output is one row per window carrying all
three metrics plus population counts.

All three metrics come from one pass: per-(window, miner) counts, one
window sort of those counts ascending by ``(cnt, miner)``, and one
aggregation per window. With ``rn`` the ascending rank, ``cum`` the
running count sum and ``T = Σcnt`` (all exact, no sampling):

* **Gini** — rank identity ``G = 2·Σ rn·cnt / (n·T) − (n+1)/n``. Ties
  may be ranked in any strict order without changing the sum, so the
  tie-break on ``miner`` (a 64-bit label id on the ingested chains)
  only fixes determinism.
* **Shannon entropy** — ``E = log₂T − (Σ cnt·log₂cnt)/T``, the
  algebraic rearrangement of Eqs. 2–3 that needs no per-share column.
* **Nakamoto** — ``suffix = T − cum + cnt`` is the count held by the
  ``n − rn + 1`` largest producers, so the coefficient is
  ``n − max{rn : 100·suffix ≥ 51·T} + 1`` (integer arithmetic, exact at
  the 51 % boundary; ties cannot change a top-k sum).
"""

from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

#: Integer-percent threshold of the paper's Eq. 4 (Σ pᵢ ≥ 0.51).
NAKAMOTO_THRESHOLD_PCT = 51


def per_window_counts(df: DataFrame, window_col: str) -> DataFrame:
    """Producer credit counts per (window, miner): the NB_{A_i} of Eq. 1."""
    return df.groupBy(window_col, "miner").agg(F.count("*").alias("cnt"))


def decentralization_by_window(df: DataFrame, window_col: str) -> DataFrame:
    """All three metrics per window from one ascending sort of the counts.

    Output columns: ``window_col, n_miners, n_credits, gini, entropy,
    nakamoto``.
    """
    # Every window column shares this spec (the total too, via a whole-
    # partition frame), so Spark plans one Window operator over one sort.
    w = Window.partitionBy(window_col).orderBy("cnt", "miner")
    cnt = F.col("cnt")
    ranked = per_window_counts(df, window_col).select(
        window_col,
        cnt,
        F.row_number().over(w).alias("rn"),
        F.sum(cnt).over(w.rowsBetween(Window.unboundedPreceding, 0)).alias("cum"),
        F.sum(cnt)
        .over(w.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing))
        .alias("total"),
    )
    n = F.count("*")
    total = F.sum(cnt)
    suffix = F.col("total") - F.col("cum") + cnt
    covering = 100 * suffix >= NAKAMOTO_THRESHOLD_PCT * F.col("total")
    return ranked.groupBy(window_col).agg(
        n.alias("n_miners"),
        total.alias("n_credits"),
        ((2.0 * F.sum(F.col("rn") * cnt)) / (n * total) - (n + 1.0) / n).alias("gini"),
        (F.log2(total) - F.sum(cnt * F.log2(cnt)) / total).alias("entropy"),
        (n - F.max(F.when(covering, F.col("rn"))) + 1).cast("int").alias("nakamoto"),
    )
