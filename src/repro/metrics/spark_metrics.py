"""Per-window decentralization metrics on Spark.

Input is the producer-credit relation with a ``window_id`` column (added
by ``repro.windows``); output is one row per window carrying all three
metrics plus population counts. The counts are a DataFrame aggregation;
the metrics are ``KERNEL_SQL``, the one definition of Eqs. 1–4 that runs,
compiled by Catalyst like any DataFrame plan.

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

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

#: Integer-percent threshold of the paper's Eq. 4 (Σ pᵢ ≥ 0.51).
NAKAMOTO_THRESHOLD_PCT = 51

_ORDER = "PARTITION BY window_id ORDER BY cnt, miner"

#: All three metrics per window over the ``(window_id, miner, cnt)`` view
#: ``{counts}``: one ascending window order (every window column shares it,
#: the total too via a whole-partition frame, so Spark plans one Window
#: operator over one sort), then one aggregation per window.
KERNEL_SQL = f"""
    SELECT window_id,
           count(*) AS n_miners,
           sum(cnt) AS n_credits,
           -- 2e0/1e0: float literals parse as DOUBLE (Spark reads
           -- 2.0 as DECIMAL)
           (2e0 * sum(rn * cnt)) / (count(*) * sum(cnt))
               - (count(*) + 1e0) / count(*) AS gini,
           log2(sum(cnt)) - sum(cnt * log2(cnt)) / sum(cnt) AS entropy,
           CAST(count(*) + 1 - max(
               CASE WHEN 100 * (total - cum + cnt)
                         >= {NAKAMOTO_THRESHOLD_PCT} * total THEN rn END
           ) AS INT) AS nakamoto
    FROM (
        SELECT window_id, cnt,
               row_number() OVER ({_ORDER}) AS rn,
               sum(cnt) OVER ({_ORDER} ROWS BETWEEN UNBOUNDED PRECEDING
                              AND CURRENT ROW) AS cum,
               sum(cnt) OVER ({_ORDER} ROWS BETWEEN UNBOUNDED PRECEDING
                              AND UNBOUNDED FOLLOWING) AS total
        FROM {{counts}}
    ) AS ranked
    GROUP BY window_id
"""


def per_window_counts(df: DataFrame) -> DataFrame:
    """Producer credit counts per (window, miner): the NB_{A_i} of Eq. 1."""
    return df.groupBy("window_id", "miner").agg(F.count("*").alias("cnt"))


def decentralization_by_window(df: DataFrame) -> DataFrame:
    """All three metrics per window from one ascending sort of the counts.

    Output columns: ``window_id, n_miners, n_credits, gini, entropy,
    nakamoto``.
    """
    counts = per_window_counts(df)
    # PySpark registers ``counts`` as a temp view for the query's analysis
    # and drops it before returning; the result holds the resolved plan.
    return counts.sparkSession.sql(KERNEL_SQL, counts=counts)
