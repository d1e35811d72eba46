"""Engine-portable SQL for the metric kernel.

The same SQL text runs on Spark SQL and DuckDB (the correctness
oracle), so `repro.oracle.assert_equivalent` can diff the two engines
over identical input. The input relation is the producer-credit
relation (one row per credit, with a ``miner`` column) with the window
column attached.
"""

from __future__ import annotations

from repro.metrics.spark_metrics import NAKAMOTO_THRESHOLD_PCT


def decentralization_sql(table: str, window_col: str) -> str:
    """All three metrics per window, in the single-sort shape of
    ``spark_metrics.decentralization_by_window``: per-(window, miner)
    counts, one ascending window order, one aggregation per window."""
    order = f"PARTITION BY {window_col} ORDER BY cnt, miner"
    return f"""
        WITH counts AS (
            SELECT {window_col}, miner, count(*) AS cnt
            FROM {table} GROUP BY {window_col}, miner
        ),
        ranked AS (
            SELECT {window_col}, cnt,
                   row_number() OVER ({order}) AS rn,
                   sum(cnt) OVER ({order} ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) AS cum,
                   sum(cnt) OVER ({order} ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND UNBOUNDED FOLLOWING) AS total
            FROM counts
        )
        SELECT {window_col},
               count(*) AS n_miners,
               sum(cnt) AS n_credits,
               -- 2e0/1e0: float literals parse as DOUBLE on both Spark
               -- and DuckDB (Spark reads 2.0 as DECIMAL)
               (2e0 * sum(rn * cnt)) / (count(*) * sum(cnt))
                   - (count(*) + 1e0) / count(*) AS gini,
               log2(sum(cnt)) - sum(cnt * log2(cnt)) / sum(cnt) AS entropy,
               count(*) + 1 - max(
                   CASE WHEN 100 * (total - cum + cnt)
                             >= {NAKAMOTO_THRESHOLD_PCT} * total THEN rn END
               ) AS nakamoto
        FROM ranked GROUP BY {window_col}
    """
