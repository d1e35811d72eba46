"""The metric kernel as SQL: the one definition of Eqs. 1–4 that runs.

Spark runs ``kernel_sql`` for ``spark_metrics.decentralization_by_window``.
The tests check it against a DuckDB transcription of the equations as
written (``tests/oracle.py``), which shares no text with this module.

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

#: Integer-percent threshold of the paper's Eq. 4 (Σ pᵢ ≥ 0.51).
NAKAMOTO_THRESHOLD_PCT = 51


def kernel_sql(counts_table: str, window_col: str) -> str:
    """All three metrics per window over a ``(window_col, miner, cnt)``
    relation: one ascending window order (every window column shares it,
    the total too via a whole-partition frame, so Spark plans one Window
    operator over one sort), then one aggregation per window.

    Output columns: ``window_col, n_miners, n_credits, gini, entropy,
    nakamoto``.
    """
    order = f"PARTITION BY {window_col} ORDER BY cnt, miner"
    return f"""
        SELECT {window_col},
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
            SELECT {window_col}, cnt,
                   row_number() OVER ({order}) AS rn,
                   sum(cnt) OVER ({order} ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND CURRENT ROW) AS cum,
                   sum(cnt) OVER ({order} ROWS BETWEEN UNBOUNDED PRECEDING
                                  AND UNBOUNDED FOLLOWING) AS total
            FROM {counts_table}
        ) AS ranked
        GROUP BY {window_col}
    """
