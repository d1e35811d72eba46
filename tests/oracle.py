"""DuckDB correctness oracle for the tests (not collected: no ``test_`` prefix).

``assert_equivalent(spark_df, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and raises ``AssertionError`` unless its rows match
``spark_df`` (the Spark result): integer and string columns exactly,
float columns within ``FLOAT_ATOL``. This catches wrong results from a
rewritten plan or a custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames; Spark inputs are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
``assert_frames_equivalent(got, expected)`` is the same comparison of
two frames already collected.

``textbook_metrics_sql(table)`` is the paper's Eqs. 1–4 written out as
they read, over a ``(window_id, miner)`` credit table. It shares no text
with ``repro.metrics.spark_metrics.KERNEL_SQL`` (rank identity,
log-rearranged entropy, ascending suffix sums), so the two agree only if
the kernel's algebra is right.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame

#: Largest absolute difference two float results may show and still match.
FLOAT_ATOL = 1e-12


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order, then row order by the exact (non-float)
    # columns first, so float noise never decides which rows are paired.
    pdf = pdf[sorted(pdf.columns)]
    floats = set(pdf.select_dtypes(include="floating").columns)
    keys = [c for c in pdf.columns if c not in floats] + sorted(floats)
    return pdf.sort_values(keys).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    assert_frames_equivalent(spark_df.toPandas(), expected)


def assert_frames_equivalent(got: pd.DataFrame, expected: pd.DataFrame) -> None:
    """``assert_equivalent``'s comparison of two collected frames."""
    if set(expected.columns) != set(got.columns):
        raise AssertionError(
            f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
            "— alias every output column identically on both sides"
        )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected),
        check_dtype=False, check_exact=False, rtol=0, atol=FLOAT_ATOL,
    )


def textbook_metrics_sql(table: str) -> str:
    """Per-window ``n_miners, n_credits, gini, entropy, nakamoto`` of the
    credits in ``table``, each metric from its own equation:

    * Gini (Eq. 1): mean absolute difference of the counts xᵢ,
      ``Σᵢ Σⱼ |xᵢ − xⱼ| / (2n·Σx)``, from a self-join of every pair;
    * entropy (Eqs. 2–3): ``−Σ pᵢ log₂ pᵢ`` over the shares ``pᵢ = xᵢ/Σx``;
    * Nakamoto (Eq. 4): the smallest k whose k largest counts hold 51 %,
      ``100·top_k ≥ 51·Σx`` in integers so the boundary is exact.
    """
    return f"""
        WITH counts AS (
            SELECT window_id, miner, count(*) AS x
            FROM {table} GROUP BY window_id, miner
        ),
        population AS (
            SELECT window_id, count(*) AS n, CAST(sum(x) AS BIGINT) AS total
            FROM counts GROUP BY window_id
        ),
        pairs AS (
            SELECT a.window_id, sum(abs(a.x - b.x)) AS abs_diff
            FROM counts a JOIN counts b ON a.window_id = b.window_id
            GROUP BY a.window_id
        ),
        entropy AS (
            SELECT window_id, -sum(p * log2(p)) AS entropy
            FROM (SELECT window_id, x / total AS p
                  FROM counts JOIN population USING (window_id))
            GROUP BY window_id
        ),
        nakamoto AS (
            SELECT window_id, min(k) AS nakamoto
            FROM (SELECT window_id, total,
                         row_number() OVER (PARTITION BY window_id ORDER BY x DESC) AS k,
                         sum(x) OVER (PARTITION BY window_id ORDER BY x DESC
                                      ROWS UNBOUNDED PRECEDING) AS top_k
                  FROM counts JOIN population USING (window_id))
            WHERE 100 * top_k >= 51 * total
            GROUP BY window_id
        )
        SELECT window_id, n AS n_miners, total AS n_credits,
               CAST(abs_diff AS DOUBLE) / (2 * n * total) AS gini,
               entropy, nakamoto
        FROM population JOIN pairs USING (window_id)
             JOIN entropy USING (window_id) JOIN nakamoto USING (window_id)
    """
