"""Per-window decentralization metrics on Spark.

Input is the producer-credit relation with a window-id column (added by
``repro.windows``); output is one row per window carrying all three
metrics plus population counts. The counts are a DataFrame aggregation;
the metrics are ``repro.metrics.sql.kernel_sql``, compiled by Catalyst like
any DataFrame plan.
"""

from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.metrics.sql import kernel_sql


def per_window_counts(df: DataFrame, window_col: str) -> DataFrame:
    """Producer credit counts per (window, miner): the NB_{A_i} of Eq. 1."""
    return df.groupBy(window_col, "miner").agg(F.count("*").alias("cnt"))


def decentralization_by_window(df: DataFrame, window_col: str) -> DataFrame:
    """All three metrics per window from one ascending sort of the counts.

    Output columns: ``window_col, n_miners, n_credits, gini, entropy,
    nakamoto``.
    """
    counts = per_window_counts(df, window_col)
    # PySpark registers ``counts`` as a temp view for the query's analysis
    # and drops it before returning; the result holds the resolved plan.
    return counts.sparkSession.sql(kernel_sql("{counts}", window_col), counts=counts)
