"""End-to-end pipeline tests on the tiny chain."""

import dataclasses
from collections import Counter

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import pipeline
from repro.metrics.reference import gini, nakamoto, shannon_entropy
from repro.windows.fixed import with_fixed_window
from repro.windows.sliding import num_windows, with_sliding_window


def test_producers_cached_identity(spark, tiny_spec, tiny_df):
    assert pipeline.producers(spark, tiny_spec) is tiny_df


def test_producers_distinct_per_seed(spark, tiny_spec, tiny_df):
    other = pipeline.producers(spark, tiny_spec, seed=123)
    assert other is not tiny_df


def test_producers_cache_keyed_on_every_spec_field(spark, tiny_spec, tiny_df):
    """An edited spec under the same name must not get the cached chain,
    nor the series memoized for it."""
    assert tiny_df.count() == 1_525  # 1,498 one-credit blocks + 12 + 15 anomaly credits
    assert pipeline.fixed_series(spark, tiny_spec, "day")["n_credits"].sum() == 1_525
    edited = dataclasses.replace(tiny_spec, coinbase_anomalies=())
    assert pipeline.producers(spark, edited).count() == 1_500
    assert pipeline.fixed_series(spark, edited, "day")["n_credits"].sum() == 1_500


@pytest.mark.parametrize("granularity", ["day", "week", "month"])
def test_measure_fixed_shapes(spark, tiny_df, tiny_spec, granularity):
    out = pipeline.measure_fixed(tiny_df, granularity).toPandas()
    expected_windows = {"day": tiny_spec.n_days, "week": 5, "month": 1}[granularity]
    assert len(out) == expected_windows
    assert {"window_id", "gini", "entropy", "nakamoto", "n_miners", "n_credits"} <= set(out.columns)


@pytest.mark.parametrize("granularity", ["day", "week", "month"])
def test_measure_sliding_shapes(spark, tiny_df, tiny_spec, granularity):
    out = pipeline.measure_sliding(tiny_df, tiny_spec, granularity).toPandas()
    n = tiny_spec.sliding_sizes[granularity]
    assert len(out) == num_windows(tiny_spec.total_blocks, n, n // 2)


def test_fixed_series_sorted_and_cached(spark, tiny_spec):
    s1 = pipeline.fixed_series(spark, tiny_spec, "day")
    s2 = pipeline.fixed_series(spark, tiny_spec, "day")
    assert s1.window_id.is_monotonic_increasing
    pd.testing.assert_frame_equal(s1, s2)


def test_series_copy_isolated(spark, tiny_spec):
    """Mutating a returned series must not corrupt the cache."""
    s1 = pipeline.fixed_series(spark, tiny_spec, "day")
    s1["gini"] = -1.0
    s2 = pipeline.fixed_series(spark, tiny_spec, "day")
    assert (s2["gini"] >= 0).all()


def test_fixed_day_series_matches_reference(spark, tiny_spec, tiny_df):
    series = pipeline.fixed_series(spark, tiny_spec, "day").set_index("window_id")
    pdf = tiny_df.toPandas()
    for day in (1, 7, 20, 30):
        c = pdf[pdf.day_of_year == day].miner.value_counts().to_numpy()
        assert series.loc[day, "gini"] == pytest.approx(gini(c), abs=1e-9)
        assert series.loc[day, "entropy"] == pytest.approx(shannon_entropy(c), abs=1e-9)
        assert int(series.loc[day, "nakamoto"]) == nakamoto(c)


def test_sliding_series_matches_reference(spark, tiny_spec, tiny_df):
    series = pipeline.sliding_series(spark, tiny_spec, "day").set_index("window_id")
    n = tiny_spec.sliding_sizes["day"]
    pdf = tiny_df.toPandas()
    for w in (0, 5, len(series) - 1):
        sel = pdf[(pdf.block_idx >= w * (n // 2)) & (pdf.block_idx < w * (n // 2) + n)]
        c = sel.miner.value_counts().to_numpy()
        assert series.loc[w, "gini"] == pytest.approx(gini(c), abs=1e-9)
        assert series.loc[w, "entropy"] == pytest.approx(shannon_entropy(c), abs=1e-9)
        assert int(series.loc[w, "nakamoto"]) == nakamoto(c)


def test_tiny_anomaly_day_visible(spark, tiny_spec):
    """The injected multi-coinbase day must show the paper's signature:
    entropy spike, gini drop, more producers."""
    day = pipeline.fixed_series(spark, tiny_spec, "day").set_index("window_id")
    a_day = tiny_spec.coinbase_anomalies[0].day
    others = day.drop(index=a_day)
    assert day.loc[a_day, "entropy"] > others["entropy"].max()
    assert day.loc[a_day, "n_miners"] > 2 * others["n_miners"].max()


def test_tiny_surge_caught_by_sliding_not_daily(spark, tiny_spec):
    sday = pipeline.sliding_series(spark, tiny_spec, "day")
    fday = pipeline.fixed_series(spark, tiny_spec, "day")
    assert sday["nakamoto"].min() <= fday["nakamoto"].min()


def test_miner_share_series(spark, tiny_df, tiny_spec):
    surge = tiny_spec.surges[0]
    shares = pipeline.miner_share_series(
        with_fixed_window(tiny_df, "day"), surge.miner
    ).set_index("window_id")
    # surge days split the ~60 % take across the boundary
    assert shares.loc[surge.start_day, "share"] > 0.15
    assert shares.loc[surge.start_day + 1, "share"] > 0.15
    assert shares.loc[5, "share"] == 0.0
    # sliding windows: one window must see a concentrated share
    sl = pipeline.miner_share_series(
        with_sliding_window(tiny_df, tiny_spec.total_blocks, tiny_spec.sliding_sizes["day"]),
        surge.miner,
    )
    assert sl["share"].max() > shares["share"].max()


def test_miner_share_sums_to_one_over_all_miners(spark, tiny_df):
    windowed = with_fixed_window(tiny_df, "day")
    miners = [r[0] for r in tiny_df.select("miner").distinct().collect()]
    # spot-check one day: shares over all miners sum to 1
    day1 = windowed.where(F.col("window_id") == 1)
    total = day1.count()
    top = day1.groupBy("miner").count().toPandas()
    assert top["count"].sum() == total


# ---------------------------------------------------------------------------
# executed plan: one count shuffle, one window sort, one input read
# ---------------------------------------------------------------------------

def _final_plan_node_names(jplan):
    """Class names of every node in the final AQE plan: descends into
    query stages, but not into reused exchanges (they ran elsewhere)."""
    stack = [jplan]
    while stack:
        node = stack.pop()
        name = node.getClass().getSimpleName()
        yield name
        if name == "AdaptiveSparkPlanExec":
            stack.append(node.executedPlan())
        elif name.endswith("QueryStageExec"):
            stack.append(node.plan())
        elif name != "ReusedExchangeExec":
            children = node.children()
            stack.extend(children.apply(i) for i in range(children.size()))


def test_sliding_plan_sorts_once_and_reads_input_once(tiny_df, tiny_spec):
    measured = pipeline.measure_sliding(tiny_df, tiny_spec, "day")
    measured.collect()  # the final AQE plan exists only after execution
    nodes = Counter(_final_plan_node_names(measured._jdf.queryExecution().executedPlan()))
    assert nodes["ShuffleExchangeExec"] == 2
    assert nodes["SortExec"] == 1
    assert nodes["GenerateExec"] == 1
    assert nodes["InMemoryTableScanExec"] == 1


@pytest.mark.parametrize("aqe", ["true", "false"])
@pytest.mark.parametrize("partitions", ["1", "64"])
def test_per_window_output_independent_of_partitions_and_aqe(
    spark, tiny_df, tiny_spec, partitions, aqe
):
    keys = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled")
    before = {k: spark.conf.get(k) for k in keys}
    baseline = pipeline.collect_series(pipeline.measure_sliding(tiny_df, tiny_spec, "day"))
    try:
        spark.conf.set(keys[0], partitions)
        spark.conf.set(keys[1], aqe)
        got = pipeline.collect_series(pipeline.measure_sliding(tiny_df, tiny_spec, "day"))
    finally:
        for k, v in before.items():
            spark.conf.set(k, v)
    pd.testing.assert_frame_equal(got, baseline, check_exact=True)
