"""End-to-end pipeline tests on the tiny chain."""

import dataclasses
from collections import Counter

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.chain import generator
from repro.core import pipeline
from repro.metrics.reference import gini, nakamoto, shannon_entropy
from repro.windows.fixed import with_fixed_window
from repro.windows.sliding import num_windows, with_sliding_window
from tests.conftest import load_tracing


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


def test_producers_one_partition_per_core(spark, tiny_spec):
    """An Arrow transfer above the local-relation threshold (the ETH year)
    makes one partition per record batch; the persisted chain holds at
    most one per core and gives the same per-window series."""
    cores = spark.sparkContext.defaultParallelism
    conf = {
        "spark.sql.execution.arrow.localRelationThreshold": "0",
        "spark.sql.execution.arrow.maxRecordsPerBatch": str(
            max(1, tiny_spec.total_blocks // (4 * cores))
        ),
    }
    before = {k: spark.conf.get(k) for k in conf}
    seed = 2_024  # built nowhere else, so producers() ingests it under this conf
    try:
        for k, v in conf.items():
            spark.conf.set(k, v)
        batches = generator.block_producers(spark, tiny_spec, seed=seed)
        chain = pipeline.producers(spark, tiny_spec, seed=seed)
    finally:
        for k, v in before.items():
            spark.conf.set(k, v)
    assert batches.rdd.getNumPartitions() > cores  # many Arrow batches arrived
    assert chain.rdd.getNumPartitions() <= cores
    for measure in (
        lambda df: pipeline.measure_fixed(df, "day"),
        lambda df: pipeline.measure_sliding(df, tiny_spec, "day"),
    ):
        pd.testing.assert_frame_equal(
            pipeline.collect_series(measure(chain)),
            pipeline.collect_series(measure(batches)),
            check_exact=False, rtol=0, atol=1e-9,  # integer columns: exact
        )


# ---------------------------------------------------------------------------
# producer-relation contract, checked before the Arrow transfer
# ---------------------------------------------------------------------------

def _ingest_broken(spark, spec, monkeypatch, edit):
    """Ingest ``spec``'s chain after ``edit`` has broken its pandas frame.

    The producer cache is emptied for this call only, so a broken frame
    that failed to raise is never served to a later test (and the session
    fixtures' chains stay persisted).
    """
    orig = generator.block_producers_pdf

    def broken(spec, seed=None):
        pdf = orig(spec, seed=seed)
        edit(pdf)
        return pdf

    monkeypatch.setattr(generator, "block_producers_pdf", broken)
    monkeypatch.setattr(pipeline, "_PRODUCER_CACHE", {})
    return pipeline.producers(spark, spec, seed=4_040)


@pytest.mark.parametrize("label", [None, ""], ids=["null", "empty"])
def test_producers_reject_missing_miner(spark, tiny_spec, monkeypatch, label):
    def edit(pdf):
        pdf.loc[3, "miner"] = label

    with pytest.raises(ValueError, match="null or empty miner, first at row 3"):
        _ingest_broken(spark, tiny_spec, monkeypatch, edit)


def _drop_block(pdf, block):
    pdf.drop(pdf.index[pdf.block_idx == block], inplace=True)


def _block_past_end(pdf):
    pdf.loc[pdf.index[-1], "block_idx"] += 1


@pytest.mark.parametrize(
    ("edit", "match"),
    [
        (lambda pdf: _drop_block(pdf, 10), "not contiguous: 1 of 1500 blocks have no credit, first 10"),
        (lambda pdf: _drop_block(pdf, 0), "not contiguous: 1 of 1500 blocks have no credit, first 0"),
        (_block_past_end, r"block_idx must lie in 0 … 1499"),
    ],
    ids=["gap", "first-block", "past-end"],
)
def test_producers_reject_noncontiguous_block_idx(spark, tiny_spec, monkeypatch, edit, match):
    with pytest.raises(ValueError, match=match):
        _ingest_broken(spark, tiny_spec, monkeypatch, edit)


def test_producers_reject_label_id_collision(spark, tiny_spec, monkeypatch):
    monkeypatch.setattr(generator, "label_id", lambda label: 7)
    with pytest.raises(ValueError, match="share label id 7"):
        _ingest_broken(spark, tiny_spec, monkeypatch, lambda pdf: None)


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


def test_miner_share_sums_to_one_over_all_miners(spark, tiny_df, tiny_spec):
    # labels come from the pandas frame; the Spark relation holds their ids
    pdf = generator.block_producers_pdf(tiny_spec)
    labels = pdf.loc[pdf.day_of_year == 1, "miner"].unique()
    day1 = with_fixed_window(tiny_df, "day").where(F.col("window_id") == 1)
    total = sum(
        float(pipeline.miner_share_series(day1, label)["share"].iloc[0])
        for label in labels
    )
    assert len(labels) > 1
    assert total == pytest.approx(1.0, abs=1e-12)


def test_miner_share_rejects_label_without_credit(tiny_df, tiny_spec):
    """A misspelt label has no credit: it raises instead of reading as a
    share of 0 in every window."""
    typo = tiny_spec.surges[0].miner.lower()
    with pytest.raises(ValueError, match=f"miner {typo!r} has no credit"):
        pipeline.miner_share_series(with_fixed_window(tiny_df, "day"), typo)


# ---------------------------------------------------------------------------
# executed plan: one count shuffle, one window sort, one input read
# ---------------------------------------------------------------------------

def test_sliding_plan_sorts_once_and_reads_input_once(tiny_df, tiny_spec):
    measured = pipeline.measure_sliding(tiny_df, tiny_spec, "day")
    measured.collect()  # the final AQE plan exists only after execution
    jplan = measured._jdf.queryExecution().executedPlan()
    nodes = Counter(name for name, _ in load_tracing().final_plan_nodes(jplan))
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
