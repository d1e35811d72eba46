"""Spark metric aggregations vs numpy reference and the DuckDB oracle."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import Window
from pyspark.sql import functions as F

from repro import synth_data
from repro.metrics import sql as msql
from repro.metrics.reference import gini, nakamoto, shannon_entropy
from repro.metrics.spark_metrics import (
    NAKAMOTO_THRESHOLD_PCT,
    decentralization_by_window,
    per_window_counts,
)
from repro.oracle import assert_equivalent


def _credits_pdf(kind: str, seed: int, n_windows: int = 6, n_rows: int = 4_000):
    """Producer-credit rows (window_id, miner) with zipf or uniform miners."""
    g = np.random.default_rng(seed)
    if kind == "zipf":
        ranks = np.arange(1, 81)
        w = 1.0 / ranks**1.3
        w /= w.sum()
        miners = g.choice(ranks, size=n_rows, p=w)
    elif kind == "uniform":
        miners = g.integers(1, 81, n_rows)
    else:  # "concentrated": one dominant miner per window
        miners = np.where(g.random(n_rows) < 0.6, 1, g.integers(2, 20, n_rows))
    return pd.DataFrame(
        {
            "window_id": g.integers(0, n_windows, n_rows).astype(np.int64),
            "miner": np.char.add("m", miners.astype(str)),
        }
    )


KINDS = ["zipf", "uniform", "concentrated"]


@pytest.fixture(scope="module")
def credit_frames(spark):
    out = {}
    for kind in KINDS:
        for seed in (0, 1):
            pdf = _credits_pdf(kind, seed)
            out[(kind, seed)] = (pdf, spark.createDataFrame(pdf))
    return out


# ---------------------------------------------------------------------------
# Spark vs numpy reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_all_metrics_match_reference(credit_frames, kind, seed):
    pdf, sdf = credit_frames[(kind, seed)]
    got = (
        decentralization_by_window(sdf, "window_id")
        .toPandas()
        .set_index("window_id")
        .sort_index()
    )
    for wid, grp in pdf.groupby("window_id"):
        c = grp.miner.value_counts().to_numpy()
        row = got.loc[wid]
        assert row["gini"] == pytest.approx(gini(c), abs=1e-9)
        assert row["entropy"] == pytest.approx(shannon_entropy(c), abs=1e-9)
        assert int(row["nakamoto"]) == nakamoto(c)
        assert int(row["n_miners"]) == len(c)
        assert int(row["n_credits"]) == len(grp)


def _single_metric_frames(counts, window_col="window_id"):
    """Each metric by its own Spark plan over the counts, independent of
    the combined kernel: Gini from its own ascending rank, entropy from
    explicit shares, Nakamoto from a descending cumulative scan."""
    w_asc = Window.partitionBy(window_col).orderBy("cnt", "miner")
    w_desc = Window.partitionBy(window_col).orderBy(F.desc("cnt"), "miner")
    w_all = Window.partitionBy(window_col)
    g = (
        counts.withColumn("rn", F.row_number().over(w_asc))
        .groupBy(window_col)
        .agg((2.0 * F.sum(F.col("rn") * F.col("cnt")) / (F.count("*") * F.sum("cnt"))
              - (F.count("*") + 1.0) / F.count("*")).alias("gini"))
    )
    p = F.col("cnt") / F.sum("cnt").over(w_all)
    e = counts.withColumn("p", p).groupBy(window_col).agg(
        (-F.sum(F.col("p") * F.log2("p"))).alias("entropy")
    )
    n = (
        counts.select(
            window_col,
            F.row_number().over(w_desc).alias("rn"),
            F.sum("cnt").over(w_desc.rowsBetween(Window.unboundedPreceding, 0)).alias("cum"),
            F.sum("cnt").over(w_all).alias("total"),
        )
        .where(100 * F.col("cum") >= NAKAMOTO_THRESHOLD_PCT * F.col("total"))
        .groupBy(window_col)
        .agg(F.min("rn").alias("nakamoto"))
    )
    return [f.toPandas().set_index(window_col) for f in (g, e, n)]


@pytest.mark.parametrize("kind", KINDS)
def test_single_metric_helpers_agree_with_combined(credit_frames, kind):
    _, sdf = credit_frames[(kind, 0)]
    counts = per_window_counts(sdf, "window_id")
    combined = decentralization_by_window(sdf, "window_id").toPandas().set_index("window_id")
    g, e, n = _single_metric_frames(counts)
    for wid in combined.index:
        assert combined.loc[wid, "gini"] == pytest.approx(g.loc[wid, "gini"], abs=1e-12)
        assert combined.loc[wid, "entropy"] == pytest.approx(e.loc[wid, "entropy"], abs=1e-12)
        assert combined.loc[wid, "nakamoto"] == n.loc[wid, "nakamoto"]


# ---------------------------------------------------------------------------
# Spark vs DuckDB oracle (same SQL on both engines)
# ---------------------------------------------------------------------------

def _oracle_sql(*cols: str) -> str:
    """Columns of the shared metric query, over the table ``bp``."""
    return f"SELECT {', '.join(cols)} FROM ({msql.decentralization_sql('bp', 'window_id')})"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_counts_vs_oracle(credit_frames, kind, seed):
    pdf, sdf = credit_frames[(kind, seed)]
    got = per_window_counts(sdf, "window_id")
    assert_equivalent(
        got, "SELECT window_id, miner, count(*) AS cnt FROM bp GROUP BY window_id, miner",
        bp=pdf,
    )
    # The per-window populations of the kernel come from these counts.
    kernel = decentralization_by_window(sdf, "window_id")
    assert_equivalent(
        kernel.select("window_id", "n_miners", "n_credits"),
        _oracle_sql("window_id", "n_miners", "n_credits"), bp=pdf,
    )


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_gini_vs_oracle(credit_frames, kind, seed):
    pdf, sdf = credit_frames[(kind, seed)]
    got = decentralization_by_window(sdf, "window_id").select("window_id", "gini")
    assert_equivalent(got, _oracle_sql("window_id", "gini"), bp=pdf)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_entropy_vs_oracle(credit_frames, kind, seed):
    pdf, sdf = credit_frames[(kind, seed)]
    got = decentralization_by_window(sdf, "window_id").select("window_id", "entropy")
    assert_equivalent(got, _oracle_sql("window_id", "entropy"), bp=pdf)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_nakamoto_vs_oracle(credit_frames, kind, seed):
    pdf, sdf = credit_frames[(kind, seed)]
    got = decentralization_by_window(sdf, "window_id").select("window_id", "nakamoto")
    assert_equivalent(got, _oracle_sql("window_id", "nakamoto"), bp=pdf)


def test_spark_sql_text_runs_on_spark_too(spark, credit_frames):
    """The shared SQL is genuinely portable: run it through Spark SQL and
    compare every column with the DataFrame kernel."""
    pdf, sdf = credit_frames[("zipf", 0)]
    sdf.createOrReplaceTempView("bp_view")
    via_sql = spark.sql(msql.decentralization_sql("bp_view", "window_id")).toPandas()
    via_df = decentralization_by_window(sdf, "window_id").toPandas()
    merged = via_sql.merge(via_df, on="window_id", suffixes=("_sql", "_df"))
    assert len(merged) == len(via_df) == len(via_sql)
    for col in ("gini", "entropy"):
        assert np.allclose(merged[f"{col}_sql"], merged[f"{col}_df"], atol=1e-9)
    for col in ("n_miners", "n_credits", "nakamoto"):
        assert (merged[f"{col}_sql"] == merged[f"{col}_df"]).all()


# ---------------------------------------------------------------------------
# boundary behaviour
# ---------------------------------------------------------------------------

def _kernel_rows(spark, dists):
    """Combined-kernel output for windows given as {miner: count} dicts."""
    rows = [(w, m) for w, dist in enumerate(dists) for m, c in dist.items() for _ in range(c)]
    sdf = spark.createDataFrame(pd.DataFrame(rows, columns=["window_id", "miner"]))
    got = decentralization_by_window(sdf, "window_id").toPandas()
    return got.set_index("window_id").sort_index()


@pytest.mark.parametrize(
    "dist,expected",
    [
        ({"a": 51, "b": 49}, 1),
        ({"a": 50, "b": 50}, 2),
        ({"a": 25, "b": 25, "c": 25, "d": 25}, 3),
        ({"a": 100}, 1),
    ],
)
def test_spark_nakamoto_threshold_exact(spark, dist, expected):
    got = _kernel_rows(spark, [dist])
    assert got.loc[0, "nakamoto"] == expected


def test_spark_gini_with_heavy_ties(spark):
    """row_number tie-breaking must not change any metric."""
    got = _kernel_rows(spark, [{f"m{i}": 1 for i in range(40)}]).loc[0]
    assert got["gini"] == pytest.approx(0.0, abs=1e-12)
    assert got["entropy"] == pytest.approx(np.log2(40), abs=1e-12)
    assert got["nakamoto"] == 21  # ceil(0.51 · 40)



# ---------------------------------------------------------------------------
# property: combined kernel == numpy reference on random count multisets
# ---------------------------------------------------------------------------

window_counts = st.lists(st.integers(1, 40), min_size=1, max_size=12)


@st.composite
def at_boundary(draw):
    """Counts whose top k hold exactly 51 % of the total."""
    scale = draw(st.integers(1, 4))
    top = draw(st.sampled_from([[51], [30, 21], [17, 17, 17]]))
    floor = min(top)
    rest, left = [], 49
    while left:
        part = draw(st.integers(1, min(floor, left)))
        rest.append(part)
        left -= part
    return [c * scale for c in top + rest]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.one_of(window_counts, at_boundary()), min_size=1, max_size=6))
@example([[7]])                          # single-miner window
@example([[5] * 9, [1] * 2, [3] * 100])  # all-tied windows
@example([[51, 49], [50, 50], [25, 25, 25, 25], [30, 21, 49]])
def test_kernel_matches_reference_on_random_counts(spark, windows):
    got = _kernel_rows(spark, [{f"m{i}": c for i, c in enumerate(cs)} for cs in windows])
    assert list(got.index) == list(range(len(windows)))
    for wid, cs in enumerate(windows):
        row = got.loc[wid]
        assert row["gini"] == pytest.approx(gini(cs), abs=1e-9)
        assert row["entropy"] == pytest.approx(shannon_entropy(cs), abs=1e-9)
        assert row["nakamoto"] == nakamoto(cs)
        assert (row["n_miners"], row["n_credits"]) == (len(cs), sum(cs))

def test_metrics_on_synth_data_keys(spark):
    """Tie-in with the provided synth_data generators: zipf-distributed
    keys must measure as materially less equal than uniform keys."""
    z = synth_data.zipf_keys(spark, n=5_000, n_keys=200, alpha=1.4, seed=7)
    u = synth_data.uniform_keys(spark, n=5_000, n_keys=200, seed=7)
    def as_credits(df):
        return df.select(F.lit(0).alias("window_id"), F.col("k").cast("string").alias("miner"))

    gz = decentralization_by_window(as_credits(z), "window_id").collect()[0]
    gu = decentralization_by_window(as_credits(u), "window_id").collect()[0]
    assert gz["gini"] > gu["gini"] + 0.1
    assert gz["entropy"] < gu["entropy"]
    assert gz["nakamoto"] < gu["nakamoto"]
