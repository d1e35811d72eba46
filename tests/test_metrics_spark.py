"""Spark metric aggregations vs numpy reference and the DuckDB textbook oracle."""

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.reference import gini, nakamoto, shannon_entropy
from repro.metrics.spark_metrics import decentralization_by_window, per_window_counts
from tests.oracle import (
    FLOAT_ATOL,
    assert_equivalent,
    assert_frames_equivalent,
    textbook_metrics_sql,
)


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
        decentralization_by_window(sdf)
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


# ---------------------------------------------------------------------------
# Spark vs the textbook oracle (Eqs. 1–4 as written, no text shared with
# the kernel): on DuckDB per (kind, seed), and on Spark SQL
# ---------------------------------------------------------------------------

#: Spark types of the kernel's output columns (pandas int64, float64, int32).
KERNEL_TYPES = {
    "window_id": "bigint", "n_miners": "bigint", "n_credits": "bigint",
    "gini": "double", "entropy": "double", "nakamoto": "int",
}


@pytest.fixture(scope="module")
def kernel_vs_textbook(credit_frames):
    """Per (kind, seed): the kernel's Spark dtypes and collected rows, and
    the DuckDB textbook query's rows. Each side runs once for the four
    comparisons below."""
    out = {}
    for key, (pdf, sdf) in credit_frames.items():
        kernel = decentralization_by_window(sdf)
        with duckdb.connect() as con:
            con.register("bp", pdf)
            textbook = con.execute(textbook_metrics_sql("bp")).fetchdf()
        out[key] = dict(kernel.dtypes), kernel.toPandas(), textbook
    return out


def _assert_kernel_matches_textbook(kernel_vs_textbook, kind, seed, *cols):
    """The kernel's ``window_id`` and ``cols`` have the kernel's types and
    equal the DuckDB textbook query: integers exact, floats within 1e-12."""
    dtypes, kernel, textbook = kernel_vs_textbook[(kind, seed)]
    cols = ["window_id", *cols]
    assert {c: dtypes[c] for c in cols} == {c: KERNEL_TYPES[c] for c in cols}
    assert_frames_equivalent(kernel[cols], textbook[cols])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_counts_vs_oracle(credit_frames, kernel_vs_textbook, kind, seed):
    pdf, sdf = credit_frames[(kind, seed)]
    assert_equivalent(
        per_window_counts(sdf),
        "SELECT window_id, miner, count(*) AS cnt FROM bp GROUP BY window_id, miner",
        bp=pdf,
    )
    # The per-window populations of the kernel come from these counts.
    _assert_kernel_matches_textbook(kernel_vs_textbook, kind, seed, "n_miners", "n_credits")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_gini_vs_oracle(kernel_vs_textbook, kind, seed):
    _assert_kernel_matches_textbook(kernel_vs_textbook, kind, seed, "gini")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_entropy_vs_oracle(kernel_vs_textbook, kind, seed):
    _assert_kernel_matches_textbook(kernel_vs_textbook, kind, seed, "entropy")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_nakamoto_vs_oracle(kernel_vs_textbook, kind, seed):
    _assert_kernel_matches_textbook(kernel_vs_textbook, kind, seed, "nakamoto")


def _by_window(pdf):
    return pdf.sort_values("window_id").reset_index(drop=True)


@pytest.mark.parametrize("kind", KINDS)
def test_single_metric_helpers_agree_with_combined(spark, credit_frames, kind):
    """Each metric from its own textbook subquery (self-join Gini, share
    entropy, running-sum Nakamoto), run by Spark SQL instead of DuckDB,
    equals the combined kernel, whose counts come from the DataFrame
    aggregation, in every window, column and dtype."""
    _, sdf = credit_frames[(kind, 0)]
    combined = _by_window(decentralization_by_window(sdf).toPandas())
    single = _by_window(spark.sql(textbook_metrics_sql("{bp}"), bp=sdf).toPandas())
    assert len(combined) == sdf.select("window_id").distinct().count()
    pd.testing.assert_frame_equal(single, combined, check_exact=False, rtol=0, atol=FLOAT_ATOL)


def test_kernel_leaves_no_temp_views(spark, credit_frames):
    """The kernel's counts view is dropped when the call returns, and the
    returned frames still run afterwards."""
    before = spark.catalog.listTables()
    results = [decentralization_by_window(credit_frames[(kind, 0)][1])
               for kind in ("zipf", "uniform")]
    assert spark.catalog.listTables() == before
    assert all(len(r.collect()) == 6 for r in results)
    assert spark.catalog.listTables() == before


# ---------------------------------------------------------------------------
# boundary behaviour
# ---------------------------------------------------------------------------

def _kernel_rows(spark, dists):
    """Combined-kernel output for windows given as {miner: count} dicts."""
    rows = [(w, m) for w, dist in enumerate(dists) for m, c in dist.items() for _ in range(c)]
    sdf = spark.createDataFrame(pd.DataFrame(rows, columns=["window_id", "miner"]))
    got = decentralization_by_window(sdf).toPandas()
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
    """Synthetic numpy keys as miners: 5,000 credits over 200 keys drawn
    zipf (alpha 1.4) must measure as materially less equal than uniform."""
    g = np.random.default_rng(7)
    ranks = np.arange(1, 201)
    weights = 1.0 / ranks**1.4
    zipf = g.choice(ranks, size=5_000, p=weights / weights.sum())
    uniform = g.integers(1, 201, 5_000)

    def measure(keys):
        pdf = pd.DataFrame({"window_id": 0, "miner": keys.astype(str)})
        return decentralization_by_window(spark.createDataFrame(pdf)).collect()[0]

    gz, gu = measure(zipf), measure(uniform)
    assert gz["gini"] > gu["gini"] + 0.1
    assert gz["entropy"] < gu["entropy"]
    assert gz["nakamoto"] < gu["nakamoto"]
