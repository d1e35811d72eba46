"""Sliding-window membership and Eq. 5 counts."""

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.chain.params import BITCOIN_2019, ETHEREUM_2019
from repro.windows.sliding import num_windows, with_sliding_window


def brute_force_members(b: int, total: int, n: int, m: int) -> set[int]:
    """All complete windows containing block index b, by enumeration."""
    L = num_windows(total, n, m)
    return {i for i in range(L) if i * m <= b < i * m + n}


# ---------------------------------------------------------------------------
# Eq. 5 (num_windows)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec,granularity,expected",
    [
        (BITCOIN_2019, "day", 752),
        (BITCOIN_2019, "week", 106),
        (BITCOIN_2019, "month", 24),
        (ETHEREUM_2019, "day", 733),
        (ETHEREUM_2019, "week", 103),
        (ETHEREUM_2019, "month", 23),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_eq5_paper_window_counts(spec, granularity, expected):
    n = spec.sliding_sizes[granularity]
    assert num_windows(spec.total_blocks, n, n // 2) == expected


def test_eq5_btc_daily_roughly_doubles_fixed():
    """Paper: 'about 700 results using sliding windows instead of 365'."""
    L = num_windows(54_231, 144, 72)
    assert 700 <= L <= 760


@pytest.mark.parametrize("s,n,m,expected", [(10, 4, 2, 4), (10, 10, 5, 1), (9, 10, 5, 0), (10, 4, 4, 2), (11, 4, 2, 4)])
def test_eq5_small_cases(s, n, m, expected):
    assert num_windows(s, n, m) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=100),
    st.integers(min_value=1, max_value=100),
)
def test_eq5_matches_enumeration(s, n, m):
    enumerated = sum(1 for i in range(s) if i * m + n <= s)
    assert num_windows(s, n, m) == enumerated


@pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (-4, 2)])
def test_eq5_rejects_nonpositive(n, m):
    with pytest.raises(ValueError):
        num_windows(100, n, m)


# ---------------------------------------------------------------------------
# Spark membership explosion
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def blocks_sdf(spark):
    pdf = pd.DataFrame({"block_idx": range(100), "miner": ["m"] * 100})
    return spark.createDataFrame(pdf)


@pytest.mark.parametrize("n,m", [(10, 5), (7, 3), (100, 50)])
def test_membership_matches_brute_force(blocks_sdf, n, m):
    """``m = n // 2``, the step the function uses; odd ``n = 7`` puts
    block 6 in three windows (0, 1 and 2)."""
    total = 100
    out = (
        with_sliding_window(blocks_sdf, total, n)
        .groupBy("block_idx")
        .agg(F.collect_set("window_id").alias("wins"))
        .toPandas()
        .set_index("block_idx")
    )
    for b in range(total):
        expected = brute_force_members(b, total, n, m)
        got = set(out.loc[b, "wins"]) if b in out.index else set()
        assert got == expected, f"block {b} N={n} M={m}"


@pytest.mark.parametrize("n,m", [(10, 5), (20, 10)])
def test_every_window_has_exactly_n_blocks(blocks_sdf, n, m):
    out = (
        with_sliding_window(blocks_sdf, 100, n)
        .groupBy("window_id")
        .count()
        .toPandas()
    )
    assert len(out) == num_windows(100, n, m)
    assert (out["count"] == n).all()


def test_default_step_is_half_window(blocks_sdf):
    out = with_sliding_window(blocks_sdf, 100, 20)  # step 10
    assert out.select("window_id").distinct().count() == num_windows(100, 20, 10)


def test_consecutive_windows_overlap_n_minus_m(blocks_sdf):
    """Paper Fig. 8: consecutive windows share N − M blocks."""
    n, m = 20, 10
    out = with_sliding_window(blocks_sdf, 100, n).toPandas()
    by_win = out.groupby("window_id")["block_idx"].apply(set)
    for i in range(len(by_win) - 1):
        assert len(by_win[i] & by_win[i + 1]) == n - m


def test_half_step_doubles_measurements_vs_tumbling(blocks_sdf):
    half = with_sliding_window(blocks_sdf, 100, 20)
    n_half = half.select("window_id").distinct().count()
    n_tumbling = 100 // 20
    assert n_half == 2 * n_tumbling - 1  # 9 vs 5


def test_trailing_blocks_produce_no_rows(spark):
    """Blocks past the last complete window must vanish, not generate a
    descending bogus sequence (the lo > hi guard)."""
    pdf = pd.DataFrame({"block_idx": range(11), "miner": ["m"] * 11})
    sdf = spark.createDataFrame(pdf)
    out = with_sliding_window(sdf, 11, 4).toPandas()
    # L = (11-4)//2+1 = 4; windows cover [0,10); block 10 is member of none
    assert set(out["window_id"].unique()) == {0, 1, 2, 3}
    assert 10 not in set(out["block_idx"])
    assert (out.groupby("window_id").size() == 4).all()


def test_stream_shorter_than_window_rejected(blocks_sdf):
    with pytest.raises(ValueError, match="shorter than window"):
        with_sliding_window(blocks_sdf, 5, 10)


def test_window_under_two_blocks_rejected(blocks_sdf):
    """A 1-block window has step 1 // 2 = 0: refuse, do not divide by 0."""
    with pytest.raises(ValueError, match="window_size 1 and step 0 must be positive"):
        with_sliding_window(blocks_sdf, 100, 1)


def test_explode_factor_is_at_most_two_for_half_step(tiny_df, tiny_spec):
    n = tiny_spec.sliding_sizes["day"]
    out = with_sliding_window(tiny_df, tiny_spec.total_blocks, n)
    assert out.count() <= 2 * tiny_df.count()
