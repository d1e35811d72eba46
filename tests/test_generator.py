"""Tests of the synthetic chain generator (numpy/pandas layer + Spark)."""

import dataclasses

import numpy as np
import pandas as pd
import pytest

from repro.chain.anomalies import apply_surges, resolve_coinbase_anomalies
from repro.chain.generator import (
    block_producers_pdf,
    daily_counts,
    day_probabilities,
    label_id,
    miner_universe,
)
from repro.chain.params import BITCOIN_2019, ETHEREUM_2019
from tests.conftest import TINY_2019

CHAINS = [BITCOIN_2019, ETHEREUM_2019, TINY_2019]
IDS = [c.name for c in CHAINS]


# ---------------------------------------------------------------------------
# daily_counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_daily_counts_sum_exact(spec):
    c = daily_counts(spec)
    assert len(c) == spec.n_days
    assert int(c.sum()) == spec.total_blocks
    assert (c >= 1).all()


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_daily_counts_deterministic(spec):
    assert np.array_equal(daily_counts(spec), daily_counts(spec))


def test_daily_counts_honour_forced_day():
    c = daily_counts(BITCOIN_2019)
    assert c[13] == 148  # day 14 (paper: "only 148 blocks")


def test_daily_counts_honour_forced_prefix():
    c = daily_counts(BITCOIN_2019)
    assert int(c[:13].sum()) == 1_980


def test_daily_counts_reject_unreachable_total():
    """A total the integer day counts cannot sum to raises, not asserts."""
    spec = dataclasses.replace(TINY_2019, total_blocks=1_500.5)
    with pytest.raises(ValueError, match="total_blocks"):
        daily_counts(spec)


def test_daily_counts_near_mean_rate():
    c = daily_counts(ETHEREUM_2019)
    assert abs(c.mean() - ETHEREUM_2019.blocks_per_day_mean) < 1.0
    # jitter is present but bounded
    assert 0 < c.std() < 4 * ETHEREUM_2019.blocks_per_day_sd


# ---------------------------------------------------------------------------
# miner universe and day probabilities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_miner_universe_labels_unique(spec):
    labels, pool_index, med_off, sp_off = miner_universe(spec)
    assert len(set(labels)) == len(labels)
    assert med_off == len(pool_index)
    assert sp_off - med_off == max(r.medium.population for r in spec.regimes)
    for name, i in pool_index.items():
        assert labels[i] == name


def test_miner_universe_includes_surge_miner():
    labels, pool_index, _, _ = miner_universe(BITCOIN_2019)
    assert "StealthPool" in pool_index


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
@pytest.mark.parametrize("day_frac", [0.0, 0.5, 1.0])
def test_day_probabilities_normalized(spec, day_frac):
    labels, pool_index, med_off, sp_off = miner_universe(spec)
    day = max(1, int(round(day_frac * spec.n_days)))
    p = day_probabilities(spec, day, pool_index, len(labels), med_off, sp_off)
    assert p.shape == (len(labels),)
    assert (p >= 0).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_day_probabilities_respect_regime_population():
    """Days in the mid regime must give zero mass to sparse addresses
    beyond that regime's (smaller) sparse population."""
    labels, pool_index, med_off, sp_off = miner_universe(BITCOIN_2019)
    p = day_probabilities(BITCOIN_2019, 150, pool_index, len(labels), med_off, sp_off)
    mid = BITCOIN_2019.regime_for_day(150)
    assert (p[sp_off + mid.sparse.population :] == 0).all()
    assert (p[sp_off : sp_off + mid.sparse.population] > 0).all()


def test_day_probabilities_tail_share():
    labels, pool_index, med_off, sp_off = miner_universe(ETHEREUM_2019)
    p = day_probabilities(ETHEREUM_2019, 100, pool_index, len(labels), med_off, sp_off)
    r = ETHEREUM_2019.regime_for_day(100)
    assert p[med_off:sp_off].sum() == pytest.approx(r.medium.share, abs=1e-12)
    assert p[sp_off:].sum() == pytest.approx(r.sparse.share, abs=1e-12)
    assert p[:med_off].sum() == pytest.approx(
        1 - r.medium.share - r.sparse.share, abs=1e-12
    )


def test_surge_miner_has_zero_base_probability():
    labels, pool_index, med_off, sp_off = miner_universe(BITCOIN_2019)
    p = day_probabilities(BITCOIN_2019, 59, pool_index, len(labels), med_off, sp_off)
    assert p[pool_index["StealthPool"]] == 0.0


# ---------------------------------------------------------------------------
# anomaly resolution / surge application
# ---------------------------------------------------------------------------

def test_resolve_coinbase_anomalies_day14_blocks():
    counts = daily_counts(BITCOIN_2019)
    resolved = resolve_coinbase_anomalies(BITCOIN_2019, counts)
    d14 = [(g, s) for g, s, day, _ in resolved if day == 14]
    got_numbers = sorted(BITCOIN_2019.start_block + g for g, _ in d14)
    assert got_numbers == [558_473, 558_545]
    assert sorted(s for _, s in d14) == [85, 95]


def test_resolve_coinbase_anomalies_default_positions_spread():
    counts = daily_counts(TINY_2019)
    resolved = resolve_coinbase_anomalies(TINY_2019, counts)
    day_start = int(counts[:6].sum())
    positions = [g - day_start for g, _, day, _ in resolved if day == 7]
    assert positions == sorted(positions)
    assert all(0 <= p < counts[6] for p in positions)


def test_apply_surges_takes_majority():
    spec = TINY_2019
    counts = daily_counts(spec)
    labels, pool_index, _, _ = miner_universe(spec)
    miner_idx = np.zeros(int(counts.sum()), dtype=np.int64)
    rng = np.random.default_rng(0)
    apply_surges(spec, counts, miner_idx, pool_index, rng)
    (s,) = spec.surges
    idx0 = int(counts[: s.start_day].sum()) - s.blocks_before_boundary
    window = miner_idx[idx0 : idx0 + s.length]
    frac = (window == pool_index[s.miner]).mean()
    assert 0.4 < frac < 0.8  # ~0.6 take probability
    outside = np.concatenate([miner_idx[:idx0], miner_idx[idx0 + s.length :]])
    assert (outside != pool_index[s.miner]).all()


# ---------------------------------------------------------------------------
# block_producers_pdf
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_pdf():
    return block_producers_pdf(TINY_2019)


def test_pdf_block_count_and_range(btc_pdf):
    assert btc_pdf.block_number.nunique() == 54_231
    assert btc_pdf.block_number.min() == 556_459
    assert btc_pdf.block_number.max() == 556_459 + 54_231 - 1


def test_pdf_eth_block_count_and_no_anomalies():
    pdf = block_producers_pdf(ETHEREUM_2019)
    assert len(pdf) == 2_204_650  # exactly one credit per block
    assert pdf.block_number.nunique() == 2_204_650
    assert pdf.block_number.min() == 6_988_615


def test_pdf_block_idx_consistent(btc_pdf):
    assert (btc_pdf.block_number - btc_pdf.block_idx == 556_459).all()


def test_pdf_timestamps_monotone(tiny_pdf):
    per_block = tiny_pdf.drop_duplicates("block_idx").sort_values("block_idx")
    assert per_block.ts.is_monotonic_increasing
    # strictly increasing: no two blocks share a timestamp
    assert per_block.ts.nunique() == len(per_block)


def test_pdf_day_of_year_matches_ts(tiny_pdf):
    doy = pd.to_datetime(tiny_pdf.ts).dt.dayofyear
    assert (doy == tiny_pdf.day_of_year).all()


def test_pdf_day14_anomaly_credits(btc_pdf):
    assert (btc_pdf.block_number == 558_473).sum() == 85
    assert (btc_pdf.block_number == 558_545).sum() == 95
    d14 = btc_pdf[btc_pdf.day_of_year == 14]
    assert d14.block_number.nunique() == 148
    assert len(d14) == 148 - 2 + 85 + 95


def test_pdf_anon_labels_are_one_off(btc_pdf):
    anon = btc_pdf[btc_pdf.miner.str.startswith("bitcoin-anon-")]
    # every anonymous coinbase address appears exactly once in the year
    assert anon.miner.is_unique
    expected = sum(
        sum(a.block_sizes) for a in BITCOIN_2019.coinbase_anomalies
    )
    assert len(anon) == expected


def test_pdf_normal_blocks_single_credit(btc_pdf):
    per_block = btc_pdf.groupby("block_number").size()
    multi = per_block[per_block > 1]
    n_anomalous = sum(len(a.block_sizes) for a in BITCOIN_2019.coinbase_anomalies)
    assert len(multi) == n_anomalous


def test_pdf_deterministic(tiny_pdf):
    again = block_producers_pdf(TINY_2019)
    pd.testing.assert_frame_equal(tiny_pdf, again)


def test_pdf_seed_changes_stream():
    a = block_producers_pdf(TINY_2019, seed=1)
    b = block_producers_pdf(TINY_2019, seed=2)
    assert not a.miner.equals(b.miner)
    # structure (counts, numbering) is seed-dependent but totals exact
    assert a.block_number.nunique() == b.block_number.nunique() == 1_500


def test_pdf_surge_present(btc_pdf):
    counts = daily_counts(BITCOIN_2019)
    (s,) = BITCOIN_2019.surges
    idx0 = int(counts[: s.start_day].sum()) - s.blocks_before_boundary
    window = btc_pdf[
        (btc_pdf.block_idx >= idx0) & (btc_pdf.block_idx < idx0 + s.length)
    ]
    assert 0.45 < (window.miner == s.miner).mean() < 0.65
    # surge straddles the boundary: both day 59 and day 60 contain it
    assert set(window.day_of_year.unique()) == {59, 60}


def test_pdf_pool_share_sanity(btc_pdf):
    mid = btc_pdf[(btc_pdf.day_of_year >= 100) & (btc_pdf.day_of_year <= 260)]
    shares = mid.miner.value_counts(normalize=True)
    assert 0.12 < shares.get("BTC.com", 0) < 0.20
    assert shares.get("Bitcoin.com", 0) < 0.03


# ---------------------------------------------------------------------------
# Spark wrapper
# ---------------------------------------------------------------------------

def test_label_id_is_stable():
    # the 8-byte BLAKE2b digest, the same in every process (unlike hash())
    assert label_id("StealthPool") == -3_703_764_719_083_568_306
    assert label_id("StealthPool") != label_id("StealthPool ")


def test_spark_df_schema(tiny_df, btc_df, eth_df):
    # integer keys only: month in ts's place, miner as label ids, not names
    for df in (tiny_df, btc_df, eth_df):
        assert df.dtypes == [
            ("block_number", "bigint"),
            ("block_idx", "bigint"),
            ("day_of_year", "int"),
            ("month", "int"),
            ("miner", "bigint"),
        ]


def test_spark_df_month_matches_ts_per_block(btc_df, btc_pdf):
    """Every BTC block has one Spark ``month``: the calendar month of its
    pandas ``ts`` (TINY spans only January, so it cannot show this)."""
    got = btc_df.select("block_idx", "month").distinct().toPandas()
    want = btc_pdf.drop_duplicates("block_idx")
    assert len(got) == len(want) == BITCOIN_2019.total_blocks
    got = got.sort_values("block_idx")
    assert got["block_idx"].tolist() == want["block_idx"].tolist()
    assert got["month"].tolist() == want["ts"].dt.month.tolist()
    assert got["month"].nunique() == 12


def test_spark_df_row_count(tiny_df):
    pdf = block_producers_pdf(TINY_2019)
    assert tiny_df.count() == len(pdf)
