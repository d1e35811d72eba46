"""Invariants of the calibrated chain specifications."""

import pytest

from repro.chain.params import BITCOIN_2019, ETHEREUM_2019

CHAINS = [BITCOIN_2019, ETHEREUM_2019]
IDS = [c.name for c in CHAINS]


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_regimes_tile_the_year(spec):
    covered = []
    for r in spec.regimes:
        assert r.start_day <= r.end_day
        covered.extend(range(r.start_day, r.end_day + 1))
    assert covered == list(range(1, spec.n_days + 1))


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_regime_lookup(spec):
    for day in (1, spec.n_days // 2, spec.n_days):
        r = spec.regime_for_day(day)
        assert r.start_day <= day <= r.end_day


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
@pytest.mark.parametrize("bad_day", [0, -3, 9999])
def test_regime_lookup_rejects_uncovered_days(spec, bad_day):
    with pytest.raises(ValueError):
        spec.regime_for_day(bad_day)


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_pool_shares_positive_and_unique(spec):
    for r in spec.regimes:
        names = [n for n, _ in r.pool_shares]
        assert len(names) == len(set(names))
        assert all(s > 0 for _, s in r.pool_shares)


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_tail_shares_leave_room_for_pools(spec):
    for r in spec.regimes:
        tail = r.medium.share + r.sparse.share
        assert 0 < tail < 0.5
        assert r.medium.population > 0 and r.sparse.population > 0


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_sliding_sizes_match_paper(spec):
    expected = (
        {"day": 144, "week": 1008, "month": 4320}
        if spec.name == "bitcoin"
        else {"day": 6000, "week": 42000, "month": 180000}
    )
    assert spec.sliding_sizes == expected


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_week_and_month_sizes_are_multiples_of_day(spec):
    n = spec.sliding_sizes
    assert n["week"] == 7 * n["day"]
    assert n["month"] == 30 * n["day"]


@pytest.mark.parametrize(
    "spec,total,start",
    [(BITCOIN_2019, 54_231, 556_459), (ETHEREUM_2019, 2_204_650, 6_988_615)],
    ids=IDS,
)
def test_paper_dataset_constants(spec, total, start):
    assert spec.total_blocks == total
    assert spec.start_block == start
    assert spec.n_days == 365


def test_btc_anomaly_days_in_first_fifty():
    days = [a.day for a in BITCOIN_2019.coinbase_anomalies]
    assert days == sorted(days)
    assert all(1 <= d <= 50 for d in days)


def test_btc_day14_anomaly_matches_paper():
    (a,) = [a for a in BITCOIN_2019.coinbase_anomalies if a.day == 14]
    assert len(a.block_sizes) == 2
    lo, hi = sorted(a.block_sizes)
    assert lo > 80 and hi > 90  # "more than 80 / more than 90 addresses"
    assert a.positions is not None
    # pinned so that the anomalous blocks get the paper's block numbers
    assert [556_459 + 1_980 + p for p in a.positions] == [558_473, 558_545]


def test_btc_day14_forced_counts():
    # days 1-13 hold 1,980 blocks and day 14 the paper's 148
    assert BITCOIN_2019.forced_prefix_totals == ((13, 1_980), (14, 2_128))


def test_btc_surge_straddles_day_boundary():
    (s,) = BITCOIN_2019.surges
    assert 0 < s.blocks_before_boundary < s.length
    assert s.share > 0.5  # majority-taking miner
    assert s.miner == "StealthPool"


def test_eth_has_no_anomalies():
    assert ETHEREUM_2019.coinbase_anomalies == ()
    assert ETHEREUM_2019.surges == ()


@pytest.mark.parametrize("spec", CHAINS, ids=IDS)
def test_mean_rate_matches_paper_order_of_magnitude(spec):
    rate = spec.blocks_per_day_mean
    if spec.name == "bitcoin":
        assert 140 < rate < 155  # ~144-149 blocks/day
    else:
        assert 5_900 < rate < 6_150  # ~6,000 blocks/day


def test_btc_mid_regime_top4_majority():
    """The mid-2019 regime must lock the Nakamoto coefficient at 4:
    the top-4 pools' renormalized share exceeds 51 %."""
    r = BITCOIN_2019.regime_for_day(150)
    shares = sorted((s for _, s in r.pool_shares), reverse=True)
    raw = sum(s for _, s in r.pool_shares)
    scale = (1 - r.medium.share - r.sparse.share) / raw
    assert sum(shares[:4]) * scale > 0.51
    assert sum(shares[:3]) * scale < 0.51


def test_eth_top2_borderline():
    """Ethermine + SparkPool sit at the 51 % boundary, producing the
    paper's Nakamoto oscillation between 2 and 3."""
    r = ETHEREUM_2019.regime_for_day(150)
    shares = sorted((s for _, s in r.pool_shares), reverse=True)
    raw = sum(s for _, s in r.pool_shares)
    scale = (1 - r.medium.share - r.sparse.share) / raw
    top2 = sum(shares[:2]) * scale
    assert 0.45 < top2 < 0.53
    assert sum(shares[:3]) * scale > 0.51
