"""Calibrated 2019 chain specifications.

The constants here were frozen by the calibration sweep described in
DESIGN.md §5: a numpy prototype of the generator was random-searched and
manually refined until per-window Gini / Shannon entropy / Nakamoto
coefficients at day/week/month granularity matched the statistics the
paper reports for real 2019 Bitcoin and Ethereum data.

The miner population of a chain has three components:

* **pools** — named mining pools with explicit hash-power shares
  (renormalized to ``1 - medium.share - sparse.share``);
* **medium tail** — a small set of persistent small miners (near-uniform
  zipf, low alpha) that appear essentially every day; they set the daily
  entropy level and moderate the daily Gini;
* **sparse tail** — a large zipf population of mostly one-off addresses;
  the number of *distinct* sparse miners grows with window length, which
  is exactly the mechanism the paper identifies for the Gini coefficient
  inflating with window size while entropy and Nakamoto barely move.

Bitcoin uses three piecewise regimes (early/mid/late 2019) to reproduce
the paper's time profile: more decentralized and more volatile during
the first ~2.5 months (monthly Gini near 0.90, Nakamoto 5), locked at
Nakamoto 4 during days ~100–260, and oscillating 4–5 late in the year.
Ethereum uses a single stable regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The calendar year every chain spec covers (the paper measures 2019).
YEAR = 2019

#: σ of the per-day lognormal noise on every miner's share, for every chain.
SHARE_NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class TailSpec:
    """A zipf-weighted tail population of small miners.

    ``share`` is the total hash-power fraction held by the tail,
    ``population`` the number of distinct addresses and ``alpha`` the
    zipf exponent (weight of rank r is ``r ** -alpha``).
    """

    share: float
    population: int
    alpha: float


@dataclass(frozen=True)
class Regime:
    """Mining-power distribution over an inclusive range of days of year."""

    start_day: int
    end_day: int
    pool_shares: tuple[tuple[str, float], ...]
    medium: TailSpec
    sparse: TailSpec


@dataclass(frozen=True)
class CoinbaseAnomaly:
    """A day containing blocks with many independent coinbase addresses.

    Each entry of ``block_sizes`` is one anomalous block credited to
    that many one-off producer addresses (unit credit per address — the
    attribution that reproduces the paper's day-14 numbers).
    ``positions`` optionally pins the within-day block positions
    (0-based); by default blocks are spread evenly through the day.
    """

    day: int
    block_sizes: tuple[int, ...]
    positions: tuple[int, ...] | None = None


@dataclass(frozen=True)
class DominantSurge:
    """A contiguous block range dominated by a single miner.

    The surge starts ``blocks_before_boundary`` blocks before the end of
    ``start_day`` and spans ``length`` blocks, so with the default
    parameters it straddles the day boundary — the cross-interval event
    that sliding windows catch and fixed windows dilute (paper §III.A).
    Within the range the miner takes each block with probability
    ``share``.
    """

    start_day: int
    blocks_before_boundary: int
    length: int
    share: float
    miner: str


@dataclass(frozen=True)
class ChainSpec:
    """Full generator specification for one chain over the year :data:`YEAR`."""

    name: str
    n_days: int
    start_block: int
    total_blocks: int
    blocks_per_day_sd: float
    regimes: tuple[Regime, ...]
    sliding_sizes: dict[str, int] = field(default_factory=dict)
    coinbase_anomalies: tuple[CoinbaseAnomaly, ...] = ()
    surges: tuple[DominantSurge, ...] = ()
    # (through_day, total): force the cumulative count of days 1..through_day;
    # two consecutive entries force the count of the later day.
    forced_prefix_totals: tuple[tuple[int, int], ...] = ()
    seed: int = 2019

    @property
    def blocks_per_day_mean(self) -> float:
        return self.total_blocks / self.n_days

    def regime_for_day(self, day: int) -> Regime:
        for r in self.regimes:
            if r.start_day <= day <= r.end_day:
                return r
        raise ValueError(f"day {day} not covered by any regime of {self.name}")


# ---------------------------------------------------------------------------
# Bitcoin 2019
# ---------------------------------------------------------------------------

# Pool names follow the large real-world 2019 Bitcoin pools; the shares are
# the calibrated synthetic model, not measured values.
_BTC_POOLS_EARLY = (
    ("BTC.com", 0.14),
    ("AntPool", 0.12),
    ("F2Pool", 0.11),
    ("SlushPool", 0.10),
    ("Poolin", 0.09),
    ("BTC.TOP", 0.08),
    ("ViaBTC", 0.07),
    ("Huobi.pool", 0.06),
    ("BitFury", 0.04),
    ("58COIN", 0.03),
    ("OKExPool", 0.02),
    ("Bitcoin.com", 0.01),
)

_BTC_POOLS_MID = (
    ("BTC.com", 0.17),
    ("Poolin", 0.14),
    ("F2Pool", 0.13),
    ("AntPool", 0.12),
    ("SlushPool", 0.08),
    ("BTC.TOP", 0.07),
    ("ViaBTC", 0.06),
    ("Huobi.pool", 0.05),
    ("BitFury", 0.03),
    ("58COIN", 0.02),
    ("OKExPool", 0.01),
    ("Bitcoin.com", 0.01),
)

_BTC_POOLS_LATE = (
    ("BTC.com", 0.16),
    ("Poolin", 0.13),
    ("F2Pool", 0.12),
    ("AntPool", 0.11),
    ("SlushPool", 0.09),
    ("BTC.TOP", 0.08),
    ("ViaBTC", 0.07),
    ("Huobi.pool", 0.05),
    ("BitFury", 0.03),
    ("58COIN", 0.02),
    ("OKExPool", 0.02),
    ("Bitcoin.com", 0.01),
)

# Day-14 anomaly geometry: the paper names blocks 558,473 and 558,545 as the
# two multi-coinbase blocks of Jan 14 2019. We force days 1–13 to produce
# exactly 1,980 blocks and days 1–14 exactly 2,128, so day 14 has 148 (the
# paper's count) and those block numbers fall at within-day positions 34
# and 106 of day 14.
_BTC_DAY14_POS_A = 558_473 - 556_459 - 1_980  # = 34
_BTC_DAY14_POS_B = 558_545 - 556_459 - 1_980  # = 106

BITCOIN_2019 = ChainSpec(
    name="bitcoin",
    n_days=365,
    start_block=556_459,
    total_blocks=54_231,
    blocks_per_day_sd=8.0,
    regimes=(
        Regime(1, 75, _BTC_POOLS_EARLY,
               medium=TailSpec(0.13, 16, 0.3),
               sparse=TailSpec(0.06, 4_000, 1.15)),
        Regime(76, 268, _BTC_POOLS_MID,
               medium=TailSpec(0.12, 10, 0.3),
               sparse=TailSpec(0.012, 2_000, 1.35)),
        Regime(269, 365, _BTC_POOLS_LATE,
               medium=TailSpec(0.13, 12, 0.3),
               sparse=TailSpec(0.03, 2_500, 1.25)),
    ),
    sliding_sizes={"day": 144, "week": 1_008, "month": 4_320},
    coinbase_anomalies=(
        CoinbaseAnomaly(5, (45,)),
        CoinbaseAnomaly(14, (85, 95), positions=(_BTC_DAY14_POS_A, _BTC_DAY14_POS_B)),
        CoinbaseAnomaly(22, (60,)),
        CoinbaseAnomaly(31, (55, 50)),
        CoinbaseAnomaly(38, (40,)),
        CoinbaseAnomaly(45, (80, 85, 90)),
        CoinbaseAnomaly(47, (40,)),
    ),
    surges=(
        DominantSurge(start_day=59, blocks_before_boundary=72, length=144,
                      share=0.55, miner="StealthPool"),
    ),
    forced_prefix_totals=((13, 1_980), (14, 2_128)),
    seed=2019,
)


# ---------------------------------------------------------------------------
# Ethereum 2019
# ---------------------------------------------------------------------------

_ETH_POOLS = (
    ("Ethermine", 0.27),
    ("SparkPool", 0.24),
    ("F2Pool", 0.11),
    ("Nanopool", 0.11),
    ("MiningPoolHub", 0.06),
    ("zhizhu.top", 0.05),
    ("firepool", 0.03),
    ("DwarfPool", 0.02),
)

ETHEREUM_2019 = ChainSpec(
    name="ethereum",
    n_days=365,
    start_block=6_988_615,
    total_blocks=2_204_650,
    blocks_per_day_sd=150.0,
    regimes=(
        Regime(1, 365, _ETH_POOLS,
               medium=TailSpec(0.10, 37, 0.4),
               sparse=TailSpec(0.023, 3_500, 2.0)),
    ),
    sliding_sizes={"day": 6_000, "week": 42_000, "month": 180_000},
    seed=1559,
)
