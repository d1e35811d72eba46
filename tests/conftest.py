"""Shared fixtures for the test suite.

``TINY_2019`` is a 30-day miniature chain (same generator code paths:
two regimes, a coinbase anomaly, a boundary-straddling surge) for fast
unit tests; the full calibrated BTC/ETH specs are exercised by the
table tests.
"""

import importlib.util
import pathlib

import pytest

from repro.chain.params import (
    BITCOIN_2019,
    ETHEREUM_2019,
    ChainSpec,
    CoinbaseAnomaly,
    DominantSurge,
    Regime,
    TailSpec,
)

TINY_POOLS_A = (("PoolA", 0.30), ("PoolB", 0.25), ("PoolC", 0.20), ("PoolD", 0.15))
TINY_POOLS_B = (("PoolA", 0.35), ("PoolB", 0.25), ("PoolC", 0.15), ("PoolD", 0.15))

TINY_2019 = ChainSpec(
    name="tinychain",
    n_days=30,
    start_block=1_000,
    total_blocks=1_500,
    blocks_per_day_sd=4.0,
    regimes=(
        Regime(1, 15, TINY_POOLS_A,
               medium=TailSpec(0.06, 5, 0.3),
               sparse=TailSpec(0.02, 50, 1.2)),
        Regime(16, 30, TINY_POOLS_B,
               medium=TailSpec(0.05, 4, 0.3),
               sparse=TailSpec(0.01, 40, 1.2)),
    ),
    sliding_sizes={"day": 50, "week": 150, "month": 600},
    coinbase_anomalies=(CoinbaseAnomaly(7, (12, 15)),),
    surges=(DominantSurge(start_day=20, blocks_before_boundary=25, length=50,
                          share=0.6, miner="TinyStealth"),),
    forced_prefix_totals=((6, 300), (7, 352)),
    seed=99,
)


def load_tracing():
    """``layerbench/tracing.py`` as a module (``layerbench`` is no package)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "layerbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("layerbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def tiny_spec() -> ChainSpec:
    return TINY_2019


@pytest.fixture(scope="session")
def btc_spec() -> ChainSpec:
    return BITCOIN_2019


@pytest.fixture(scope="session")
def eth_spec() -> ChainSpec:
    return ETHEREUM_2019


@pytest.fixture(scope="session")
def btc_pdf(btc_spec):
    """The BTC chain's pandas frame (``block_producers_pdf``): names and ``ts``."""
    from repro.chain.generator import block_producers_pdf

    return block_producers_pdf(btc_spec)


@pytest.fixture(scope="session")
def tiny_df(spark, tiny_spec):
    """Persisted producer-credit DataFrame for the tiny chain."""
    from repro.core import pipeline

    return pipeline.producers(spark, tiny_spec)


@pytest.fixture(scope="session")
def btc_df(spark, btc_spec):
    from repro.core import pipeline

    return pipeline.producers(spark, btc_spec)


@pytest.fixture(scope="session")
def eth_df(spark, eth_spec):
    from repro.core import pipeline

    return pipeline.producers(spark, eth_spec)
