"""End-to-end measurement pipeline: chain → windows → metrics.

``producers`` generates (and caches) the producer-credit DataFrame for a
chain spec; ``measure_fixed`` / ``measure_sliding`` attach a window id
and run the three-metric aggregation; the ``*_series`` helpers collect
the per-window results to pandas sorted by window id (every series the
paper plots is one such call). Collected series are memoized per
(spec fingerprint, windowing) because several tables drill into the
same series.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.chain.generator import block_producers, label_id
from repro.chain.params import ChainSpec
from repro.metrics.spark_metrics import decentralization_by_window
from repro.windows.fixed import with_fixed_window
from repro.windows.sliding import with_sliding_window

_PRODUCER_CACHE: dict[tuple[SparkSession, str, int | None], DataFrame] = {}
_SERIES_CACHE: dict[tuple, pd.DataFrame] = {}


def clear_caches() -> None:
    """Drop memoized DataFrames/series (e.g. between Spark sessions)."""
    for df in _PRODUCER_CACHE.values():
        try:
            df.unpersist()
        except Exception:
            pass
    _PRODUCER_CACHE.clear()
    _SERIES_CACHE.clear()


def _fingerprint(spec: ChainSpec) -> str:
    """Canonical text of every spec field (specs hold a dict, so are unhashable)."""
    return json.dumps(dataclasses.asdict(spec), sort_keys=True)


def producers(
    spark: SparkSession, spec: ChainSpec, seed: int | None = None
) -> DataFrame:
    """Cached, persisted producer-credit DataFrame for a chain spec.

    ``miner`` holds 64-bit label ids (``generator.label_id``), not names.
    Keyed on the owning session and every spec field, so a spec edited
    with ``dataclasses.replace`` never gets another spec's chain.

    Persisted with at most one partition per core. A frame above Arrow's
    48 MB local-relation threshold arrives as one partition per
    10,000-row batch (221 for the ETH year), and every later scan would
    run one map task per partition, each writing its own partial
    per-(window, miner) counts to the shuffle. The narrow ``coalesce``
    merges neighbouring batches without a shuffle.
    """
    key = (spark, _fingerprint(spec), seed)
    if key not in _PRODUCER_CACHE:
        df = (
            block_producers(spark, spec, seed=seed)
            .coalesce(spark.sparkContext.defaultParallelism)
            .persist()
        )
        df.count()  # materialize once so every downstream job reuses it
        _PRODUCER_CACHE[key] = df
    return _PRODUCER_CACHE[key]


def measure_fixed(df: DataFrame, granularity: str) -> DataFrame:
    """Per-window metrics over fixed day/week/month windows."""
    windowed = with_fixed_window(df, granularity)
    return decentralization_by_window(windowed)


def measure_sliding(df: DataFrame, spec: ChainSpec, granularity: str) -> DataFrame:
    """Per-window metrics over sliding windows of the paper's sizes.

    ``granularity`` selects N from ``spec.sliding_sizes`` (day/week/
    month); the step is N/2 as in the paper.
    """
    windowed = with_sliding_window(
        df, spec.total_blocks, spec.sliding_sizes[granularity]
    )
    return decentralization_by_window(windowed)


def collect_series(measured: DataFrame) -> pd.DataFrame:
    """Collect a per-window metric DataFrame to pandas, sorted by window."""
    pdf = measured.toPandas().sort_values("window_id").reset_index(drop=True)
    return pdf


def _memoized(
    spec: ChainSpec, kind: str, granularity: str, measure: Callable[[], DataFrame]
) -> pd.DataFrame:
    """Collected series of ``measure()``, memoized per (spec, kind, granularity)."""
    key = (_fingerprint(spec), kind, granularity)
    if key not in _SERIES_CACHE:
        _SERIES_CACHE[key] = collect_series(measure())
    return _SERIES_CACHE[key].copy()


def fixed_series(spark: SparkSession, spec: ChainSpec, granularity: str) -> pd.DataFrame:
    """Memoized collected series for fixed windows."""
    return _memoized(spec, "fixed", granularity,
                     lambda: measure_fixed(producers(spark, spec), granularity))


def sliding_series(spark: SparkSession, spec: ChainSpec, granularity: str) -> pd.DataFrame:
    """Memoized collected series for sliding windows (M = N/2)."""
    return _memoized(spec, "sliding", granularity,
                     lambda: measure_sliding(producers(spark, spec), spec, granularity))


def miner_share_series(window_df: DataFrame, miner: str) -> pd.DataFrame:
    """Per-window credit share of one miner (for surge drill-downs).

    ``window_df`` must be the windowed producer-credit relation (i.e.
    after ``with_fixed_window`` / ``with_sliding_window``). ``miner`` is
    a label; the relation is filtered on its ``label_id``. A label with no
    credit there (a typo would read as share 0) raises ``ValueError``.
    """
    shares = (
        window_df.groupBy("window_id")
        .agg(
            (
                F.sum(F.when(F.col("miner") == label_id(miner), 1).otherwise(0))
                / F.count("*")
            ).alias("share")
        )
    )
    pdf = shares.toPandas().sort_values("window_id").reset_index(drop=True)
    if not pdf["share"].any():
        raise ValueError(f"miner {miner!r} has no credit in the relation")
    return pdf
