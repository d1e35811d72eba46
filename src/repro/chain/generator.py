"""Deterministic synthetic block-producer stream generation.

The output is the *producer-credit* relation the paper's pipeline
consumes: one row per (block, coinbase address) pair with the block
number, block index, timestamp and producer label. Normal blocks
contribute one credit to their pool/miner; multi-coinbase anomaly
blocks contribute one credit to each of their one-off addresses (the
attribution that reproduces the paper's day-14 statistics).

Generation is fully vectorized numpy → pandas; ``block_producers``
ships the pandas frame to Spark with each miner label replaced by its
64-bit :func:`label_id`. Everything is deterministic in ``seed``
(default: ``spec.seed``).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.chain.anomalies import apply_surges, resolve_coinbase_anomalies
from repro.chain.params import SHARE_NOISE_SIGMA, YEAR, ChainSpec

_SECONDS_PER_DAY = 86_400

#: Spark schema of the shipped chain: integer keys only (no ``block_number``).
SPARK_SCHEMA = "block_idx bigint, day_of_year int, month int, miner bigint"


def label_id(label: str) -> int:
    """Stable signed 64-bit id of a miner label: its 8-byte BLAKE2b digest.

    The Spark ``miner`` column holds these ids, so a name can be looked up
    from the name alone. Unlike the built-in ``hash``, the value is the
    same in every process and run.
    """
    digest = hashlib.blake2b(label.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big", signed=True)


def daily_counts(spec: ChainSpec, rng: np.random.Generator | None = None) -> np.ndarray:
    """Blocks produced per day (length ``spec.n_days``, sums to
    ``spec.total_blocks`` exactly).

    Counts are Gaussian around the chain's mean rate, then adjusted to
    honour every ``forced_prefix_totals`` entry (exact cumulative counts —
    used to pin the paper's day-14 block numbers and block count) and the
    exact yearly total.
    """
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    c = np.rint(
        rng.normal(spec.blocks_per_day_mean, spec.blocks_per_day_sd, spec.n_days)
    ).astype(np.int64)
    c = np.maximum(c, 1)

    def _distribute(lo: int, hi: int, diff: int) -> None:
        """Spread ``diff`` blocks (positive or negative) over days ``lo..hi-1``."""
        if diff == 0:
            return
        if hi <= lo:
            raise ValueError("no adjustable days to absorb count difference")
        base, rem = divmod(diff, hi - lo)
        c[lo:hi] += base
        c[lo : lo + rem] += 1
        if (c[lo:hi] < 1).any():
            raise ValueError("count adjustment drove a day below 1 block")

    lo = 0
    for through_day, total in sorted(spec.forced_prefix_totals):
        _distribute(lo, through_day, int(total - c[:through_day].sum()))
        lo = through_day
    _distribute(lo, spec.n_days, int(spec.total_blocks - c.sum()))
    if c.sum() != spec.total_blocks:
        raise ValueError(
            f"daily counts sum to {c.sum()}, not total_blocks={spec.total_blocks}"
        )
    return c


def miner_universe(spec: ChainSpec) -> tuple[np.ndarray, dict[str, int], int, int]:
    """Global miner label universe for a chain.

    Returns ``(labels, pool_index, medium_offset, sparse_offset)`` where
    ``labels`` lists every possible producer label (pools and surge
    miners first, then the medium tail, then the sparse tail) and
    ``pool_index`` maps pool / surge-miner names to slots.
    """
    pool_names: list[str] = []
    for regime in spec.regimes:
        for name, _ in regime.pool_shares:
            if name not in pool_names:
                pool_names.append(name)
    for surge in spec.surges:
        if surge.miner not in pool_names:
            pool_names.append(surge.miner)
    med_pop = max(r.medium.population for r in spec.regimes)
    sp_pop = max(r.sparse.population for r in spec.regimes)
    labels = np.array(
        pool_names
        + [f"{spec.name}-small-{i:03d}" for i in range(1, med_pop + 1)]
        + [f"{spec.name}-tail-{i:05d}" for i in range(1, sp_pop + 1)],
        dtype=object,
    )
    pool_index = {name: i for i, name in enumerate(pool_names)}
    return labels, pool_index, len(pool_names), len(pool_names) + med_pop


def _zipf_weights(population: int, alpha: float, total: float) -> np.ndarray:
    ranks = np.arange(1, population + 1, dtype=np.float64)
    w = ranks**-alpha
    return w / w.sum() * total


def day_probabilities(
    spec: ChainSpec, day: int, pool_index: dict[str, int], n_ids: int,
    medium_offset: int, sparse_offset: int,
) -> np.ndarray:
    """Noise-free miner probability vector for a day (regime lookup)."""
    regime = spec.regime_for_day(day)
    p = np.zeros(n_ids, dtype=np.float64)
    tail_share = regime.medium.share + regime.sparse.share
    raw = np.array([s for _, s in regime.pool_shares], dtype=np.float64)
    raw = raw / raw.sum() * (1.0 - tail_share)
    for (name, _), share in zip(regime.pool_shares, raw):
        p[pool_index[name]] = share
    m = regime.medium
    p[medium_offset : medium_offset + m.population] = _zipf_weights(
        m.population, m.alpha, m.share
    )
    s = regime.sparse
    p[sparse_offset : sparse_offset + s.population] = _zipf_weights(
        s.population, s.alpha, s.share
    )
    return p


def block_producers_pdf(spec: ChainSpec, seed: int | None = None) -> pd.DataFrame:
    """Generate the full-year producer-credit relation as pandas.

    Columns: ``block_number`` (int64), ``block_idx`` (int64, 0-based),
    ``day_of_year`` (int32), ``ts`` (datetime64[ns]), ``miner`` (str).
    One row per producer credit; blocks with a single coinbase address
    yield one row, multi-coinbase anomaly blocks yield one per address.
    """
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    counts = daily_counts(spec, rng)
    labels, pool_index, medium_offset, sparse_offset = miner_universe(spec)
    n_ids = len(labels)
    n_blocks = int(counts.sum())

    miner_idx = np.empty(n_blocks, dtype=np.int64)
    sec_of_day = np.empty(n_blocks, dtype=np.int64)
    pos = 0
    for day in range(1, spec.n_days + 1):
        c = int(counts[day - 1])
        p = day_probabilities(spec, day, pool_index, n_ids, medium_offset, sparse_offset)
        p = p * rng.lognormal(0.0, SHARE_NOISE_SIGMA, n_ids)
        p /= p.sum()
        miner_idx[pos : pos + c] = rng.choice(n_ids, size=c, p=p)
        sec_of_day[pos : pos + c] = (
            np.floor(np.linspace(0, _SECONDS_PER_DAY, c, endpoint=False))
        ).astype(np.int64)
        pos += c

    day_of_block = np.repeat(
        np.arange(1, spec.n_days + 1, dtype=np.int32), counts
    )

    apply_surges(spec, counts, miner_idx, pool_index, rng)

    # Expand multi-coinbase anomaly blocks into one row per address.
    rows_per_block = np.ones(n_blocks, dtype=np.int64)
    anomalies = resolve_coinbase_anomalies(spec, counts)
    for gidx, size, _day, _k in anomalies:
        rows_per_block[gidx] = size
    row_offsets = np.concatenate([[0], np.cumsum(rows_per_block)])
    rep = np.repeat(np.arange(n_blocks, dtype=np.int64), rows_per_block)
    miner = labels[miner_idx][rep].copy()
    for gidx, size, day, k in anomalies:
        lo = int(row_offsets[gidx])
        miner[lo : lo + size] = [
            f"{spec.name}-anon-d{day:03d}-b{k}-{i:03d}" for i in range(size)
        ]

    ts = (
        pd.Timestamp(f"{YEAR}-01-01").value
        + ((day_of_block[rep].astype(np.int64) - 1) * _SECONDS_PER_DAY + sec_of_day[rep])
        * 1_000_000_000
    )
    return pd.DataFrame(
        {
            "block_number": spec.start_block + rep,
            "block_idx": rep,
            "day_of_year": day_of_block[rep],
            "ts": pd.to_datetime(ts, unit="ns"),
            "miner": miner,
        }
    )


def check_producers_pdf(
    pdf: pd.DataFrame, spec: ChainSpec, codes: np.ndarray, labels: pd.Index
) -> None:
    """Raise ``ValueError`` unless ``pdf`` is a valid producer-credit relation.

    ``codes, labels`` is ``pd.factorize(pdf["miner"])``. Every credit
    names a miner (no null or empty label), and ``block_idx`` holds exactly
    ``0 … total_blocks − 1`` (so every block has at least one credit, which
    the sliding-window arithmetic relies on). O(rows) numpy checks.
    """
    # factorize codes a null as -1, which picks the trailing True
    bad = np.append(labels.to_numpy() == "", True)[codes]
    if bad.any():
        raise ValueError(
            f"{spec.name}: {int(bad.sum())} credit(s) with a null or empty miner, "
            f"first at row {int(bad.argmax())}"
        )
    idx = pdf["block_idx"].to_numpy()
    total = spec.total_blocks
    if len(idx) == 0 or idx.min() < 0 or idx.max() >= total:
        raise ValueError(
            f"{spec.name}: block_idx must lie in 0 … {total - 1} (total_blocks={total})"
        )
    missing = np.flatnonzero(np.bincount(idx, minlength=total) == 0)
    if len(missing):
        raise ValueError(
            f"{spec.name}: block_idx is not contiguous: {len(missing)} of "
            f"{total} blocks have no credit, first {int(missing[0])}"
        )


def block_producers(
    spark: SparkSession, spec: ChainSpec, seed: int | None = None
) -> DataFrame:
    """Spark producer-credit DataFrame for a chain-year.

    The frame of :func:`block_producers_pdf`, after
    :func:`check_producers_pdf` has accepted it, in :data:`SPARK_SCHEMA`:
    ``ts`` is replaced by its calendar ``month``, and ``miner`` by the
    ``bigint`` :func:`label_id` of each label (Spark counts and sorts
    64-bit keys, and names stay in the pandas frame). A chain-year is a
    contiguous block range, so Spark derives ``block_number`` as
    ``start_block + block_idx``. One factorize serves the check and the
    encoding, so only the distinct labels are hashed.
    Raises ``ValueError`` if two labels share an id.
    """
    pdf = block_producers_pdf(spec, seed=seed)
    codes, labels = pd.factorize(pdf["miner"])
    check_producers_pdf(pdf, spec, codes, labels)
    ids = np.fromiter(map(label_id, labels), dtype=np.int64, count=len(labels))
    dup = pd.Index(ids).duplicated()
    if dup.any():
        clash = ids[dup.argmax()]
        a, b = labels[ids == clash][:2]
        raise ValueError(
            f"{spec.name}: miner labels {a!r} and {b!r} share label id {clash}"
        )
    month = pdf["ts"].dt.month.astype(np.int32)
    keys = pdf[["block_idx", "day_of_year"]].assign(month=month, miner=ids[codes])
    sdf = spark.createDataFrame(keys, schema=SPARK_SCHEMA)
    return sdf.select((sdf["block_idx"] + spec.start_block).alias("block_number"), "*")
