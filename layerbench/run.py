"""Layered benchmark of the decentralization pipeline.

Usage (from the repository root):

    python3 layerbench/run.py --workload report|btc-series --seed N \
        --seconds S --trace 0|1

Starts one ``local[4]`` SparkSession configured like ``jobs/_session.py``,
sets up and warms the workload, then runs it as a closed loop with one
caller: each operation is issued only after the previous one returned,
in whole passes, until ``--seconds`` have elapsed (at least one pass).
Every result is checked (see ``checks.py``). ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` re-runs the same loop with spans
around each layer call (see ``tracing.py``) and reports per-layer
numbers. The last line of stdout is one JSON object; a fuller run record
goes to ``.bench_build/records/``. README.md explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import shlex
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CORES = 4
DRIVER_MEMORY = "4g"
SPARK_CONF = {
    # as in jobs/_session.py
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    # the progress bar writes over printed results
    "spark.ui.showConsoleProgress": "false",
    # Spark's default writer for <= 200 reduce partitions writes one file
    # per reduce partition per map task (221 x 64 per ETH exchange); on a
    # virtual disk that file churn made kernel time exceed user time and
    # pass times swing 2x between runs. One file per map task instead.
    "spark.shuffle.sort.bypassMergeThreshold": "1",
    "spark.local.dir": str(BUILD / "spark-local"),
    "spark.sql.warehouse.dir": str(BUILD / "spark-warehouse"),
}
WORKLOADS = ("report", "btc-series")
SETUP_REPEATS = 3
# btc-series operations keep getting faster over the first passes (JIT)
WARM_UP_PASSES = 3
END_TO_END = {"setup_s": "s", "pass_s": "s", "rows_per_s": "1/s"}  # name -> unit
PER_LAYER = {
    "chain.generate_s": "s", "chain.rows": "count",
    "chain.ingest_s": "s", "chain.partitions": "count",
    "windows.assign_s": "s", "windows.rows_out": "count", "windows.expansion": "ratio",
    "metrics.count_s": "s", "metrics.count_rows": "count", "metrics.shuffle_bytes": "bytes",
    "metrics.kernel_s": "s", "metrics.exchanges": "count", "metrics.sorts": "count",
    "spark.stages": "count", "spark.tasks": "count",
    "core.collect_s": "s", "trace.pass_s": "s",
}


def start_session():
    """A local SparkSession whose scratch files stay under ``.bench_build``."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = SPARK_CONF["spark.local.dir"]
    tempfile.tempdir = None
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(java_opts)} "
        "--conf spark.driver.host=127.0.0.1 pyspark-shell"
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("layerbench")
    for key, value in SPARK_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for the driver JVM to exit.

    ``spark.stop()`` leaves the JVM running until this process exits;
    closing its stdin makes it exit now.
    """
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=60)


def peak_rss_mb(spark) -> float:
    """Peak resident memory (VmHWM) of this process plus the driver JVM."""
    total_kb = 0
    for pid in ("self", jvm_pid(spark)):
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


def cpu_s(jvm_pid: int) -> float:
    """CPU seconds used so far by this process plus the driver JVM."""
    fields = Path(f"/proc/{jvm_pid}/stat").read_text().rsplit(")", 1)[1].split()
    jvm_ticks = int(fields[11]) + int(fields[12])  # utime, stime
    own = os.times()
    return jvm_ticks / os.sysconf("SC_CLK_TCK") + own.user + own.system


def jvm_pid(spark) -> int:
    return spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()


def fingerprint(spec) -> str:
    """Hash of every field of a chain spec, not just its name."""
    return hashlib.sha256(repr(dataclasses.asdict(spec)).encode()).hexdigest()[:16]


class Run:
    """Timings and failures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_s: list[float] = []  # every table build / measure → collect call
        self.series_rows = 0         # window-member rows behind op_s
        self.pass_s: list[float] = []
        self.pass_cpu_s: list[float] = []

    def op(self, label: str, call, check):
        """Run one operation; ``check(result)`` returns a mismatch or None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:
            self.failed += 1
            print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
            return None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        mismatch = check(result)
        if mismatch:
            self.failed += 1
            print(f"MISMATCH {label}: {mismatch}", file=sys.stderr)
        return result, seconds


# -- workloads ---------------------------------------------------------------
#
# A workload has ``warm_up()``; ``build_chain()``, called
# ``setup_repeats`` times, whose median time counts as chain setup; and
# ``one_pass(run)``, which runs every operation once through ``run.op``
# and returns the window-member rows its timed operations aggregated.


class Report:
    """T1–T8 for both chains, each pass from empty caches (the batch job).

    The tables are defined on the calibrated seeds, and the check is the
    recorded ``measured`` values, so the pass ignores ``--seed``.
    """

    def __init__(self, spark, seed):
        from checks import load_expected_tables
        from repro.chain.params import BITCOIN_2019, ETHEREUM_2019

        self.spark = spark
        self.expected = load_expected_tables()
        self.specs = (BITCOIN_2019, ETHEREUM_2019)
        self.table_s: dict[str, list[float]] = {}
        self.setup_repeats = 0  # the pass builds both chains itself

    def warm_up(self):
        """Untimed: first Arrow ingest and both plan shapes, on the small chain."""
        from repro.core import pipeline

        btc = self.specs[0]
        df = pipeline.producers(self.spark, btc)
        pipeline.collect_series(pipeline.measure_fixed(df, "day"))
        pipeline.collect_series(pipeline.measure_sliding(df, btc, "day"))
        pipeline.clear_caches()

    def one_pass(self, run: Run) -> int:
        from checks import table_mismatch
        from repro.core import pipeline
        from repro.core.tables import ALL_TABLES

        pipeline.clear_caches()
        for name in list(ALL_TABLES):
            _, seconds = run.op(name, lambda: ALL_TABLES[name](self.spark),
                                lambda pdf: table_mismatch(pdf, self.expected["tables"][name]))
            run.op_s.append(seconds)
            self.table_s.setdefault(name, []).append(seconds)
        return self.expected["member_rows"]


class BtcSeries:
    """The six BTC windowings plus the T7/T8 drill-downs, on a persisted chain."""

    def __init__(self, spark, seed):
        from checks import WINDOWINGS, expected_series, expected_shares
        from repro.chain.generator import block_producers_pdf
        from repro.chain.params import BITCOIN_2019

        self.spark, self.seed, self.spec = spark, seed, BITCOIN_2019
        pdf = block_producers_pdf(self.spec, seed=seed)
        self.expected = {w: expected_series(pdf, self.spec, *w) for w in WINDOWINGS}
        self.miner = self.spec.surges[0].miner
        self.share_windowings = (("fixed", "day"), ("fixed", "week"), ("sliding", "day"))
        self.expected_shares = {
            w: expected_shares(pdf, self.spec, *w, self.miner) for w in self.share_windowings
        }
        self.blocks = (558_473, 558_545)
        credits = pdf["block_number"].value_counts()
        self.expected_block_credits = {b: int(credits.get(b, 0)) for b in self.blocks}
        self.expected_day14_blocks = int(pdf.loc[pdf["day_of_year"] == 14, "block_number"].nunique())
        self.df = None
        self.setup_repeats = SETUP_REPEATS

    def build_chain(self) -> float:
        from repro.core import pipeline

        pipeline.clear_caches()
        t0 = time.perf_counter()
        self.df = pipeline.producers(self.spark, self.spec, self.seed)
        return time.perf_counter() - t0

    def warm_up(self):
        self.build_chain()
        for _ in range(WARM_UP_PASSES):
            self.one_pass(Run())

    def _measure(self, kind, g):
        from repro.core import pipeline

        if kind == "fixed":
            return pipeline.collect_series(pipeline.measure_fixed(self.df, g))
        return pipeline.collect_series(pipeline.measure_sliding(self.df, self.spec, g))

    def _windowed(self, kind, g):
        from repro.windows import fixed, sliding

        if kind == "fixed":
            return fixed.with_fixed_window(self.df, g)
        return sliding.with_sliding_window(self.df, self.spec.total_blocks,
                                           self.spec.sliding_sizes[g])

    def one_pass(self, run: Run) -> int:
        from pyspark.sql import functions as F

        from checks import SERIES_COLUMNS, frame_mismatch
        from repro.core import pipeline

        rows = 0
        for w, want in self.expected.items():
            got, seconds = run.op(f"series {w}", lambda: self._measure(*w),
                                  lambda s: frame_mismatch(s[list(SERIES_COLUMNS)], want))
            run.op_s.append(seconds)
            rows += int(want["n_credits"].sum())
        for w, want in self.expected_shares.items():
            run.op(f"share {w}",
                   lambda: pipeline.miner_share_series(self._windowed(*w), self.miner),
                   lambda s: frame_mismatch(s, want))
        run.op("block credits",
               lambda: {int(r[0]): int(r[1]) for r in
                        self.df.where(F.col("block_number").isin(*self.blocks))
                        .groupBy("block_number").count().collect()},
               lambda got: None if got == self.expected_block_credits
               else f"{got}, expected {self.expected_block_credits}")
        run.op("day-14 blocks",
               lambda: self.df.where(F.col("day_of_year") == 14)
               .agg(F.countDistinct("block_number")).collect()[0][0],
               lambda got: None if got == self.expected_day14_blocks
               else f"{got}, expected {self.expected_day14_blocks}")
        return rows


def measure(workload, run: Run, seconds: float, pid: int, tracer=None) -> list[dict]:
    """Closed loop of whole passes for ``seconds``; per-pass layer stats."""
    per_pass = []
    deadline = time.perf_counter() + seconds
    while True:
        t0, cpu0 = time.perf_counter(), cpu_s(pid)
        rows = workload.one_pass(run)
        run.pass_s.append(time.perf_counter() - t0)
        run.pass_cpu_s.append(cpu_s(pid) - cpu0)
        run.series_rows += rows
        if tracer is not None:
            per_pass.append(tracer.take())
        if time.perf_counter() >= deadline:
            return per_pass


def layer_metrics(per_pass: list[dict], setup_stats: list[dict], run: Run) -> dict:
    """Median over passes of each per-layer total (chain layers from setup
    when the chain is built there)."""
    def med(stats, key):
        return statistics.median(s["layers"].get(key, 0.0) for s in stats)

    out = {}
    for key in PER_LAYER:
        source = setup_stats if key.startswith("chain.") and setup_stats else per_pass
        out[key] = med(source, key)
    out["windows.expansion"] = out["windows.rows_out"] / med(per_pass, "windows.rows_in")
    out["trace.pass_s"] = statistics.median(run.pass_s)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    from repro.chain.params import BITCOIN_2019, ETHEREUM_2019
    from tracing import Tracer

    t0 = time.perf_counter()
    spark = start_session()
    try:
        session_s = time.perf_counter() - t0
        workload = {"report": Report, "btc-series": BtcSeries}[args.workload](spark, args.seed)
        run = Run()
        tracer = Tracer(spark) if args.trace else None
        chain_reps, setup_stats = [], []
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            workload.warm_up()  # traced too, so the noop plans are warm as well
            warm_up_s = time.perf_counter() - t0
            if tracer:
                tracer.reset()
            for _ in range(workload.setup_repeats):
                chain_reps.append(workload.build_chain())
                if tracer:
                    setup_stats.append(tracer.take())
            per_pass = measure(workload, run, args.seconds, jvm_pid(spark), tracer)
        chain_s = statistics.median(chain_reps) if chain_reps else 0.0
        setup_s = session_s + warm_up_s + chain_s
        rss = peak_rss_mb(spark)
        conf = {k: spark.conf.get(k) for k in (
            "spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled",
            "spark.sql.execution.arrow.pyspark.enabled",
            "spark.shuffle.sort.bypassMergeThreshold")}
        parallelism = spark.sparkContext.defaultParallelism
    finally:
        stop_session(spark)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "pass_s": statistics.median(run.pass_s),
            "rows_per_s": run.series_rows / sum(run.op_s),
        }
        units = END_TO_END
    else:
        values = layer_metrics(per_pass, setup_stats, run)
        units = PER_LAYER

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run.pass_s)} passes, {len(run.op_s)} timed operations, "
          f"{run.failed} of {run.attempted} operations failed "
          f"(error_rate {run.failed / run.attempted:.4f})")
    print(f"  setup: session {session_s:.3f} s, warm-up {warm_up_s:.3f} s, chain {chain_s:.3f} s")
    print(f"  peak_rss_mb: {rss:.1f} MB (Python + JVM VmHWM; not bounded, see README)")
    print(f"  pass_cpu_s: {statistics.median(run.pass_cpu_s):.6g} s (CPU of Python + JVM per pass)")
    for key, value in values.items():
        print(f"  {key}: {value:.6g} {units[key]}")
    if isinstance(workload, BtcSeries):
        print(f"  series_p50_s: {statistics.median(run.op_s):.6g} s "
              f"over {len(run.op_s)} measure → collect calls")
    else:
        tables = per_pass[0]["tables"] if per_pass else {}
        for name, times in workload.table_s.items():
            self_s = f", self {tables[name]:.3f} s" if name in tables else ""
            print(f"  core.table_s.{name}: {statistics.median(times):.3f} s{self_s}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cores": CORES, "default_parallelism": parallelism,
        "driver_memory": DRIVER_MEMORY, "spark_conf": conf,
        "spec_fingerprints": {s.name: fingerprint(s) for s in (BITCOIN_2019, ETHEREUM_2019)},
        "attempted": run.attempted, "failed": run.failed,
        "peak_rss_mb": rss, "session_s": session_s, "warm_up_s": warm_up_s, "chain_setup_s": chain_s,
        "pass_s": run.pass_s, "pass_cpu_s": run.pass_cpu_s, "op_s": run.op_s, "metrics": values,
        "per_pass": per_pass, "setup_stats": setup_stats,
        "table_s": getattr(workload, "table_s", {}),
        "spans": tracer.spans if tracer else [],
    }
    records = BUILD / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
