"""Spans and counters around the calls into each layer (traced runs only).

``Tracer.installed()`` swaps each layer's public function, in every
module that calls it, for a wrapper that records a span and restores
the originals on exit. Spark is lazy, so a wrapper forces its layer's
output with a ``noop`` sink; a layer's self time is its forced time
minus the forced time of the prefix it consumed:

* ``windows.assign``  — ``with_fixed_window`` / ``with_sliding_window``
* ``metrics.count``   — ``per_window_counts``
* ``metrics.kernel``  — ``decentralization_by_window``
* ``core.collect``    — ``collect_series``, less the time its Spark jobs ran
* ``chain.generate``  — ``block_producers_pdf``; ``chain.ingest`` is
  ``producers`` (create + persist) minus the generate inside it.

Plan-shape and shuffle counters come from the final AQE plan of each
collected series; stage and task counts from its job group.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from repro.chain import generator
from repro.core import pipeline, tables
from repro.metrics import spark_metrics
from repro.windows import fixed, sliding


def final_plan_nodes(jplan):
    """Yield ``(class name, node)`` for every node of the executed plan.

    Walks the final AQE plan only (``executedPlan().toString()`` also
    prints the initial plan, which would count each node twice) and
    descends into query stages, but not into reused exchanges, which
    ran once elsewhere in the plan.
    """
    stack = [jplan]
    while stack:
        node = stack.pop()
        name = node.getClass().getSimpleName()
        yield name, node
        if name == "AdaptiveSparkPlanExec":
            stack.append(node.executedPlan())
        elif name.endswith("QueryStageExec"):
            stack.append(node.plan())
        elif name != "ReusedExchangeExec":
            children = node.children()
            stack.extend(children.apply(i) for i in range(children.size()))


class Tracer:
    """Spans (name, start, end, parent) plus per-pass layer totals."""

    def __init__(self, spark):
        self.spark = spark
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._forced: dict[int, tuple[object, float]] = {}
        self._chain_rows: dict[int, int] = {}
        self._groups = 0
        self._last_rows: int | None = None
        self._last_counts_s = 0.0
        self.stats: dict = self._empty()

    @staticmethod
    def _empty() -> dict:
        return {"layers": defaultdict(float), "tables": {}}

    def reset(self) -> None:
        """Drop every span and total recorded so far."""
        self.spans.clear()
        self.stats = self._empty()

    def take(self) -> dict:
        """Return the totals since the last call and start new ones."""
        stats, self.stats = self.stats, self._empty()
        stats["layers"] = dict(stats["layers"])
        return stats

    @contextmanager
    def span(self, name: str):
        """Record a span; yields its index into ``spans``."""
        idx = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None})
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    def _self_s(self, idx: int) -> float:
        """Span duration minus the time its child spans cover."""
        def duration(s):
            return s["end"] - s["start"]
        children = sum(duration(s) for s in self.spans[idx + 1:] if s["parent"] == idx)
        return duration(self.spans[idx]) - children

    def _force(self, df) -> float:
        """Run ``df`` into a noop sink; remember and return the seconds."""
        t0 = time.perf_counter()
        df.write.format("noop").mode("overwrite").save()
        seconds = time.perf_counter() - t0
        self._forced[id(df)] = (df, seconds)  # holding df keeps its id unique
        return seconds

    def _prefix_s(self, df) -> float:
        return self._forced.get(id(df), (None, 0.0))[1]

    def _add(self, key: str, value: float) -> None:
        self.stats["layers"][key] += value

    # -- wrappers ---------------------------------------------------------

    def _generate(self, orig):
        def wrapper(*args, **kwargs):
            with self.span("chain.generate") as idx:
                pdf = orig(*args, **kwargs)
            self._add("chain.generate_s", self._self_s(idx))
            self._add("chain.rows", len(pdf))
            self._last_rows = len(pdf)
            return pdf
        return wrapper

    def _producers(self, orig):
        def wrapper(spark, spec, seed=None):
            self._last_rows = None
            with self.span("chain.ingest") as idx:
                df = orig(spark, spec, seed)
            if self._last_rows is not None:  # built now, not a cache hit
                self._add("chain.ingest_s", self._self_s(idx))
                self._add("chain.partitions", df.rdd.getNumPartitions())
                self._chain_rows[id(df)] = self._last_rows
            return df
        return wrapper

    def _windows(self, orig):
        def wrapper(df, *args, **kwargs):
            with self.span("windows.assign"):
                out = orig(df, *args, **kwargs)
                seconds = self._force(out)
            self._add("windows.assign_s", seconds - self._prefix_s(df))
            self._chain_rows[id(out)] = self._chain_rows.get(id(df), 0)
            return out
        return wrapper

    def _counts(self, orig):
        def wrapper(df, *args, **kwargs):
            with self.span("metrics.count"):
                out = orig(df, *args, **kwargs)
                seconds = self._force(out)
            self._add("metrics.count_s", seconds - self._prefix_s(df))
            self._last_counts_s = seconds
            return out
        return wrapper

    def _kernel(self, orig):
        def wrapper(df, *args, **kwargs):
            with self.span("metrics.kernel"):
                out = orig(df, *args, **kwargs)
                seconds = self._force(out)
            self._add("metrics.kernel_s", seconds - self._last_counts_s)
            self._add("windows.rows_in", self._chain_rows.get(id(df), 0))
            return out
        return wrapper

    def _collect(self, orig):
        def wrapper(measured):
            sc = self.spark.sparkContext
            self._groups += 1
            group = f"layerbench-collect-{self._groups}"
            sc.setJobGroup(group, "collect_series")
            try:
                with self.span("core.collect") as idx:
                    pdf = orig(measured)
            finally:
                sc.setLocalProperty("spark.jobGroup.id", None)
            # Collect self time is the part of the call outside its Spark
            # jobs (planning, Arrow transfer, pandas). The prefix difference
            # used for the other layers reads negative here: the collect is
            # the second run of the plan the kernel's noop run just warmed.
            jobs_s = self._job_counters(group)
            self._add("core.collect_s", self._self_s(idx) - jobs_s)
            self._add("windows.rows_out", int(pdf["n_credits"].sum()))
            self._add("metrics.count_rows", int(pdf["n_miners"].sum()))
            self._plan_counters(measured)
            return pdf
        return wrapper

    def _plan_counters(self, measured) -> None:
        for name, node in final_plan_nodes(measured._jdf.queryExecution().executedPlan()):
            if name == "ShuffleExchangeExec":
                self._add("metrics.exchanges", 1)
                self._add("metrics.shuffle_bytes",
                          node.metrics().apply("shuffleBytesWritten").value())
            elif name == "SortExec":
                self._add("metrics.sorts", 1)

    def _job_counters(self, group: str) -> float:
        """Count the group's stages and tasks; return the seconds from its
        first job's submission to its last job's completion."""
        sc = self.spark.sparkContext
        tracker = sc.statusTracker()
        store = sc._jsc.sc().statusStore()
        first_ms, last_ms = float("inf"), 0
        for job in tracker.getJobIdsForGroup(group):
            data = store.job(job)
            first_ms = min(first_ms, data.submissionTime().get().getTime())
            last_ms = max(last_ms, data.completionTime().get().getTime())
            for stage in tracker.getJobInfo(job).stageIds:
                s = tracker.getStageInfo(stage)
                if s and s.numCompletedTasks:  # skipped stages ran no task
                    self._add("spark.stages", 1)
                    self._add("spark.tasks", s.numCompletedTasks)
        return max(0.0, (last_ms - first_ms) / 1000)

    def _table(self, name, orig):
        def wrapper(spark):
            with self.span(f"core.table.{name}") as idx:
                pdf = orig(spark)
            self.stats["tables"][name] = self._self_s(idx)
            return pdf
        return wrapper

    @contextmanager
    def installed(self):
        """Patch the layer functions in every module that calls them."""
        patches = [(generator, "block_producers_pdf", self._generate),
                   (pipeline, "producers", self._producers),
                   (spark_metrics, "per_window_counts", self._counts),
                   (pipeline, "decentralization_by_window", self._kernel),
                   (pipeline, "collect_series", self._collect)]
        for module in (pipeline, tables, fixed):
            patches.append((module, "with_fixed_window", self._windows))
        for module in (pipeline, tables, sliding):
            patches.append((module, "with_sliding_window", self._windows))
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
        saved_tables = dict(tables.ALL_TABLES)
        try:
            for module, attr, make in patches:
                setattr(module, attr, make(getattr(module, attr)))
            for name, builder in saved_tables.items():
                tables.ALL_TABLES[name] = self._table(name, builder)
            yield self
        finally:
            for module, attr, orig in saved:
                setattr(module, attr, orig)
            tables.ALL_TABLES.update(saved_tables)
