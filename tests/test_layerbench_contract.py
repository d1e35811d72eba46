"""The library names and call shapes the layered benchmark relies on.

``layerbench/run.py`` calls the library directly and ``layerbench/tracing.py``
patches eleven of its names: five layer names, plus ``with_*_window`` in
three modules each. A refactor that renames one of them, or changes
a signature the benchmark calls, breaks the benchmark only when it runs;
these checks catch it in the unit suite. No Spark session is started.
"""

import inspect

from repro.chain import generator
from repro.core import pipeline, tables
from repro.metrics import spark_metrics
from repro.windows import fixed, sliding
from tests.conftest import load_tracing

MODULES = (generator, pipeline, tables, spark_metrics, fixed, sliding)


def _public_attrs():
    return {
        (m.__name__, name): value
        for m in MODULES
        for name, value in vars(m).items()
        if callable(value) and not name.startswith("_")
    }


def test_tracer_patches_and_restores_every_layer_name():
    tracing = load_tracing()
    before = _public_attrs()
    tables_before = dict(tables.ALL_TABLES)
    with tracing.Tracer(None).installed():
        during = _public_attrs()
        assert dict(tables.ALL_TABLES).keys() == tables_before.keys()
        assert all(tables.ALL_TABLES[k] is not v for k, v in tables_before.items())
    patched = {k for k, v in before.items() if during[k] is not v}
    assert ("repro.core.pipeline", "producers") in patched
    assert ("repro.chain.generator", "block_producers_pdf") in patched
    assert len(patched) == 11  # five layer names + with_*_window in three modules each
    after = _public_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tables.ALL_TABLES == tables_before


def test_benchmark_call_shapes_bind():
    df, spec, spark, measured = object(), object(), object(), object()
    calls = [
        (pipeline.producers, (spark, spec, 1), {}),
        (pipeline.producers, (spark, spec), {}),
        (pipeline.measure_fixed, (df, "day"), {}),
        (pipeline.measure_sliding, (df, spec, "day"), {}),
        (pipeline.collect_series, (measured,), {}),
        (pipeline.miner_share_series, (df, "StealthPool"), {}),
        (pipeline.clear_caches, (), {}),
        (fixed.with_fixed_window, (df, "day"), {}),
        (sliding.with_sliding_window, (df, 54_231, 144), {}),
        (generator.block_producers_pdf, (spec,), {"seed": 1}),
    ]
    for func, args, kwargs in calls:
        inspect.signature(func).bind(*args, **kwargs)  # TypeError if not


def test_all_tables_are_t1_to_t8():
    assert list(tables.ALL_TABLES) == [f"T{i}" for i in range(1, 9)]
    for builder in tables.ALL_TABLES.values():
        inspect.signature(builder).bind(object())  # called as builder(spark)
