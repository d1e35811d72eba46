"""SparkSession setup for the spark-submit job entrypoint and the tests.

Shuffle partitions, Arrow with no silent fallback to row-by-row
conversion, and broadcast joins disabled, so every query runs its real
shuffle path. The root ``conftest.py`` fixture calls ``get_session`` too,
so the tests verify the plans the jobs measure. The master and driver
memory come from the submit command line (``spark-submit`` or
``PYSPARK_SUBMIT_ARGS``); run directly (``python jobs/run_all.py``)
PySpark defaults to ``local[*]``.
"""

from __future__ import annotations

from pyspark.sql import SparkSession


def get_session(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.execution.arrow.pyspark.fallback.enabled", "false")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
