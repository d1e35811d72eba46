"""SparkSession setup for the spark-submit job entrypoint.

Mirrors the test fixture configuration in ``conftest.py`` (shuffle
partitions, Arrow, broadcast joins disabled) so jobs measure the same
plans the tests verify. Under ``spark-submit`` the master/memory come
from the submit command line; run directly (``python jobs/run_all.py``)
it falls back to ``local[*]``.
"""

from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app_name: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app_name)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
