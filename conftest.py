import os
import pathlib
import sys


# spark.driver.memory is read at JVM launch, not from SparkConf, so it goes
# into PYSPARK_SUBMIT_ARGS before pyspark is imported anywhere: pytest
# loads this file before any test module. 4g is the benchmark's value.
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    "--master local[*] "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '4g')} "
    f"--conf spark.driver.host=127.0.0.1 "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "jobs"))
from _session import get_session  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """The jobs' SparkSession (``jobs/_session.get_session``) for the whole
    test session, so the tests run the plans the jobs run.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch).
    """
    s = get_session("repro")
    conf = s.sparkContext.getConf()
    print(
        f"[conftest] spark.driver.memory={conf.get('spark.driver.memory')} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
