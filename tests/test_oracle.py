"""Self-checks of the DuckDB oracle harness and its textbook metric query."""

import os
import pathlib
import subprocess
import sys

import duckdb
import pandas as pd
import pytest
from pyspark.sql import functions as F

from tests.oracle import assert_equivalent, textbook_metrics_sql


@pytest.fixture(scope="module")
def kv(spark):
    pdf = pd.DataFrame({"k": [1, 1, 2, 3, 3, 3], "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]})
    return pdf, spark.createDataFrame(pdf)


def test_oracle_accepts_correct_result(kv):
    pdf, sdf = kv
    got = sdf.groupBy("k").agg(F.sum("v").alias("s"))
    assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_catches_wrong_result(kv):
    pdf, sdf = kv
    wrong = sdf.groupBy("k").agg((F.sum("v") + 1).alias("s"))
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_catches_float_difference_below_rounding(kv):
    """A float off by 1e-8 differs from the oracle's result: no rounding
    hides it."""
    pdf, sdf = kv
    off = sdf.groupBy("k").agg(
        (F.sum("v") + F.when(F.col("k") == 2, 1e-8).otherwise(0.0)).alias("s")
    )
    with pytest.raises(AssertionError):
        assert_equivalent(off, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_catches_missing_rows(kv):
    pdf, sdf = kv
    truncated = sdf.where("k <> 2").groupBy("k").agg(F.sum("v").alias("s"))
    with pytest.raises(AssertionError):
        assert_equivalent(truncated, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_catches_column_mismatch(kv):
    pdf, sdf = kv
    misnamed = sdf.groupBy("k").agg(F.sum("v").alias("total"))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(misnamed, "SELECT k, sum(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_ignores_row_and_column_order(kv):
    pdf, sdf = kv
    got = sdf.groupBy("k").agg(F.sum("v").alias("s")).select("s", "k").orderBy(F.desc("k"))
    assert_equivalent(got, "SELECT k, sum(v) AS s FROM t GROUP BY k ORDER BY k", t=pdf)


def test_oracle_accepts_spark_input_tables(kv):
    pdf, sdf = kv
    got = sdf.groupBy("k").agg(F.count("*").alias("c"))
    assert_equivalent(got, "SELECT k, count(*) AS c FROM t GROUP BY k", t=sdf)


def test_oracle_column_check_survives_optimize_flag():
    """``python -O`` strips ``assert`` statements; the column check must
    still raise with its own message."""
    root = pathlib.Path(__file__).resolve().parents[1]
    script = (
        "import pandas as pd\n"
        "from tests.oracle import assert_equivalent\n"
        "class Stub:\n"
        "    def toPandas(self):\n"
        "        return pd.DataFrame({'k': [1], 'total': [1.0]})\n"
        "try:\n"
        "    assert_equivalent(Stub(), 'SELECT k, sum(v) AS s FROM t GROUP BY k',\n"
        "                      t=pd.DataFrame({'k': [1], 'v': [1.0]}))\n"
        "except AssertionError as e:\n"
        "    print(e)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root)}, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "column mismatch" in out.stdout


@pytest.mark.parametrize(
    "dist,nakamoto",
    [
        ({"a": 51, "b": 49}, 1),
        ({"a": 50, "b": 50}, 2),
        ({"a": 25, "b": 25, "c": 25, "d": 25}, 3),
        ({"a": 100}, 1),
    ],
)
def test_textbook_oracle_at_the_51_percent_boundary(dist, nakamoto):
    """The oracle's Eq. 4 on one window whose answer is known."""
    credits = pd.DataFrame(
        [(0, m) for m, c in dist.items() for _ in range(c)], columns=["window_id", "miner"]
    )
    with duckdb.connect() as con:
        con.register("bp", credits)
        row = con.execute(textbook_metrics_sql("bp")).fetchdf().iloc[0]
    assert (row["n_miners"], row["n_credits"], row["nakamoto"]) == (len(dist), 100, nakamoto)
