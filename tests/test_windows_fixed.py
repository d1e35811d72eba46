"""Fixed-window assignment vs DuckDB date arithmetic."""

import pandas as pd
import pytest
import pytz
from pyspark.sql import functions as F

from repro.windows.fixed import FIXED_GRANULARITIES, with_fixed_window
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def year_pdf():
    """One credit per day of 2019 plus boundary-day duplicates."""
    days = pd.date_range("2019-01-01", "2019-12-31", freq="D")
    pdf = pd.DataFrame(
        {
            "ts": days,
            "day_of_year": days.dayofyear,
            "month": days.month,
            "miner": [f"m{i % 5}" for i in range(len(days))],
        }
    )
    return pdf


@pytest.fixture(scope="module")
def year_sdf(spark, year_pdf):
    return spark.createDataFrame(year_pdf)


def test_day_window_is_day_of_year(year_sdf):
    out = with_fixed_window(year_sdf, "day").select("day_of_year", "window_id")
    assert out.where(F.col("window_id") != F.col("day_of_year")).count() == 0


@pytest.mark.parametrize(
    "doy,expected_week",
    [(1, 1), (7, 1), (8, 2), (14, 2), (15, 3), (364, 52), (365, 53)],
)
def test_week_window_boundaries(year_sdf, doy, expected_week):
    out = with_fixed_window(year_sdf, "week")
    row = out.where(F.col("day_of_year") == doy).select("window_id").collect()
    assert row[0][0] == expected_week


def test_week_window_count(year_sdf):
    out = with_fixed_window(year_sdf, "week")
    assert out.select("window_id").distinct().count() == 53


def test_month_window_is_calendar_month(btc_df, btc_pdf):
    """On the generated BTC chain, each day of 2019 falls in one month
    window: the calendar month of its pandas ``ts``."""
    out = with_fixed_window(btc_df, "month").select("day_of_year", "window_id")
    got = out.distinct().toPandas().set_index("day_of_year")["window_id"].sort_index()
    want = btc_pdf.groupby("day_of_year")["ts"].first().dt.month
    assert got.tolist() == want.tolist()
    assert len(got) == 365
    assert got.nunique() == 12


@pytest.mark.parametrize("granularity", FIXED_GRANULARITIES)
def test_fixed_window_counts_vs_oracle(btc_df, btc_pdf, granularity):
    """Window assignment + per-window counts on the generated BTC chain
    must match DuckDB date math on its pandas ``ts``."""
    out = (
        with_fixed_window(btc_df, granularity)
        .groupBy("window_id")
        .agg(F.count("*").alias("cnt"))
    )
    duck_window = {
        "day": "dayofyear(ts)",
        "week": "(dayofyear(ts) - 1) // 7 + 1",
        "month": "month(ts)",
    }[granularity]
    sql = f"SELECT {duck_window} AS window_id, count(*) AS cnt FROM bp GROUP BY 1"
    assert_equivalent(out, sql, bp=btc_pdf)


def test_every_credit_lands_in_exactly_one_window(year_sdf):
    for granularity in FIXED_GRANULARITIES:
        out = with_fixed_window(year_sdf, granularity)
        assert out.count() == year_sdf.count()  # 1:1, no explode


def test_unknown_granularity_rejected(year_sdf):
    with pytest.raises(ValueError, match="unknown granularity"):
        with_fixed_window(year_sdf, "fortnight")


def test_windows_partition_tiny_chain(tiny_df, tiny_spec):
    """On a real generated chain, fixed day windows partition all credits
    and cover every day of the chain."""
    out = with_fixed_window(tiny_df, "day")
    per_day = out.groupBy("window_id").count().toPandas()
    assert len(per_day) == tiny_spec.n_days
    assert per_day["count"].sum() == tiny_df.count()


@pytest.fixture
def session_zone(spark):
    """Sets the session time zone for one test and restores it after."""
    before = spark.conf.get("spark.sql.session.timeZone")
    try:
        yield lambda zone: spark.conf.set("spark.sql.session.timeZone", zone)
    finally:
        spark.conf.set("spark.sql.session.timeZone", before)


def test_failed_arrow_ingest_raises(spark, session_zone):
    """A wall time inside Los Angeles' 2019 DST gap cannot be localized;
    ingest raises instead of silently converting row by row."""
    session_zone("America/Los_Angeles")
    gap = pd.DataFrame({"ts": [pd.Timestamp("2019-03-10 02:08:13")]})
    with pytest.raises(pytz.NonExistentTimeError, match="2019-03-10 02:08:13"):
        spark.createDataFrame(gap)
