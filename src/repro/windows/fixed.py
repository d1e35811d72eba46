"""Fixed (non-overlapping) calendar windows: day / week / month.

The paper's fixed windows partition 2019 into days, weeks and months.
Windows are identified by a sortable integer ``window_id``:

* ``day``   — day of year (1..365), taken from the generator;
* ``week``  — 7-day chunks counted from Jan 1: ``(doy-1) / 7 + 1``
  (1..53; week 53 holds the final day of a 365-day year);
* ``month`` — calendar month (1..12), the generator's ``month`` column.
"""

from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

FIXED_GRANULARITIES = ("day", "week", "month")


def with_fixed_window(df: DataFrame, granularity: str) -> DataFrame:
    """Attach the fixed-window id for a granularity.

    Expects the producer-credit relation columns ``day_of_year`` and
    ``month`` (see ``repro.chain.generator.block_producers``).
    """
    if granularity == "day":
        expr = F.col("day_of_year").cast("int")
    elif granularity == "week":
        expr = ((F.col("day_of_year") - 1) / 7).cast("int") + 1
    elif granularity == "month":
        expr = F.col("month")
    else:
        raise ValueError(
            f"unknown granularity {granularity!r}; expected one of {FIXED_GRANULARITIES}"
        )
    return df.withColumn("window_id", expr)
