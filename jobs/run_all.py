"""Reproduce tables T1–T8 (or a chosen subset) in one Spark session.

Usage:
    spark-submit jobs/run_all.py [--table T4 ...] [output.md]

``--table`` may be repeated; without it every table is built. Prints
each table as markdown; with an output path, also writes the combined
report there (this is how the numbers in EXPERIMENTS.md were
generated). One session is reused so the chain DataFrames and collected
series are generated once and shared across tables.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from _session import get_session

from repro.core.tables import ALL_TABLES, to_markdown


def main(names: list[str], out_path: str | None) -> None:
    spark = get_session("repro-all-tables")
    spark.sparkContext.setLogLevel("ERROR")
    chunks = []
    try:
        for name in names:
            builder = ALL_TABLES[name]
            pdf = builder(spark)
            chunk = f"\n## Table {builder.__doc__.splitlines()[0].rstrip('.')}\n\n{to_markdown(pdf)}\n"
            print(chunk)
            chunks.append(chunk)
    finally:
        spark.stop()
    if out_path:
        pathlib.Path(out_path).write_text("".join(chunks))
        print(f"wrote {out_path}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", action="append", choices=list(ALL_TABLES),
                        help="table to build; repeatable (default: all, in order)")
    parser.add_argument("out_path", nargs="?", help="also write the report here")
    args = parser.parse_args()
    main(args.table or list(ALL_TABLES), args.out_path)
