"""Record the T1–T8 ``measured`` values that the ``report`` workload checks.

Run once at the commit whose values are the reference (from the
repository root): ``python3 layerbench/make_expected.py``. Writes
``layerbench/expected_tables.json`` with every table's (item, measured)
rows and the window-member rows of all twelve series.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, start_session, stop_session


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from checks import EXPECTED_TABLES, member_rows
    from repro.chain.generator import block_producers_pdf
    from repro.chain.params import BITCOIN_2019, ETHEREUM_2019
    from repro.core.tables import ALL_TABLES

    spark = start_session()
    try:
        tables = {
            name: [[item, float(v)] for item, v in zip(pdf["item"], pdf["measured"])]
            for name, pdf in ((n, build(spark)) for n, build in ALL_TABLES.items())
        }
    finally:
        stop_session(spark)
    rows = sum(member_rows(block_producers_pdf(s), s) for s in (BITCOIN_2019, ETHEREUM_2019))
    EXPECTED_TABLES.write_text(json.dumps({"tables": tables, "member_rows": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
