"""Command line of ``jobs/run_all.py`` and the session of ``jobs/_session.py``.

Run in a subprocess: ``main`` stops its Spark session, which in-process
would be the shared test session. The command-line cases exit in
argument parsing, before any JVM starts.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_all(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "jobs" / "run_all.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_unknown_table_rejected_with_choices():
    out = _run_all("--table", "T9")
    assert out.returncode == 2
    assert "invalid choice: 'T9'" in out.stderr
    for name in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"):
        assert f"'{name}'" in out.stderr


def test_help_lists_table_option():
    out = _run_all("--help")
    assert out.returncode == 0
    assert "--table" in out.stdout


def test_session_takes_master_from_submit_args():
    """``get_session`` keeps the master of the submit arguments, and turns
    off Arrow's silent fallback to row-by-row conversion."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "jobs")}
    env["PYSPARK_SUBMIT_ARGS"] = (
        "--master local[1] --driver-memory 1g "
        "--conf spark.driver.host=127.0.0.1 pyspark-shell"
    )
    code = (
        "from _session import get_session\n"
        "s = get_session('master-check')\n"
        "print(s.sparkContext.master)\n"
        "print(s.conf.get('spark.sql.execution.arrow.pyspark.fallback.enabled'))\n"
        "s.stop()\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-2:] == ["local[1]", "false"]
