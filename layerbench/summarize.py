"""Fold the run records in ``.bench_build/records`` into one baseline.

Usage (from the repository root, after some benchmark runs):

    python3 layerbench/summarize.py [output.json]

For each workload it writes the median and quartiles of every metric
over the recorded seeds, untraced and traced, the tracing overhead (the
traced pass time against the untraced one) and the run settings
(cores, driver memory, Spark conf, spec fingerprints). Without an
argument it prints the summary instead.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import BUILD


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def main(out_path: str | None = None) -> None:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted((BUILD / "records").glob("*.json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    summary = {}
    for (workload, trace), recs in sorted(runs.items()):
        entry = summary.setdefault(workload, {
            key: recs[0][key] for key in
            ("cores", "default_parallelism", "driver_memory", "spark_conf",
             "spec_fingerprints", "seconds")
        })
        entry["traced" if trace else "untraced"] = {
            "seeds": [r["seed"] for r in recs],
            "failed": sum(r["failed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "metrics": {k: quartiles([r["metrics"][k] for r in recs])
                        for k in recs[0]["metrics"]},
        }
    for entry in summary.values():
        if "traced" in entry and "untraced" in entry:
            traced = entry["traced"]["metrics"]["trace.pass_s"]["median"]
            untraced = entry["untraced"]["metrics"]["pass_s"]["median"]
            entry["tracing_overhead"] = {"pass_s": traced - untraced,
                                         "share": traced / untraced - 1}
    text = json.dumps(summary, indent=1) + "\n"
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        print(text)


if __name__ == "__main__":
    main(*sys.argv[1:2])
