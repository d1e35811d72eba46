"""Decentralization metrics (paper §II.B, Eqs. 1–4).

``reference`` holds numpy ground-truth implementations;
``spark_metrics`` computes all three metrics per window from one
ascending sort of the per-(window, miner) counts and one aggregation
(Nakamoto from the suffix sum ``T − cum + cnt``); ``sql`` carries the
same single-sort query as engine-portable SQL, used to cross-check
Spark against DuckDB.
"""
