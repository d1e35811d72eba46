"""Decentralization metrics (paper §II.B, Eqs. 1–4).

``reference`` holds numpy ground-truth implementations; ``sql`` holds
the one definition of the metric kernel, SQL that derives all three
metrics per window from one ascending sort of the per-(window, miner)
counts and one aggregation (Nakamoto from the suffix sum
``T − cum + cnt``); ``spark_metrics`` counts per (window, miner) on
Spark and runs that SQL over the counts.
"""
