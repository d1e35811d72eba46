"""Decentralization metrics (paper §II.B, Eqs. 1–4).

``reference`` holds numpy ground-truth implementations; ``spark_metrics``
counts per (window, miner) on Spark and runs ``KERNEL_SQL``, the one
definition of the metric kernel: SQL that derives all three metrics per
window from one ascending sort of those counts and one aggregation
(Nakamoto from the suffix sum ``T − cum + cnt``). The tests check it
against a DuckDB transcription of the equations as written
(``tests/oracle.py``), which shares no text with it.
"""
