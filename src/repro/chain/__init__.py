"""Synthetic blockchain substrate (substitute for Google BigQuery data).

The paper consumes only ``(block_number, timestamp, producer)`` tuples;
this package generates calibrated 2019 streams for Bitcoin and Ethereum
whose mining-power distributions reproduce every population statistic
the paper reports (see DESIGN.md §5 for the calibration).
"""
