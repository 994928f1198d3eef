"""Benchmark of the BikeCAP training and serving stack.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``perfbench/README.md`` describes the workloads,
the metrics and how they are measured.
"""
