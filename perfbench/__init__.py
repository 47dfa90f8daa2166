"""Repository benchmark: trial-sweep, device-sweep and serve-10k.

Run one workload per process with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads, metrics and trace mode.
"""
