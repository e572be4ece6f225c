"""The repository benchmark: three service workloads, timed end to end and per layer.

Run ``python3 perfbench/run.py`` from the repository root (see
``perfbench/README.md``).
"""
