"""The repository benchmark: three workloads, one command (``python3 perfbench/run.py``).

See ``perfbench/README.md`` for the workloads, the metrics and the
predicted interactions between layers.
"""
