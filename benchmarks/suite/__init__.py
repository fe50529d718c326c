"""The repository benchmark: named workloads, layered metrics, traced runs.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
