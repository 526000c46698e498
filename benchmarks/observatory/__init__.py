"""Perf observatory: the repository's one benchmark.

Four named workloads, thirteen end-to-end metrics and a per-layer traced
run, driven by ``BENCHMARK.json`` at the repository root.  See
``README.md`` in this directory for why each workload exists, what every
metric means and how to run, compare and record results.

Nothing here runs at import; the entry points are ``driver.py`` (one
workload, one JSON result line — the contract ``BENCHMARK.json`` names)
and ``python -m benchmarks.observatory`` (``run`` / ``compare``).
"""
