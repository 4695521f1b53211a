"""Repository benchmark: four workloads over build, BM25 query, commit and
serving, measured end to end and per layer.  Entry point: ``run.py``."""
