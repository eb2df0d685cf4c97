"""End-to-end and per-layer benchmark of the repro summarizers and
summary server; run it with ``python3 perfbench/run.py``."""
