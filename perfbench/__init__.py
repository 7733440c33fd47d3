"""Benchmark harness for the timbrediff CLI pipeline (not part of the package)."""
