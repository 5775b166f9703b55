"""Benchmark harness for phonoam; run it with perfbench/run.py."""
