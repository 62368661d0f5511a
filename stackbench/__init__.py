"""Benchmark of the repro stack: four workloads, end-to-end and per-layer metrics."""
