"""Nearest-rank percentiles and the tail rule the benchmark reports."""

from __future__ import annotations

import math

#: Percentiles the tail may fall back to, highest first.
LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def nearest_rank(values, p: float) -> tuple[float, int]:
    """The nearest-rank ``p``-th percentile and how many samples lie beyond it.

    The rank is ``ceil(p / 100 * n)`` (at least 1); the samples beyond
    it are the ``n - rank`` larger-ranked ones.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("nearest_rank needs at least one sample")
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n - 1e-9))
    return ordered[rank - 1], n - rank


def tail(values, declared: float) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` of the reported tail.

    Each workload declares the highest percentile that keeps at least
    :data:`MIN_BEYOND` samples beyond it at its expected op count, so a
    faster program (more ops) keeps reporting the same percentile.  A
    run with too few ops falls back to the highest percentile of
    :data:`LADDER` that still has ``MIN_BEYOND`` samples beyond it.
    """
    for p in (declared,) + tuple(q for q in LADDER if q < declared):
        value, beyond = nearest_rank(values, p)
        if beyond >= MIN_BEYOND:
            return p, value, beyond
    value, beyond = nearest_rank(values, 50.0)
    return 50.0, value, beyond
