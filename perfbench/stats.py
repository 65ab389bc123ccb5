"""Nearest-rank percentiles and the ten-beyond rule for reporting one."""

from __future__ import annotations

import math

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n))


def beyond(p: float, n: int) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return n - rank(p, n) if n > 0 else 0


def reportable(p: float, n: int) -> bool:
    """True when at least :data:`MIN_BEYOND` of ``n`` samples lie beyond ``p``."""
    return n > 0 and beyond(p, n) >= MIN_BEYOND


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]
