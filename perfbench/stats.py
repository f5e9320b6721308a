"""Percentiles under the benchmark's reporting rule.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it, and always with its sample count.  Nearest-rank definition:
the q-th percentile of n sorted samples is the ``ceil(q * n)``-th
smallest, so ``n - ceil(q * n)`` samples lie beyond it.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
QUANTILES = (0.5, 0.9, 0.99)


def _rank(q: float, n: int) -> int:
    # round() first: 0.99 * 1000 is 990.0000000000001 in binary floating point
    return max(1, math.ceil(round(q * n, 9)))


def supported(q: float, n: int) -> bool:
    """Whether the q-th percentile of n samples has enough samples beyond it."""
    return n > 0 and n - _rank(q, n) >= MIN_BEYOND


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; raises ValueError when not supported."""
    n = len(samples)
    if not supported(q, n):
        raise ValueError(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; have {n} samples"
        )
    return sorted(samples)[_rank(q, n) - 1]


def summarize(samples: list[float]) -> dict:
    """``{"n": count, "p50": ..., "p90": ...}`` with only supported percentiles."""
    ordered = sorted(samples)
    n = len(ordered)
    summary: dict = {"n": n}
    for q in QUANTILES:
        if supported(q, n):
            summary[f"p{q * 100:g}"] = ordered[_rank(q, n) - 1]
    return summary
