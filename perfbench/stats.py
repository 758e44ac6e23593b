"""Order statistics for per-problem times."""
from __future__ import annotations

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def rank(q: float, n: int) -> int:
    """Nearest-rank position (1-based) of the q-th percentile of n values;
    q is read to a tenth of a percent so that the rounding is exact."""
    return max(1, -(-round(q * 10) * n // 1000))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples beyond
    it; the median when there are too few samples for any tail."""
    for q in TAIL_LADDER:
        if n - rank(q, n) >= MIN_BEYOND:
            return q
    return 50.0


def percentile(values, q: float):
    ordered = sorted(values)
    return ordered[rank(q, len(ordered)) - 1]

