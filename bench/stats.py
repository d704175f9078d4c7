"""Summary statistics shared by the runner and its tests (standard library only)."""

from __future__ import annotations

import math
import re
import statistics

# Percentiles tried for the tail latency, lowest first.  The reported tail is
# the highest of them that still has at least MIN_BEYOND operations above it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10

# Metric names: a letter or digit first, then letters, digits, '_', '.', '-',
# at most 64 characters in all.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def nearest_rank(sorted_values: list[float], q: float) -> tuple[float, int]:
    """The q-th percentile by nearest rank, and how many values lie beyond it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no values")
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point
    rank = min(n, max(1, math.ceil(round(q / 100.0 * n, 9))))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, count beyond) for the highest ladder percentile with
    at least MIN_BEYOND values beyond it; the median when none qualifies."""
    ordered = sorted(values)
    best = None
    for q in TAIL_LADDER:
        value, beyond = nearest_rank(ordered, q)
        if beyond >= MIN_BEYOND:
            best = (q, value, beyond)
    if best is None:
        value, beyond = nearest_rank(ordered, 50.0)
        best = (50.0, value, beyond)
    return best


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def is_metric_name(name: str) -> bool:
    return _NAME.fullmatch(name) is not None
