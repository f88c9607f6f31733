"""Pure helpers: percentiles, quartile spread and the benchmark's own
coverage check.  Nothing here imports the program under test."""

from __future__ import annotations

import math
import statistics

#: ``op_tail_ms`` reports the highest percentile that still has at least
#: this many samples beyond it, so a tail figure never rests on one or two
#: outliers.
TAIL_MIN_BEYOND = 10


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile: the element at index ``ceil(q·n) − 1``.

    ``ordered`` must be sorted ascending; ``q`` is in (0, 1].  This is the
    rule the router and ``scripts/loadgen.py`` use, so figures compare.
    """
    if not ordered:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def tail_percentile(n: int, min_beyond: int = TAIL_MIN_BEYOND) -> int:
    """Highest integer percentile with at least ``min_beyond`` samples above.

    With the nearest-rank index ``r = ceil(k·n/100) − 1`` there are
    ``n − 1 − r`` samples beyond it.  Raises when even the median has too
    few, since the tail metric would then be meaningless.
    """
    for percent in range(99, 49, -1):
        index = math.ceil(percent * n / 100) - 1
        if n - 1 - index >= min_beyond:
            return percent
    raise ValueError(
        f"{n} samples: no percentile >= 50 has {min_beyond} samples beyond it"
    )


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 − q1) / median) as the acceptance check takes them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else math.inf
    return median, q1, q3, spread


def uncovered_rows(rows: list[list[int]], betas: list[int]) -> int:
    """Rows no parity vector detects (0 means the design is sound).

    Row ``i`` holds one difference word per step; β covers it when some
    step's ``word & β`` has an odd number of set bits — the XOR tree then
    disagrees with its prediction.  Deliberately plain Python, independent
    of the program's own vectorised coverage code.
    """
    missed = 0
    for row in rows:
        if not any((word & beta).bit_count() & 1 for word in row for beta in betas):
            missed += 1
    return missed
