"""Order statistics shared by run.py and compare.py."""

import math
import statistics

# A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """The p-th percentile (0-100) by linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(values, p):
    """The p-th percentile, or None when fewer than MIN_BEYOND samples lie above it."""
    if not values:
        return None
    v = percentile(values, p)
    beyond = sum(1 for x in values if x > v)
    return v if beyond >= MIN_BEYOND else None


def mad(values):
    """Median absolute deviation from the median."""
    m = statistics.median(values)
    return statistics.median(abs(x - m) for x in values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
