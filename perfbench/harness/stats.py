"""Order statistics for latency samples.

Percentiles use the nearest-rank rule on integer percents, so the rank
is computed exactly (0.9 * 100 is not 90 in floating point). A failed or
refused operation enters the samples as ``math.inf``: it misses every
latency limit.
"""


def rank(n, p):
    """1-based nearest rank of the ``p``-th percentile (integer ``p`` in
    1..100) among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not (isinstance(p, int) and 0 < p <= 100):
        raise ValueError("percent must be an integer in 1..100")
    return max(1, (p * n + 99) // 100)


def percentile(samples, p):
    """Nearest-rank ``p``-th percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), p) - 1]


def beyond(n, p):
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return n - rank(n, p)


def tail_reportable(n, p, min_beyond=10):
    """A percentile is reported only when at least ``min_beyond`` samples
    lie beyond it; otherwise it is a guess about the slowest few."""
    return beyond(n, p) >= min_beyond
