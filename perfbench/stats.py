"""Summary statistics the benchmark reports."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample count)``. With ``c`` sorted samples
    the value is the ``(c-10)``-th smallest, the ``100*(c-10)/c``-th
    percentile. Below twenty samples that percentile would not even reach
    the median, so the maximum is returned and recorded as the 100th
    percentile.
    """
    xs = sorted(samples)
    count = len(xs)
    if count == 0:
        raise ValueError("no samples")
    if count < 2 * TAIL_BEYOND:
        return xs[-1], 100.0, count
    rank = count - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / count, count
