"""Statistics of the repository benchmark.

Pure functions over lists of samples; run.py applies them to the workload runner's
raw output and tests/test_stats.py pins their behaviour.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it, so one slow sample cannot set it alone.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty list."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) with the exclusive method of statistics.quantiles.

    A single sample is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median (the spread the benchmark's bounds are checked against)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def tail_percentile(values, p):
    """Nearest-rank p-th percentile (the value at rank ceil(p/100 * n)), or
    None when fewer than MIN_BEYOND samples lie beyond it.

    The percentile is never lowered to fit the samples, so a metric named
    for p means p on every run: p95 needs 200 samples, p90 needs 100.
    """
    n = len(values)
    rank = math.ceil(p * n / 100.0)
    if rank < 1 or n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def summary(values):
    """Median, quartiles and count of one metric's samples."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def charge_to_target(charge_curve, adrs_curve, target):
    """Charged tool-seconds until the ADRS first reaches `target`.

    The curves run along the ordered CS: entry k is the cumulative charge
    and the ADRS after the first k+1 evaluations. Returns (charge, censored);
    a campaign that never reaches the target counts at its full charge and
    is flagged censored.
    """
    if len(charge_curve) != len(adrs_curve) or not charge_curve:
        raise ValueError("curves must be non-empty and of equal length")
    for charge, adrs in zip(charge_curve, adrs_curve):
        if adrs is not None and adrs <= target:
            return charge, False
    return charge_curve[-1], True


def open_loop_latencies(due, sent, done):
    """Open-loop request timing.

    Each request is timed from the instant it was due, not from when the
    generator got round to sending it, so a stall also charges the requests
    queued behind it. Returns (latencies, lateness): per request the due-to-
    reply latency and how late the generator sent it (never negative).
    """
    if not (len(due) == len(sent) == len(done)):
        raise ValueError("due, sent and done must have equal length")
    latencies, lateness = [], []
    for d, s, r in zip(due, sent, done):
        if s < d or r < s:
            raise ValueError("a request was sent before it was due or "
                             "answered before it was sent")
        latencies.append(r - d)
        lateness.append(s - d)
    return latencies, lateness
