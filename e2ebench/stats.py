"""Statistics the benchmark reports, kept apart from run.py so they can be
tested on their own (e2ebench/tests/test_stats.py).

Everything here is a pure function of its arguments.
"""

import math
import statistics

# Percentiles tried for the tail, highest first. The tail is the highest
# one with at least MIN_BEYOND samples beyond it.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    """Median; a failed operation enters as math.inf."""
    return statistics.median(values) if values else math.nan


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_values[rank - 1]


def tail(values, min_beyond=MIN_BEYOND):
    """Highest percentile of TAIL_PERCENTILES with at least `min_beyond`
    samples above its nearest-rank position.

    Returns (percentile, value, samples_beyond). With too few samples for
    even the median, the percentile is None and the value is the maximum.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return None, math.nan, 0
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond >= min_beyond:
            return pct, ordered[rank - 1], beyond
    return None, ordered[-1], 0


def backlog_grows(outstanding, min_samples=6, ratio=1.5, min_increase=3.0):
    """Backlog-growth test for one open-loop rung.

    `outstanding` holds the number of requests in flight seen at each send,
    in send order. The backlog grows when the mean over the last third of
    the sends exceeds the mean over the middle third by both `ratio` times
    and `min_increase` requests. The first third is skipped: it holds the
    ramp-up from an empty service. Rungs with fewer than `min_samples`
    sends are never judged to grow.
    """
    n = len(outstanding)
    if n < min_samples:
        return False
    third = n // 3
    middle = outstanding[third:2 * third]
    last = outstanding[2 * third:]
    m_mid = sum(middle) / len(middle)
    m_last = sum(last) / len(last)
    return m_last > ratio * m_mid and m_last - m_mid >= min_increase


def rung_passes(latencies_ms, outstanding, slo_ms):
    """A rung passes when its tail latency is within the SLO and its backlog
    does not grow. Failed or refused requests enter `latencies_ms` as
    math.inf, so they count as misses."""
    _, value, _ = tail(latencies_ms)
    return value <= slo_ms and not backlog_grows(outstanding)


def max_rate_under_slo(rungs):
    """Highest offered rate up to which every rung of the ladder passes.

    `rungs` is a list of (rate, passed) pairs in any order. Returns 0.0 when
    the lowest rung already fails.
    """
    best = 0.0
    for rate, passed in sorted(rungs):
        if not passed:
            break
        best = rate
    return best


def self_times(names, starts, ends, parents):
    """Self time of every span: its duration minus the part of its interval
    covered by its children (overlapping children are counted once).

    The four lists are parallel; parents[i] is the index of span i's parent
    or -1. Returns a list of self times in the spans' units.
    """
    children = [[] for _ in names]
    for i, p in enumerate(parents):
        if p is not None and p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(names)):
        lo, hi = starts[i], ends[i]
        pieces = sorted((max(lo, starts[c]), min(hi, ends[c])) for c in children[i])
        covered = 0.0
        cur_lo, cur_hi = None, None
        for a, b in pieces:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (hi - lo) - covered))
    return out
