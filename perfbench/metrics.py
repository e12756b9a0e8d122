"""Metric code of the benchmark, kept free of I/O so it can be tested on
hand-computed service-time traces (see test_metrics.py).

Load model: an open loop in virtual time. Edge `i` of a pass is due at
`due[i]`, the stream's own arrival time (its `ts`, relative to the window's
first edge); `scaled` stretches or compresses those times to another mean
rate. A call completes the edges `first..last` and cannot start before its
last edge is due (a micro-batch waits to fill; a single-edge call waits for
its edge). One sequential server runs the calls in order:

    start_j  = max(due(last_j), finish_{j-1})
    finish_j = start_j + service_j

An edge's latency is `finish` of the call that completes it minus its due
time. The program's work per call does not depend on when calls arrive, so
service times measured back to back give the latency at any rate; the
generator can never run late, because it does not exist.
"""

import math


def percentile(values, q):
    """Nearest-rank percentile `q` (0 < q < 100) of `values`.

    A percentile is only reported when at least ten samples lie beyond it;
    otherwise it would describe a handful of outliers. Raises ValueError
    when the sample is too small for `q`.
    """
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < 10:
        raise ValueError(f"p{q} of {n} samples has {n - rank} beyond it; need 10")
    return sorted(values)[rank - 1]


def median(values):
    return percentile(values, 50)


class Call:
    """One server call: it completes edges `first..last` of its pass.
    `reorders` is False for a grouped insert that only buffered its edge."""
    __slots__ = ("first", "last", "service_s", "reorders")

    def __init__(self, first, last, service_s, reorders=True):
        self.first, self.last, self.service_s = first, last, service_s
        self.reorders = reorders


class QueueResult:
    def __init__(self, latencies, waits, finishes, backlog_max, busy_s, span_s):
        self.latencies = latencies      # seconds, one per edge
        self.waits = waits              # seconds, one per call: start - due(last)
        self.finishes = finishes        # seconds, one list per pass, one per call
        self.backlog_max = backlog_max  # most calls in the system at an arrival
        self.busy_s = busy_s
        self.span_s = span_s            # first due time to last finish

    @property
    def busy_share(self):
        return self.busy_s / self.span_s


def mean_rate(due):
    """Edges per second over the arrival times `due` (ascending)."""
    return (len(due) - 1) / (due[-1] - due[0])


def scaled(due, rate):
    """The arrival times `due` on a clock that makes their mean rate `rate`;
    bursts keep their shape."""
    k = mean_rate(due) / rate
    return [d * k for d in due]


def simulate(passes, due):
    """Run the virtual-time queue over each pass (a list of Calls in order;
    each pass starts with an empty server) with edge `e` due at `due[e]`,
    and pool the results."""
    latencies, waits, all_finishes = [], [], []
    backlog_max = 0
    busy = span = 0.0
    for calls in passes:
        finish_prev = 0.0
        finishes = []   # finish times of earlier calls, non-decreasing
        all_finishes.append(finishes)
        oldest = 0      # first earlier call that may still be in the system
        for c in calls:
            ready = due[c.last]
            while oldest < len(finishes) and finishes[oldest] <= ready:
                oldest += 1
            backlog_max = max(backlog_max, len(finishes) - oldest + 1)
            start = max(ready, finish_prev)
            finish = start + c.service_s
            waits.append(start - ready)
            latencies.extend(finish - due[e] for e in range(c.first, c.last + 1))
            finishes.append(finish)
            finish_prev = finish
            busy += c.service_s
        if calls:
            span += finish_prev - due[calls[0].first]
    return QueueResult(latencies, waits, all_finishes, backlog_max, busy, span)


def buffer_waits(passes, finishes, due):
    """Paper-style latency `L` of buffered edges: from an edge's due time
    until the next reordering call after it finishes, for every call that
    only buffered its edge. Edges still buffered when the pass ends are
    left out."""
    waits = []
    for calls, fin in zip(passes, finishes):
        pending = []
        for c, f in zip(calls, fin):
            if c.reorders:
                waits.extend(f - due[e] for e in pending)
                pending = []
            else:
                pending.extend(range(c.first, c.last + 1))
    return waits


def utilisation(passes, rate):
    """Offered work over offered time at a mean rate of `rate` edges/s;
    the backlog grows without bound when this reaches 1."""
    busy = sum(c.service_s for calls in passes for c in calls)
    edges = sum(calls[-1].last + 1 for calls in passes if calls)
    return busy * rate / edges


# A fixed geometric ladder of offered rates: 32 rungs per doubling (about
# 2.2% apart), from 1 to 2^20 edges/s. Every workload uses the same ladder.
RUNGS_PER_DOUBLING = 32
LADDER = [2.0 ** (k / RUNGS_PER_DOUBLING) for k in range(20 * RUNGS_PER_DOUBLING + 1)]


def meets_limit(passes, due, rate, limit_s, q=99):
    """True when, with the arrivals `due` scaled to a mean of `rate`, the
    backlog does not grow (utilisation < 1) and the `q`-th percentile
    latency is within `limit_s`."""
    if utilisation(passes, rate) >= 1.0:
        return False
    return percentile(simulate(passes, scaled(due, rate)).latencies, q) <= limit_s


def max_rate(passes, due, limit_s, ladder=LADDER, q=99):
    """Highest rung of `ladder` (ascending) that meets the limit, or 0.0.

    Rungs at or above saturation fail without simulating. Below it, the
    scan walks down from the highest unsaturated rung and stops at the
    first rung that passes. Latency need not fall monotonically with the
    rate (a micro-batch fills faster at higher rates), so the scan never
    assumes a rung passes because a higher one did.
    """
    work_per_edge = utilisation(passes, 1.0)
    k = len(ladder) - 1
    while k >= 0 and ladder[k] * work_per_edge >= 1.0:
        k -= 1
    while k >= 0:
        if meets_limit(passes, due, ladder[k], limit_s, q):
            return ladder[k]
        k -= 1
    return 0.0


def self_times(spans):
    """Self time per span name: its duration minus the part of it that its
    children cover. `spans` are dicts with id, parent, name, start, end;
    children of one span never overlap (the replay is sequential)."""
    covered = {}
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] = covered.get(s["parent"], 0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        own = s["end"] - s["start"] - covered.get(s["id"], 0)
        out[s["name"]] = out.get(s["name"], 0) + own
    return out
