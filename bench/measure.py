"""Arithmetic of the benchmark: percentiles, self time of spans, ratios, and
the probe of the host's speed that its timings are scaled by.

Kept apart from run.py so that its rules are tested on their own
(test_bench_harness.py).
"""

from __future__ import annotations

import statistics
from time import perf_counter

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
PROBE_ITERS = 400_000
PROBE_REF_S = 0.025  # probe time that defines the reference host speed


def host_probe() -> float:
    """Seconds the harness takes for a fixed pure-Python loop.

    On a shared machine the host's speed drifts by +-30% within a minute; a
    command's wall time follows the probe run next to it (correlation 0.9
    measured on construct ops), so dividing by the run's median probe time
    removes that drift from the run's figures.
    """
    start = perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i
    return perf_counter() - start


def host_factor(probes: list[float]) -> float:
    """How much slower than the reference speed the host ran: median probe / PROBE_REF_S."""
    return statistics.median(probes) / PROBE_REF_S


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float], beyond: int = TAIL_BEYOND):
    """Highest nearest-rank percentile with at least `beyond` samples beyond it.

    Sorted ascending, the sample of 1-based rank r has n - r samples above it,
    so the highest usable rank is n - beyond and its percentile is
    100 (n - beyond) / n.  Returns (percentile, value), or None when there are
    `beyond` samples or fewer.
    """
    n = len(values)
    if n <= beyond:
        return None
    rank = n - beyond
    return 100.0 * rank / n, sorted(values)[rank - 1]


def ratio(num: float, den: float) -> float:
    """num / den, reading 0 when the base is 0 (no calls, no time, no ops)."""
    return num / den if den else 0.0


def self_times(start: list[float], end: list[float], parent: list[int]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover.

    parent[i] is the index of the span that was open when span i began, or -1.
    Overlapping children (threads) are merged so no interval is subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = []
    for i, (s0, e0) in enumerate(zip(start, end)):
        covered = 0.0
        reach = s0
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, e0)
            if e > s:
                covered += e - s
                reach = e
        out.append((e0 - s0) - covered)
    return out

