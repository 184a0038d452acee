"""Summary statistics and failure counting for benchmark runs."""
from __future__ import annotations

import math
import statistics

#: Fewest samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


def tail_quantile(batch_size: int) -> float:
    """Highest quantile, capped at p99, that leaves at least
    ``TAIL_SAMPLES`` of ``batch_size`` samples above it.

    The quantile depends only on the size of one pass over a workload's
    batch, so runs that make a different number of passes still report
    the same percentile.
    """
    if batch_size <= TAIL_SAMPLES:
        raise ValueError(f"a batch of {batch_size} leaves no tail with "
                         f"{TAIL_SAMPLES} samples beyond it")
    return min(0.99, 1 - TAIL_SAMPLES / batch_size)


def sum_of_medians(passes) -> float:
    """Sum over requests of each request's median latency across passes.

    ``passes`` holds one list of latencies per pass, all in batch order.
    A burst of load on the machine slows the few requests it overlaps;
    the median of each request drops those samples, where the median of
    pass totals keeps any pass that a burst hit more than others.
    """
    if not passes:
        raise ValueError("no passes")
    if len({len(p) for p in passes}) != 1:
        raise ValueError("passes of different sizes")
    return math.fsum(statistics.median(column) for column in zip(*passes))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    share ``q`` of all samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


class Tally:
    """Counts attempted and failed items; a check that raises counts as
    a failure, never as a dropped item."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(what)

    def check(self, what: str, fn, *args) -> bool:
        """Run ``fn(*args)``; a falsy result or any exception fails the item."""
        try:
            ok = bool(fn(*args))
        except Exception as exc:  # a crashing check is a failed item
            ok = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        self.record(ok, what)
        return ok

    @property
    def fail_frac(self) -> float:
        if not self.attempted:
            raise ValueError("nothing was attempted")
        return self.failed / self.attempted
