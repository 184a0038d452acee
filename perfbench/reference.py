"""Reference kernel: fixed pure-Python work that the benchmark times
between requests, so that request times can be given in units of it.

The benchmark shares a few cores of a host with other tenants, and the
speed of a core there changes by up to twice over stretches of tens of
seconds.  Wall time then moves with the host, not with the program.  The
kernel is made of the operations the package's enumerators spend their
time in (building tuples, membership tests, comparison scans), so it
slows by about the same factor as the workloads; a request's time over
the kernel's time measured next to it moves much less than either.  The
kernel never imports ``snake_atlas``, so no change to the package can
move it.
"""
from __future__ import annotations

import time

N = 7
#: Up-down permutations of 1..7, the Euler zigzag number E_7.
UP_DOWN_7 = 272


def kernel(n: int = N) -> int:
    """Count the up-down permutations of 1..n from all n! of them."""
    level = [()]
    for _ in range(n):
        level = [p + (v,) for p in level for v in range(1, n + 1) if v not in p]
    return sum(1 for p in level
               if all((p[i] < p[i + 1]) == (i % 2 == 0) for i in range(n - 1)))


def time_kernel() -> float:
    """Seconds one run of the kernel takes; raises if it miscounts."""
    start = time.perf_counter()
    count = kernel()
    elapsed = time.perf_counter() - start
    if count != UP_DOWN_7:
        raise AssertionError(f"reference kernel counted {count}, not {UP_DOWN_7}")
    return elapsed
