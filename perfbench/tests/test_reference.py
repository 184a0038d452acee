from itertools import permutations

import pytest

import reference
import run


def test_kernel_counts_up_down_permutations():
    for n, euler in enumerate([1, 1, 1, 2, 5, 16, 61, 272]):
        if n:
            assert reference.kernel(n) == euler
            assert euler == sum(1 for p in permutations(range(n))
                                if all((p[i] < p[i + 1]) == (i % 2 == 0)
                                       for i in range(n - 1)))
    assert reference.time_kernel() > 0


class Echo:
    """A workload whose requests are their own latencies."""

    def run_pass(self, batch):
        return list(batch), list(batch)


def test_referenced_pass_divides_each_chunk_by_the_kernel_around_it(monkeypatch):
    kernel_times = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(reference, "time_kernel", lambda: next(kernel_times))
    monkeypatch.setattr(run, "CHUNK_S", 0.25)
    outputs, latencies, units, wall = run._referenced_pass(Echo(), [0.1, 0.2, 0.3])
    assert outputs == latencies == [0.1, 0.2, 0.3]
    # the first two requests fill a chunk, timed between kernels of 1 and 2
    assert units == pytest.approx([0.1 / 1.5, 0.2 / 1.5, 0.3 / 3.0])
    assert wall >= 0
