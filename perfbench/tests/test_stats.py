import math
import random

import pytest

from stats import TAIL_SAMPLES, Tally, percentile, sum_of_medians, tail_quantile


def beyond(values, threshold):
    return sum(1 for v in values if v > threshold)


@pytest.mark.parametrize("size", [11, 25, 32, 100, 999, 1000, 1043, 5000])
def test_tail_percentile_leaves_ten_samples_beyond(size):
    rng = random.Random(size)
    values = [rng.random() for _ in range(size)]
    tail = percentile(values, tail_quantile(size))
    # exactly ten beyond up to a thousand samples, then p99
    assert beyond(values, tail) == max(TAIL_SAMPLES, size - math.ceil(0.99 * size))


def test_tail_percentile_is_p99_from_a_thousand_requests():
    assert tail_quantile(1000) == tail_quantile(1043) == 0.99
    assert tail_quantile(25) == pytest.approx(0.6)


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_quantile(10)


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7], 0.99) == 7


def test_fail_frac_counts_false_results_and_exceptions():
    tally = Tally()
    tally.record(True)
    assert tally.check("ok", lambda: True)
    assert not tally.check("wrong", lambda x: x == 1, 2)
    assert not tally.check("crash", lambda: {}["missing"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_frac == 0.5
    assert tally.examples[0] == "wrong"
    assert tally.examples[1].startswith("crash: KeyError")


def test_fail_frac_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        Tally().fail_frac


def test_sum_of_medians_drops_a_burst_in_each_pass():
    quiet = [1.0, 2.0, 3.0]
    # each pass has one request slowed by a burst, a different one each time
    passes = [[9.0, 2.0, 3.0], [1.0, 9.0, 3.0], [1.0, 2.0, 9.0], quiet, quiet]
    assert sum_of_medians(passes) == 6.0
    assert sum_of_medians([quiet]) == 6.0


def test_sum_of_medians_needs_equal_passes():
    with pytest.raises(ValueError):
        sum_of_medians([])
    with pytest.raises(ValueError):
        sum_of_medians([[1.0], [1.0, 2.0]])
