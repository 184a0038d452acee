import pytest

import workloads
from layers import instrumented
from snake_atlas import permutations, verify
from spans import Tracer, read_spans, self_times


def test_self_time_subtracts_direct_children_only():
    #   root [0, 10] -> a [1, 4] -> g [2, 3];  root -> b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(parents, starts, ends)) == ends[0] - starts[0]


def fake_clock(step=1.0):
    now = [0.0]

    def clock():
        now[0] += step
        return now[0]
    return clock


def test_tracer_nests_spans_and_closes_them_on_error():
    tracer = Tracer(clock=fake_clock())
    inner = tracer.wrap("trees.inner", lambda: None)

    def fail():
        inner()
        raise ValueError("boom")
    outer = tracer.wrap("forests.outer", fail)
    with tracer.span("bench.pass"):
        with pytest.raises(ValueError):
            outer()
        inner()
    rows = tracer.by_name()
    # clock ticks: pass 1, outer 2, inner 3-4, outer ends 5, inner 6-7, pass ends 8
    assert rows["bench.pass"] == {"calls": 1, "total_s": 7.0, "self_s": 3.0}
    assert rows["forests.outer"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert rows["trees.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert list(tracer.parents) == [-1, 0, 1, 0]


def test_spans_round_trip_through_the_file(tmp_path):
    tracer = Tracer(clock=fake_clock(0.5))
    with tracer.span("bench.pass"):
        tracer.wrap("trees.f", len)([1, 2])
    tracer.write(tmp_path / "x.spans")
    got = read_spans(tmp_path / "x.spans")
    assert got["names"] == ["bench.pass", "trees.f"]
    assert list(got["name_id"]) == [0, 1]
    assert list(got["parent"]) == [-1, 0]
    assert list(got["start"]) == [0.5, 1.0] and list(got["end"]) == [2.0, 1.5]


def test_instrumented_spans_layer_calls_and_restores_them():
    original = verify.enumerate_family
    tracer = Tracer()
    with instrumented(tracer, [workloads]):
        assert verify.enumerate_family is not original
        with tracer.span("bench.pass"):
            report = verify.run_check("thm-2-7", 3)
    assert report.status == "pass"
    assert verify.enumerate_family is original
    assert permutations.is_member.__module__ == "snake_atlas.permutations"
    rows = tracer.by_name()
    assert rows["permutations.enumerate_family"]["calls"] == 3
    assert tracer.counts["permutations.windows_out"] == 2 + 8 + 40
    assert tracer.counts["permutations.is_member.calls"] >= 50
    assert rows["polynomials.LaurentPoly.__add__"]["calls"] >= 50
    assert sum(tracer.self_times()) == pytest.approx(rows["bench.pass"]["total_s"])


def test_memory_tracer_records_enumerator_peaks():
    tracer = Tracer(memory=True)
    with instrumented(tracer, [workloads]):
        workloads.enumerate_trees(5)
    assert tracer.peaks["trees.enumerate_trees"] > 0
