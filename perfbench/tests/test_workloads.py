import json

import querygen
from stats import Tally
from workloads import CHECKERS, PointQueries


def one_of_each_kind(seed=1):
    firsts = {}
    for req in querygen.make_batch(seed):
        firsts.setdefault((req["kind"], req.get("format")), req)
    return list(firsts.values())


def test_checkers_accept_real_outputs_and_reject_wrong_ones():
    workload = PointQueries()
    batch = one_of_each_kind()
    outputs, latencies = workload.run_pass(batch)
    assert len(latencies) == len(batch)
    for req, (code, out) in zip(batch, outputs):
        assert code == 0, req["argv"]
        assert CHECKERS[req["kind"]](req, out), req["argv"]
    # every checker rejects the output of another request of its kind
    others = querygen.make_batch(2)
    for req in batch:
        other = next(r for r in others
                     if r["kind"] == req["kind"] and r["argv"] != req["argv"]
                     and r.get("format") == req.get("format"))
        code, out = workload.run_pass([other])[0][0]
        assert code == 0
        try:
            assert not CHECKERS[req["kind"]](req, out), (req["argv"], other["argv"])
        except (KeyError, ValueError, TypeError, json.JSONDecodeError):
            pass


def test_failed_requests_are_counted_in_every_pass():
    workload = PointQueries()
    batch = one_of_each_kind()[:2]
    outputs, _ = workload.run_pass(batch)
    bad = [(4, "")] + outputs[1:]
    tally = Tally()
    workload.check(batch, outputs, tally)
    workload.check(batch, bad, tally)
    workload.check(batch, bad, tally)
    assert (tally.attempted, tally.failed) == (6, 2)
    assert tally.fail_frac == 2 / 6
