import operator

import pytest

import snake_atlas.bijections as bij
import snake_atlas.verify as verify
from snake_atlas.verify import CHECKS, run_all, run_check


def test_registry_is_complete():
    expected = {
        "eq-1", "eq-2", "eq-5", "thm-1-1", "thm-1-2", "thm-2-2", "thm-2-3",
        "thm-2-7", "thm-2-10", "thm-2-13", "conj-2-9", "prop-3-1", "cor-3-2",
        "cor-3-3", "cor-3-4", "eq-13", "prop-4-2", "prop-4-5", "thm-4-5",
        "prop-5-1", "prop-5-3", "thm-5-4", "thm-6-1", "thm-6-2",
        "tables-fixtures",
    }
    assert set(CHECKS) == expected


def test_unknown_check_id():
    with pytest.raises(ValueError, match="unknown check id"):
        run_check("thm-0-0")


def test_trivial_depths_pass():
    r = run_check("eq-1", 1)
    assert r.status == "pass" and r.counterexample is None
    assert r.n_range == [1, 1]
    assert run_check("thm-1-1", 3).status == "pass"
    assert run_check("tables-fixtures", 6).status == "pass"


def test_report_json_shape():
    obj = run_check("eq-2", 4).to_json()
    assert set(obj) == {"check_id", "n_range", "status", "counterexample", "elapsed"}
    assert obj["status"] == "pass"


def test_failing_check_carries_counterexample(monkeypatch):
    def broken(n_max):
        return {"inputs": "n=1", "expected": "1", "actual": "2"}
    monkeypatch.setitem(verify.CHECKS, "eq-1", (3, broken))
    r = run_check("eq-1")
    assert r.status == "fail"
    assert r.counterexample == {"inputs": "n=1", "expected": "1", "actual": "2"}


def test_run_all_is_deterministically_ordered():
    reports = run_all(2)
    assert [r.check_id for r in reports] == sorted(CHECKS)
    assert all(r.status == "pass" for r in reports)


def test_reports_are_idempotent():
    a = run_check("thm-2-7", 4)
    b = run_check("thm-2-7", 4)
    assert (a.check_id, a.status, a.counterexample) == \
        (b.check_id, b.status, b.counterexample)


def test_column_sum_relation_at_depth():
    assert run_check("cor-3-2", 6).status == "pass"


def test_ceiling_error_is_a_report_status(monkeypatch):
    monkeypatch.setenv("SNAKE_ATLAS_MAX_N", "3")
    obj = run_check("thm-4-5", 3).to_json()
    assert set(obj) == {"check_id", "n_range", "status", "counterexample", "elapsed"}
    assert obj["status"] == "error"
    assert obj["counterexample"] == {"error": "family 'adi' enumeration: n=4 exceeds ceiling 3"}
    reports = run_all(3)
    assert len(reports) == len(verify.CHECKS) == 25
    assert "thm-4-5" in [r.check_id for r in reports if r.status == "error"]


# Each bijection check, with its inverse made wrong on one window: the
# round trip must catch it.  The checks read the maps from the module
# globals of `verify` when they run, so patching the name reaches them.
WRONG_INVERSES = [
    ("prop-4-2", "phi1_inv", (2, -3, 1)),
    ("prop-4-5", "phi1_d_inv", (2, 1, -3)),
    ("thm-4-5", "zeta1_inv", (3, 1, -2)),
    ("prop-5-1", "phi2_inv", (3, -1, 2)),
    ("prop-5-3", "phi2_d_inv", (-3, 2, 1)),
    ("thm-5-4", "zeta2_inv", (-2, 1, 3)),
]


@pytest.mark.parametrize("check_id, inverse, w", WRONG_INVERSES)
def test_bijection_check_fails_on_a_wrong_inverse(monkeypatch, check_id, inverse, w):
    right = getattr(verify, inverse)

    def wrong(x):
        out = right(x)
        return out[::-1] if out == w else out

    assert run_check(check_id, 3).status == "pass"
    monkeypatch.setattr(verify, inverse, wrong)
    r = run_check(check_id, 3)
    assert r.status == "fail"
    assert r.counterexample == {"inputs": f"round trip {w}", "expected": str(w),
                                "actual": str(w[::-1])}


# Each bijection and sum check, with one part it reads made wrong on one
# argument: the check must fail with this counterexample.  A part is
# patched in `verify`'s namespace and answers `change(value)` for the call
# whose positional arguments are `args`.  The image tests see a wrong
# statistic, class or image; coverage sees one object dropped from an
# enumeration (for the zeta checks a domain member, because a missing
# codomain member already fails their image test); the sums see one tree's
# or window's statistic off by one, or one refined family short a member.
def _plus_one(v):
    return v + 1


def _drop_last(v):
    return v[:-1]


T3 = (1, "e", (2, "e", (3,)))  # star class, rmlab 3, leftmost leaf empty

BROKEN_PARTS = [
    # image tests
    ("prop-4-2", "emp_forest", (bij.phi1((2, -3, 1)),), _plus_one,
     "emp transport (2, -3, 1)", "1", "2"),
    ("prop-5-1", "emp_forest", (bij.phi2((3, -1, 2)),), _plus_one,
     "emp transport (3, -1, 2)", "3", "4"),
    ("prop-4-5", "rmlab", (bij.phi1_d((2, 1, -3)),), _plus_one,
     "class of (2, 1, -3)", "star, rightmost 3", "(1, (2, 'e', 'e'), (3,))"),
    ("prop-4-5", "emp", (bij.phi1_d((2, 1, -3)),), _plus_one,
     "emp of (2, 1, -3)", "2", "3"),
    ("prop-5-3", "is_starred", (bij.phi2_d((-3, 2, 1)),), operator.not_,
     "class of (-3, 2, 1)", "star, rightmost 3", "(1, (2, 'e', 'e'), (3,))"),
    ("prop-5-3", "emp", (bij.phi2_d((-3, 2, 1)),), _plus_one,
     "emp of (-3, 2, 1)", "2", "3"),
    ("thm-4-5", "zeta1", ((3, 1, -2),), _drop_last,
     "image of (3, 1, -2)", "type-I Simsun member", "(2,)"),
    ("thm-5-4", "zeta2", ((-2, 1, 3),), _drop_last,
     "image of (-2, 1, 3)", "type-II Simsun member", "(-1,)"),
    # coverage
    ("prop-4-2", "enumerate_forests", (3,), _drop_last,
     "image coverage n=3", "all forests", "missing images"),
    ("prop-5-1", "enumerate_forests", (3,), _drop_last,
     "image coverage n=3", "all forests", "missing images"),
    ("prop-4-5", "enumerate_trees", (3,), _drop_last,
     "coverage n=3 k=2", "all star trees", "missing"),
    ("prop-5-3", "enumerate_trees", (3,), _drop_last,
     "coverage n=3 k=2", "all star trees", "missing"),
    ("thm-4-5", "enumerate_family", ("adi", 3), _drop_last,
     "coverage n=2", "all members", "missing"),
    ("thm-5-4", "enumerate_family", ("adii", 3), _drop_last,
     "coverage n=2", "all members", "missing"),
    # sums
    ("thm-2-2", "emp", (T3,), _plus_one,
     "P_3 from trees", "2+8t^2+6t^4", "2+7t^2+t^3+6t^4"),
    ("thm-2-3", "emp", (T3,), _plus_one,
     "star sum n=3 k=1", "1+2t^2", "1+t^2+t^3"),
    ("prop-3-1", "emp", (T3,), _plus_one,
     "(i) n=3 k=3", "1+2t^2", "1+t^2+t^3"),
    ("cor-3-2", "emp", (T3,), _plus_one,
     "n=3 k=3", "1+2t^2", "1+t^2+t^3"),
    ("cor-3-4", "emp", (T3,), _plus_one,
     "star cell n=3 k=1", "2t^2", "t^2+t^3"),
    ("thm-2-7", "npk", ((2, -3, 1),), _plus_one,
     "R_3 over type-I Simsun", "16t+24t^3", "t^-1+15t+24t^3"),
    ("thm-2-10", "npk", ((2, -3, 1),), _plus_one,
     "B-side n=3 k=3", "2t^2+2t^4", "1+t^2+2t^4"),
    ("thm-2-10", "npk", ((-3, 1, -2),), _plus_one,
     "D-side n=3 k=2", "1+t^2", "t^-2+t^2"),
    ("thm-2-13", "nva", ((1, -3, 2),), _plus_one,
     "R_3 over type-II Simsun", "16t+24t^3", "t^-1+15t+24t^3"),
    ("thm-2-13", "enumerate_family", ("rsii-b", 3, ("gae", 2)), _drop_last,
     "B-side n=3 k=2", "2t^2+2t^4", "2t^2+t^4"),
    ("thm-2-13", "enumerate_family", ("rsii-d", 3, ("first", -2)), _drop_last,
     "D-side n=3 k=2", "1+t^2", "1"),
]


@pytest.mark.parametrize("check_id, name, args, change, inputs, expected, actual",
                         BROKEN_PARTS)
def test_check_fails_on_a_broken_part(monkeypatch, check_id, name, args, change,
                                      inputs, expected, actual):
    right = getattr(verify, name)

    def wrong(*a, **kw):
        out = right(*a, **kw)
        return change(out) if a == args else out

    monkeypatch.setattr(verify, name, wrong)
    r = run_check(check_id, 3)
    assert r.status == "fail"
    assert r.counterexample == {"inputs": inputs, "expected": expected, "actual": actual}


@pytest.mark.parametrize("check_id, fixture, missing", [
    ("thm-6-1", "TREE_WEIGHT_EXAMPLE", (0, 0, 0, 0, 9)),
    ("thm-6-2", "FOREST_WEIGHT_EXAMPLE", (0, 0, 0, 0, 0, 9)),
])
def test_unattained_weight_example_is_the_counterexample(monkeypatch, check_id,
                                                         fixture, missing):
    monkeypatch.setattr(verify.fx, fixture, missing)
    r = run_check(check_id, 2)
    assert r.status == "fail"
    assert r.counterexample == {"inputs": "weight example",
                                "expected": str(missing), "actual": "not attained"}
