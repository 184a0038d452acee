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


@pytest.mark.parametrize("depth", [0, -1, 2.5, True, "3"])
def test_a_depth_must_be_an_integer_of_at_least_one(depth):
    for check_id in CHECKS:
        with pytest.raises(ValueError, match="depth must be an integer >= 1"):
            run_check(check_id, depth)


# Each check at depth 2: how many comparisons it makes, and the inputs,
# expected and actual texts it reports when the first of them fails.
# These are the texts the checks wrote when each comparison had its own
# fail branch.
FIRST_MISMATCH = {
    "conj-2-9": (3, "n=1 k=1", "1", "1"),
    "cor-3-2": (1, "n=2 k=2", "t", "t"),
    "cor-3-3": (2, "n=1", "t", "t"),
    "cor-3-4": (12, "n=1 first entry -1", "0", "0"),
    "eq-1": (5, "E(1,1)", "1", "1"),
    "eq-13": (2, "R_1 over forests", "2t", "2t"),
    "eq-2": (14, "v(2,-2)", "0", "0"),
    "eq-5": (27, "V(1,-1) exponent", ">= 0", "0"),
    "prop-3-1": (8, "psi_cap round trip (1,)", "(1,)", "mismatch"),
    "prop-4-2": (36, "emp transport (-1,)", "1", "1"),
    "prop-4-5": (5, "class of (1, -2)", "star, rightmost 2", "(1, 'e', (2,))"),
    "prop-5-1": (35, "emp transport (-1,)", "1", "1"),
    "prop-5-3": (4, "class of (-2, 1)", "star, rightmost 2", "(1, 'e', (2,))"),
    "tables-fixtures": (192, "zigzag row sum 1", "1", "1"),
    "thm-1-1": (6, "n=1, first entry -1", "1", "1"),
    "thm-1-2": (8, "n=1", "triangle sums equal Q_n and P_n - t Q_n", "mismatch"),
    "thm-2-10": (6, "B-side n=1 k=1", "t^2", "t^2"),
    "thm-2-13": (8, "R_1 over type-II Simsun", "2t", "2t"),
    "thm-2-2": (4, "P_1 from trees", "1+t^2", "1+t^2"),
    "thm-2-3": (6, "circ sum n=1 k=1", "t^2", "t^2"),
    "thm-2-7": (2, "R_1 over type-I Simsun", "2t", "2t"),
    "thm-4-5": (30, "image of (1, -2)", "type-I Simsun member", "(-1,)"),
    "thm-5-4": (30, "image of (-2, 1)", "type-II Simsun member", "(-1,)"),
    "thm-6-1": (3, "n=1", "{'t': [[1], [], [1]]}", "{'t': [[1], [], [1]]}"),
    "thm-6-2": (5, "all forests n=1", "{'t': [[], [1, 1]]}", "{'t': [[], [1, 1]]}"),
}


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_every_comparison_of_a_check_reports_a_counterexample(monkeypatch, check_id):
    """Make the k-th comparison fail, for every k: each one writes its
    texts, and the check stops there."""
    right, seen, fail_at = verify._expect, [0], [0]

    def forced(actual, expected, inputs, args=(), ok=None):
        seen[0] += 1
        right(actual, expected, inputs, args, False if seen[0] == fail_at[0] else ok)

    monkeypatch.setattr(verify, "_expect", forced)
    count, *first = FIRST_MISMATCH[check_id]
    reports = []
    for k in range(1, count + 2):
        seen[0], fail_at[0] = 0, k
        reports.append(run_check(check_id, 2))
        assert seen[0] == min(k, count)
    assert [r.status for r in reports] == ["fail"] * count + ["pass"]
    for r in reports[:-1]:
        assert list(r.counterexample) == ["inputs", "expected", "actual"]
        assert all(isinstance(v, str) and v for v in r.counterexample.values())
    assert list(reports[0].counterexample.values()) == first


# The enumerator calls each check makes at depth 3, in order: a family as
# its `enumerate_family` arguments, and trees and forests tagged, with
# their keyword arguments as sorted pairs.  A check not listed enumerates
# nothing through `verify`.
ENUMERATIONS = {
    "conj-2-9": [("rsi-b", 1, ("last", 1)), ("rsi-b", 2, ("last", 2)),
        ("rsi-b", 2, ("last", 1)), ("rsi-b", 3, ("last", 3)), ("rsi-b", 3, ("last", 2)),
        ("rsi-b", 3, ("last", 1))],
    "cor-3-2": [("trees", 1), ("trees", 2), ("trees", 3)],
    "cor-3-4": [("gamma-snakes", 1), ("trees", 1), ("gamma-snakes", 2), ("trees", 2),
        ("gamma-snakes", 3), ("trees", 3)],
    "eq-13": [("forests", 1), ("forests", 2), ("forests", 3)],
    "prop-3-1": [("trees", 1), ("trees", 2), ("trees", 3)],
    "prop-4-2": [("rsi", 1), ("forests", 1), ("rsi-b", 1, ("last", 1)), ("rsi", 2),
        ("forests", 2), ("rsi-b", 2, ("last", 1)), ("rsi-b", 2, ("last", 2)), ("rsi", 3),
        ("forests", 3), ("rsi-b", 3, ("last", 1)), ("rsi-b", 3, ("last", 2)),
        ("rsi-b", 3, ("last", 3))],
    "prop-4-5": [("rsi-d", 2, ("last", -2)),
        ("trees", 2, ("rightmost", 2), ("starred", True)), ("rsi-d", 3, ("last", -2)),
        ("trees", 3, ("rightmost", 2), ("starred", True)), ("rsi-d", 3, ("last", -3)),
        ("trees", 3, ("rightmost", 3), ("starred", True))],
    "prop-5-1": [("rsii", 1), ("forests", 1), ("rsii-b", 1), ("rsii", 2), ("forests", 2),
        ("rsii-b", 2), ("rsii", 3), ("forests", 3), ("rsii-b", 3)],
    "prop-5-3": [("rsii-d", 2, ("first", -2)),
        ("trees", 2, ("rightmost", 2), ("starred", True)), ("rsii-d", 3, ("first", -2)),
        ("trees", 3, ("rightmost", 2), ("starred", True)), ("rsii-d", 3, ("first", -3)),
        ("trees", 3, ("rightmost", 3), ("starred", True))],
    "thm-1-1": [("snakes", 1), ("snakes", 2), ("snakes", 3)],
    "thm-2-10": [("rsi-b", 1, ("last", 1)), ("rsi-d", 1, ("last", -1)),
        ("rsi-b", 2, ("last", 2)), ("rsi-d", 2, ("last", -2)), ("rsi-b", 2, ("last", 1)),
        ("rsi-d", 2, ("last", -1)), ("rsi-b", 3, ("last", 3)), ("rsi-d", 3, ("last", -3)),
        ("rsi-b", 3, ("last", 2)), ("rsi-d", 3, ("last", -2)), ("rsi-b", 3, ("last", 1)),
        ("rsi-d", 3, ("last", -1))],
    "thm-2-13": [("rsii", 1), ("rsii-b", 1, ("gae", 1)), ("rsii-d", 1, ("first", -1)),
        ("rsii", 2), ("rsii-b", 2, ("gae", 2)), ("rsii-d", 2, ("first", -2)),
        ("rsii-b", 2, ("gae", 1)), ("rsii-d", 2, ("first", -1)), ("rsii", 3),
        ("rsii-b", 3, ("gae", 3)), ("rsii-d", 3, ("first", -3)), ("rsii-b", 3, ("gae", 2)),
        ("rsii-d", 3, ("first", -2)), ("rsii-b", 3, ("gae", 1)),
        ("rsii-d", 3, ("first", -1))],
    "thm-2-2": [("trees", 1), ("trees", 2), ("trees", 3)],
    "thm-2-3": [("trees", 1), ("trees", 2), ("trees", 3)],
    "thm-2-7": [("rsi", 1), ("rsi", 2), ("rsi", 3)],
    "thm-4-5": [("adi", 2), ("rsi", 1), ("adi-b", 2, ("last", 2)),
        ("adi-d", 2, ("last", -2)), ("adi", 3), ("rsi", 2), ("adi-b", 3, ("last", 2)),
        ("adi-d", 3, ("last", -2)), ("adi-b", 3, ("last", 3)), ("adi-d", 3, ("last", -3)),
        ("adi", 4), ("rsi", 3), ("adi-b", 4, ("last", 2)), ("adi-d", 4, ("last", -2)),
        ("adi-b", 4, ("last", 3)), ("adi-d", 4, ("last", -3)), ("adi-b", 4, ("last", 4)),
        ("adi-d", 4, ("last", -4))],
    "thm-5-4": [("adii", 2), ("rsii", 1), ("adii-b", 2, ("last", 2)),
        ("adii-d", 2, ("first", -2)), ("adii", 3), ("rsii", 2), ("adii-b", 3, ("last", 2)),
        ("adii-d", 3, ("first", -2)), ("adii-b", 3, ("last", 3)),
        ("adii-d", 3, ("first", -3)), ("adii", 4), ("rsii", 3), ("adii-b", 4, ("last", 2)),
        ("adii-d", 4, ("first", -2)), ("adii-b", 4, ("last", 3)),
        ("adii-d", 4, ("first", -3)), ("adii-b", 4, ("last", 4)),
        ("adii-d", 4, ("first", -4))],
    "thm-6-1": [("trees", 5)],
    "thm-6-2": [("forests", 6)],
}


@pytest.mark.parametrize("check_id", sorted(CHECKS))
def test_each_check_makes_its_enumerator_calls(monkeypatch, check_id):
    calls = []
    for name, tag in (("enumerate_family", ()), ("enumerate_trees", ("trees",)),
                      ("enumerate_forests", ("forests",))):
        def recording(*args, _right=getattr(verify, name), _tag=tag, **kw):
            calls.append((*_tag, *args, *sorted(kw.items())))
            return _right(*args, **kw)
        monkeypatch.setattr(verify, name, recording)
    assert run_check(check_id, 3).status == "pass"
    assert calls == ENUMERATIONS.get(check_id, [])
