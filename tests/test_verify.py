import pytest

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
