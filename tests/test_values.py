"""The value classes behave as they did when they were dataclasses.

``LaurentPoly``, ``QPoly``, ``BiPoly``, ``Operator``, ``EntringerTriangle``
and ``DoubleTriangle`` are immutable values; ``CheckReport`` is a mutable
record with no hash.  The reprs, error types and messages and the
``to_json`` output below were recorded from the dataclass versions.
"""
import copy
import pickle

import pytest

from snake_atlas.polynomials import LaurentPoly
from snake_atlas.qcalculus import BiPoly, Operator, QPoly
from snake_atlas.triangles import DoubleTriangle, EntringerTriangle
from snake_atlas.verify import CheckReport

#: (class, fields by keyword, fields of an unequal object, repr)
CASES = [
    (LaurentPoly, {"min_exp": -1, "coeffs": (2, 0, -3)}, (0, (1,)),
     "LaurentPoly(min_exp=-1, coeffs=(2, 0, -3))"),
    (QPoly, {"coeffs": (1, 2)}, ((),), "QPoly(coeffs=(1, 2))"),
    (BiPoly, {"t_coeffs": (QPoly((1,)), QPoly((0, 1)))}, ((),),
     "BiPoly(t_coeffs=(QPoly(coeffs=(1,)), QPoly(coeffs=(0, 1))))"),
    (Operator, {"words": ("D", "UUD")}, (("D",),), "Operator(words=('D', 'UUD'))"),
    (EntringerTriangle, {"n": 1, "entries": {(1, 1): 1}}, (2, {(1, 1): 1}),
     "EntringerTriangle(n=1, entries={(1, 1): 1})"),
    (DoubleTriangle, {"n": 1, "entries": {(1, 1): 1, (1, -1): 1}},
     (1, {(1, 1): 1, (1, -1): 0}),
     "DoubleTriangle(n=1, entries={(1, 1): 1, (1, -1): 1})"),
    (CheckReport, {"check_id": "x", "n_range": [1, 2], "status": "fail",
                   "counterexample": {"inputs": [1]}, "elapsed": 1.0},
     ("x", [1, 2], "pass", None, 1.0),
     "CheckReport(check_id='x', n_range=[1, 2], status='fail', "
     "counterexample={'inputs': [1]}, elapsed=1.0)"),
]
IDS = [case[0].__name__ for case in CASES]
FROZEN = CASES[:6]
HASHABLE = CASES[:4]


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_keyword_and_positional_construction(cls, fields, other, text):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert repr(by_keyword) == repr(by_position) == text
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_equality_is_field_wise_within_one_class(cls, fields, other, text):
    a, b = cls(**fields), cls(**copy.deepcopy(fields))
    assert a == b and not a != b
    assert a != cls(*other) and not a == cls(*other)
    as_tuple = tuple(fields.values())
    assert a != as_tuple and not a == as_tuple
    assert a.__eq__(as_tuple) is NotImplemented


def test_another_class_with_the_same_fields_is_not_equal():
    assert QPoly((1, 2)).__eq__(Operator((1, 2))) is NotImplemented
    assert QPoly((1, 2)) != Operator((1, 2))
    assert EntringerTriangle(1, {(1, 1): 1}) != DoubleTriangle(1, {(1, 1): 1})


@pytest.mark.parametrize("cls, fields, other, text", HASHABLE, ids=IDS[:4])
def test_equal_values_hash_equal(cls, fields, other, text):
    a, b = cls(**fields), cls(**copy.deepcopy(fields))
    assert hash(a) == hash(b)
    assert len({a, b, cls(*other)}) == 2
    assert {a: 1}[b] == 1


def test_unhashable_fields_and_reports_raise_type_error():
    for cls, fields, _, _ in CASES[4:6]:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(cls(**fields))
    with pytest.raises(TypeError, match="unhashable type: 'CheckReport'"):
        hash(CheckReport(**CASES[6][1]))


@pytest.mark.parametrize("cls, fields, other, text", FROZEN, ids=IDS[:6])
def test_frozen_values_refuse_assignment_and_deletion(cls, fields, other, text):
    value = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


def test_a_report_can_be_changed():
    report = CheckReport(**CASES[6][1])
    report.status = "pass"
    del report.elapsed
    report.elapsed = 2.0
    assert repr(report) == ("CheckReport(check_id='x', n_range=[1, 2], status='pass', "
                            "counterexample={'inputs': [1]}, elapsed=2.0)")


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, other, text):
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text


@pytest.mark.parametrize("build, error, message", [
    (lambda: LaurentPoly(0, (1.0,)), TypeError, "coefficients must be integers"),
    (lambda: LaurentPoly(0, (True, 2.5)), TypeError, "coefficients must be integers"),
    (lambda: LaurentPoly(0, (0, 1)), ValueError,
     "not canonical: leading/trailing zero coefficient"),
    (lambda: LaurentPoly(0, (1, 0)), ValueError,
     "not canonical: leading/trailing zero coefficient"),
    (lambda: LaurentPoly(1, ()), ValueError, "zero polynomial must have min_exp 0"),
    (lambda: QPoly((1, 0)), ValueError, "not canonical: trailing zero"),
    (lambda: BiPoly((QPoly((1,)), QPoly(()))), ValueError,
     "not canonical: trailing zero t-coefficient"),
    (lambda: BiPoly(t_coeffs=(QPoly(()),)), ValueError,
     "not canonical: trailing zero t-coefficient"),
])
def test_construction_checks_keep_their_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_report_json_is_a_fresh_copy():
    report = CheckReport(check_id="x", n_range=[1, 2], status="fail",
                         counterexample={"inputs": [1], "expected": "2"},
                         elapsed=1.0)
    out = report.to_json()
    assert out == {"check_id": "x", "n_range": [1, 2], "status": "fail",
                   "counterexample": {"inputs": [1], "expected": "2"},
                   "elapsed": 1.0}
    assert list(out) == ["check_id", "n_range", "status", "counterexample", "elapsed"]
    assert out["n_range"] is not report.n_range
    assert out["counterexample"] is not report.counterexample
    assert out["counterexample"]["inputs"] is not report.counterexample["inputs"]
    out["n_range"].append(3)
    out["counterexample"]["inputs"].append(2)
    assert report.n_range == [1, 2] and report.counterexample["inputs"] == [1]
