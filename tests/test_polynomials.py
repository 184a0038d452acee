import pytest
from hypothesis import given
from hypothesis import strategies as st

from snake_atlas.polynomials import LaurentPoly


def P(terms):
    return LaurentPoly.from_terms(terms)


laurents = st.dictionaries(st.integers(-6, 8), st.integers(-9, 9), max_size=6).map(P)


def test_canonical_form():
    assert LaurentPoly.make(0, [0, 0, 1, 2, 0]) == LaurentPoly(2, (1, 2))
    assert LaurentPoly.make(3, []) == LaurentPoly.zero()
    assert P({}) == LaurentPoly.zero()
    with pytest.raises(ValueError):
        LaurentPoly(0, (0, 1))


def test_basic_arithmetic():
    t = LaurentPoly.t_power
    assert t(2) + t(-1) == P({2: 1, -1: 1})
    assert (t(1) + LaurentPoly.one()) * (t(1) - LaurentPoly.one()) == P({2: 1, 0: -1})
    assert 3 * t(2) == P({2: 3})
    assert t(2).shift(-3) == t(-1)


def test_derivative_and_eval():
    p = P({-1: 2, 0: 5, 3: 4})
    assert p.derivative() == P({-2: -2, 2: 12})
    assert p(1) == 11
    assert p(2) == 38
    assert P({2: 3})(0) == 0
    with pytest.raises(ZeroDivisionError):
        P({-1: 1})(0)


def test_str_and_json():
    p = P({1: 1, 3: 7, 5: 6})
    assert str(p) == "t+7t^3+6t^5"
    assert str(LaurentPoly.zero()) == "0"
    assert str(P({0: 2, 2: -1})) == "2-t^2"
    assert LaurentPoly.from_json(p.to_json()) == p
    assert p.to_json() == {"min_exp": 1, "coeffs": [1, 0, 7, 0, 6]}


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(laurents, laurents)
def test_derivative_is_a_derivation(a, b):
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
    assert (a + b).derivative() == a.derivative() + b.derivative()


polys = st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6).map(P)


@given(polys, st.integers(1, 5))
def test_evaluation_is_a_homomorphism(a, t):
    assert (a * a)(t) == a(t) * a(t)
    assert (a + a)(t) == 2 * a(t)


@given(laurents)
def test_evaluation_at_one_sums_coefficients(a):
    assert a(1) == sum(a.coeffs)


@pytest.mark.parametrize("bad", [1.0, 2.5, "1", None])
def test_non_integer_coefficients_are_rejected(bad):
    with pytest.raises(TypeError) as info:
        LaurentPoly(0, (1, bad, 1))
    assert str(info.value) == "coefficients must be integers"
    assert LaurentPoly(0, (True, 2)).coeffs == (True, 2)  # bool is an int subclass
