"""Recurrence arrays against published rows and independent oracles."""
from functools import reduce
from itertools import permutations
from operator import add

import pytest

from snake_atlas import fixtures as fx
from snake_atlas.polynomials import LaurentPoly
from snake_atlas.triangles import (arnold, arnold_poly, entringer,
                                   gamma_arrays, hoffman_P, hoffman_Q,
                                   hoffman_R, hoffman_secant_power,
                                   hoffman_triangle_identity)


def P(terms):
    return LaurentPoly.from_terms(terms)


ONE_PLUS_T2 = P({0: 1, 2: 1})


def brute_alternating_count(n, k):
    """Down-up permutations of 1..n starting with k, by full enumeration."""
    count = 0
    for p in permutations(range(1, n + 1)):
        if p[0] != k:
            continue
        if all(p[i] > p[i + 1] if i % 2 == 0 else p[i] < p[i + 1]
               for i in range(n - 1)):
            count += 1
    return count


def test_entringer_row_sums():
    tri = entringer(8)
    assert [tri.row_sum(r) for r in range(1, 9)] == [1, 1, 2, 5, 16, 61, 272, 1385]


def test_entringer_base_cells():
    tri = entringer(2)
    assert tri.entries[(2, 1)] == 0 and tri.entries[(2, 2)] == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_entringer_against_brute_force(n):
    tri = entringer(n)
    for k in range(1, n + 1):
        assert tri.entries[(n, k)] == brute_alternating_count(n, k)


def test_entringer_rejects_bad_n():
    with pytest.raises(ValueError):
        entringer(0)


def test_arnold_table_rows():
    tri = arnold(6)
    for n, row in fx.ARNOLD_TRIANGLE.items():
        for k, v in row.items():
            assert tri.value(n, k) == v


def test_arnold_row_sums_are_springer_numbers():
    tri = arnold(8)
    for n in range(1, 9):
        assert tri.positive_sum(n) == fx.SPRINGER_B[n]
        assert tri.negative_sum(n) == fx.SPRINGER_D[n]


def test_arnold_telescoping():
    # v(n,n) - v(n,1) accumulates the previous row across the turn
    tri = arnold(8)
    for n in range(2, 9):
        acc = sum(tri.value(n - 1, -j + 1) for j in range(2, n + 1))
        assert tri.value(n, n) - tri.value(n, 1) == acc


def test_arnold_poly_telescoping():
    tri = arnold_poly(8)
    t = LaurentPoly.t_power(1)
    for n in range(2, 9):
        acc = LaurentPoly.zero()
        for j in range(2, n + 1):
            acc = acc + t * tri.value(n - 1, -j + 1)
        assert tri.value(n, n) - tri.value(n, 1) == acc


def test_arnold_poly_table_cells():
    tri = arnold_poly(5)
    for n, row in fx.V_TRIANGLE.items():
        for k, terms in row.items():
            assert tri.value(n, k) == P(terms)


def test_arnold_poly_specializes_to_arnold():
    V = arnold_poly(10)
    v = arnold(10)
    for n in range(1, 11):
        for k in V.signed_columns(n):
            assert V.value(n, k)(1) == v.value(n, k)


def test_arnold_poly_exponents_and_signs():
    V = arnold_poly(10)
    for n in range(1, 11):
        for k in V.signed_columns(n):
            p = V.value(n, k)
            assert p.is_zero() or p.min_exp >= 0
            assert all(c >= 0 for c in p.coeffs)


def test_arnold_poly_parity_structure():
    # positive columns: odd rows use even exponents only, even rows odd
    V = arnold_poly(8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            p = V.value(n, k)
            for e in p.terms():
                assert e % 2 == (0 if n % 2 == 1 else 1)


def test_hoffman_polynomials_match_published_lists():
    for n in range(1, 6):
        assert hoffman_P(n) == P(fx.P_LIST[n])
        assert hoffman_Q(n) == P(fx.Q_LIST[n])
        assert hoffman_R(n) == P(fx.R_LIST[n])


def test_hoffman_base_cases():
    assert hoffman_P(0) == LaurentPoly.t_power(1)
    assert hoffman_Q(0) == LaurentPoly.one()
    assert hoffman_R(0) == LaurentPoly.one()


def test_secant_power_extension_point():
    from snake_atlas.triangles import hoffman_secant_power
    for n in range(0, 7):
        assert hoffman_secant_power(n, 1) == hoffman_Q(n)
        assert hoffman_secant_power(n, 2) == hoffman_R(n)
    with pytest.raises(ValueError):
        hoffman_secant_power(2, 0)


def test_hoffman_contract_identities():
    for n in range(0, 9):
        assert hoffman_P(n + 1) == ONE_PLUS_T2 * hoffman_R(n)
    for n in range(1, 9):
        p1, q1 = hoffman_P(n)(1), hoffman_Q(n)(1)
        assert p1 == 2**n * fx.EULER[n]
        assert q1 == fx.SPRINGER_B[n]
        assert p1 - q1 == fx.SPRINGER_D[n]


@pytest.mark.parametrize("n", range(1, 11))
def test_triangle_sum_identity(n):
    assert hoffman_triangle_identity(n)


def test_triangle_sum_identity_small_cases():
    V = arnold_poly(2)
    assert (V.value(2, 1) + V.value(2, 2)).shift(-1) == hoffman_Q(2)
    assert hoffman_P(1) - LaurentPoly.t_power(1) * hoffman_Q(1) == LaurentPoly.one()


def test_gamma_array_cells():
    tri = gamma_arrays(6)
    for n, row in fx.GAMMA_POLY_TRIANGLE.items():
        for k, terms in row.items():
            assert tri.value(n, k) == P(terms)
    for n, row in fx.GAMMA_TRIANGLE.items():
        for k, v in row.items():
            assert tri.value(n, k)(1) == v


def test_gamma_arrays_row6_at_1():
    tri = gamma_arrays(6)
    negs = [tri.value(6, k)(1) for k in range(-6, 0)]
    pos = [tri.value(6, k)(1) for k in range(1, 7)]
    assert negs == [0, 57, 114, 168, 216, 256]
    assert pos == [256, 296, 328, 350, 361, 361]


def test_gamma_arrays_sum_to_hoffman_Q():
    for n in range(1, 11):
        g = gamma_arrays(n)
        assert (g.positive_sum(n) + g.negative_sum(n)).shift(-1) == hoffman_Q(n)


def test_triangle_json_shapes():
    tri = arnold(3)
    obj = tri.to_json()
    assert obj["n"] == 3
    assert [r["k"] for r in obj["rows"]] == [-3, -2, -1, 1, 2, 3]
    vp = arnold_poly(2).to_json()
    assert vp["rows"][-1]["value"] == {"min_exp": 1, "coeffs": [1, 0, 1]}


# -- the coefficient recurrence against (1+t^2) d/dt ----------------------
# The reference is a frozen object loop: one step is (1+t^2) f' + a t f
# in LaurentPoly arithmetic.

def ref_derivative_step(f, a):
    return ONE_PLUS_T2 * f.derivative() + LaurentPoly.from_terms({1: a}) * f


@pytest.mark.parametrize("fn, a, start", [(hoffman_P, 0, LaurentPoly.t_power(1)),
                                          (hoffman_Q, 1, LaurentPoly.one()),
                                          (hoffman_R, 2, LaurentPoly.one())],
                         ids=["P", "Q", "R"])
def test_hoffman_polynomials_match_the_derivative_loop(fn, a, start):
    f = start
    for n in range(61):
        assert fn(n) == f, n
        f = ref_derivative_step(f, a)


@pytest.mark.parametrize("a", range(1, 6))
def test_secant_powers_match_the_derivative_loop(a):
    f = LaurentPoly.one()
    for n in range(61):
        assert hoffman_secant_power(n, a) == f, n
        f = ref_derivative_step(f, a)


# -- the one signed recurrence against the three it replaced ---------------
# Frozen copies of the separate loops: the integer triangle, its polynomial
# refinement, and the gamma arrays as star/circ tables re-indexed into
# signed columns.

def ref_arnold(n):
    v = {(1, 1): 1, (1, -1): 1}
    for r in range(2, n + 1):
        v[(r, -r)] = 0
        for k in range(r - 1, 0, -1):
            v[(r, -k)] = v[(r, -k - 1)] + v[(r - 1, k)]
        v[(r, 1)] = v[(r, -1)]
        for k in range(2, r + 1):
            v[(r, k)] = v[(r, k - 1)] + v[(r - 1, -k + 1)]
    return v


def ref_arnold_poly(n):
    t = LaurentPoly.t_power
    V = {(1, 1): t(2), (1, -1): LaurentPoly.one()}
    for r in range(2, n + 1):
        V[(r, -r)] = LaurentPoly.zero()
        for k in range(r - 1, 0, -1):
            V[(r, -k)] = V[(r, -k - 1)] + V[(r - 1, k)].shift(-1)
        V[(r, 1)] = V[(r, -1)].shift(2)
        for k in range(2, r + 1):
            V[(r, k)] = V[(r, k - 1)] + V[(r - 1, -k + 1)].shift(1)
    return V


def ref_gamma_arrays(n):
    star = {(1, 1): LaurentPoly.zero()}
    circ = {(1, 1): LaurentPoly.t_power(2)}
    for r in range(2, n + 1):
        star[(r, 1)] = LaurentPoly.zero()
        for k in range(2, r + 1):
            star[(r, k)] = star[(r, k - 1)] + circ[(r - 1, k - 1)].shift(-1)
        circ[(r, r)] = star[(r, r)].shift(2)
        for k in range(r - 1, 0, -1):
            circ[(r, k)] = circ[(r, k + 1)] + star[(r - 1, k)].shift(1)
    out = {}
    for r in range(1, n + 1):
        for k in range(1, r + 1):
            out[(r, k)] = circ[(r, r - k + 1)]
            out[(r, -k)] = star[(r, r - k + 1)]
    return out


@pytest.mark.parametrize("fn, ref", [(arnold, ref_arnold), (arnold_poly, ref_arnold_poly),
                                     (gamma_arrays, ref_gamma_arrays)],
                         ids=["arnold", "arnold_poly", "gamma_arrays"])
def test_double_triangles_match_their_separate_loops(fn, ref):
    for n in range(1, 15):
        tri = fn(n)
        assert tri.n == n and tri.entries == ref(n), n
        for r in range(1, n + 1):
            row = tri.row(r)
            assert tri.negative_sum(r) == reduce(add, row[:r]), (n, r)
            assert tri.positive_sum(r) == reduce(add, row[r:]), (n, r)
