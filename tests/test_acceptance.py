"""Acceptance criteria, one test per criterion, each printing a
pass/fail line with its elapsed time and enforcing its runtime budget.

Everything here is exact integer/polynomial equality; the brute-force
sides rebuild their objects from definitions (full window enumeration,
explicit tree/forest generation) rather than reusing the recurrences
they are checking.
"""
import time
from contextlib import contextmanager

from snake_atlas import fixtures as fx
from snake_atlas.bijections import (phi1, phi1_b, phi1_d, phi1_d_inv,
                                    phi1_inv, phi2, phi2_b, phi2_d,
                                    phi2_d_inv, phi2_inv, zeta1, zeta1_inv,
                                    zeta2, zeta2_inv)
from snake_atlas.forests import (emp_forest, enumerate_forests,
                                 forest_to_tree,
                                 tree_to_forest)
from snake_atlas.permutations import (enumerate_family, gae,
                                      is_beta_snake, is_gamma_snake,
                                      is_member, npk, nva, subword)
from snake_atlas.polynomials import LaurentPoly
from snake_atlas.qcalculus import (BiPoly, QPoly, forest_step_weights, op_D,
                                   op_U, qpoly_P, qpoly_Q, qpoly_R,
                                   tree_step_weights, weighted_sum_forests,
                                   weighted_sum_trees)
from snake_atlas.trees import (emp, enumerate_trees, inorder_word, is_starred,
                               psi_cap, psi_cap_inv, psi_circ, psi_circ_inv,
                               psi_star, psi_star_inv, rmlab, snake_to_tree,
                               tree_to_snake)
from snake_atlas.triangles import (arnold, arnold_poly, entringer,
                                   gamma_arrays, hoffman_P, hoffman_Q,
                                   hoffman_R, hoffman_triangle_identity)
from test_forests import forest_sort_key
from test_permutations import all_windows
from test_trees import word_sort_key


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {seconds:.0f}s)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget ({elapsed:.1f}s)"


def P(terms):
    return LaurentPoly.from_terms(terms)


def BP(d):
    m = max(d, default=-1)
    return BiPoly.make([QPoly.make(d.get(i, ())) for i in range(m + 1)])


def test_criterion_1_table_fixtures():
    with budget("1 table fixtures", 5):
        tri = entringer(8)
        assert [tri.row_sum(r) for r in range(1, 9)] == \
            [fx.EULER[n] for n in range(1, 9)]
        a = arnold(6)
        for n, row in fx.ARNOLD_TRIANGLE.items():
            for k, v in row.items():
                assert a.value(n, k) == v
        V = arnold_poly(5)
        for n, row in fx.V_TRIANGLE.items():
            for k, terms in row.items():
                assert V.value(n, k) == P(terms)
        G = gamma_arrays(6)
        for n, row in fx.GAMMA_POLY_TRIANGLE.items():
            for k, terms in row.items():
                assert G.value(n, k) == P(terms)
        for n, row in fx.GAMMA_TRIANGLE.items():
            for k, v in row.items():
                assert G.value(n, k)(1) == v
        a8 = arnold(8)
        for n in range(1, 9):
            assert a8.positive_sum(n) == fx.SPRINGER_B[n]
            assert a8.negative_sum(n) == fx.SPRINGER_D[n]


def test_criterion_2_polynomial_lists():
    with budget("2 polynomial lists", 1):
        for n in range(1, 6):
            assert hoffman_P(n) == P(fx.P_LIST[n])
            assert hoffman_Q(n) == P(fx.Q_LIST[n])
            assert hoffman_R(n) == P(fx.R_LIST[n])
        for n in range(1, 4):
            assert qpoly_P(n) == BP(fx.P_Q_LIST[n])
            assert qpoly_Q(n) == BP(fx.Q_Q_LIST[n])
            assert qpoly_R(n) == BP(fx.R_Q_LIST[n])


def test_criterion_3_triangle_sum_identity():
    with budget("3 triangle sums", 5):
        for n in range(1, 11):
            assert hoffman_triangle_identity(n)
        for n in range(1, 9):
            p1, q1 = hoffman_P(n)(1), hoffman_Q(n)(1)
            assert p1 == 2**n * fx.EULER[n]
            assert q1 == fx.SPRINGER_B[n]
            assert p1 - q1 == fx.SPRINGER_D[n]


def test_criterion_4_brute_force_oracles():
    with budget("4 brute-force oracles", 60):
        for n in range(1, 7):
            snake_counts = {}
            gamma_counts = {}
            for w in all_windows(n):
                if is_beta_snake(w):
                    snake_counts[w[0]] = snake_counts.get(w[0], 0) + 1
                if is_gamma_snake(w):
                    gamma_counts[w[0]] = gamma_counts.get(w[0], 0) + 1
            tri = arnold(n)
            g = gamma_arrays(n)
            for k in tri.signed_columns(n):
                assert snake_counts.get(k, 0) == tri.value(n, k)
                assert gamma_counts.get(k, 0) == g.value(n, k)(1)


def test_criterion_5_family_distributions():
    with budget("5 family distributions", 120):
        for n in range(1, 7):
            V = arnold_poly(n)
            tree_sums = {}
            for t in enumerate_trees(n):
                key = (is_starred(t), rmlab(t))
                tree_sums[key] = tree_sums.get(key, LaurentPoly.zero()) \
                    + LaurentPoly.t_power(emp(t))
            counts = arnold(n)
            for k in range(1, n + 1):
                zero = LaurentPoly.zero()
                assert tree_sums.get((False, n - k + 1), zero) == V.value(n, k)
                assert tree_sums.get((True, n - k + 1), zero) == V.value(n, -k)
                b1 = enumerate_family("rsi-b", n, ("last", n - k + 1))
                s = LaurentPoly.zero()
                for w in b1:
                    s = s + LaurentPoly.t_power(n + 1 - 2 * npk(w))
                assert s == V.value(n, k)
                assert len(b1) == counts.value(n, k)  # the conjectured count
                s = LaurentPoly.zero()
                for w in enumerate_family("rsi-d", n, ("last", -(n - k + 1))):
                    s = s + LaurentPoly.t_power(n - 1 - 2 * npk(w))
                assert s == V.value(n, -k)
                s = LaurentPoly.zero()
                for w in enumerate_family("rsii-b", n, ("gae", n - k + 1)):
                    s = s + LaurentPoly.t_power(n + 1 - 2 * nva(w))
                assert s == V.value(n, k)
                s = LaurentPoly.zero()
                for w in enumerate_family("rsii-d", n, ("first", -(n - k + 1))):
                    s = s + LaurentPoly.t_power(n - 1 - 2 * nva(w))
                assert s == V.value(n, -k)


def test_criterion_6_bijection_suite():
    with budget("6 bijection suite", 120):
        # published worked examples, reproduced exactly
        assert [subword(fx.TYPE1_EXAMPLE, j) for j in range(1, 9)] == \
            fx.TYPE1_EXAMPLE_SUBWORDS
        assert [subword(fx.TYPE2_EXAMPLE, j) for j in range(1, 9)] == \
            fx.TYPE2_EXAMPLE_SUBWORDS
        assert zeta1(fx.ZETA1_EXAMPLE[0]) == fx.ZETA1_EXAMPLE[1]
        assert zeta2(fx.ZETA2_EXAMPLE[0]) == fx.ZETA2_EXAMPLE[1]
        from snake_atlas.permutations import shrink_last_entry
        assert shrink_last_entry(fx.TYPE1_D_EXAMPLE[0]) == fx.TYPE1_D_EXAMPLE[1]
        for word, snake in fx.GAMMA_EXAMPLES:
            from snake_atlas.trees import tree_from_word
            assert tree_to_snake(tree_from_word(word)) == snake

        def keyset(ts):
            return sorted(word_sort_key(inorder_word(t)) for t in ts)

        for n in range(1, 7):
            trees_n = enumerate_trees(n)
            forests_n = enumerate_forests(n)
            # gamma: trees <-> snakes
            snakes = set(enumerate_family("snakes", n))
            images = set()
            for t in trees_n:
                s = tree_to_snake(t)
                assert s in snakes and snake_to_tree(s) == t
                images.add(s)
            assert images == snakes
            # mu: circ trees <-> white forests
            white = enumerate_forests(n, white_only=True)
            circ = [t for t in trees_n if not is_starred(t)]
            cut = [tree_to_forest(t) for t in circ]
            assert sorted(map(forest_sort_key, cut)) == \
                sorted(map(forest_sort_key, white))
            for t, f in zip(circ, cut):
                assert forest_to_tree(f) == t
                assert emp_forest(f) == emp(t) - 1
            # psi maps: round trips over the whole grade
            for t in trees_n:
                if is_starred(t):
                    if rmlab(t) >= 2:
                        out, case = psi_star(t)
                        assert psi_star_inv(out) == (t, case)
                    if rmlab(t) == n:
                        assert psi_cap_inv(psi_cap(t)) == t
                elif rmlab(t) < n:
                    out, case = psi_circ(t)
                    assert psi_circ_inv(out) == (t, case)
            # phi1 / phi2: bijections with statistic transport
            images1 = []
            for w in enumerate_family("rsi", n):
                f = phi1(w)
                assert emp_forest(f) == n - 2 * npk(w)
                assert phi1_inv(f) == w
                images1.append(f)
            assert sorted(map(forest_sort_key, images1)) == \
                sorted(map(forest_sort_key, forests_n))
            images2 = []
            for w in enumerate_family("rsii", n):
                f = phi2(w)
                assert emp_forest(f) == n - 2 * nva(w)
                assert phi2_inv(f) == w
                images2.append(f)
            assert sorted(map(forest_sort_key, images2)) == \
                sorted(map(forest_sort_key, forests_n))
            # tree-valued refinements cover their grades
            for k in range(1, n + 1):
                circ_k = enumerate_trees(n, starred=False, rightmost=k)
                got = [phi1_b(w) for w in enumerate_family("rsi-b", n, ("last", k))]
                assert keyset(got) == keyset(circ_k)
                got = [phi2_b(w) for w in enumerate_family("rsii-b", n, ("gae", k))]
                assert keyset(got) == keyset(circ_k)
            for k in range(2, n + 1):
                star_k = enumerate_trees(n, starred=True, rightmost=k)
                d1 = enumerate_family("rsi-d", n, ("last", -k))
                got = [phi1_d(w) for w in d1]
                assert keyset(got) == keyset(star_k)
                for w, t in zip(d1, got):
                    assert phi1_d_inv(t) == w
                d2 = enumerate_family("rsii-d", n, ("first", -k))
                got = [phi2_d(w) for w in d2]
                assert keyset(got) == keyset(star_k)
                for w, t in zip(d2, got):
                    assert phi2_d_inv(t) == w
            # zeta maps with index contracts
            cod1 = set(enumerate_family("rsi", n))
            for w in enumerate_family("adi", n + 1):
                v = zeta1(w)
                assert v in cod1 and zeta1_inv(v) == w
            cod2 = set(enumerate_family("rsii", n))
            for w in enumerate_family("adii", n + 1):
                v = zeta2(w)
                assert v in cod2 and zeta2_inv(v) == w
            for k in range(1, n + 1):
                for w in enumerate_family("adi-b", n + 1, ("last", k + 1)):
                    assert is_member(zeta1(w), "rsi-b") and zeta1(w)[-1] == k
                for w in enumerate_family("adi-d", n + 1, ("last", -k - 1)):
                    assert is_member(zeta1(w), "rsi-d") and zeta1(w)[-1] == -k
                for w in enumerate_family("adii-b", n + 1, ("last", k + 1)):
                    assert is_member(zeta2(w), "rsii-b") and gae(zeta2(w)) == k
                for w in enumerate_family("adii-d", n + 1, ("first", -k - 1)):
                    assert is_member(zeta2(w), "rsii-d") and zeta2(w)[0] == -k


def test_criterion_7_q_calculus():
    with budget("7 q-calculus", 60):
        # commutation spot checks
        for f in (BiPoly.one(), BiPoly.t_power(1), BiPoly.t_power(2),
                  BiPoly.make([QPoly.zero(), QPoly.zero(), QPoly.zero(),
                               QPoly.q_integer(2)])):
            assert op_D(op_U(f)) - BiPoly.make(
                [QPoly.q_power(1) * c for c in op_U(op_D(f)).t_coeffs]) == f
        for n in range(1, 7):
            assert weighted_sum_trees(n) == qpoly_P(n)
            assert weighted_sum_forests(n) == qpoly_R(n)
            assert weighted_sum_forests(n, white_only=True) == qpoly_Q(n)
        assert fx.TREE_WEIGHT_EXAMPLE in {tree_step_weights(t)
                                          for t in enumerate_trees(5)}
        assert sum(fx.TREE_WEIGHT_EXAMPLE) == 7
        assert fx.FOREST_WEIGHT_EXAMPLE in {forest_step_weights(f)
                                            for f in enumerate_forests(6)}
        assert sum(fx.FOREST_WEIGHT_EXAMPLE) == 8
