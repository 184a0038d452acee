"""Named machine-checkable properties with pass/fail reports.

Every registered check recomputes one published claim from scratch at
all sizes up to its depth and reports the first discrepancy as a
counterexample.  Checks are deterministic and independent; default
depths keep each one comfortably inside a minute.  A check that hits an
enumeration ceiling reports status "error" instead of aborting a run.

A check states each comparison with ``_expect``.  The first one that
fails raises ``_Mismatch``, which ends the check, and ``run_check``
reports it as the counterexample; a check that returns has passed.  The
texts of a comparison are written only when it fails.

Each check reads its maps, statistics and enumerators from this
module's globals.  An engine name is bound here on its first use: by
``run_check``, for every name a check's code reads, or by a read from
outside.  A name already here, a wrapper or a patch, is never rebound.
Each run of a check binds its names before the check starts.
"""
from __future__ import annotations

import time
from collections import Counter
from copy import deepcopy
from importlib import import_module
from types import CodeType

from . import _OWNER as _EXPORTED
from . import fixtures as fx
from .errors import LimitError
from .polynomials import LaurentPoly, Value

#: The owner of each engine name: the package's table, plus the names the
#: checks read that the package does not re-export.
_OWNER = {**_EXPORTED, "_rightmost_end": "trees", "is_all_white": "forests",
          "last_root": "forests", "shrink_last_entry": "permutations",
          "tree_step_weights": "qcalculus", "forest_step_weights": "qcalculus"}


def __getattr__(name):
    """Bind an engine name here on its first use (PEP 562).  Python calls
    this only for a name not here, so a wrapper or patch here stays."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(
        name, getattr(import_module(f".{_OWNER[name]}", __package__), name))


def _bind_reads(code) -> None:
    """Bind every engine name ``code`` reads, following its nested
    functions and lambdas and the helpers defined here that it calls."""
    g, seen, todo = globals(), set(), [code]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        for name in code.co_names:
            if name in _OWNER and name not in g:
                __getattr__(name)
            elif getattr(g.get(name), "__globals__", None) is g:
                todo.append(g[name].__code__)
        todo += [const for const in code.co_consts if isinstance(const, CodeType)]


class CheckReport(Value):
    """One check's outcome; a report can be changed, so it has no hash."""
    __slots__ = ("check_id", "n_range", "status", "counterexample", "elapsed")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, check_id: str, n_range: list[int], status: str,
                 counterexample: dict | None, elapsed: float):
        self.check_id, self.n_range, self.status = check_id, n_range, status
        self.counterexample, self.elapsed = counterexample, elapsed

    def to_json(self) -> dict:
        return {f: deepcopy(getattr(self, f)) for f in self.__slots__}


class _Mismatch(Exception):
    """A check's first failed comparison; ``args[0]`` is its counterexample."""


def _expect(actual, expected, inputs, args=(), ok=None) -> None:
    """Go on if ``actual == expected``, or if ``ok`` is true for a test that
    is not an equality; else end the running check with this comparison as
    its counterexample.  Its texts are written only then: the tuple
    ``args`` fills the template ``inputs`` (or is passed to it, if it is a
    function) and a string ``expected``, and any other value is written
    with ``str``.  Checks pass every argument by position: a call with a
    keyword or with ``*args`` takes CPython's slower general call path,
    which made a verify-all pass measurably slower."""
    if actual == expected if ok is None else ok:
        return
    if isinstance(expected, str):
        expected = expected.format(*args)
    inputs = inputs(*args) if callable(inputs) else inputs.format(*args)
    raise _Mismatch({"inputs": inputs, "expected": str(expected), "actual": str(actual)})


def _family_poly(members, weight) -> LaurentPoly:
    """Sum of t^weight over ``members``, counted first."""
    return LaurentPoly.from_terms(Counter(map(weight, members)))


def _class_sums(trees) -> dict:
    """Sums of t^emp over ``trees`` by class ``(starred, rmlab)``, counted
    first as (class, emp) pairs."""
    terms = {}
    for (key, e), c in Counter((_rightmost_end(t), emp(t)) for t in trees).items():
        terms.setdefault(key, {})[e] = c
    return {key: LaurentPoly.from_terms(c) for key, c in terms.items()}


def _expect_bijection(dom, fwd, inv, image_test, cod, inputs, expected, actual, args):
    """Map each member of ``dom``, test its image with ``image_test`` and
    round-trip it through ``inv``; then compare the images with ``cod`` as
    sets, a comparison that ``inputs``, ``expected``, ``actual`` and
    ``args`` describe.  The round trips make the map injective on ``dom``,
    so equal sets make it a bijection onto ``cod``."""
    images = set()
    for w in dom:
        x = fwd(w)
        image_test(w, x)
        _expect(inv(x), w, "round trip {}", (w,))
        images.add(x)
    _expect(actual, expected, inputs, args, images == set(cod))


def _emp_transport(n: int, stat):
    """Image test: the forest has n - 2*stat(w) empty leaves."""
    def image_test(w, f):
        _expect(emp_forest(f), n - 2 * stat(w), "emp transport {}", (w,))
    return image_test


def _member_of(cod, what: str):
    """Image test: the word lies in the set ``cod``."""
    def image_test(w, v):
        _expect(v, what, "image of {}", (w,), v in cod)
    return image_test


def _worked_example(fwd, inv, example):
    a, b = example
    _expect(fwd(a), b, "worked example")
    _expect(inv(b), a, "worked example inverse")


def _round_trip(name: str, t) -> str:
    """The inputs of a psi map's round trip: the tree's inorder word."""
    return f"{name} round trip {inorder_word(t)}"


def _fixture_bipoly(d) -> BiPoly:
    m = max(d, default=-1)
    return BiPoly.make([QPoly.make(d.get(i, ())) for i in range(m + 1)])


# -- individual checks ---------------------------------------------------

def check_eq_1(n_max: int):
    tri = entringer(n_max)
    _expect(tri.entries[(1, 1)], 1, "E(1,1)")
    for r in range(2, n_max + 1):
        _expect(tri.entries[(r, 1)], 0, "E({},1)", (r,))
        for k in range(2, r + 1):
            want = tri.entries[(r, k - 1)] + tri.entries[(r - 1, r - k + 1)]
            _expect(tri.entries[(r, k)], want, "E({},{})", (r, k))
    for r in range(1, min(n_max, 8) + 1):
        _expect(tri.row_sum(r), fx.EULER[r], "row sum {}", (r,))


def check_eq_2(n_max: int):
    tri = arnold(n_max)
    for r in range(2, n_max + 1):
        _expect(tri.value(r, -r), 0, "v({},{})", (r, -r))
        for k in range(1, r):
            want = tri.value(r, -k - 1) + tri.value(r - 1, k)
            _expect(tri.value(r, -k), want, "v({},{})", (r, -k))
        _expect(tri.value(r, 1), tri.value(r, -1), "v({},1)", (r,))
        for k in range(2, r + 1):
            want = tri.value(r, k - 1) + tri.value(r - 1, -k + 1)
            _expect(tri.value(r, k), want, "v({},{})", (r, k))
    for r in range(1, min(n_max, 8) + 1):
        _expect(tri.positive_sum(r), fx.SPRINGER_B[r], "positive row sum {}", (r,))
        _expect(tri.negative_sum(r), fx.SPRINGER_D[r], "negative row sum {}", (r,))
    for r in range(1, min(n_max, 6) + 1):
        for k, want in fx.ARNOLD_TRIANGLE[r].items():
            _expect(tri.value(r, k), want, "table cell ({},{})", (r, k))


def check_eq_5(n_max: int):
    tri = arnold_poly(n_max)
    ints = arnold(n_max)
    for r in range(1, n_max + 1):
        parity = 0 if r % 2 == 1 else 1
        for k in tri.signed_columns(r):
            p = tri.value(r, k)
            _expect(p.min_exp, ">= 0", "V({},{}) exponent", (r, k),
                    p.is_zero() or p.min_exp >= 0)
            _expect(p(1), ints.value(r, k), "V({},{}) at t=1", (r, k))
            _expect(p, ">= 0", "V({},{}) coefficients", (r, k),
                    not any(c < 0 for c in p.coeffs))
            if k > 0 and not p.is_zero():
                _expect(p, "exponents = {2} mod 2", "V({},{}) parity", (r, k, parity),
                        not any(c != 0 and e % 2 != parity for e, c in p.terms().items()))
    for r in range(1, min(n_max, 5) + 1):
        for k, terms in fx.V_TRIANGLE[r].items():
            _expect(tri.value(r, k), LaurentPoly.from_terms(terms), "table cell ({},{})",
                    (r, k))


def check_thm_1_1(n_max: int):
    for n in range(1, n_max + 1):
        tri = arnold(n)
        counts = Counter(w[0] for w in enumerate_family("snakes", n))
        for k in tri.signed_columns(n):
            _expect(counts[k], tri.value(n, k), "n={}, first entry {}", (n, k))


def check_thm_1_2(n_max: int):
    for n in range(1, n_max + 1):
        _expect("mismatch", "triangle sums equal Q_n and P_n - t Q_n", "n={}", (n,),
                hoffman_triangle_identity(n))
    for n in range(1, min(n_max, 8) + 1):
        p1, q1 = hoffman_P(n)(1), hoffman_Q(n)(1)
        _expect(p1, 2**n * fx.EULER[n], "P_{}(1)", (n,))
        _expect(q1, fx.SPRINGER_B[n], "Q_{}(1)", (n,))
        _expect(p1 - q1, fx.SPRINGER_D[n], "P_{0}(1)-Q_{0}(1)", (n,))


def check_thm_2_2(n_max: int):
    for n in range(1, n_max + 1):
        trees = enumerate_trees(n)
        _expect(_family_poly(trees, emp), hoffman_P(n), "P_{} from trees", (n,))
        q = _family_poly((t for t in trees if not is_starred(t)),
                         lambda t: emp(t) - 1)
        _expect(q, hoffman_Q(n), "Q_{} from trees", (n,))


def check_thm_2_3(n_max: int):
    for n in range(1, n_max + 1):
        tri = arnold_poly(n)
        sums = _class_sums(enumerate_trees(n))
        for k in range(1, n + 1):
            circ = sums.get((False, n - k + 1), LaurentPoly.zero())
            star = sums.get((True, n - k + 1), LaurentPoly.zero())
            _expect(circ, tri.value(n, k), "circ sum n={} k={}", (n, k))
            _expect(star, tri.value(n, -k), "star sum n={} k={}", (n, k))


def check_thm_2_7(n_max: int):
    for n in range(1, n_max + 1):
        got = _family_poly(enumerate_family("rsi", n), lambda w: n - 2 * npk(w))
        _expect(got, hoffman_R(n), "R_{} over type-I Simsun", (n,))


def _signed_cells(n: int, b_family: str, b_anchor: str, d_family: str,
                  d_anchor: str, stat):
    """Row n of the polynomial triangle from the refined Simsun families:
    column k (B side) and -k (D side) from the members anchored at
    n - k + 1 and -(n - k + 1)."""
    tri = arnold_poly(n)
    for k in range(1, n + 1):
        b = _family_poly(enumerate_family(b_family, n, (b_anchor, n - k + 1)),
                         lambda w: n + 1 - 2 * stat(w))
        _expect(b, tri.value(n, k), "B-side n={} k={}", (n, k))
        d = _family_poly(enumerate_family(d_family, n, (d_anchor, -(n - k + 1))),
                         lambda w: n - 1 - 2 * stat(w))
        _expect(d, tri.value(n, -k), "D-side n={} k={}", (n, k))


def check_thm_2_10(n_max: int):
    for n in range(1, n_max + 1):
        _signed_cells(n, "rsi-b", "last", "rsi-d", "last", npk)


def check_thm_2_13(n_max: int):
    for n in range(1, n_max + 1):
        got = _family_poly(enumerate_family("rsii", n), lambda w: n - 2 * nva(w))
        _expect(got, hoffman_R(n), "R_{} over type-II Simsun", (n,))
        _signed_cells(n, "rsii-b", "gae", "rsii-d", "first", nva)


def check_conj_2_9(n_max: int):
    for n in range(1, n_max + 1):
        tri = arnold(n)
        for k in range(1, n + 1):
            count = len(enumerate_family("rsi-b", n, ("last", n - k + 1)))
            _expect(count, tri.value(n, k), "n={} k={}", (n, k))


def check_prop_3_1(n_max: int):
    sums = {}
    for n in range(1, n_max + 1):
        trees = enumerate_trees(n)
        prev, sums = sums, _class_sums(trees)
        z = LaurentPoly.zero()
        for k in range(2, n + 1):
            rhs = sums.get((True, k - 1), z) + prev.get((False, k - 1), z).shift(-1)
            _expect(sums.get((True, k), z), rhs, "(i) n={} k={}", (n, k))
        if n >= 2:
            _expect(sums.get((False, n), z), sums.get((True, n), z).shift(2), "(ii) n={}",
                    (n,))
        for k in range(1, n):
            rhs = sums.get((False, k + 1), z) + prev.get((True, k), z).shift(1)
            _expect(sums.get((False, k), z), rhs, "(iii) n={} k={}", (n, k))
        # exhaustive bijectivity with round trips
        for t in trees:
            if is_starred(t):
                k = rmlab(t)
                if k >= 2:
                    out, case = psi_star(t)
                    back, c2 = psi_star_inv(out)
                    _expect(back, t, _round_trip, ("psi_star", t), back == t and c2 == case)
                if k == n:
                    _expect("mismatch", t, _round_trip, ("psi_cap", t),
                            psi_cap_inv(psi_cap(t)) == t)
            elif rmlab(t) <= n - 1:
                out, case = psi_circ(t)
                back, c2 = psi_circ_inv(out)
                _expect(back, t, _round_trip, ("psi_circ", t), back == t and c2 == case)


def check_cor_3_2(n_max: int):
    sums = _class_sums(enumerate_trees(1)) if n_max >= 2 else {}
    z = LaurentPoly.zero()
    for n in range(2, n_max + 1):
        prev, sums = sums, _class_sums(enumerate_trees(n))
        circ = z  # circ sums of size n - 1 at rmlab 1..k-1
        for k in range(2, n + 1):
            circ = circ + prev.get((False, k - 1), z)
            _expect(sums.get((True, k), z), circ.shift(-1), "n={} k={}", (n, k))


def check_cor_3_3(n_max: int):
    for n in range(1, n_max + 1):
        g = gamma_arrays(n)
        total = g.positive_sum(n) + g.negative_sum(n)
        _expect(total.shift(-1), hoffman_Q(n), "n={}", (n,))


def check_cor_3_4(n_max: int):
    for n in range(1, n_max + 1):
        g = gamma_arrays(n)
        counts = Counter(w[0] for w in enumerate_family("gamma-snakes", n))
        for k in g.signed_columns(n):
            _expect(counts[k], g.value(n, k)(1), "n={} first entry {}", (n, k))
        # leftmost-leaf restriction matches the polynomial cells
        sums = _class_sums(filter(in_left_class, enumerate_trees(n)))
        z = LaurentPoly.zero()
        for k in range(1, n + 1):
            _expect(sums.get((False, n - k + 1), z), g.value(n, k), "circ cell n={} k={}",
                    (n, k))
            _expect(sums.get((True, n - k + 1), z), g.value(n, -k), "star cell n={} k={}",
                    (n, k))


def check_eq_13(n_max: int):
    for n in range(1, n_max + 1):
        _expect(_family_poly(enumerate_forests(n), emp_forest), hoffman_R(n),
                "R_{} over forests", (n,))


def check_prop_4_2(n_max: int):
    for n in range(1, n_max + 1):
        _expect_bijection(enumerate_family("rsi", n), phi1, phi1_inv, _emp_transport(n, npk),
                          enumerate_forests(n), "image coverage n={}", "all forests",
                          "missing images", (n,))
        for k in range(1, n + 1):
            for w in enumerate_family("rsi-b", n, ("last", k)):
                f = phi1(w)
                _expect(f, "white forest, last root {1}", "B-refinement {0}", (w, k),
                        is_all_white(f) and last_root(f) == k)
    # worked example: restriction subwords and image statistics
    w = fx.TYPE1_EXAMPLE
    for j, sub in enumerate(fx.TYPE1_EXAMPLE_SUBWORDS, start=1):
        _expect(subword(w, j), sub, "table subword j={}", (j,))
    _expect(emp_forest(phi1(w)), len(w) - 2 * npk(w), "example emp")
    _expect(phi1_inv(phi1(w)), w, "example round trip")


def _onto_star_trees(n_max: int, family: str, anchor: str, fwd, inv, stat):
    """The ``-d`` map sends the members of ``family`` anchored at -k onto
    the size-n star trees with rightmost label k, with n - 1 - 2*stat(w)
    empty leaves."""
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            def image_test(w, t):
                _expect(t, "star, rightmost {1}", "class of {0}", (w, k),
                        is_starred(t) and rmlab(t) == k)
                _expect(emp(t), n - 1 - 2 * stat(w), "emp of {}", (w,))
            _expect_bijection(enumerate_family(family, n, (anchor, -k)), fwd, inv, image_test,
                              enumerate_trees(n, starred=True, rightmost=k),
                              "coverage n={} k={}", "all star trees", "missing", (n, k))


def check_prop_4_5(n_max: int):
    _onto_star_trees(n_max, "rsi-d", "last", phi1_d, phi1_d_inv, npk)
    src, tgt = fx.TYPE1_D_EXAMPLE
    _expect(shrink_last_entry(src), tgt, "shrinking example")


def check_thm_4_5(n_max: int):
    for n in range(1, n_max + 1):
        dom = enumerate_family("adi", n + 1)
        cod = set(enumerate_family("rsi", n))
        _expect_bijection(dom, zeta1, zeta1_inv, _member_of(cod, "type-I Simsun member"), cod,
                          "coverage n={}", "all members", "missing", (n,))
        for k in range(1, n + 1):
            for w in enumerate_family("adi-b", n + 1, ("last", k + 1)):
                u = zeta1(w)
                _expect(u, "last entry {1}", "B index of {0}", (w, k),
                        is_member(u, "rsi-b") and u[-1] == k)
            for w in enumerate_family("adi-d", n + 1, ("last", -k - 1)):
                u = zeta1(w)
                _expect(u, "last entry {1}", "D index of {0}", (w, -k),
                        is_member(u, "rsi-d") and u[-1] == -k)
    _worked_example(zeta1, zeta1_inv, fx.ZETA1_EXAMPLE)


def check_prop_5_1(n_max: int):
    for n in range(1, n_max + 1):
        _expect_bijection(enumerate_family("rsii", n), phi2, phi2_inv, _emp_transport(n, nva),
                          enumerate_forests(n), "image coverage n={}", "all forests",
                          "missing images", (n,))
        for w in enumerate_family("rsii-b", n):
            f, g = phi2(w), gae(w)
            _expect(f, "white forest, last root {1}", "B-refinement {0}", (w, g),
                    is_all_white(f) and last_root(f) == g)
    w = fx.TYPE2_EXAMPLE
    for j, sub in enumerate(fx.TYPE2_EXAMPLE_SUBWORDS, start=1):
        _expect(subword(w, j), sub, "table subword j={}", (j,))
    _expect(phi2_inv(phi2(w)), w, "example round trip")


def check_prop_5_3(n_max: int):
    _onto_star_trees(n_max, "rsii-d", "first", phi2_d, phi2_d_inv, nva)


def check_thm_5_4(n_max: int):
    for n in range(1, n_max + 1):
        dom = enumerate_family("adii", n + 1)
        cod = set(enumerate_family("rsii", n))
        _expect_bijection(dom, zeta2, zeta2_inv, _member_of(cod, "type-II Simsun member"), cod,
                          "coverage n={}", "all members", "missing", (n,))
        for k in range(1, n + 1):
            for w in enumerate_family("adii-b", n + 1, ("last", k + 1)):
                u = zeta2(w)
                _expect(u, "greatest augmenting {1}", "B index of {0}", (w, k),
                        is_member(u, "rsii-b") and gae(u) == k)
            for w in enumerate_family("adii-d", n + 1, ("first", -k - 1)):
                u = zeta2(w)
                _expect(u, "first entry {1}", "D index of {0}", (w, -k),
                        is_member(u, "rsii-d") and u[0] == -k)
    _worked_example(zeta2, zeta2_inv, fx.ZETA2_EXAMPLE)


def check_thm_6_1(n_max: int):
    for n in range(1, n_max + 1):
        _expect(weighted_sum_trees(n), qpoly_P(n), "n={}", (n,))
    _expect("not attained", fx.TREE_WEIGHT_EXAMPLE, "weight example", (),
            any(tree_step_weights(t) == fx.TREE_WEIGHT_EXAMPLE for t in enumerate_trees(5)))


def check_thm_6_2(n_max: int):
    for n in range(1, n_max + 1):
        _expect(weighted_sum_forests(n), qpoly_R(n), "all forests n={}", (n,))
        _expect(weighted_sum_forests(n, white_only=True), qpoly_Q(n), "white forests n={}",
                (n,))
    _expect("not attained", fx.FOREST_WEIGHT_EXAMPLE, "weight example", (),
            any(forest_step_weights(f) == fx.FOREST_WEIGHT_EXAMPLE
                for f in enumerate_forests(6)))


def check_tables_fixtures(n_max: int):
    e = entringer(8)
    for n in range(1, 9):
        _expect(e.row_sum(n), fx.EULER[n], "zigzag row sum {}", (n,))
    a = arnold(6)
    for n, row in fx.ARNOLD_TRIANGLE.items():
        for k, v in row.items():
            _expect(a.value(n, k), v, "signed triangle ({},{})", (n, k))
    V = arnold_poly(5)
    for n, row in fx.V_TRIANGLE.items():
        for k, terms in row.items():
            _expect(V.value(n, k), LaurentPoly.from_terms(terms),
                    "polynomial triangle ({},{})", (n, k))
    G = gamma_arrays(6)
    for n, row in fx.GAMMA_POLY_TRIANGLE.items():
        for k, terms in row.items():
            _expect(G.value(n, k), LaurentPoly.from_terms(terms),
                    "restricted triangle ({},{})", (n, k))
    for n, row in fx.GAMMA_TRIANGLE.items():
        for k, v in row.items():
            _expect(G.value(n, k)(1), v, "restricted counts ({},{})", (n, k))
    for n in range(1, 6):
        for fn, table, name in ((hoffman_P, fx.P_LIST, "P"),
                                (hoffman_Q, fx.Q_LIST, "Q"),
                                (hoffman_R, fx.R_LIST, "R")):
            _expect(fn(n), LaurentPoly.from_terms(table[n]), "{}_{}", (name, n))
    for n in range(1, 4):
        for fn, table, name in ((qpoly_P, fx.P_Q_LIST, "P"),
                                (qpoly_Q, fx.Q_Q_LIST, "Q"),
                                (qpoly_R, fx.R_Q_LIST, "R")):
            _expect(fn(n), _fixture_bipoly(table[n]), "q-{}_{}", (name, n))
    for w, table in ((fx.TYPE1_EXAMPLE, fx.TYPE1_EXAMPLE_SUBWORDS),
                     (fx.TYPE2_EXAMPLE, fx.TYPE2_EXAMPLE_SUBWORDS)):
        for j, sub in enumerate(table, start=1):
            _expect(subword(w, j), sub, "subword table {} level {}", (w, j))


CHECKS = {
    "eq-1": (12, check_eq_1),
    "eq-2": (12, check_eq_2),
    "eq-5": (10, check_eq_5),
    "thm-1-1": (6, check_thm_1_1),
    "thm-1-2": (10, check_thm_1_2),
    "thm-2-2": (7, check_thm_2_2),
    "thm-2-3": (7, check_thm_2_3),
    "thm-2-7": (6, check_thm_2_7),
    "thm-2-10": (6, check_thm_2_10),
    "thm-2-13": (6, check_thm_2_13),
    "conj-2-9": (6, check_conj_2_9),
    "prop-3-1": (6, check_prop_3_1),
    "cor-3-2": (8, check_cor_3_2),
    "cor-3-3": (10, check_cor_3_3),
    "cor-3-4": (6, check_cor_3_4),
    "eq-13": (6, check_eq_13),
    "prop-4-2": (6, check_prop_4_2),
    "prop-4-5": (6, check_prop_4_5),
    "thm-4-5": (6, check_thm_4_5),
    "prop-5-1": (6, check_prop_5_1),
    "prop-5-3": (6, check_prop_5_3),
    "thm-5-4": (6, check_thm_5_4),
    "thm-6-1": (6, check_thm_6_1),
    "thm-6-2": (6, check_thm_6_2),
    "tables-fixtures": (6, check_tables_fixtures),
}


def run_check(check_id: str, n_max: int | None = None) -> CheckReport:
    """Run one check at depth ``n_max`` (its default when None).  A check
    in ``CHECKS`` returns None or a counterexample, or raises ``_Mismatch``."""
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id {check_id!r}")
    default, fn = CHECKS[check_id]
    depth = default if n_max is None else n_max
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise ValueError(f"depth must be an integer >= 1, got {n_max!r}")
    _bind_reads(fn.__code__)
    start = time.perf_counter()
    try:
        counterexample = fn(depth)
    except _Mismatch as mismatch:
        counterexample, status = mismatch.args[0], "fail"
    except LimitError as exc:
        counterexample, status = {"error": str(exc)}, "error"
    else:
        status = "pass" if counterexample is None else "fail"
    elapsed = time.perf_counter() - start
    return CheckReport(check_id=check_id, n_range=[1, depth], status=status,
                       counterexample=counterexample, elapsed=round(elapsed, 4))


def run_all(n_max: int | None = None) -> list[CheckReport]:
    return [run_check(cid, n_max) for cid in sorted(CHECKS)]
