"""Named machine-checkable properties with pass/fail reports.

Every registered check recomputes one published claim from scratch at
all sizes up to its depth and reports the first discrepancy as a
counterexample.  Checks are deterministic and independent; default
depths keep each one comfortably inside a minute.  A check that hits an
enumeration ceiling reports status "error" instead of aborting a run.

Each check reads its maps, statistics and enumerators from this
module's globals.  An engine name is bound here on its first use: by
``run_check``, for every name a check's code reads, or by a read from
outside.  A name already here, a wrapper or a patch, is never rebound.
"""
from __future__ import annotations

import time
from collections import Counter
from copy import deepcopy
from importlib import import_module
from types import CodeType

from . import fixtures as fx
from .errors import LimitError
from .polynomials import LaurentPoly, Value

#: Each engine module, with the names the checks read from it.
_ENGINE = {
    "bijections": "phi1 phi1_d phi1_d_inv phi1_inv phi2 phi2_d phi2_d_inv phi2_inv"
                  " zeta1 zeta1_inv zeta2 zeta2_inv",
    "forests": "emp_forest enumerate_forests is_all_white last_root",
    "permutations": "enumerate_family gae is_member npk nva shrink_last_entry subword",
    "qcalculus": "BiPoly QPoly forest_step_weights qpoly_P qpoly_Q qpoly_R"
                 " tree_step_weights weighted_sum_forests weighted_sum_trees",
    "trees": "_rightmost_end emp enumerate_trees in_left_class inorder_word"
             " is_starred psi_cap psi_cap_inv psi_circ psi_circ_inv psi_star"
             " psi_star_inv rmlab",
    "triangles": "arnold arnold_poly entringer gamma_arrays hoffman_P hoffman_Q"
                 " hoffman_R hoffman_triangle_identity",
}
_OWNER = {name: mod for mod, names in _ENGINE.items() for name in names.split()}
_WALKED = set()  # code objects whose engine names are bound


def __getattr__(name):
    """Bind an engine name here on its first use (PEP 562).  Python calls
    this only for a name not here, so a wrapper or patch here stays."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __package__), name)
    return value


def _bind_reads(code) -> None:
    """Bind every engine name ``code`` reads, following its nested
    functions and lambdas and the helpers defined here that it calls."""
    if code in _WALKED:
        return
    _WALKED.add(code)
    g = globals()
    for name in code.co_names:
        if name in _OWNER and name not in g:
            __getattr__(name)
        elif getattr(g.get(name), "__globals__", None) is g:
            _bind_reads(g[name].__code__)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            _bind_reads(const)


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


def _fail(inputs, expected, actual) -> dict:
    return {"inputs": inputs, "expected": str(expected), "actual": str(actual)}


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


def _bijection_fail(dom, fwd, inv, image_fail, cod, missing):
    """Map each member of ``dom``, test its image with ``image_fail``
    (a counterexample or None) and round-trip it through ``inv``; then
    compare the images with ``cod`` as sets, returning ``missing`` when
    they differ.  The round trips make the map injective on ``dom``, so
    equal sets make it a bijection onto ``cod``."""
    images = set()
    for w in dom:
        x = fwd(w)
        bad = image_fail(w, x)
        if bad:
            return bad
        back = inv(x)
        if back != w:
            return _fail(f"round trip {w}", w, back)
        images.add(x)
    return None if images == set(cod) else missing


def _emp_transport(n: int, stat):
    """Image test: the forest has n - 2*stat(w) empty leaves."""
    def image_fail(w, f):
        if emp_forest(f) != n - 2 * stat(w):
            return _fail(f"emp transport {w}", n - 2 * stat(w), emp_forest(f))
        return None
    return image_fail


def _member_of(cod, what: str):
    """Image test: the word lies in the set ``cod``."""
    def image_fail(w, v):
        return None if v in cod else _fail(f"image of {w}", what, v)
    return image_fail


def _worked_example(fwd, inv, example):
    a, b = example
    if fwd(a) != b:
        return _fail("worked example", b, fwd(a))
    if inv(b) != a:
        return _fail("worked example inverse", a, inv(b))
    return None


def _fixture_bipoly(d) -> BiPoly:
    m = max(d, default=-1)
    return BiPoly.make([QPoly.make(d.get(i, ())) for i in range(m + 1)])


# -- individual checks ---------------------------------------------------

def check_eq_1(n_max: int):
    tri = entringer(n_max)
    if tri.entries[(1, 1)] != 1:
        return _fail("E(1,1)", 1, tri.entries[(1, 1)])
    for r in range(2, n_max + 1):
        if tri.entries[(r, 1)] != 0:
            return _fail(f"E({r},1)", 0, tri.entries[(r, 1)])
        for k in range(2, r + 1):
            want = tri.entries[(r, k - 1)] + tri.entries[(r - 1, r - k + 1)]
            if tri.entries[(r, k)] != want:
                return _fail(f"E({r},{k})", want, tri.entries[(r, k)])
    for r in range(1, min(n_max, 8) + 1):
        if tri.row_sum(r) != fx.EULER[r]:
            return _fail(f"row sum {r}", fx.EULER[r], tri.row_sum(r))
    return None


def check_eq_2(n_max: int):
    tri = arnold(n_max)
    for r in range(2, n_max + 1):
        if tri.value(r, -r) != 0:
            return _fail(f"v({r},{-r})", 0, tri.value(r, -r))
        for k in range(1, r):
            want = tri.value(r, -k - 1) + tri.value(r - 1, k)
            if tri.value(r, -k) != want:
                return _fail(f"v({r},{-k})", want, tri.value(r, -k))
        if tri.value(r, 1) != tri.value(r, -1):
            return _fail(f"v({r},1)", tri.value(r, -1), tri.value(r, 1))
        for k in range(2, r + 1):
            want = tri.value(r, k - 1) + tri.value(r - 1, -k + 1)
            if tri.value(r, k) != want:
                return _fail(f"v({r},{k})", want, tri.value(r, k))
    for r in range(1, min(n_max, 8) + 1):
        if tri.positive_sum(r) != fx.SPRINGER_B[r]:
            return _fail(f"positive row sum {r}", fx.SPRINGER_B[r], tri.positive_sum(r))
        if tri.negative_sum(r) != fx.SPRINGER_D[r]:
            return _fail(f"negative row sum {r}", fx.SPRINGER_D[r], tri.negative_sum(r))
    for r in range(1, min(n_max, 6) + 1):
        for k, want in fx.ARNOLD_TRIANGLE[r].items():
            if tri.value(r, k) != want:
                return _fail(f"table cell ({r},{k})", want, tri.value(r, k))
    return None


def check_eq_5(n_max: int):
    tri = arnold_poly(n_max)
    ints = arnold(n_max)
    for r in range(1, n_max + 1):
        for k in tri.signed_columns(r):
            p = tri.value(r, k)
            if not p.is_zero() and p.min_exp < 0:
                return _fail(f"V({r},{k}) exponent", ">= 0", p.min_exp)
            if p(1) != ints.value(r, k):
                return _fail(f"V({r},{k}) at t=1", ints.value(r, k), p(1))
            if any(c < 0 for c in p.coeffs):
                return _fail(f"V({r},{k}) coefficients", ">= 0", str(p))
            if k > 0 and not p.is_zero():
                want_parity = 0 if r % 2 == 1 else 1
                if any(c != 0 and e % 2 != want_parity for e, c in p.terms().items()):
                    return _fail(f"V({r},{k}) parity", f"exponents = {want_parity} mod 2", str(p))
    for r in range(1, min(n_max, 5) + 1):
        for k, terms in fx.V_TRIANGLE[r].items():
            want = LaurentPoly.from_terms(terms)
            if tri.value(r, k) != want:
                return _fail(f"table cell ({r},{k})", want, tri.value(r, k))
    return None


def check_thm_1_1(n_max: int):
    for n in range(1, n_max + 1):
        tri = arnold(n)
        counts = Counter(w[0] for w in enumerate_family("snakes", n))
        for k in tri.signed_columns(n):
            if counts[k] != tri.value(n, k):
                return _fail(f"n={n}, first entry {k}", tri.value(n, k), counts[k])
    return None


def check_thm_1_2(n_max: int):
    for n in range(1, n_max + 1):
        if not hoffman_triangle_identity(n):
            return _fail(f"n={n}", "triangle sums equal Q_n and P_n - t Q_n", "mismatch")
    for n in range(1, min(n_max, 8) + 1):
        p1, q1 = hoffman_P(n)(1), hoffman_Q(n)(1)
        if p1 != 2**n * fx.EULER[n]:
            return _fail(f"P_{n}(1)", 2**n * fx.EULER[n], p1)
        if q1 != fx.SPRINGER_B[n]:
            return _fail(f"Q_{n}(1)", fx.SPRINGER_B[n], q1)
        if p1 - q1 != fx.SPRINGER_D[n]:
            return _fail(f"P_{n}(1)-Q_{n}(1)", fx.SPRINGER_D[n], p1 - q1)
    return None


def check_thm_2_2(n_max: int):
    for n in range(1, n_max + 1):
        trees = enumerate_trees(n)
        p = _family_poly(trees, emp)
        if p != hoffman_P(n):
            return _fail(f"P_{n} from trees", hoffman_P(n), p)
        q = _family_poly((t for t in trees if not is_starred(t)),
                         lambda t: emp(t) - 1)
        if q != hoffman_Q(n):
            return _fail(f"Q_{n} from trees", hoffman_Q(n), q)
    return None


def check_thm_2_3(n_max: int):
    for n in range(1, n_max + 1):
        tri = arnold_poly(n)
        sums = _class_sums(enumerate_trees(n))
        for k in range(1, n + 1):
            circ = sums.get((False, n - k + 1), LaurentPoly.zero())
            star = sums.get((True, n - k + 1), LaurentPoly.zero())
            if circ != tri.value(n, k):
                return _fail(f"circ sum n={n} k={k}", tri.value(n, k), circ)
            if star != tri.value(n, -k):
                return _fail(f"star sum n={n} k={k}", tri.value(n, -k), star)
    return None


def check_thm_2_7(n_max: int):
    for n in range(1, n_max + 1):
        got = _family_poly(enumerate_family("rsi", n), lambda w: n - 2 * npk(w))
        if got != hoffman_R(n):
            return _fail(f"R_{n} over type-I Simsun", hoffman_R(n), got)
    return None


def _signed_cells(n: int, b_family: str, b_anchor: str, d_family: str,
                  d_anchor: str, stat):
    """Row n of the polynomial triangle from the refined Simsun families:
    column k (B side) and -k (D side) from the members anchored at
    n - k + 1 and -(n - k + 1)."""
    tri = arnold_poly(n)
    for k in range(1, n + 1):
        b = _family_poly(enumerate_family(b_family, n, (b_anchor, n - k + 1)),
                         lambda w: n + 1 - 2 * stat(w))
        if b != tri.value(n, k):
            return _fail(f"B-side n={n} k={k}", tri.value(n, k), b)
        d = _family_poly(enumerate_family(d_family, n, (d_anchor, -(n - k + 1))),
                         lambda w: n - 1 - 2 * stat(w))
        if d != tri.value(n, -k):
            return _fail(f"D-side n={n} k={k}", tri.value(n, -k), d)
    return None


def check_thm_2_10(n_max: int):
    for n in range(1, n_max + 1):
        bad = _signed_cells(n, "rsi-b", "last", "rsi-d", "last", npk)
        if bad:
            return bad
    return None


def check_thm_2_13(n_max: int):
    for n in range(1, n_max + 1):
        got = _family_poly(enumerate_family("rsii", n), lambda w: n - 2 * nva(w))
        if got != hoffman_R(n):
            return _fail(f"R_{n} over type-II Simsun", hoffman_R(n), got)
        bad = _signed_cells(n, "rsii-b", "gae", "rsii-d", "first", nva)
        if bad:
            return bad
    return None


def check_conj_2_9(n_max: int):
    for n in range(1, n_max + 1):
        tri = arnold(n)
        for k in range(1, n + 1):
            count = len(enumerate_family("rsi-b", n, ("last", n - k + 1)))
            if count != tri.value(n, k):
                return _fail(f"n={n} k={k}", tri.value(n, k), count)
    return None


def check_prop_3_1(n_max: int):
    sums = {}
    for n in range(1, n_max + 1):
        trees = enumerate_trees(n)
        prev, sums = sums, _class_sums(trees)
        z = LaurentPoly.zero()
        for k in range(2, n + 1):
            lhs = sums.get((True, k), z)
            rhs = sums.get((True, k - 1), z) + prev.get((False, k - 1), z).shift(-1)
            if lhs != rhs:
                return _fail(f"(i) n={n} k={k}", rhs, lhs)
        if n >= 2:
            if sums.get((False, n), z) != sums.get((True, n), z).shift(2):
                return _fail(f"(ii) n={n}", sums.get((True, n), z).shift(2),
                             sums.get((False, n), z))
        for k in range(1, n):
            lhs = sums.get((False, k), z)
            rhs = sums.get((False, k + 1), z) + prev.get((True, k), z).shift(1)
            if lhs != rhs:
                return _fail(f"(iii) n={n} k={k}", rhs, lhs)
        # exhaustive bijectivity with round trips
        for t in trees:
            if is_starred(t):
                if rmlab(t) >= 2:
                    out, case = psi_star(t)
                    back, c2 = psi_star_inv(out)
                    if back != t or c2 != case:
                        return _fail(f"psi_star round trip {inorder_word(t)}", t, back)
                if rmlab(t) == n:
                    if psi_cap_inv(psi_cap(t)) != t:
                        return _fail(f"psi_cap round trip {inorder_word(t)}", t, "mismatch")
            elif rmlab(t) <= n - 1:
                out, case = psi_circ(t)
                back, c2 = psi_circ_inv(out)
                if back != t or c2 != case:
                    return _fail(f"psi_circ round trip {inorder_word(t)}", t, back)
    return None


def check_cor_3_2(n_max: int):
    sums = _class_sums(enumerate_trees(1)) if n_max >= 2 else {}
    z = LaurentPoly.zero()
    for n in range(2, n_max + 1):
        prev, sums = sums, _class_sums(enumerate_trees(n))
        circ = z  # circ sums of size n - 1 at rmlab 1..k-1
        for k in range(2, n + 1):
            circ = circ + prev.get((False, k - 1), z)
            if sums.get((True, k), z) != circ.shift(-1):
                return _fail(f"n={n} k={k}", circ.shift(-1), sums.get((True, k), z))
    return None


def check_cor_3_3(n_max: int):
    for n in range(1, n_max + 1):
        g = gamma_arrays(n)
        total = g.positive_sum(n) + g.negative_sum(n)
        if total.shift(-1) != hoffman_Q(n):
            return _fail(f"n={n}", hoffman_Q(n), total.shift(-1))
    return None


def check_cor_3_4(n_max: int):
    for n in range(1, n_max + 1):
        g = gamma_arrays(n)
        counts = Counter(w[0] for w in enumerate_family("gamma-snakes", n))
        for k in g.signed_columns(n):
            if counts[k] != g.value(n, k)(1):
                return _fail(f"n={n} first entry {k}", g.value(n, k)(1), counts[k])
        # leftmost-leaf restriction matches the polynomial cells
        sums = _class_sums(filter(in_left_class, enumerate_trees(n)))
        z = LaurentPoly.zero()
        for k in range(1, n + 1):
            if sums.get((False, n - k + 1), z) != g.value(n, k):
                return _fail(f"circ cell n={n} k={k}", g.value(n, k),
                             sums.get((False, n - k + 1), z))
            if sums.get((True, n - k + 1), z) != g.value(n, -k):
                return _fail(f"star cell n={n} k={k}", g.value(n, -k),
                             sums.get((True, n - k + 1), z))
    return None


def check_eq_13(n_max: int):
    for n in range(1, n_max + 1):
        got = _family_poly(enumerate_forests(n), emp_forest)
        if got != hoffman_R(n):
            return _fail(f"R_{n} over forests", hoffman_R(n), got)
    return None


def check_prop_4_2(n_max: int):
    for n in range(1, n_max + 1):
        bad = _bijection_fail(enumerate_family("rsi", n), phi1, phi1_inv,
                              _emp_transport(n, npk), enumerate_forests(n),
                              _fail(f"image coverage n={n}", "all forests", "missing images"))
        if bad:
            return bad
        for k in range(1, n + 1):
            for w in enumerate_family("rsi-b", n, ("last", k)):
                f = phi1(w)
                if not is_all_white(f) or last_root(f) != k:
                    return _fail(f"B-refinement {w}", f"white forest, last root {k}", f)
    # worked example: restriction subwords and image statistics
    w = fx.TYPE1_EXAMPLE
    for j, sub in enumerate(fx.TYPE1_EXAMPLE_SUBWORDS, start=1):
        if subword(w, j) != sub:
            return _fail(f"table subword j={j}", sub, subword(w, j))
    if emp_forest(phi1(w)) != len(w) - 2 * npk(w):
        return _fail("example emp", len(w) - 2 * npk(w), emp_forest(phi1(w)))
    if phi1_inv(phi1(w)) != w:
        return _fail("example round trip", w, phi1_inv(phi1(w)))
    return None


def _onto_star_trees(n_max: int, family: str, anchor: str, fwd, inv, stat):
    """The ``-d`` map sends the members of ``family`` anchored at -k onto
    the size-n star trees with rightmost label k, with n - 1 - 2*stat(w)
    empty leaves."""
    for n in range(2, n_max + 1):
        for k in range(2, n + 1):
            def image_fail(w, t):
                if not is_starred(t) or rmlab(t) != k:
                    return _fail(f"class of {w}", f"star, rightmost {k}", t)
                if emp(t) != n - 1 - 2 * stat(w):
                    return _fail(f"emp of {w}", n - 1 - 2 * stat(w), emp(t))
                return None
            bad = _bijection_fail(enumerate_family(family, n, (anchor, -k)), fwd, inv,
                                  image_fail, enumerate_trees(n, starred=True, rightmost=k),
                                  _fail(f"coverage n={n} k={k}", "all star trees", "missing"))
            if bad:
                return bad
    return None


def check_prop_4_5(n_max: int):
    bad = _onto_star_trees(n_max, "rsi-d", "last", phi1_d, phi1_d_inv, npk)
    if bad:
        return bad
    src, tgt = fx.TYPE1_D_EXAMPLE
    if shrink_last_entry(src) != tgt:
        return _fail("shrinking example", tgt, shrink_last_entry(src))
    return None


def check_thm_4_5(n_max: int):
    for n in range(1, n_max + 1):
        dom = enumerate_family("adi", n + 1)
        cod = set(enumerate_family("rsi", n))
        bad = _bijection_fail(dom, zeta1, zeta1_inv, _member_of(cod, "type-I Simsun member"),
                              cod, _fail(f"coverage n={n}", "all members", "missing"))
        if bad:
            return bad
        for k in range(1, n + 1):
            for w in enumerate_family("adi-b", n + 1, ("last", k + 1)):
                u = zeta1(w)
                if not is_member(u, "rsi-b") or u[-1] != k:
                    return _fail(f"B index of {w}", f"last entry {k}", u)
            for w in enumerate_family("adi-d", n + 1, ("last", -k - 1)):
                u = zeta1(w)
                if not is_member(u, "rsi-d") or u[-1] != -k:
                    return _fail(f"D index of {w}", f"last entry {-k}", u)
    return _worked_example(zeta1, zeta1_inv, fx.ZETA1_EXAMPLE)


def check_prop_5_1(n_max: int):
    for n in range(1, n_max + 1):
        bad = _bijection_fail(enumerate_family("rsii", n), phi2, phi2_inv,
                              _emp_transport(n, nva), enumerate_forests(n),
                              _fail(f"image coverage n={n}", "all forests", "missing images"))
        if bad:
            return bad
        for w in enumerate_family("rsii-b", n):
            f = phi2(w)
            if not is_all_white(f) or last_root(f) != gae(w):
                return _fail(f"B-refinement {w}", f"white forest, last root {gae(w)}", f)
    w = fx.TYPE2_EXAMPLE
    for j, sub in enumerate(fx.TYPE2_EXAMPLE_SUBWORDS, start=1):
        if subword(w, j) != sub:
            return _fail(f"table subword j={j}", sub, subword(w, j))
    if phi2_inv(phi2(w)) != w:
        return _fail("example round trip", w, phi2_inv(phi2(w)))
    return None


def check_prop_5_3(n_max: int):
    return _onto_star_trees(n_max, "rsii-d", "first", phi2_d, phi2_d_inv, nva)


def check_thm_5_4(n_max: int):
    for n in range(1, n_max + 1):
        dom = enumerate_family("adii", n + 1)
        cod = set(enumerate_family("rsii", n))
        bad = _bijection_fail(dom, zeta2, zeta2_inv, _member_of(cod, "type-II Simsun member"),
                              cod, _fail(f"coverage n={n}", "all members", "missing"))
        if bad:
            return bad
        for k in range(1, n + 1):
            for w in enumerate_family("adii-b", n + 1, ("last", k + 1)):
                u = zeta2(w)
                if not is_member(u, "rsii-b") or gae(u) != k:
                    return _fail(f"B index of {w}", f"greatest augmenting {k}", u)
            for w in enumerate_family("adii-d", n + 1, ("first", -k - 1)):
                u = zeta2(w)
                if not is_member(u, "rsii-d") or u[0] != -k:
                    return _fail(f"D index of {w}", f"first entry {-k}", u)
    return _worked_example(zeta2, zeta2_inv, fx.ZETA2_EXAMPLE)


def check_thm_6_1(n_max: int):
    for n in range(1, n_max + 1):
        got = weighted_sum_trees(n)
        want = qpoly_P(n)
        if got != want:
            return _fail(f"n={n}", want.to_json(), got.to_json())
    if not any(tree_step_weights(t) == fx.TREE_WEIGHT_EXAMPLE for t in enumerate_trees(5)):
        return _fail("weight example", fx.TREE_WEIGHT_EXAMPLE, "not attained")
    return None


def check_thm_6_2(n_max: int):
    for n in range(1, n_max + 1):
        got = weighted_sum_forests(n)
        if got != qpoly_R(n):
            return _fail(f"all forests n={n}", qpoly_R(n).to_json(), got.to_json())
        gotw = weighted_sum_forests(n, white_only=True)
        if gotw != qpoly_Q(n):
            return _fail(f"white forests n={n}", qpoly_Q(n).to_json(), gotw.to_json())
    if not any(forest_step_weights(f) == fx.FOREST_WEIGHT_EXAMPLE
               for f in enumerate_forests(6)):
        return _fail("weight example", fx.FOREST_WEIGHT_EXAMPLE, "not attained")
    return None


def check_tables_fixtures(n_max: int):
    e = entringer(8)
    for n in range(1, 9):
        if e.row_sum(n) != fx.EULER[n]:
            return _fail(f"zigzag row sum {n}", fx.EULER[n], e.row_sum(n))
    a = arnold(6)
    for n, row in fx.ARNOLD_TRIANGLE.items():
        for k, v in row.items():
            if a.value(n, k) != v:
                return _fail(f"signed triangle ({n},{k})", v, a.value(n, k))
    V = arnold_poly(5)
    for n, row in fx.V_TRIANGLE.items():
        for k, terms in row.items():
            if V.value(n, k) != LaurentPoly.from_terms(terms):
                return _fail(f"polynomial triangle ({n},{k})",
                             LaurentPoly.from_terms(terms), V.value(n, k))
    G = gamma_arrays(6)
    for n, row in fx.GAMMA_POLY_TRIANGLE.items():
        for k, terms in row.items():
            if G.value(n, k) != LaurentPoly.from_terms(terms):
                return _fail(f"restricted triangle ({n},{k})",
                             LaurentPoly.from_terms(terms), G.value(n, k))
    for n, row in fx.GAMMA_TRIANGLE.items():
        for k, v in row.items():
            if G.value(n, k)(1) != v:
                return _fail(f"restricted counts ({n},{k})", v, G.value(n, k)(1))
    for n in range(1, 6):
        for fn, table, name in ((hoffman_P, fx.P_LIST, "P"),
                                (hoffman_Q, fx.Q_LIST, "Q"),
                                (hoffman_R, fx.R_LIST, "R")):
            if fn(n) != LaurentPoly.from_terms(table[n]):
                return _fail(f"{name}_{n}", LaurentPoly.from_terms(table[n]), fn(n))
    for n in range(1, 4):
        for fn, table, name in ((qpoly_P, fx.P_Q_LIST, "P"),
                                (qpoly_Q, fx.Q_Q_LIST, "Q"),
                                (qpoly_R, fx.R_Q_LIST, "R")):
            if fn(n) != _fixture_bipoly(table[n]):
                return _fail(f"q-{name}_{n}", _fixture_bipoly(table[n]).to_json(),
                             fn(n).to_json())
    for w, table in ((fx.TYPE1_EXAMPLE, fx.TYPE1_EXAMPLE_SUBWORDS),
                     (fx.TYPE2_EXAMPLE, fx.TYPE2_EXAMPLE_SUBWORDS)):
        for j, sub in enumerate(table, start=1):
            if subword(w, j) != sub:
                return _fail(f"subword table {w} level {j}", sub, subword(w, j))
    return None


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
    if check_id not in CHECKS:
        raise ValueError(f"unknown check id {check_id!r}")
    default, fn = CHECKS[check_id]
    depth = default if n_max is None else int(n_max)
    _bind_reads(fn.__code__)
    start = time.perf_counter()
    try:
        counterexample = fn(depth)
    except LimitError as exc:
        counterexample, status = {"error": str(exc)}, "error"
    else:
        status = "pass" if counterexample is None else "fail"
    elapsed = time.perf_counter() - start
    return CheckReport(check_id=check_id, n_range=[1, depth], status=status,
                       counterexample=counterexample, elapsed=round(elapsed, 4))


def run_all(n_max: int | None = None) -> list[CheckReport]:
    return [run_check(cid, n_max) for cid in sorted(CHECKS)]
