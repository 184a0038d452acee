"""Operators D and U, the q-polynomial families, and object weights."""
import gc
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snake_atlas import fixtures as fx
from snake_atlas import qcalculus, trees
from snake_atlas.errors import LimitError
from snake_atlas.forests import (BLACK, WHITE, emp_forest, enumerate_forests,
                                 validate_forest)
from snake_atlas.qcalculus import (BiPoly, Operator, QPoly, _profile,
                                   _profile_counts, _slots, _step_weights,
                                   forest_step_weights, op_D, op_U, qpoly_P,
                                   qpoly_Q, qpoly_R,
                                   tree_step_weights, weight_forest,
                                   weight_tree, weighted_sum_forests,
                                   weighted_sum_trees)
from snake_atlas.trees import (EMPTY, emp, enumerate_trees, nodes_to_tree,
                               validate_tree)
from snake_atlas.triangles import hoffman_P, hoffman_Q, hoffman_R


def bipoly(d):
    m = max(d, default=-1)
    return BiPoly.make([QPoly.make(d.get(i, ())) for i in range(m + 1)])


bipolys = st.dictionaries(
    st.integers(0, 6),
    st.lists(st.integers(-4, 4), max_size=4).map(tuple),
    max_size=5).map(bipoly)


def q_scale(f):
    return BiPoly.make([QPoly.q_power(1) * c for c in f.t_coeffs])


def test_q_integers():
    assert QPoly.q_integer(0) == QPoly.zero()
    assert QPoly.q_integer(1) == QPoly.one()
    assert QPoly.q_integer(3) == QPoly((1, 1, 1))
    assert QPoly.q_integer(4)(1) == 4


@pytest.mark.parametrize("call, message", [
    (lambda: QPoly.q_power(-2), "q-power needs an exponent >= 0"),
    (lambda: BiPoly.t_power(-1), "t-power needs an exponent >= 0"),
    (lambda: BiPoly.monomial(-1, 2), "q-power needs an exponent >= 0"),
    (lambda: BiPoly.monomial(2, -1), "t-power needs an exponent >= 0"),
], ids=["q_power", "t_power", "monomial-q", "monomial-t"])
def test_negative_exponents_are_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_operator_basics():
    assert op_D(BiPoly.t_power(2)) == BiPoly((QPoly.zero(), QPoly.q_integer(2)))
    assert op_D(BiPoly.one()) == BiPoly.zero()
    assert op_U(BiPoly.one()) == BiPoly.t_power(1)


@given(bipolys)
def test_commutation_relation(f):
    # DU - qUD = identity
    assert op_D(op_U(f)) - q_scale(op_U(op_D(f))) == f


def test_operator_words_compose():
    uud = Operator(("UUD",))
    assert uud(BiPoly.t_power(1)) == BiPoly.t_power(2)
    both = Operator(("D",)) + Operator(("UUD",))
    assert both(BiPoly.t_power(1)) == BiPoly.one() + BiPoly.t_power(2)


def test_zeroth_polynomials():
    assert qpoly_P(0) == BiPoly.t_power(1)
    assert qpoly_Q(0) == BiPoly.one()
    assert qpoly_R(0) == BiPoly.one()


@pytest.mark.parametrize("n", range(1, 4))
def test_q_lists(n):
    assert qpoly_P(n) == bipoly(fx.P_Q_LIST[n])
    assert qpoly_Q(n) == bipoly(fx.Q_Q_LIST[n])
    assert qpoly_R(n) == bipoly(fx.R_Q_LIST[n])


@pytest.mark.parametrize("n", range(0, 9))
def test_specializations_at_q1(n):
    assert qpoly_P(n).at_q1() == hoffman_P(n)
    assert qpoly_Q(n).at_q1() == hoffman_Q(n)
    assert qpoly_R(n).at_q1() == hoffman_R(n)


@pytest.mark.parametrize("fn, word, start", [(qpoly_P, "UUD", BiPoly.t_power(1)),
                                             (qpoly_Q, "UDU", BiPoly.one()),
                                             (qpoly_R, "DUU", BiPoly.one())],
                         ids=["P", "Q", "R"])
def test_q_families_match_their_operator_words(fn, word, start):
    op = Operator(("D", word))
    for n in range(13):
        assert fn(n) == op.iterate(n, start), n


@pytest.mark.parametrize("fn, plain", [(qpoly_P, hoffman_P), (qpoly_Q, hoffman_Q),
                                       (qpoly_R, hoffman_R)], ids=["P", "Q", "R"])
def test_q_families_specialize_to_the_derivative_polynomials(fn, plain):
    for n in range(21):
        assert fn(n).at_q1() == plain(n), n


def test_weights_of_smallest_objects():
    assert weight_tree((1,)) == 0
    assert weight_tree((1, "e", "e")) == 0
    assert weight_forest((("white", 1, "e"),)) == 0
    assert weight_forest((("black", 1, "e"),)) == 1


@pytest.mark.parametrize("fn", [forest_step_weights, weight_forest])
@pytest.mark.parametrize("forest", [(("white", 2, "e"),),
                                    (("black", 1, (3,)),),
                                    (("white", 1, (2, "e", (4,))),)])
def test_forest_weights_reject_labels_outside_1_to_n(fn, forest):
    with pytest.raises(ValueError, match="labels must be exactly 1..n"):
        fn(forest)


def test_published_weight_sequences_are_attained():
    assert sum(fx.TREE_WEIGHT_EXAMPLE) == 7
    assert fx.TREE_WEIGHT_EXAMPLE in {tree_step_weights(t)
                                      for t in enumerate_trees(5)}
    assert sum(fx.FOREST_WEIGHT_EXAMPLE) == 8
    assert fx.FOREST_WEIGHT_EXAMPLE in {forest_step_weights(f)
                                        for f in enumerate_forests(6)}


@pytest.mark.parametrize("n", range(1, 9))
def test_weighted_sums_equal_operator_polynomials(n):
    assert weighted_sum_trees(n) == qpoly_P(n)
    assert weighted_sum_forests(n) == qpoly_R(n)
    assert weighted_sum_forests(n, white_only=True) == qpoly_Q(n)


def test_weighted_sum_trees_at_the_tree_ceiling(monkeypatch):
    monkeypatch.delenv("SNAKE_ATLAS_MAX_N", raising=False)
    assert weighted_sum_trees(9) == qpoly_P(9)


def test_weighted_sums_build_no_tree(monkeypatch):
    """The sums read counted profiles: no tree is enumerated or walked."""
    def refuse(*args, **kwargs):
        raise AssertionError("a weighted sum built or walked a tree")
    for module, name in [(trees, "_keyed_trees"), (trees, "_left_choices"),
                         (qcalculus, "_slots"), (qcalculus, "_profile")]:
        monkeypatch.setattr(module, name, refuse)
    for n in range(1, 7):
        assert weighted_sum_trees(n) == qpoly_P(n)
        assert weighted_sum_forests(n) == qpoly_R(n)
        assert weighted_sum_forests(n, white_only=True) == qpoly_Q(n)


def test_weighted_sum_base_cases():
    assert weighted_sum_forests(1) == bipoly({1: (1, 1)})        # (1+q)t
    assert weighted_sum_forests(2, white_only=True) == bipoly({0: (1,), 2: (1, 1)})


def test_bipoly_json_round_trip():
    f = qpoly_R(3)
    assert BiPoly.from_json(f.to_json()) == f
    assert qpoly_Q(2).to_json() == {"t": [[1], [], [1, 1]]}


# -- the step weights against peel-and-rescan -----------------------------
# The reference peels the object label by label, rebuilding it, and reads
# the empty leaves before each label in a fresh preorder scan.

def _ref_preorder(node, out):
    if node == EMPTY:
        out.append(EMPTY)
        return
    out.append(node[0])
    if len(node) == 3:
        _ref_preorder(node[1], out)
        _ref_preorder(node[2], out)


def _ref_peel_once(node, j):
    if node == EMPTY:
        return node
    if node[0] == j:
        return EMPTY
    if len(node) == 1:
        return node
    return (node[0], _ref_peel_once(node[1], j), _ref_peel_once(node[2], j))


def _ref_empties_before(order, j):
    seen = 0
    for x in order:
        if x == j:
            break
        if x == EMPTY:
            seen += 1
    return seen


def ref_tree_step_weights(tree):
    order = []
    _ref_preorder(tree, order)
    n = len(order) - order.count(EMPTY)
    out = [0] * (n + 1)
    cur = tree
    for j in range(n, 0, -1):
        order = []
        _ref_preorder(cur, order)
        out[j] = _ref_empties_before(order, j)
        cur = _ref_peel_once(cur, j)
    return tuple(out[1:])


def _ref_forest_order(comps):
    order = []
    for _, root, child in comps:
        order.append(root)
        _ref_preorder(child, order)
    return order


def ref_forest_step_weights(forest):
    comps = list(forest)
    order = _ref_forest_order(comps)
    n = len(order) - order.count(EMPTY)
    out = [0] * (n + 1)
    for j in range(n, 0, -1):
        bonus = any(root == j and color == BLACK for color, root, _ in comps)
        out[j] = _ref_empties_before(_ref_forest_order(comps), j) + bonus
        comps = [(color, root, _ref_peel_once(child, j))
                 for color, root, child in comps if root != j]
    return tuple(out[1:])


def grown_tree(rng, n):
    """A random complete increasing tree on 1..n: each label k in turn
    fills an empty slot or hangs under a labelled leaf, as a labelled
    leaf or with two empty leaves."""
    nodes = {1: rng.choice((None, [EMPTY, EMPTY]))}
    for k in range(2, n + 1):
        v, i = rng.choice([(v, i) for v, kids in nodes.items() for i in (0, 1)
                           if kids is None or kids[i] == EMPTY])
        if nodes[v] is None:
            nodes[v] = [EMPTY, EMPTY]
        nodes[v][i] = k
        nodes[k] = rng.choice((None, [EMPTY, EMPTY]))
    return nodes_to_tree(1, nodes)


def grown_forest(rng, n, white_only):
    """Cut a random tree along its rightmost path and color the roots."""
    comps, node = [], grown_tree(rng, n)
    while node != EMPTY:
        color = WHITE if white_only else rng.choice((BLACK, WHITE))
        comps.append((color, node[0], EMPTY if len(node) == 1 else node[1]))
        node = EMPTY if len(node) == 1 else node[2]
    return tuple(comps)


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_step_weights_match_peel_and_rescan(n):
    for t in enumerate_trees(n):
        assert tree_step_weights(t) == ref_tree_step_weights(t), t


@pytest.mark.parametrize("white_only", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_forest_step_weights_match_peel_and_rescan(n, white_only):
    for f in enumerate_forests(n, white_only=white_only):
        assert forest_step_weights(f) == ref_forest_step_weights(f), f


def test_step_weights_match_peel_and_rescan_at_large_n():
    rng = random.Random(20211)
    for _ in range(100):
        n = rng.randint(20, 40)
        t = grown_tree(rng, n)
        assert validate_tree(t) == n
        assert tree_step_weights(t) == ref_tree_step_weights(t), t
        f = grown_forest(rng, n, white_only=rng.random() < 0.5)
        assert validate_forest(f) == n
        assert forest_step_weights(f) == ref_forest_step_weights(f), f


def _monomial_counts(f):
    return Counter({(w, e): c for e, qp in enumerate(f.t_coeffs)
                    for w, c in enumerate(qp.coeffs) if c})


@pytest.mark.parametrize("kind, n", [("trees", 6), ("forests", 6), ("white", 6),
                                     ("trees", 7), ("white", 7)])
def test_counted_sums_match_per_object_counts(kind, n):
    """The decomposed sums count exactly the (weight, emp) pairs of the
    objects, weighed one at a time by the validated per-object oracle."""
    if kind == "trees":
        want = Counter((weight_tree(t), emp(t)) for t in enumerate_trees(n))
        got = weighted_sum_trees(n)
    else:
        white_only = kind == "white"
        want = Counter((weight_forest(f), emp_forest(f))
                       for f in enumerate_forests(n, white_only=white_only))
        got = weighted_sum_forests(n, white_only=white_only)
    assert _monomial_counts(got) == want


@pytest.mark.parametrize("call, error, message", [
    (lambda: weighted_sum_forests(9), LimitError,
     "forest enumeration: n=9 exceeds ceiling 8"),
    (lambda: weighted_sum_trees(10), LimitError,
     "tree enumeration: n=10 exceeds ceiling 9"),
    (lambda: weighted_sum_trees(4, max_n=3), LimitError,
     "tree enumeration: n=4 exceeds ceiling 3"),
    (lambda: weighted_sum_forests(0), ValueError, "n must be >= 1"),
])
def test_weighted_sums_keep_their_size_errors(monkeypatch, call, error, message):
    monkeypatch.delenv("SNAKE_ATLAS_MAX_N", raising=False)
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("call", [lambda: weighted_sum_trees(6),
                                  lambda: weighted_sum_forests(6),
                                  lambda: weighted_sum_forests(6, white_only=True)],
                         ids=["trees", "forests", "white"])
def test_counted_sums_leave_no_cyclic_garbage(call):
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def ref_region_weight(node, parent, after, n):
    """The counted sums' region weight before profiles (frozen): the slots
    of ``node`` hung under ``parent``, counted against the labels inside
    it and the labels ``after`` read after it."""
    slots = []
    _slots(node, parent, slots)
    slots.extend((j, None) for j in after)
    return sum(_step_weights(slots, n))


def _relabel(node, labels):
    """The tree on 1..k with label i renamed ``labels[i - 1]``."""
    if node == EMPTY:
        return node
    return (labels[node[0] - 1],) + tuple(_relabel(c, labels) for c in node[1:])


def test_profile_counts_match_the_walked_profiles():
    counts = _profile_counts(6)
    assert len(counts) == 7
    for k in range(7):
        walked = Counter(_profile(t, k) for t in (enumerate_trees(k) if k else [EMPTY]))
        assert counts[k] == walked, k


@pytest.mark.parametrize("k", range(6))
def test_profiles_give_the_region_weight_of_every_split(k):
    """A tree on k labels under label 1, with up to 3 later labels in every
    position among its own, weighs its internal weight plus cover[g] for
    each later label with g of the tree's labels below it."""
    for tree in enumerate_trees(k) if k else [EMPTY]:
        internal, empties, cover = _profile(tree, k)
        assert empties == emp(tree)
        for a in range(4):
            n = k + a + 1
            for below in combinations(range(2, n + 1), k):
                after = [j for j in range(2, n + 1) if j not in below]
                got = internal + sum(cover[sum(b < j for b in below)] for j in after)
                assert got == ref_region_weight(_relabel(tree, below), 1, after, n), \
                    (tree, below)


@pytest.mark.parametrize("n", range(1, 6))
def test_step_weights_leave_the_cover_of_every_slot(n):
    """The cover list left by the scan counts, for each j in 0..n, the
    slots with a parent p <= j < their label (n + 1 for an empty slot),
    for every tree hung under 0 and under None and every forest."""
    cases = []
    for tree in enumerate_trees(n):
        for parent in (0, None):
            slots = []
            _slots(tree, parent, slots)
            cases.append(slots)
    for forest in enumerate_forests(n):
        slots = []
        for _, root, child in forest:
            slots.append((root, None))
            _slots(child, root, slots)
        cases.append(slots)
    for slots in cases:
        cover = []
        _step_weights(slots, n, cover)
        assert cover == [sum(p is not None and p <= j < (n + 1 if x == EMPTY else x)
                             for x, p in slots) for j in range(n + 1)], slots
