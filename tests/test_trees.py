"""Tree objects: enumeration, statistics, grade maps, snake correspondence."""
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snake_atlas import fixtures as fx
from snake_atlas.errors import LimitError, MembershipError
from snake_atlas.permutations import enumerate_family
from snake_atlas.polynomials import LaurentPoly
from snake_atlas.trees import (EMPTY, _from_word, _lower_rightmost_leaf,
                               _raise_rightmost_leaf, emp, enumerate_trees,
                               in_left_class, inorder_word, is_starred,
                               nodes_to_tree,
                               psi_cap, psi_cap_inv, psi_circ, psi_circ_inv,
                               psi_star, psi_star_inv, rmlab, snake_to_tree,
                               tree_from_json, tree_from_word,
                               tree_to_json, tree_to_snake, tree_to_word_json,
                               validate_tree)
from snake_atlas.triangles import arnold_poly, hoffman_P


def flip(tree):
    """Mirror the tree horizontally: the tree of the reversed word."""
    return _from_word(inorder_word(tree)[::-1])


def word_sort_key(word) -> tuple:
    """An inorder word with ``"e"`` read as 0: the canonical order of trees."""
    return tuple(0 if x == EMPTY else x for x in word)


def tree_nodes(tree):
    """Return (root_label, nodes) with nodes[k] = None | [left, right],
    child slots holding EMPTY or a label: the node map that
    ``trees.nodes_to_tree`` reads back."""
    nodes = {}
    todo = [tree]
    while todo:
        node = todo.pop()
        if len(node) == 1:
            nodes[node[0]] = None
            continue
        k, l, r = node
        nodes[k] = [l if l == EMPTY else l[0], r if r == EMPTY else r[0]]
        todo += [c for c in (r, l) if c != EMPTY]
    return tree[0], nodes


def _replace_nth_empty(tree, idx, repl):
    # preorder replacement of the idx-th empty leaf
    state = {"i": -1}

    def walk(node):
        if node == EMPTY:
            state["i"] += 1
            return repl if state["i"] == idx else node
        if len(node) == 1:
            return node
        return (node[0], walk(node[1]), walk(node[2]))

    return walk(tree)


@st.composite
def trees(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    t = EMPTY
    for j in range(1, n + 1):
        empties = emp(t) if t != EMPTY else 1
        if empties == 0:
            break  # every leaf is labelled; the tree cannot grow further
        idx = draw(st.integers(0, empties - 1))
        grow = draw(st.booleans())
        node = (j, EMPTY, EMPTY) if grow else (j,)
        t = node if t == EMPTY else _replace_nth_empty(t, idx, node)
    return t


def keyset(ts):
    return sorted(word_sort_key(inorder_word(t)) for t in ts)


def test_enumeration_counts():
    assert len(enumerate_trees(3)) == 16
    for n in range(1, 7):
        assert len(enumerate_trees(n)) == 2**n * fx.EULER[n]


def test_size_one_trees():
    assert set(enumerate_trees(1)) == {(1,), (1, EMPTY, EMPTY)}
    assert is_starred((1,)) and rmlab((1,)) == 1
    assert not is_starred((1, EMPTY, EMPTY)) and rmlab((1, EMPTY, EMPTY)) == 1
    assert emp((1,)) == 0 and emp((1, EMPTY, EMPTY)) == 2 and emp(EMPTY) == 1


def test_class_counts_at_n3():
    c = Counter((is_starred(t), rmlab(t)) for t in enumerate_trees(3))
    assert c[(False, 1)] == 4 and c[(False, 2)] == 4 and c[(False, 3)] == 3
    assert c[(True, 3)] == 3 and c[(True, 2)] == 2 and c[(True, 1)] == 0


def test_emp_sum_is_tangent_polynomial():
    total = LaurentPoly.zero()
    for t in enumerate_trees(3):
        total = total + LaurentPoly.t_power(emp(t))
    assert total == hoffman_P(3) == LaurentPoly.from_terms({0: 2, 2: 8, 4: 6})


def _labelled_leaves(tree):
    if tree == EMPTY:
        return 0
    if len(tree) == 1:
        return 1
    return _labelled_leaves(tree[1]) + _labelled_leaves(tree[2])


@pytest.mark.parametrize("n", range(1, 7))
def test_emp_counts_labelled_leaves(n):
    for t in enumerate_trees(n):
        assert emp(t) == n + 1 - 2 * _labelled_leaves(t)


def test_enumeration_ceiling():
    with pytest.raises(LimitError, match="ceiling 9"):
        enumerate_trees(10)


@given(trees())
def test_inorder_word_round_trip(t):
    assert tree_from_word(inorder_word(t)) == t
    assert tree_from_json(tree_to_json(t)) == t
    assert tree_from_json(tree_to_word_json(t)) == t


def ref_tree_from_word(word):
    """Frozen reference: split each segment at its minimum label."""
    word = tuple(word)

    def build(seg):
        if len(seg) == 1 and seg[0] == EMPTY:
            return EMPTY
        labels = [(x, i) for i, x in enumerate(seg) if x != EMPTY]
        if not labels:
            raise ValueError("word segment without a label")
        k, i = min(labels)
        left, right = seg[:i], seg[i + 1:]
        if not left and not right:
            return (k,)
        if not left or not right:
            raise ValueError("labelled node must have zero or two children")
        return (k, build(left), build(right))

    tree = build(word)
    validate_tree(tree)
    return tree


def test_word_builder_matches_the_min_split_reference():
    """Every word of length <= 7 over "e", 1..4 (97,656 words): the same
    tree, or a ValueError from both."""
    built = 0
    for m in range(8):
        for word in itertools.product((EMPTY, 1, 2, 3, 4), repeat=m):
            try:
                expected = ref_tree_from_word(word)
            except ValueError:
                with pytest.raises(ValueError):
                    tree_from_word(word)
                continue
            assert tree_from_word(word) == expected, word
            built += 1
    assert built == sum(len(inorder_word(t)) <= 7 for n in range(1, 5)
                        for t in enumerate_trees(n))


def test_invalid_trees_rejected():
    with pytest.raises(ValueError):
        validate_tree((2, (1,), EMPTY))  # decreasing
    with pytest.raises(ValueError):
        validate_tree((1, (3,), EMPTY))  # label gap
    with pytest.raises(ValueError):
        tree_from_word((1, 2))  # incomplete node


def test_psi_star_small_example():
    out, case = psi_star((1, EMPTY, (2,)))
    assert case == "b" and out == (1, EMPTY, EMPTY)


def test_psi_circ_oracle_at_n2():
    # expected image set computed by hand: the bare leaf and the only
    # circ tree with rightmost label 2
    images = {psi_circ(t)[0] for t in enumerate_trees(2, starred=False, rightmost=1)}
    assert images == {(1,), (1, EMPTY, (2, EMPTY, EMPTY))}


def test_psi_cap_counts():
    t33_star = enumerate_trees(3, starred=True, rightmost=3)
    t33_circ = enumerate_trees(3, starred=False, rightmost=3)
    assert len(t33_star) == len(t33_circ) == 3
    assert keyset(psi_cap(t) for t in t33_star) == keyset(t33_circ)


@pytest.mark.parametrize("n", range(1, 6))
def test_psi_maps_are_bijections(n):
    by_class = {}
    for t in enumerate_trees(n):
        by_class.setdefault((is_starred(t), rmlab(t)), []).append(t)
    prev = enumerate_trees(n - 1) if n >= 2 else []
    for k in range(2, n + 1):
        images = []
        for t in by_class.get((True, k), []):
            out, case = psi_star(t)
            delta = emp(out) - emp(t)
            assert (case, delta) in {("a", 0), ("b", 1)}
            assert psi_star_inv(out) == (t, case)
            images.append(out)
        target = by_class.get((True, k - 1), []) + \
            [t for t in prev if not is_starred(t) and rmlab(t) == k - 1]
        assert keyset(images) == keyset(target)
    for k in range(1, n):
        images = []
        for t in by_class.get((False, k), []):
            out, case = psi_circ(t)
            delta = emp(out) - emp(t)
            assert (case, delta) in {("a", 0), ("b-branch", 0), ("b-leaf", -1)}
            assert psi_circ_inv(out) == (t, case)
            images.append(out)
        target = by_class.get((False, k + 1), []) + \
            [t for t in prev if is_starred(t) and rmlab(t) == k]
        assert keyset(images) == keyset(target)
    for t in by_class.get((True, n), []):
        out = psi_cap(t)
        assert emp(out) == emp(t) + 2
        assert psi_cap_inv(out) == t


def test_psi_domain_errors():
    with pytest.raises(MembershipError):
        psi_star((1, EMPTY, EMPTY))
    with pytest.raises(MembershipError):
        psi_circ((1,))
    with pytest.raises(MembershipError):
        psi_cap((1, (2,), EMPTY))


@pytest.mark.parametrize("fn, tree", [
    (psi_star, (1, EMPTY, (3,))),               # label gap
    (psi_star, (1, (2,), (2,))),                # repeated label
    (psi_star_inv, (2, EMPTY, (1,))),           # decreasing
    (psi_star_inv, (1, (2,), (2, EMPTY, EMPTY))),
    (psi_circ, (1, (3,), EMPTY)),
    (psi_circ_inv, (1, EMPTY, (1,))),
    (psi_circ_inv, (1, (3, EMPTY, EMPTY), EMPTY)),
    (psi_cap, (1, EMPTY)),                      # one child
    (psi_cap, (1, (1,), (3,))),
    (psi_cap_inv, (1, (1,), (3, EMPTY, EMPTY))),
])
def test_psi_maps_validate_their_tree(fn, tree):
    with pytest.raises(ValueError) as expected:
        validate_tree(tree)
    with pytest.raises(ValueError) as got:
        fn(tree)
    assert (type(got.value), str(got.value)) == (ValueError, str(expected.value))


def test_snake_correspondence_examples():
    for word, snake in fx.GAMMA_EXAMPLES:
        t = tree_from_word(word)
        assert tree_to_snake(t) == snake
        assert snake_to_tree(snake) == t
    assert tree_to_snake((1,)) == (-1,)
    assert tree_to_snake((1, EMPTY, EMPTY)) == (1,)


def test_snake_correspondence_rejects_non_snakes():
    with pytest.raises(MembershipError):
        snake_to_tree((1, 2))


# The two-pass gamma maps, frozen as the oracle for the one-pass maps in
# trees: tree_to_snake counts all empty leaves first, and snake_to_tree
# places them from per-label parity and gap arrays.

def ref_tree_to_snake(tree):
    n = validate_tree(tree)
    word = inorder_word(tree)
    total_e = word.count(EMPTY)
    seen_e = 0
    out = []
    for x in word:
        if x == EMPTY:
            seen_e += 1
            continue
        after = total_e - seen_e
        sign = 1 if after % 2 == 1 else -1
        out.append(sign * (n - x + 1))
    return tuple(reversed(out))


def ref_snake_to_tree(w):
    """For an alternating window ``w``."""
    n = len(w)
    rev = tuple(reversed(w))
    labels = [n - abs(x) + 1 for x in rev]
    parity = [(1 if x > 0 else 0) for x in rev]  # odd count <=> positive sign
    gaps = [0] * (n + 1)  # empty-leaf count before first label and after each
    for p in range(n - 1):
        gaps[p + 1] = parity[p] ^ parity[p + 1]
    gaps[n] = parity[n - 1]
    total_known = sum(gaps[1:])
    gaps[0] = (n + 1 - total_known) % 2
    word = [EMPTY] * gaps[0]
    for p in range(n):
        word.append(labels[p])
        word.extend([EMPTY] * gaps[p + 1])
    return _from_word(word)


@pytest.mark.parametrize("n", range(1, 8))
def test_gamma_maps_match_the_two_pass_reference(n):
    for t in enumerate_trees(n):
        assert tree_to_snake(t) == ref_tree_to_snake(t), t
    for s in enumerate_family("snakes", n):
        assert snake_to_tree(s) == ref_snake_to_tree(s), s


@pytest.mark.parametrize("n", range(1, 7))
def test_snake_correspondence_is_a_bijection(n):
    trees_n = enumerate_trees(n)
    snakes = set(enumerate_family("snakes", n))
    seen = set()
    for t in trees_n:
        s = tree_to_snake(t)
        assert s in snakes and s not in seen
        seen.add(s)
        assert snake_to_tree(s) == t
        k = rmlab(t)
        assert s[0] == (-(n - k + 1) if is_starred(t) else n - k + 1)
        assert in_left_class(t) == ((-1) ** n * s[-1] < 0)
    assert seen == snakes


@pytest.mark.parametrize("n", range(1, 7))
def test_flip_exchanges_left_class_with_circ_class(n):
    left = LaurentPoly.zero()
    circ = LaurentPoly.zero()
    for t in enumerate_trees(n):
        assert flip(flip(t)) == t
        if in_left_class(t):
            left = left + LaurentPoly.t_power(emp(t))
        if not is_starred(t):
            circ = circ + LaurentPoly.t_power(emp(t))
    assert left == circ


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sums_give_polynomial_triangle(n):
    V = arnold_poly(n)
    sums = {}
    for t in enumerate_trees(n):
        key = (is_starred(t), rmlab(t))
        sums[key] = sums.get(key, LaurentPoly.zero()) + LaurentPoly.t_power(emp(t))
    for k in range(1, n + 1):
        assert sums.get((False, n - k + 1), LaurentPoly.zero()) == V.value(n, k)
        assert sums.get((True, n - k + 1), LaurentPoly.zero()) == V.value(n, -k)


# -- the psi maps and rightmost-leaf helpers against a node-map reference --
# The reference turns the whole tree into the mutable node map, finds
# parents in a full parent map and rebuilds every node; it pins the exact
# images and case tags, not only that the maps are inverse bijections.

def _ref_map(tree, f):
    if tree == EMPTY:
        return tree
    if len(tree) == 1:
        return (f(tree[0]),)
    return (f(tree[0]), _ref_map(tree[1], f), _ref_map(tree[2], f))


def _ref_swap(tree, a, b):
    return _ref_map(tree, lambda x: b if x == a else a if x == b else x)


def _ref_shift(tree, lo, delta):
    return _ref_map(tree, lambda x: x + delta if x >= lo else x)


def _ref_parents(nodes):
    return {c: k for k, kids in nodes.items() if kids for c in kids if c != EMPTY}


def ref_psi_star(tree):
    if not is_starred(tree):
        raise MembershipError("psi_star needs a tree whose rightmost leaf is labelled")
    k = rmlab(tree)
    if k < 2:
        raise MembershipError("psi_star is undefined at rightmost label 1")
    root, nodes = tree_nodes(tree)
    if _ref_parents(nodes).get(k) != k - 1:
        return _ref_swap(tree, k - 1, k), "a"
    kids = nodes[k - 1]
    kids[kids.index(k)] = EMPTY
    del nodes[k]
    return _ref_shift(nodes_to_tree(root, nodes), k + 1, -1), "b"


def ref_psi_star_inv(tree):
    k = rmlab(tree) + 1
    if is_starred(tree):
        if k > len(tree_nodes(tree)[1]):
            raise MembershipError("no room to swap the rightmost label up")
        return _ref_swap(tree, k - 1, k), "a"
    root, nodes = tree_nodes(_ref_shift(tree, k, 1))
    nodes[k - 1][1] = k
    nodes[k] = None
    return nodes_to_tree(root, nodes), "b"


def ref_psi_circ(tree):
    if is_starred(tree):
        raise MembershipError("psi_circ needs a tree whose rightmost leaf is empty")
    root, nodes = tree_nodes(tree)
    k = rmlab(tree)
    if k >= len(nodes):
        raise MembershipError("psi_circ is undefined at rightmost label n")
    if _ref_parents(nodes).get(k + 1) != k:
        return _ref_swap(tree, k, k + 1), "a"
    if nodes[k + 1] is None:
        del nodes[k + 1]
        nodes[k] = None
        return _ref_shift(nodes_to_tree(root, nodes), k + 2, -1), "b-leaf"
    t1, t2 = nodes[k + 1]
    nodes[k] = [t1, k + 1]
    nodes[k + 1] = [t2, EMPTY]
    return nodes_to_tree(root, nodes), "b-branch"


def ref_psi_circ_inv(tree):
    k = rmlab(tree)
    if is_starred(tree):
        root, nodes = tree_nodes(_ref_shift(tree, k + 1, 1))
        nodes[k] = [k + 1, EMPTY]
        nodes[k + 1] = None
        return nodes_to_tree(root, nodes), "b-leaf"
    if k < 2:
        raise MembershipError("psi_circ_inv is undefined at rightmost label 1")
    j, k = k, k - 1
    root, nodes = tree_nodes(tree)
    if _ref_parents(nodes).get(j) != k:
        return _ref_swap(tree, k, j), "a"
    nodes[j] = [nodes[k][0], nodes[j][0]]
    nodes[k] = [j, EMPTY]
    return nodes_to_tree(root, nodes), "b-branch"


def ref_psi_cap(tree):
    root, nodes = tree_nodes(tree)
    n = len(nodes)
    if not is_starred(tree) or rmlab(tree) != n:
        raise MembershipError("psi_cap needs a star-class tree with rightmost label n")
    nodes[n] = [EMPTY, EMPTY]
    return nodes_to_tree(root, nodes)


def ref_psi_cap_inv(tree):
    root, nodes = tree_nodes(tree)
    n = len(nodes)
    if is_starred(tree) or rmlab(tree) != n:
        raise MembershipError("psi_cap_inv needs a circ-class tree with rightmost label n")
    nodes[n] = None
    return nodes_to_tree(root, nodes)


def ref_label_rightmost_leaf(tree, k):
    if tree[2] == EMPTY:
        return (tree[0], tree[1], (k,))
    return (tree[0], tree[1], ref_label_rightmost_leaf(tree[2], k))


def ref_unlabel_rightmost_leaf(tree):
    if len(tree[2]) == 1:
        return (tree[0], tree[1], EMPTY)
    return (tree[0], tree[1], ref_unlabel_rightmost_leaf(tree[2]))


PSI_AND_REFERENCE = [(psi_star, ref_psi_star), (psi_star_inv, ref_psi_star_inv),
                     (psi_circ, ref_psi_circ), (psi_circ_inv, ref_psi_circ_inv),
                     (psi_cap, ref_psi_cap), (psi_cap_inv, ref_psi_cap_inv)]


def _outcome(fn, tree):
    try:
        return fn(tree)
    except MembershipError as exc:
        return "MembershipError", str(exc)


def _assert_matches_reference(tree, n):
    for fn, ref in PSI_AND_REFERENCE:
        assert _outcome(fn, tree) == _outcome(ref, tree), (fn.__name__, tree)
    if not is_starred(tree):
        for k in range(1, n + 2):
            assert _raise_rightmost_leaf(tree, k) == \
                ref_label_rightmost_leaf(_ref_shift(tree, k, 1), k), (k, tree)
    elif n >= 2:
        assert _lower_rightmost_leaf(tree) == \
            _ref_shift(ref_unlabel_rightmost_leaf(tree), rmlab(tree) + 1, -1), tree


def grown_tree(rng, n):
    """A random tree on 1..n: each label k in turn fills an empty slot or
    hangs under a labelled leaf, as a labelled leaf or with two empty
    leaves."""
    nodes = {1: rng.choice((None, [EMPTY, EMPTY]))}
    for k in range(2, n + 1):
        v, i = rng.choice([(v, i) for v, kids in nodes.items() for i in (0, 1)
                           if kids is None or kids[i] == EMPTY])
        if nodes[v] is None:
            nodes[v] = [EMPTY, EMPTY]
        nodes[v][i] = k
        nodes[k] = rng.choice((None, [EMPTY, EMPTY]))
    return nodes_to_tree(1, nodes)


@pytest.mark.parametrize("n", range(1, 8))
def test_psi_maps_match_the_node_map_reference(n):
    for t in enumerate_trees(n):
        _assert_matches_reference(t, n)


def test_psi_maps_match_the_node_map_reference_at_large_n():
    # the preimages under psi_star and psi_circ reach their rarer cases
    rng = random.Random(20218)
    seen = set()
    for _ in range(100):
        t = grown_tree(rng, rng.randint(20, 40))
        pre = [_outcome(inv, t) for inv in (psi_star_inv, psi_circ_inv)]
        for u in [t] + [out[0] for out in pre if out[0] != "MembershipError"]:
            _assert_matches_reference(u, validate_tree(u))
            seen.update(_outcome(fn, u)[1] for fn in (psi_star, psi_circ))
    assert {"a", "b", "b-leaf", "b-branch"} <= seen
