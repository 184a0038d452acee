"""Exact generation: enumerate_family against the is_member oracle.

enumerate_family never calls is_member; these tests compare it with the
brute-force reading of each family (every window, filtered by is_member)
for every family and every anchor value, and, one size further, the
-b / -d refinements with their base family filtered by is_member.  Both
read one family table, so is_member is in turn compared with the frozen
membership test ref_member (tests/test_permutations.py): every family at
n <= 5, the -b / -d refinements at n = 6.

enumerate_forests and enumerate_trees sort nothing globally: each joins
memoised lists that come out of generation in canonical order.  They are
compared with brute-force listings sorted by forest_sort_key / the inorder
word, every memoised tree list with its brute-force listing, and the
counted q-weight sums with the naive sum of monomials.
"""
import hashlib
from functools import lru_cache
from itertools import combinations, product

import pytest

from snake_atlas.forests import (BLACK, WHITE, emp_forest, enumerate_forests)
from snake_atlas.permutations import (FAMILY_TAGS,
                                      augmenting_elements, enumerate_family,
                                      is_member)
from snake_atlas.qcalculus import (BiPoly, weight_forest, weight_tree,
                                   weighted_sum_forests, weighted_sum_trees)
from snake_atlas.trees import (EMPTY, _keyed_trees, emp, enumerate_trees,
                               inorder_word, is_starred, rmlab)
from test_forests import forest_sort_key
from test_permutations import all_windows, ref_member
from test_trees import word_sort_key


def _gae_or_zero(w):
    aug = augmenting_elements(w)
    return aug[-1] if aug else 0


ANCHORS = {
    "first": lambda w: w[0],
    "last": lambda w: w[-1],
    "gae": _gae_or_zero,
}


def _anchor_values(anchor, n):
    if anchor == "gae":
        return range(0, n + 1)
    return [v for v in range(-n, n + 1) if v]


@lru_cache(maxsize=None)
def _windows(n):
    return all_windows(n)


@lru_cache(maxsize=None)
def _oracle(family, n):
    return tuple(w for w in _windows(n) if is_member(w, family))


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("family", FAMILY_TAGS)
def test_generation_matches_oracle_with_every_anchor(family, n):
    oracle = _oracle(family, n)
    assert enumerate_family(family, n) == sorted(oracle)
    for anchor, key in ANCHORS.items():
        for value in _anchor_values(anchor, n):
            expected = sorted(w for w in oracle if key(w) == value)
            assert enumerate_family(family, n, (anchor, value)) == expected, (anchor, value)


@lru_cache(maxsize=None)
def _base_at_n7(base):
    return enumerate_family(base, 7)


@pytest.mark.parametrize("family", [f for f in FAMILY_TAGS if f.endswith(("-b", "-d"))])
def test_refinements_match_filtered_base_at_n7(family):
    base = _base_at_n7(family.split("-")[0])
    assert enumerate_family(family, 7) == [w for w in base if is_member(w, family)]


@pytest.mark.parametrize("n", range(1, 6))
def test_is_member_matches_the_frozen_reference(n):
    windows = _windows(n)
    for family in FAMILY_TAGS:
        assert _oracle(family, n) == tuple(w for w in windows if ref_member(w, family)), family


@pytest.mark.parametrize("family", [f for f in FAMILY_TAGS if f.endswith(("-b", "-d"))])
def test_refinement_membership_matches_the_frozen_reference_at_n6(family):
    reference = tuple(w for w in _windows(6) if ref_member(w, family))
    assert reference and _oracle(family, 6) == reference


# -- trees and forests: canonical order without a global sort -------------

def _brute_trees(labels):
    """Every complete increasing tree on the sorted labels, grown by
    putting each label in turn on an empty leaf as (k,) or (k, e, e)."""
    def grow(node, k):
        if node == EMPTY:
            yield (k,)
            yield (k, EMPTY, EMPTY)
        elif len(node) == 3:
            for left in grow(node[1], k):
                yield (node[0], left, node[2])
            for right in grow(node[2], k):
                yield (node[0], node[1], right)

    trees = [EMPTY]
    for k in labels:
        trees = [t for s in trees for t in grow(s, k)]
    return trees


def _set_partitions(values):
    if not values:
        yield []
        return
    first, rest = values[0], values[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def _brute_forests(n, colors):
    out = []
    for part in _set_partitions(list(range(1, n + 1))):
        choices = [[(color, block[0], child) for child in _brute_trees(block[1:])
                    for color in colors] for block in sorted(part)]
        out.extend(product(*choices))
    return out


def _no_duplicates(xs):
    return len(set(xs)) == len(xs)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("white_only", [False, True])
def test_forests_come_out_in_canonical_order(n, white_only):
    brute = sorted(_brute_forests(n, (WHITE,) if white_only else (BLACK, WHITE)),
                   key=forest_sort_key)
    for last in [None] + list(range(1, n + 1)):
        got = enumerate_forests(n, white_only=white_only, last=last)
        assert _no_duplicates(got)
        assert got == [f for f in brute if last is None or f[-1][1] == last], last


def _tree_key(t):
    return word_sort_key(inorder_word(t))


@pytest.mark.parametrize("n", range(1, 8))
def test_trees_come_out_in_inorder_word_order(n):
    brute = sorted(_brute_trees(range(1, n + 1)), key=_tree_key)
    assert len(brute) == len(set(brute))
    assert enumerate_trees(n) == brute
    for starred in (None, True, False):
        for rightmost in [None] + list(range(1, n + 1)):
            got = enumerate_trees(n, starred=starred, rightmost=rightmost)
            assert _no_duplicates(got)
            assert got == [t for t in brute if starred in (None, is_starred(t))
                           and rightmost in (None, rmlab(t))], (starred, rightmost)


def test_every_memoised_tree_list_is_canonical():
    memo = {}
    for size in range(6):
        for labels in combinations(range(1, 8), size):
            got = _keyed_trees(labels, memo)
            keys = [k for k, _ in got]
            assert keys == [_tree_key(t) for _, t in got], labels
            assert all(a < b for a, b in zip(keys, keys[1:])), labels
            assert [t for _, t in got] == sorted(_brute_trees(labels), key=_tree_key), labels


# SHA-256 of the reprs of enumerate_trees(8), one per line, as the global
# sort on inorder-word keys ordered them
TREES_8_DIGEST = "00ddda9b6d09159b20bea80dba0f28779b1898bf540ead9ff554c780582232bb"


def test_tree_order_at_n8_is_pinned():
    listing = "\n".join(map(repr, enumerate_trees(8)))
    assert hashlib.sha256(listing.encode()).hexdigest() == TREES_8_DIGEST


def _naive_sum(objects, weight, size):
    total = BiPoly.zero()
    for x in objects:
        total = total + BiPoly.monomial(weight(x), size(x))
    return total


@pytest.mark.parametrize("n", range(1, 6))
def test_weighted_sums_match_the_naive_sum(n):
    assert weighted_sum_trees(n) == _naive_sum(enumerate_trees(n), weight_tree, emp)
    for white_only in (False, True):
        assert weighted_sum_forests(n, white_only=white_only) == _naive_sum(
            enumerate_forests(n, white_only=white_only), weight_forest, emp_forest)
