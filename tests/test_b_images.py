"""The tree-valued inverses land in their families with no check on output.

``phi1_b_inv``/``phi2_b_inv`` and ``phi1_d_inv``/``phi2_d_inv`` validate
their input tree and then run the forest inverses straight through.
That the word they return is an rsi-b/rsii-b (rsi-d/rsii-d) member, with
the anchor the tree's rightmost label sets, is the B-refinement theorem:
phi1 (phi2) sends the -b family one-to-one into the white forests, which
are as many.  These tests check it on every circ tree, and every star
tree, with n <= 6, and on seeded random trees with n = 20-200.
"""
import random

import pytest

from snake_atlas.bijections import phi1_b_inv, phi1_d_inv, phi2_b_inv, phi2_d_inv
from snake_atlas.permutations import gae, is_member
from snake_atlas.trees import EMPTY, enumerate_trees, is_starred, rmlab, validate_tree

# map -> (family, the anchored entry of its image of a tree with rightmost label k)
B_MAPS = {phi1_b_inv: ("rsi-b", lambda w, k: w[-1] == k),
          phi2_b_inv: ("rsii-b", lambda w, k: gae(w) == k)}
D_MAPS = {phi1_d_inv: ("rsi-d", lambda w, k: w[-1] == -k),
          phi2_d_inv: ("rsii-d", lambda w, k: w[0] == -k)}


def lands(fn, table, tree):
    family, anchored = table[fn]
    w = fn(tree)
    n = validate_tree(tree)
    return len(w) == n and is_member(w, family) and anchored(w, rmlab(tree))


def grown_tree(rng, n):
    """A random tree on 1..n (n >= 2): 1 is the root with two empty
    slots, and label j fills a random empty slot, as a labelled leaf or
    with two empty ones (always so when it fills the last slot before n)."""
    kids = {1: [EMPTY, EMPTY]}
    slots = [(kids[1], 0), (kids[1], 1)]
    for j in range(2, n + 1):
        holder, i = slots.pop(rng.randrange(len(slots)))
        holder[i] = j
        if rng.random() < 0.5 or not slots and j < n:
            kids[j] = [EMPTY, EMPTY]
            slots += [(kids[j], 0), (kids[j], 1)]
        else:
            kids[j] = None

    def node(v):
        if v == EMPTY:
            return EMPTY
        return (v,) if kids[v] is None else (v, node(kids[v][0]), node(kids[v][1]))

    return node(1)


@pytest.mark.parametrize("fn", list(B_MAPS), ids=lambda fn: fn.__name__)
def test_b_inverse_lands_in_its_family_on_every_circ_tree_up_to_6(fn):
    for n in range(1, 7):
        for t in enumerate_trees(n, starred=False):
            assert lands(fn, B_MAPS, t), t


@pytest.mark.parametrize("fn", list(D_MAPS), ids=lambda fn: fn.__name__)
def test_d_inverse_lands_in_its_family_on_every_star_tree_up_to_6(fn):
    for n in range(2, 7):
        for t in enumerate_trees(n, starred=True):
            assert rmlab(t) >= 2 and lands(fn, D_MAPS, t), t


@pytest.mark.parametrize("fn", list(B_MAPS) + list(D_MAPS), ids=lambda fn: fn.__name__)
def test_tree_inverse_lands_in_its_family_at_large_n(fn):
    table, starred = (B_MAPS, False) if fn in B_MAPS else (D_MAPS, True)
    rng = random.Random(20)
    seen = 0
    while seen < 40:
        t = grown_tree(rng, rng.randint(20, 200))
        if is_starred(t) == starred:
            assert lands(fn, table, t), t
            seen += 1
