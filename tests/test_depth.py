"""Every map, both ways, and the empty-leaf counts ``emp`` and
``emp_forest``, on trees and forests far deeper than Python's recursion
limit.

Deep nested tuples cannot be compared with ``==`` (the comparison
recurses in C), so trees are compared by their inorder words and
forests by each component's ``(colour, root, word)``.  Windows are flat
and come from the inverse maps.
"""
import pytest

from snake_atlas.bijections import (phi1, phi1_b, phi1_b_inv, phi1_d,
                                    phi1_d_inv, phi1_inv, phi2, phi2_b,
                                    phi2_b_inv, phi2_d, phi2_d_inv, phi2_inv,
                                    zeta1, zeta1_inv, zeta2, zeta2_inv)
from snake_atlas.forests import (BLACK, WHITE, emp_forest, forest_to_tree,
                                 tree_to_forest, validate_forest)
from snake_atlas.trees import (EMPTY, emp, nodes_to_tree, psi_cap,
                               psi_cap_inv, psi_circ, psi_circ_inv, psi_star,
                               psi_star_inv, snake_to_tree, tree_from_word,
                               tree_to_snake, validate_tree)
from snake_atlas.trees import inorder_word as word
from test_trees import flip, tree_nodes

N = 2000


def chain(lo, hi):
    """lo, lo + 1, ..., hi down the left children, ending in the leaf hi:
    circ class with rightmost label lo."""
    t = (hi,)
    for k in range(hi - 1, lo - 1, -1):
        t = (k, t, EMPTY)
    return t


def comb(lo, hi, star):
    """lo, ..., hi down the right children along empty left leaves: the
    rightmost path holds every label, and the class is star when hi is a
    labelled leaf."""
    t = (hi,) if star else (hi, EMPTY, EMPTY)
    for k in range(hi - 1, lo - 1, -1):
        t = (k, EMPTY, t)
    return t


def flat(forest):
    return tuple((color, root, word(child)) for color, root, child in forest)


CHAIN = chain(1, N)
COMB_STAR = comb(1, N, True)
COMB_CIRC = comb(1, N, False)
FORESTS = {
    "white-chain": ((WHITE, 1, chain(2, N)),),
    "black-comb": ((BLACK, 1, comb(2, N, True)),),
    "cut-comb": tree_to_forest(COMB_CIRC),
    "two-chains": ((WHITE, 1, chain(3, N // 2)), (BLACK, 2, chain(N // 2 + 1, N))),
}


def test_shapes_are_valid_and_deep():
    assert validate_tree(CHAIN) == validate_tree(COMB_STAR) == validate_tree(COMB_CIRC) == N
    assert word(tree_from_word(word(COMB_STAR))) == word(COMB_STAR)
    assert word(flip(flip(CHAIN))) == word(CHAIN)
    assert word(flip(COMB_CIRC)) == word(COMB_CIRC)[::-1]
    assert word(nodes_to_tree(*tree_nodes(COMB_STAR))) == word(COMB_STAR)
    for forest in FORESTS.values():
        assert validate_forest(forest) == N


@pytest.mark.parametrize("tree", [CHAIN, COMB_STAR, COMB_CIRC],
                         ids=["chain", "comb-star", "comb-circ"])
def test_emp_counts_the_empty_leaves(tree):
    assert emp(tree) == word(tree).count(EMPTY)


@pytest.mark.parametrize("name", list(FORESTS))
def test_emp_forest_counts_the_empty_leaves(name):
    forest = FORESTS[name]
    assert emp_forest(forest) == sum(w.count(EMPTY) for _, _, w in flat(forest))


@pytest.mark.parametrize("fwd, inv, trees", [
    (tree_to_snake, snake_to_tree, [CHAIN, COMB_STAR, COMB_CIRC]),
    (phi1_b_inv, phi1_b, [CHAIN, COMB_CIRC]),
    (phi2_b_inv, phi2_b, [CHAIN, COMB_CIRC]),
    (phi1_d_inv, phi1_d, [COMB_STAR]),
    (phi2_d_inv, phi2_d, [COMB_STAR]),
], ids=["gamma", "phi1-b", "phi2-b", "phi1-d", "phi2-d"])
def test_tree_window_maps_round_trip(fwd, inv, trees):
    for t in trees:
        w = fwd(t)
        assert len(w) == N and word(inv(w)) == word(t)


@pytest.mark.parametrize("fwd, inv, trees", [
    (psi_star, psi_star_inv, [COMB_STAR]),
    (psi_star_inv, psi_star, [CHAIN, COMB_CIRC]),
    (psi_circ, psi_circ_inv, [CHAIN]),
    (psi_circ_inv, psi_circ, [COMB_STAR, COMB_CIRC]),
], ids=["psi-star", "psi-star-inv", "psi-circ", "psi-circ-inv"])
def test_grade_maps_round_trip(fwd, inv, trees):
    for t in trees:
        out, case = fwd(t)
        back, back_case = inv(out)
        assert word(back) == word(t) and back_case == case


def test_psi_cap_and_cut_round_trip():
    assert word(psi_cap_inv(psi_cap(COMB_STAR))) == word(COMB_STAR)
    assert word(psi_cap(psi_cap_inv(COMB_CIRC))) == word(COMB_CIRC)
    for t in (CHAIN, COMB_CIRC):
        assert word(forest_to_tree(tree_to_forest(t))) == word(t)
    assert flat(tree_to_forest(CHAIN)) == flat(FORESTS["white-chain"])


@pytest.mark.parametrize("name", list(FORESTS))
@pytest.mark.parametrize("fwd, inv, zeta, zeta_inv", [
    (phi1, phi1_inv, zeta1, zeta1_inv), (phi2, phi2_inv, zeta2, zeta2_inv),
], ids=["type-I", "type-II"])
def test_forest_window_maps_round_trip(name, fwd, inv, zeta, zeta_inv):
    forest = FORESTS[name]
    w = inv(forest)
    image, steps = fwd(w, trace=True)
    assert flat(image) == flat(forest) and len(steps) == N
    assert zeta(zeta_inv(w)) == w
