"""Colored-root increasing forests and the rightmost-path cut."""
import pytest

from snake_atlas import fixtures as fx
from snake_atlas.bijections import phi1_inv, phi2_inv
from snake_atlas.errors import LimitError, MembershipError
from snake_atlas.forests import (BLACK, WHITE, emp_forest,
                                 enumerate_forests, forest_from_json,
                                 forest_to_json,
                                 forest_to_tree, last_root,
                                 tree_to_forest, validate_forest)
from snake_atlas.polynomials import LaurentPoly
from snake_atlas.qcalculus import weight_forest
from snake_atlas.trees import (EMPTY, emp, enumerate_trees, inorder_word,
                               is_empty, is_leaf, rmlab)
from snake_atlas.triangles import arnold_poly, hoffman_Q, hoffman_R
from test_trees import word_sort_key


def _arranged_key(color, root: int) -> tuple:
    """Sort key of the arranged order: black roots decreasing, then
    white roots increasing."""
    return (color == WHITE, root if color == WHITE else -root)


def arranged_components(forest) -> tuple:
    """Presentation order used by the type-II insertion algorithm:
    black components left in decreasing root order, then white ones in
    increasing root order."""
    return tuple(sorted(forest, key=lambda c: _arranged_key(c[0], c[1])))


def _component_key(comp) -> tuple:
    color, root, child = comp
    return (root, color == WHITE) + word_sort_key(inorder_word(child))


def forest_sort_key(forest) -> tuple:
    """The canonical order of forests: component by component, root, then
    colour (black first), then the child's inorder word."""
    return tuple(map(_component_key, forest))


def emp_sum(forests):
    total = LaurentPoly.zero()
    for f in forests:
        total = total + LaurentPoly.t_power(emp_forest(f))
    return total


def labelled_leaves(forest) -> int:
    def count(node):
        if is_empty(node):
            return 0
        if is_leaf(node):
            return 1
        return count(node[1]) + count(node[2])
    return sum(0 if is_empty(c) else count(c) for _, _, c in forest)


def test_counts():
    assert len(enumerate_forests(2)) == 8
    for n in range(1, 7):
        assert len(enumerate_forests(n)) == 2**n * fx.EULER[n + 1]


def test_emp_sum_small():
    assert emp_sum(enumerate_forests(2)) == LaurentPoly.from_terms({0: 2, 2: 6})


@pytest.mark.parametrize("n", range(1, 7))
def test_emp_sum_matches_sec_squared_polynomial(n):
    assert emp_sum(enumerate_forests(n)) == hoffman_R(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_emp_counts_labelled_leaves(n):
    for f in enumerate_forests(n):
        assert emp_forest(f) == n - 2 * labelled_leaves(f)


@pytest.mark.parametrize("n", range(1, 7))
def test_white_forest_sums(n):
    # one extra factor of t recovers the sec polynomial
    assert emp_sum(enumerate_forests(n, white_only=True)).shift(1) == \
        hoffman_Q(n) * LaurentPoly.t_power(1)


def test_validation():
    validate_forest(((WHITE, 1, EMPTY),))
    with pytest.raises(ValueError):
        validate_forest(())
    with pytest.raises(ValueError):
        validate_forest((("purple", 1, EMPTY),))
    with pytest.raises(ValueError):
        validate_forest(((WHITE, 2, EMPTY), (BLACK, 1, EMPTY)))  # order
    with pytest.raises(ValueError):
        validate_forest(((WHITE, 1, EMPTY), (WHITE, 3, EMPTY)))  # gap


MALFORMED_FORESTS = {
    "float-label": ((WHITE, 1, (2.0,)),),
    "four-tuple-node": ((WHITE, 1, (2, EMPTY, EMPTY, EMPTY)),),
    "bool-root": ((WHITE, True, EMPTY),),
    "two-tuple-node": ((WHITE, 1, (2, EMPTY)),),
    "str-label": ((WHITE, 1, ("x",)),),
    "int-child": ((WHITE, 1, 5),),
}

# not a sequence: the forest itself, its only component, or its second one
NON_SEQUENCE_FORESTS = {
    "int-forest": 5,
    "int-component": (5,),
    "int-second-component": ((WHITE, 1, EMPTY), 7),
}


@pytest.mark.parametrize("fn", [validate_forest, phi1_inv, phi2_inv, forest_to_tree,
                                weight_forest])
@pytest.mark.parametrize("forest", list(MALFORMED_FORESTS.values()), ids=list(MALFORMED_FORESTS))
def test_malformed_forests_are_value_errors(fn, forest):
    with pytest.raises(ValueError):
        fn(forest)


@pytest.mark.parametrize("fn", [validate_forest, phi1_inv, phi2_inv, forest_to_tree,
                                weight_forest])
@pytest.mark.parametrize("forest", list(NON_SEQUENCE_FORESTS.values()),
                         ids=list(NON_SEQUENCE_FORESTS))
def test_non_sequence_forests_are_value_errors(fn, forest):
    with pytest.raises(ValueError, match="^malformed (forest|component) "):
        fn(forest)


def test_ceiling():
    with pytest.raises(LimitError, match="ceiling 8"):
        enumerate_forests(9)


def test_smallest_cut():
    assert tree_to_forest((1, EMPTY, EMPTY)) == ((WHITE, 1, EMPTY),)
    assert forest_to_tree(((WHITE, 1, EMPTY),)) == (1, EMPTY, EMPTY)


@pytest.mark.parametrize("n", range(1, 7))
def test_cut_is_a_bijection_onto_white_forests(n):
    circ = enumerate_trees(n, starred=False)
    white = enumerate_forests(n, white_only=True)
    images = [tree_to_forest(t) for t in circ]
    assert sorted(map(forest_sort_key, images)) == sorted(map(forest_sort_key, white))
    for t in circ:
        f = tree_to_forest(t)
        assert emp_forest(f) == emp(t) - 1
        assert last_root(f) == rmlab(t)
        assert forest_to_tree(f) == t


def test_cut_class_sums_match_polynomial_triangle():
    V = arnold_poly(3)
    got = emp_sum(enumerate_forests(3, white_only=True, last=1)).shift(1)
    assert got == V.value(3, 3) == LaurentPoly.from_terms({2: 2, 4: 2})


def test_cut_rejects_star_trees_and_colored_forests():
    with pytest.raises(MembershipError):
        tree_to_forest((1,))
    with pytest.raises(MembershipError):
        forest_to_tree(((BLACK, 1, EMPTY),))


def test_arranged_components_order():
    f = ((BLACK, 1, (3,)), (WHITE, 2, EMPTY), (BLACK, 7, EMPTY))
    arranged = arranged_components(f)
    assert [c[1] for c in arranged] == [7, 1, 2]


def test_json_round_trip():
    for n in range(1, 5):
        for f in enumerate_forests(n):
            assert forest_from_json(forest_to_json(f)) == f
    obj = forest_to_json(((WHITE, 1, EMPTY),))
    assert obj == {"components": [{"color": "white", "root": 1, "child": "empty"}]}
