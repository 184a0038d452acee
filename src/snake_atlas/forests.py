"""Increasing forests with colored unary roots.

A forest on 1..n is a set of components, each a root (colored black or
white) with exactly one child; below the root every labelled node has
zero or two children, labels increase downward, and childless slots are
empty leaves.  A component is the 3-tuple (color, root_label, child)
with the child in the tree encoding of :mod:`trees`; the forest is the
tuple of components sorted by root label, which is the canonical order.

Cutting a circ-class tree along its rightmost path yields exactly the
all-white forests, with the path nodes as roots (``tree_to_forest``).
"""
from __future__ import annotations

from .errors import MembershipError, enforce_ceiling
from .trees import (EMPTY, _left_choices, _regraft, _walk_shape, emp, is_empty,
                    label_from_json, node_from_json, rightmost_path,
                    tree_to_json, validate_tree)

BLACK = "black"
WHITE = "white"
DEFAULT_FOREST_CEILING = 8


def validate_forest(forest) -> int:
    if not isinstance(forest, (tuple, list)):
        raise ValueError(f"malformed forest {forest!r}")
    if not forest:
        raise ValueError("forest must have at least one component")
    labels = []
    roots = []
    for comp in forest:
        if (not isinstance(comp, (tuple, list)) or len(comp) != 3
                or comp[0] not in (BLACK, WHITE) or type(comp[1]) is not int):
            raise ValueError(f"malformed component {comp!r}")
        color, root, child = comp
        roots.append(root)
        labels.append(root)
        _walk_shape(child, root, labels)
    if roots != sorted(roots):
        raise ValueError("components must be sorted by root label")
    n = len(labels)
    if sorted(labels) != list(range(1, n + 1)):
        raise ValueError("labels must be exactly 1..n")
    return n


def emp_forest(forest) -> int:
    """Number of empty leaves: each child's right spine is walked here,
    and only inner left subtrees go to ``emp``."""
    total = 0
    for _, _, tree in forest:
        while len(tree) == 3:
            _, left, tree = tree
            if left == EMPTY:
                total += 1
            elif len(left) == 3:
                total += emp(left)
        if tree == EMPTY:
            total += 1
    return total


def is_all_white(forest) -> bool:
    return all(color == WHITE for color, _, _ in forest)


def last_root(forest) -> int:
    return forest[-1][1]


# -- enumeration --------------------------------------------------------

def enumerate_forests(n: int, *, white_only: bool = False,
                      last: int | None = None, max_n=None) -> list:
    """All forests on 1..n (optionally all-white, optionally with a
    prescribed last-component root), canonically ordered.

    The first component of a forest is rooted at its smallest label, and
    once that component is chosen the labels of the others are fixed.  So
    the forests over a label tuple, in order, are the choices for the
    first component, each followed by every forest over the labels it
    leaves.  A first component is a tree's left choice (its child is the
    left subtree, the labels it leaves are the right ones), black before
    white, each in the trees' order (``trees._left_choices``)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    enforce_ceiling("forest enumeration", n, max_n, DEFAULT_FOREST_CEILING)
    colors = (WHITE,) if white_only else (BLACK, WHITE)
    trees = {}
    memo = {(): [()]}

    def forests_over(labels):
        found = memo.get(labels)
        if found is not None:
            return found
        root = labels[0]
        choices = _left_choices(root, labels[1:], trees)
        comps = [((color, root, child), left) for color in colors for _, child, left in choices]
        out = memo[labels] = [(comp,) + sub for comp, left in comps for sub in forests_over(left)]
        return out

    out = forests_over(tuple(range(1, n + 1)))
    if last is not None:
        out = [f for f in out if f[-1][1] == last]
    return out


# -- rightmost-path cut and its inverse ----------------------------------

def tree_to_forest(tree) -> tuple:
    """Cut a circ-class tree along its rightmost path; the path nodes
    become white roots, each keeping its left subtree as single child.
    Labels increase down the path, so the roots come out sorted."""
    validate_tree(tree)
    return _tree_to_forest(tree)


def _tree_to_forest(tree) -> tuple:
    """``tree_to_forest`` of a tree that ``validate_tree`` accepted."""
    path = rightmost_path(tree)
    if not is_empty(path[-1]):
        raise MembershipError("the rightmost leaf must be empty")
    return tuple((WHITE, v[0], v[1]) for v in path[:-1])


def forest_to_tree(forest):
    """Rebuild the circ-class tree whose rightmost-path cut is the
    given all-white forest."""
    validate_forest(forest)
    return _forest_to_tree(forest)


def _forest_to_tree(forest):
    """``forest_to_tree`` of a forest that ``validate_forest`` accepted."""
    if not is_all_white(forest):
        raise MembershipError("only all-white forests correspond to trees")
    return _regraft([comp[1:] for comp in forest], EMPTY)


# -- JSON ---------------------------------------------------------------

def forest_to_json(forest) -> dict:
    return {"components": [{"color": color, "root": root, "child": tree_to_json(child)}
                           for color, root, child in forest]}


def _decode_forest(obj) -> tuple:
    """The forest of the JSON form, components sorted by root label, not
    yet validated."""
    if not isinstance(obj, dict) or not isinstance(obj.get("components"), list):
        raise ValueError('expected a forest {"components": [...]}')
    comps = []
    for c in obj["components"]:
        if not isinstance(c, dict) or not {"color", "root", "child"} <= c.keys():
            raise ValueError(f"bad forest component {c!r}")
        comps.append((c["color"], label_from_json(c["root"]), node_from_json(c["child"])))
    return tuple(sorted(comps, key=lambda c: c[1]))


def forest_from_json(obj) -> tuple:
    forest = _decode_forest(obj)
    validate_forest(forest)
    return forest
