"""The inverses' sign and hook reader against a node-map reference.

``bijections._hooks`` reads a forest's signs and hooks off one walk of
its nested tuples.  The reference below derives them another way, from
the forest's node map (``tree_nodes`` of each component, keyed by
label): every node's slots are read from the map, with an empty slot
counting as the label n + 1.
"""
import pytest

from test_depth import FORESTS
from test_trees import tree_nodes

from snake_atlas.bijections import _hooks
from snake_atlas.forests import WHITE, enumerate_forests
from snake_atlas.trees import EMPTY


def reference_hooks(forest):
    colors, kids = {}, {}
    for color, root, child in forest:
        colors[root] = color
        kids[root] = [child if child == EMPTY else child[0]]
        if child != EMPTY:
            kids.update(tree_nodes(child)[1])
    n = len(kids)
    signs, hooks = {}, dict.fromkeys(range(1, n + 1))
    for v, kid in kids.items():
        if kid is None:
            signs[v] = -1
            continue
        key = [n + 1 if c == EMPTY else c for c in kid]
        if v in colors:
            signs[v] = 1 if colors[v] == WHITE else -1
        else:
            signs[v] = 1 if key[0] >= key[1] else -1
        for i, c in enumerate(kid):
            if c != EMPTY:
                hooks[c] = (v, i, len(kid) == 2 and key[i - 1] > c)
    return colors, n, signs, hooks


@pytest.mark.parametrize("n", range(1, 7))
def test_hooks_match_the_node_map_reference(n):
    for forest in enumerate_forests(n):
        assert _hooks(forest) == reference_hooks(forest), forest


@pytest.mark.parametrize("name", list(FORESTS))
def test_hooks_match_the_node_map_reference_on_deep_forests(name):
    forest = FORESTS[name]
    assert _hooks(forest) == reference_hooks(forest)
