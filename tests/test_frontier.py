"""The inverses replay a forest's labels on the phi2 frontier.

``phi1_inv``/``phi2_inv`` read each label's slot once and replay the
labels in increasing order; ``phi2_inv`` keeps the singular empty leaves
on the same linked frontier that ``phi2`` grows.  The reference below is
the peeling form they replaced, frozen: it removes labels n..2 from a
mutable forest and, for phi2, ranks each vacated slot in a fresh walk of
the whole forest.  The tests pin images, traces, exception types and
messages against it on every forest and tree up to n = 6, on large
random forests and on malformed ones.
"""
import random

import pytest

from test_chain_pass import _type2_das, grown_forest

from snake_atlas.bijections import (_Leaves, phi1_b_inv, phi1_d_inv,
                                    phi1_inv, phi2_b_inv, phi2_d_inv, phi2_inv)
from snake_atlas.errors import MembershipError
from snake_atlas.forests import (BLACK, WHITE, _tree_to_forest,
                                 enumerate_forests, validate_forest)
from snake_atlas.permutations import expand_first_entry, expand_last_entry, is_member
from snake_atlas.trees import (EMPTY, _lower_rightmost_leaf, enumerate_trees,
                               is_starred, rmlab, validate_tree)
from test_forests import _arranged_key
from test_trees import tree_nodes


# -- reference: peel labels n..2 and rank each vacated slot -----------------

class _Builder:
    """Mutable forest keyed by node label: a root holds its one child slot,
    an inner node its two, a labelled leaf ``None``."""

    def __init__(self):
        self.colors = {}
        self.kids = {}

    @staticmethod
    def from_forest(forest):
        b = _Builder()
        for color, root, child in forest:
            b.colors[root] = color
            b.kids[root] = [child if child == EMPTY else child[0]]
            if child != EMPTY:
                b.kids.update(tree_nodes(child)[1])
        return b

    def singular_slots(self):
        """Singular empty leaves left to right in the arranged layout."""
        slots = []
        todo = sorted(self.colors, key=lambda r: _arranged_key(self.colors[r], r),
                      reverse=True)
        while todo:
            v = todo.pop()
            if type(v) is tuple:
                slots.append(v)
            elif self.kids[v] is not None:
                kid = self.kids[v]
                lone = kid.count(EMPTY) == 1
                for i in range(len(kid) - 1, -1, -1):
                    if kid[i] != EMPTY or lone:
                        todo.append((v, i) if kid[i] == EMPTY else kid[i])
        return slots

    def node_status(self, v):
        kid = self.kids[v]
        if kid is None or kid == [EMPTY, EMPTY]:
            return "terminal"
        return "intermediate" if EMPTY in kid else "plain"


def ref_signs(b, n):
    signs = {}
    for v, kid in b.kids.items():
        if v in b.colors:
            signs[v] = 1 if b.colors[v] == WHITE else -1
        elif kid is None:
            signs[v] = -1
        elif kid == [EMPTY, EMPTY]:
            signs[v] = 1
        else:
            l = n + 1 if kid[0] == EMPTY else kid[0]
            r = n + 1 if kid[1] == EMPTY else kid[1]
            signs[v] = 1 if l > r else -1
    return signs


def ref_peel(b, signs, n, record):
    parent = {c: (v, i) for v, kid in b.kids.items() if kid
              for i, c in enumerate(kid) if c != EMPTY}
    records = {}
    for j in range(n, 1, -1):
        del b.kids[j]
        if j in b.colors:
            del b.colors[j]
            records[j] = ("root",)
            continue
        slot = parent.get(j)
        if slot is None:
            raise MembershipError(f"node {j} is unreachable")
        v, i = slot
        kid = b.kids[v]
        kid[i] = EMPTY
        if signs[v] == -1 and kid == [EMPTY, EMPTY]:
            b.kids[v] = None
        records[j] = record(b, j, slot)
    if list(b.colors) != [1] or b.kids[1] != [EMPTY]:
        raise MembershipError("peeling did not terminate at a single root 1")
    return records


def ref_type1_record(b, j, slot):
    v = slot[0]
    status = b.node_status(v)
    if status == "plain":
        raise MembershipError(f"parent {v} of {j} has no empty slot after peeling")
    return ("child", v, status)


def ref_type2_record(b, j, slot):
    v = slot[0]
    if b.node_status(v) == "terminal":
        return ("terminal", v)
    slots = b.singular_slots()
    if slot not in slots:
        raise MembershipError(f"vacated slot of {j} is not singular", step=j)
    return ("singular", slots.index(slot))


def ref_phi1_inv(forest):
    validate_forest(forest)
    b = _Builder.from_forest(forest)
    n = len(b.kids)
    signs = ref_signs(b, n)
    records = ref_peel(b, signs, n, ref_type1_record)
    word, steps = [signs[1]], [("root", 1)]
    for j in range(2, n + 1):
        rec = records[j]
        if rec[0] == "root":
            word.append(signs[j] * j)
            steps.append(("root", j))
        else:
            _, v, status = rec
            pos = word.index(signs[v] * v)
            if status == "intermediate":
                word.insert(pos, signs[j] * j)
                steps.append(("left-of", v))
            else:
                word.insert(pos + 1, signs[j] * j)
                steps.append(("right-of", v))
    return tuple(word), steps


def ref_phi2_inv(forest):
    validate_forest(forest)
    b = _Builder.from_forest(forest)
    n = len(b.kids)
    signs = ref_signs(b, n)
    root_colors = dict(b.colors)
    records = ref_peel(b, signs, n, ref_type2_record)
    word, steps = [signs[1]], [("root", 1)]
    for j in range(2, n + 1):
        rec = records[j]
        if rec[0] == "root":
            if root_colors[j] == WHITE:
                word.append(j)
            else:
                word.insert(0, -j)
            steps.append(("root", j))
        elif rec[0] == "singular":
            rank = rec[1]
            das = _type2_das(word)
            if rank >= len(das):
                raise MembershipError("phi2_inv: double-ascent rank out of range", step=j)
            pos = word.index(das[rank])
            if signs[j] > 0:
                word.insert(pos, j)
            else:
                word.insert(pos + 1, -j)
            steps.append(("at-singular", rank + 1))
        else:
            _, v = rec
            pos = word.index(signs[v] * v)
            if signs[v] > 0:
                word.insert(pos + 1, signs[j] * j)
            else:
                word.insert(pos, signs[j] * j)
            steps.append(("at-terminal", v))
    return tuple(word), steps


def ref_b_inv(ref_inv, family, message):
    def b_inv(tree):
        validate_tree(tree)
        w = ref_inv(_tree_to_forest(tree))[0]
        if not is_member(w, family):
            raise MembershipError(message)
        return w
    return b_inv


ref_phi1_b_inv = ref_b_inv(ref_phi1_inv, "rsi-b", "phi1_b_inv: tree is not a type-I B image")
ref_phi2_b_inv = ref_b_inv(ref_phi2_inv, "rsii-b", "phi2_b_inv: tree is not a type-II B image")


def ref_d_inv(ref_b, expand, name):
    def d_inv(tree):
        validate_tree(tree)
        if not is_starred(tree):
            raise MembershipError(f"{name}: rightmost leaf must be labelled")
        k = rmlab(tree)
        if k < 2:
            raise MembershipError(f"{name}: rightmost label must be >= 2")
        return expand(ref_b(_lower_rightmost_leaf(tree)), k)
    return d_inv


ref_phi1_d_inv = ref_d_inv(ref_phi1_b_inv, expand_last_entry, "phi1_d_inv")
ref_phi2_d_inv = ref_d_inv(ref_phi2_b_inv, expand_first_entry, "phi2_d_inv")


def outcome(fn, x):
    try:
        return ("ok", fn(x))
    except (ValueError, MembershipError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "step", None))


FOREST_MAPS = [(phi1_inv, ref_phi1_inv), (phi2_inv, ref_phi2_inv)]
TREE_MAPS = [(phi1_b_inv, ref_phi1_b_inv), (phi2_b_inv, ref_phi2_b_inv),
             (phi1_d_inv, ref_phi1_d_inv), (phi2_d_inv, ref_phi2_d_inv)]


# -- the tests --------------------------------------------------------------

@pytest.mark.parametrize("inv, ref", FOREST_MAPS)
def test_inverse_matches_the_peeling_reference_on_every_forest_up_to_6(inv, ref):
    for n in range(1, 7):
        for f in enumerate_forests(n):
            assert inv(f, trace=True) == ref(f), f


@pytest.mark.parametrize("inv, ref", TREE_MAPS)
def test_tree_inverses_match_the_reference_on_every_tree_up_to_6(inv, ref):
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert outcome(inv, t) == outcome(ref, t), t


@pytest.mark.parametrize("inv, ref", FOREST_MAPS)
def test_inverse_matches_the_peeling_reference_at_large_n(inv, ref):
    rng = random.Random(13)
    for _ in range(50):
        f = grown_forest(rng, rng.randint(20, 160))
        word, steps = inv(f, trace=True)
        assert (word, steps) == ref(f), f


MALFORMED = [
    (), [], "forest", ((WHITE, 1),), ((WHITE, 2, EMPTY),), (("red", 1, EMPTY),),
    ((WHITE, True, EMPTY),), ((WHITE, 2, EMPTY), (BLACK, 1, EMPTY)),
    ((WHITE, 1, (1,)),), ((WHITE, 1, (2, (3,))),), ((BLACK, 1, (3, EMPTY, EMPTY)),),
    ((WHITE, 1, (2, (3,), (3,))),), ((WHITE, 1, EMPTY), (WHITE, 1, EMPTY)),
    ((BLACK, 1, (2, EMPTY, "x")),), ((WHITE, 1, [2]),),
]


@pytest.mark.parametrize("inv, ref", FOREST_MAPS)
def test_inverse_rejects_malformed_forests_as_the_reference_does(inv, ref):
    for f in MALFORMED:
        got = outcome(inv, f)
        assert got[0] != "ok" and got == outcome(ref, f), f


def test_a_frontier_cycle_raises_instead_of_walking_forever():
    """A walk stops after the frontier's 2n + 2 items, so a fault that links
    an item to itself raises instead of hanging ``phi2``/``phi2_inv``."""
    leaves = _Leaves(3)
    leaves.nxt[0] = leaves.nxt[4] = 4  # head -> item 4 -> item 4 -> ...
    with pytest.raises(RuntimeError, match="without reaching item 2"):
        leaves.rank(2)
    with pytest.raises(RuntimeError, match="without reaching the tail"):
        leaves.singular(0)
