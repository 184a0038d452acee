"""phi1/phi2 read their steps off one linked-list pass, and every
window-input map checks its domain once.

The reference below is the level-by-level form of the two insertion
bijections: each step rebuilds the restriction from the whole window,
finds j in it and reads the peaks and double ascents of the previous
restriction.  It runs on its own forest builder, with a root's child
kept apart from the node map, so it shares no forest code with the maps
it checks.  Next to it is the check chain in which each map validates
its input and then calls the public map it builds on, which validates
again.  The tests pin images, traces, exception types, messages and
``MembershipError.step`` against that reference.

The node classes of a forest mirror the marks of its word (peaks and
double ascents for phi1; heavy descent elements and double ascents for
phi2).  The level-j state of ``phi(w)`` is the final state of
``phi(subword(w, j))``, so the classes are checked on the final forest
of every member up to n = 7 and at every level of the large windows.
"""
import functools
import random

import pytest

from snake_atlas import fixtures as fx
from snake_atlas.bijections import (phi1, phi1_b,
                                    phi1_d, phi1_inv, phi2, phi2_b, phi2_d,
                                    phi2_inv, zeta1, zeta1_inv, zeta2,
                                    zeta2_inv, _augmenting_positions, _slide,
                                    _unslide)
from snake_atlas.errors import MembershipError
from snake_atlas.forests import (BLACK, WHITE,
                                 _tree_to_forest, forest_to_tree,
                                 validate_forest)
from snake_atlas.permutations import (_rl_min_positions,
                                      augmenting_elements,
                                      enumerate_family, expand_first_entry,
                                      expand_last_entry, gae, is_beta_snake,
                                      is_member, shrink_first_entry,
                                      shrink_last_entry, subword)
from snake_atlas.trees import (EMPTY, _raise_rightmost_leaf, enumerate_trees,
                               nodes_to_tree, snake_to_tree, tree_to_snake)
from test_forests import _arranged_key
from test_permutations import _simsun_levels_ok, all_windows
from test_trees import tree_nodes


def _type2_das(word):
    """Double-ascent elements of a signed word padded with -(m+1), m+1."""
    m = len(word)
    out = []
    for i, x in enumerate(word):
        prev = word[i - 1] if i > 0 else -(m + 1)
        nxt = word[i + 1] if i < m - 1 else m + 1
        if prev < x < nxt:
            out.append(x)
    return out


# -- reference: the forest builder with its root slots kept apart -----------

class _Builder:
    """Mutable forest under construction, keyed by node label."""

    def __init__(self):
        self.colors = {}      # root label -> BLACK | WHITE
        self.root_child = {}  # root label -> EMPTY | label
        self.kids = {}        # non-root nodes, in the trees.tree_nodes node map

    @staticmethod
    def from_forest(forest) -> "_Builder":
        b = _Builder()
        for color, root, child in forest:
            b.colors[root] = color
            if child == EMPTY:
                b.root_child[root] = EMPTY
            else:
                b.root_child[root], nodes = tree_nodes(child)
                b.kids.update(nodes)
        return b

    def to_forest(self) -> tuple:
        return tuple((self.colors[root], root,
                      EMPTY if c == EMPTY else nodes_to_tree(c, self.kids))
                     for root, c in sorted(self.root_child.items()))

    def parent_of(self, v):
        """(kind, ...) locating v's parent slot."""
        for root, c in self.root_child.items():
            if c == v:
                return ("root", root)
        for u, kid in self.kids.items():
            if kid and v in kid:
                return ("kid", u, kid.index(v))
        return None

    def fill_empty_slot_of(self, v: int, j: int):
        """Label the unique empty leaf hanging from the intermediate node v."""
        if v in self.colors:
            if self.root_child[v] != EMPTY:
                raise MembershipError(f"root {v} has no empty child")
            self.root_child[v] = j
            return
        kid = self.kids[v]
        if kid is None or kid.count(EMPTY) != 1:
            raise MembershipError(f"node {v} is not intermediate")
        kid[kid.index(EMPTY)] = j

    def singular_slots(self):
        """Singular empty leaves left to right in the arranged layout.

        A slot is ("root", r) for the lone child of a root, or
        ("kid", v, i) for an empty slot whose sibling is labelled.
        """
        slots = []

        def walk(v):
            kid = self.kids[v]
            if kid is None:
                return
            l, r = kid
            if l == EMPTY:
                if r != EMPTY:
                    slots.append(("kid", v, 0))
            else:
                walk(l)
            if r == EMPTY:
                if l != EMPTY:
                    slots.append(("kid", v, 1))
            else:
                walk(r)

        for root in sorted(self.colors, key=lambda r: _arranged_key(self.colors[r], r)):
            c = self.root_child[root]
            if c == EMPTY:
                slots.append(("root", root))
            else:
                walk(c)
        return slots

    def fill_slot(self, slot, j: int):
        if slot[0] == "root":
            self.root_child[slot[1]] = j
        else:
            self.kids[slot[1]][slot[2]] = j

    def node_status(self, v):
        """'terminal' | 'intermediate' | 'plain' for the current shape."""
        if v in self.colors:
            return "intermediate" if self.root_child[v] == EMPTY else "plain"
        kid = self.kids[v]
        if kid is None or kid == [EMPTY, EMPTY]:
            return "terminal"
        if EMPTY in kid:
            return "intermediate"
        return "plain"


def _type1_marks(word):
    """(peaks, double_ascents) of a word, compared by absolute value
    with 0 padded on the left and a maximal value on the right."""
    a = [abs(x) for x in word]
    m = len(a)
    peaks, das = [], []
    for i, x in enumerate(word):
        prev = a[i - 1] if i > 0 else 0
        nxt = a[i + 1] if i < m - 1 else m + 1
        if prev < a[i] > nxt:
            peaks.append(x)
        elif prev < a[i] < nxt:
            das.append(x)
    return peaks, das


# -- the node classes of an image, against the marks of its word ------------

def _statuses(forest):
    b = _Builder.from_forest(forest)
    return b, {v: b.node_status(v) for v in list(b.colors) + list(b.kids)}


def type1_classes_hold(w, forest):
    """The terminal nodes of phi1(w) are the peaks of w, and its
    intermediate nodes the double ascents."""
    peaks, das = _type1_marks(w)
    _, status = _statuses(forest)
    return (sorted(abs(y) for y in peaks) == sorted(v for v in status if status[v] == "terminal")
            and sorted(abs(y) for y in das) == sorted(v for v in status if status[v] == "intermediate"))


def type2_classes_hold(w, forest):
    """The terminal nodes of phi2(w) are the heavier elements of the
    descents of w, and it has one singular empty leaf per double ascent."""
    heavies = [max(w[i], w[i + 1], key=abs) for i in range(len(w) - 1) if w[i] > w[i + 1]]
    b, status = _statuses(forest)
    return (sorted(abs(h) for h in heavies) == sorted(v for v in status if status[v] == "terminal")
            and len(_type2_das(w)) == len(b.singular_slots()))


CLASSES_HOLD = {phi1: type1_classes_hold, phi2: type2_classes_hold}


# -- reference: the restriction rebuilt at every step ----------------------

def ref_phi1(w):
    b = _Builder()
    steps = []
    prev = ()
    for j in range(1, len(w) + 1):
        sub = tuple(x for x in w if -j <= x <= j)
        p = next(i for i, x in enumerate(sub) if abs(x) == j)
        x = sub[p]
        m = len(sub)
        if j == 1 or p == m - 1:
            b.colors[j] = WHITE if x > 0 else BLACK
            b.root_child[j] = EMPTY
            steps.append(("i", "new-root", j))
        else:
            peaks, das = _type1_marks(prev)
            prev_abs = abs(sub[p - 1]) if p > 0 else 0
            nxt = sub[p + 1]
            if prev_abs < abs(nxt):
                y = nxt
                if y not in das:
                    raise MembershipError(f"phi1: {y} is not a double-ascent element", step=j)
                b.fill_empty_slot_of(abs(y), j)
                b.kids[j] = [EMPTY, EMPTY] if x > 0 else None
                steps.append(("ii", "fill-intermediate", abs(y)))
            else:
                y = sub[p - 1]
                if y not in peaks:
                    raise MembershipError(f"phi1: {y} is not a peak", step=j)
                v = abs(y)
                if y > 0:
                    if b.kids.get(v) != [EMPTY, EMPTY]:
                        raise MembershipError(f"phi1: node {v} should have two empty leaves", step=j)
                    b.kids[v][1] = j
                else:
                    if b.kids.get(v, 0) is not None:
                        raise MembershipError(f"phi1: node {v} should be a labelled leaf", step=j)
                    b.kids[v] = [j, EMPTY]
                b.kids[j] = [EMPTY, EMPTY] if x > 0 else None
                steps.append(("iii", "attach-at-peak", y))
        prev = sub
    return b.to_forest(), steps


def ref_phi2(w):
    b = _Builder()
    steps = []
    prev = ()
    for j in range(1, len(w) + 1):
        sub = tuple(x for x in w if -j <= x <= j)
        p = next(i for i, x in enumerate(sub) if abs(x) == j)
        x = sub[p]
        m = len(sub)
        if j == 1 or (p == m - 1 and x > 0) or (p == 0 and x < 0):
            b.colors[j] = WHITE if x > 0 else BLACK
            b.root_child[j] = EMPTY
            steps.append(("i", "new-root", j))
        else:
            y = sub[p - 1] if p > 0 else -(j + 1)
            z = sub[p + 1] if p < m - 1 else j + 1
            if y < z:
                das = _type2_das(prev)
                target = y if x < 0 else z
                if target not in das:
                    raise MembershipError(f"phi2: {target} is not a double-ascent element", step=j)
                rank = das.index(target)
                slots = b.singular_slots()
                if rank >= len(slots):
                    raise MembershipError("phi2: singular leaf rank out of range", step=j)
                b.fill_slot(slots[rank], j)
                b.kids[j] = [EMPTY, EMPTY] if x > 0 else None
                steps.append(("ii", "fill-singular", rank + 1))
            else:
                if abs(y) < abs(z):
                    if not z < 0:
                        raise MembershipError("phi2: heavy bottom must be negative", step=j)
                    v = abs(z)
                    if b.kids.get(v, 0) is not None:
                        raise MembershipError(f"phi2: node {v} should be a labelled leaf", step=j)
                    b.kids[v] = [j, EMPTY]
                    steps.append(("iii", "under-heavy-bottom", z))
                else:
                    if not y > 0:
                        raise MembershipError("phi2: heavy top must be positive", step=j)
                    if b.kids.get(y) != [EMPTY, EMPTY]:
                        raise MembershipError(f"phi2: node {y} should have two empty leaves", step=j)
                    b.kids[y][1] = j
                    steps.append(("iii", "under-heavy-top", y))
                b.kids[j] = [EMPTY, EMPTY] if x > 0 else None
        prev = sub
    return b.to_forest(), steps


# -- reference: the check chain, every map validating its own input ---------

def ref_check_window(window):
    w = tuple(int(x) for x in window)
    n = len(w)
    if n < 1:
        raise ValueError("window must be nonempty")
    if any(x == 0 for x in w):
        raise ValueError("window entries must be nonzero")
    if sorted(abs(x) for x in w) != list(range(1, n + 1)):
        raise ValueError("absolute values must be a permutation of 1..n")
    return w


def ref_require(window, family, name):
    w = ref_check_window(window)
    if not is_member(w, family):
        signed = family.startswith("rsii") or family.startswith("adii")
        raise MembershipError(f"{name}: input not in {family}",
                              step=_simsun_levels_ok(w, signed=signed))
    return w


def ref_in(window, family, message):
    w = ref_check_window(window)
    if not is_member(w, family):
        raise MembershipError(message)
    return w


def ref_phi1_map(window):
    return ref_phi1(ref_require(window, "rsi", "phi1"))[0]


def ref_phi2_map(window):
    return ref_phi2(ref_require(window, "rsii", "phi2"))[0]


def ref_phi1_b(window):
    return forest_to_tree(ref_phi1_map(ref_in(window, "rsi-b", "phi1_b: input not in rsi-b")))


def ref_phi2_b(window):
    return forest_to_tree(ref_phi2_map(ref_in(window, "rsii-b", "phi2_b: input not in rsii-b")))


def ref_phi1_d(window):
    w = ref_check_window(window)
    if not is_member(w, "rsi-d") or len(w) < 2:
        raise MembershipError("phi1_d: input not in rsi-d (size >= 2)")
    return _raise_rightmost_leaf(ref_phi1_b(shrink_last_entry(w)), abs(w[-1]))


def ref_phi2_d(window):
    w = ref_check_window(window)
    if not is_member(w, "rsii-d") or len(w) < 2:
        raise MembershipError("phi2_d: input not in rsii-d (size >= 2)")
    k = abs(w[0])
    shrunk = shrink_first_entry(w)
    aug = augmenting_elements(shrunk)
    if not aug or aug[-1] >= k:
        raise MembershipError("phi2_d: shrunk window lacks a smaller augmenting anchor")
    return _raise_rightmost_leaf(ref_phi2_b(shrunk), k)


def ref_zeta1(window):
    w = ref_require(window, "adi", "zeta1")
    if len(w) < 2:
        raise MembershipError("zeta1 needs size >= 2")
    mins = _rl_min_positions([abs(x) for x in w])
    if w[mins[0]] != 1:
        raise MembershipError("zeta1: minima structure violated")
    return _slide(w, mins)


def ref_zeta1_inv(window):
    w = ref_require(window, "rsi", "zeta1_inv")
    return _unslide(w, _rl_min_positions([abs(x) for x in w]))


def ref_zeta2(window):
    w = ref_check_window(window)
    if len(w) < 2:
        raise MembershipError("zeta2 needs size >= 2")
    aug = _augmenting_positions(w)
    if not aug or w[aug[0]] != 1:
        raise MembershipError("zeta2: the entry 1 must be augmenting")
    if aug[-1] != len(w) - 1:
        raise MembershipError("zeta2: single augmenting entry must close the window"
                              if len(aug) == 1 else "zeta2: last entry must be augmenting")
    return _slide(w, aug)


def ref_zeta2_inv(window):
    w = ref_check_window(window)
    return _unslide(w, _augmenting_positions(w))


@functools.cache
def trees_by_snake(n):
    return {tree_to_snake(t): t for t in enumerate_trees(n)}


def ref_snake_to_tree(window):
    w = ref_check_window(window)
    if not is_beta_snake(w):
        raise MembershipError("input window is not alternating")
    return trees_by_snake(len(w))[w]


WINDOW_MAPS = {
    "phi1": (phi1, ref_phi1_map), "phi2": (phi2, ref_phi2_map),
    "phi1_b": (phi1_b, ref_phi1_b), "phi2_b": (phi2_b, ref_phi2_b),
    "phi1_d": (phi1_d, ref_phi1_d), "phi2_d": (phi2_d, ref_phi2_d),
    "zeta1": (zeta1, ref_zeta1), "zeta1_inv": (zeta1_inv, ref_zeta1_inv),
    "zeta2": (zeta2, ref_zeta2), "zeta2_inv": (zeta2_inv, ref_zeta2_inv),
    "snake_to_tree": (snake_to_tree, ref_snake_to_tree),
}


def outcome(fn, window):
    try:
        return ("ok", fn(window))
    except (ValueError, MembershipError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "step", None))


# -- the tests --------------------------------------------------------------

@pytest.mark.parametrize("family, fn, ref", [("rsi", phi1, ref_phi1), ("rsii", phi2, ref_phi2)])
def test_phi_matches_the_reference_on_every_window_up_to_7(family, fn, ref):
    classes_hold = CLASSES_HOLD[fn]
    for n in range(1, 8):
        for w in enumerate_family(family, n):
            image = fn(w, trace=True)
            assert image == ref(w) and classes_hold(w, image[0]), w


@pytest.mark.parametrize("family, fn", [("rsi", phi1), ("rsii", phi2)])
def test_each_level_of_phi_is_phi_of_the_restriction(family, fn):
    traces = {}  # member -> trace, filled size by size
    for n in range(1, 7):
        for w in enumerate_family(family, n):
            steps = traces[w] = fn(w, trace=True)[1]
            for j in range(1, n):
                assert traces.get(subword(w, j)) == steps[:j], (w, j)


def grown_forest(rng, n):
    """A random increasing forest on 1..n: label j opens a new root or
    fills a random empty slot, as a labelled leaf or with two empty ones."""
    roots, kids, slots = {}, {}, []
    for j in range(1, n + 1):
        k = rng.randrange(len(slots) + 1)
        if k == len(slots):
            roots[j] = [rng.choice((BLACK, WHITE)), EMPTY]
            slots.append((roots[j], 1))
            continue
        holder, i = slots.pop(k)
        holder[i] = j
        if rng.random() < 0.5:
            kids[j] = None
        else:
            kids[j] = [EMPTY, EMPTY]
            slots += [(kids[j], 0), (kids[j], 1)]

    def node(v):
        if v == EMPTY:
            return EMPTY
        return (v,) if kids[v] is None else (v, node(kids[v][0]), node(kids[v][1]))

    return tuple((color, r, node(child)) for r, (color, child) in sorted(roots.items()))


@pytest.mark.parametrize("inv, fn, ref", [(phi1_inv, phi1, ref_phi1), (phi2_inv, phi2, ref_phi2)])
def test_phi_matches_the_reference_at_large_n(inv, fn, ref):
    rng = random.Random(9)
    for _ in range(50):
        forest = grown_forest(rng, rng.randint(20, 160))
        validate_forest(forest)
        w = inv(forest)
        image, steps = fn(w, trace=True)
        assert (image, steps) == ref(w) and image == forest, w
        for j in range(1, len(w) + 1):
            sub = subword(w, j)
            level, level_steps = fn(sub, trace=True)
            assert level_steps == steps[:j] and CLASSES_HOLD[fn](sub, level), (w, j)


MALFORMED = [(), (0,), (1, 1), (2,), (1, -1), (2, 0, 1), ("a",), (1.0, -2.0), (True,)]


@pytest.mark.parametrize("name", sorted(WINDOW_MAPS))
def test_window_maps_fail_as_the_check_chain_did(name):
    fn, ref = WINDOW_MAPS[name]
    windows = MALFORMED + [w for n in range(1, 6) for w in all_windows(n)]
    for w in windows:
        assert outcome(fn, w) == outcome(ref, w), w


@pytest.mark.parametrize("n", range(2, 8))
def test_shrinking_a_d_member_leaves_a_b_member(n):
    for family, b, base, shrink in [("rsi-d", "rsi-b", "rsi", shrink_last_entry),
                                    ("rsii-d", "rsii-b", "rsii", shrink_first_entry)]:
        for w in enumerate_family(family, n):
            u = shrink(w)
            assert is_member(u, b) and is_member(u, base), (family, w)


@pytest.mark.parametrize("n", range(2, 8))
def test_expanding_a_b_member_past_its_bound_leaves_a_d_member(n):
    """The converse: phi1_d/phi2_d check a window's -d membership as -b
    membership of its shrunk form plus the anchor bound."""
    for family, b, expand, bound in [("rsi-d", "rsi-b", expand_last_entry, lambda u: u[-1]),
                                     ("rsii-d", "rsii-b", expand_first_entry, gae)]:
        for u in enumerate_family(b, n - 1):
            for k in range(bound(u) + 1, n + 1):
                assert is_member(expand(u, k), family), (family, u, k)


def test_a_forest_cut_from_a_valid_tree_is_valid():
    for n in range(1, 7):
        for t in enumerate_trees(n, starred=False):
            assert validate_forest(_tree_to_forest(t)) == n


def test_the_class_checks_see_a_moved_leaf():
    """Moving the labelled leaf 6 into another empty slot changes two
    node classes; the class checks must reject the result."""
    moved1 = ((WHITE, 1, (2, EMPTY, (3, (4, (6,), (7,)), (8, EMPTY, EMPTY)))),
              (BLACK, 5, EMPTY))
    moved2 = ((BLACK, 1, (3, (8, EMPTY, EMPTY), (4, (5, (6,), EMPTY), EMPTY))),
              (WHITE, 2, EMPTY), (BLACK, 7, EMPTY))
    for fn, w, moved in [(phi1, fx.TYPE1_EXAMPLE, moved1), (phi2, fx.TYPE2_EXAMPLE, moved2)]:
        validate_forest(moved)
        assert CLASSES_HOLD[fn](w, fn(w))
        assert not CLASSES_HOLD[fn](w, moved)
