"""Bijections between signed permutation families and tree/forest objects.

The two central maps build an increasing forest from a signed Simsun
permutation by following its chain of value restrictions: step j looks
at where the entry of absolute value j was inserted into the previous
restriction and performs the matching forest surgery.

* ``phi1`` (type I) classifies the insertion point against peaks and
  double-ascent elements of the absolute word, padded with 0 on the
  left and a large value on the right.
* ``phi2`` (type II) works on signed words padded with -(n+1) and n+1,
  routes end insertions to new colored components (black left, white
  right), and addresses interior insertions through the ranked list of
  singular empty leaves.

Both are inverted by first assigning each labelled node a sign (white
roots, two-empty-leaf nodes and left-heavy nodes are positive; black
roots, labelled leaves and right-heavy nodes are negative), then
peeling labels n..2 and replaying the insertions.

``zeta1``/``zeta2`` shift signed Andre permutations of size n+1 down to
signed Simsun permutations of size n by sliding entries along the
right-to-left minima (type I) or augmenting positions (type II).

The ``*_b``/``*_d`` variants land in circ- and star-class trees; the
``_d`` maps shrink the window by its anchor entry first and relabel the
tree afterwards.
"""
from __future__ import annotations

from .errors import MembershipError
from .forests import (BLACK, WHITE, _arranged_key, _forest_to_tree,
                      _tree_to_forest, validate_forest)
from .permutations import (check_window, expand_first_entry,
                           expand_last_entry, shrink_first_entry,
                           shrink_last_entry, _augmenting, _linked, _member,
                           _rl_min_positions, _simsun_levels_ok)
from .trees import (EMPTY, _lower_rightmost_leaf, _raise_rightmost_leaf,
                    _subtrees, is_starred, rmlab, tree_nodes, validate_tree)


class _Builder:
    """Mutable forest under construction, keyed by node label: a root
    holds its one child slot (``[EMPTY]`` or ``[label]``), an inner node
    its two (``[l, r]``), a labelled leaf ``None``.  A slot is ``(v, i)``,
    the i-th child slot of v.  The non-root entries are the
    ``trees.tree_nodes`` node map."""

    def __init__(self):
        self.colors = {}  # root label -> BLACK | WHITE
        self.kids = {}    # label -> [c] | [l, r] | None

    @staticmethod
    def from_forest(forest) -> "_Builder":
        b = _Builder()
        for color, root, child in forest:
            b.colors[root] = color
            b.kids[root] = [child if child == EMPTY else child[0]]
            if child != EMPTY:
                b.kids.update(tree_nodes(child)[1])
        return b

    def to_forest(self) -> tuple:
        built = _subtrees(self.kids)  # a root's entry is (root, child)
        return tuple((self.colors[root],) + built[root] for root in sorted(self.colors))

    def singular_slots(self):
        """Singular empty leaves left to right in the arranged layout: the
        empty slot of a node that has exactly one (a root's lone slot
        included)."""
        slots = []
        todo = sorted(self.colors, key=lambda r: _arranged_key(self.colors[r], r),
                      reverse=True)  # labels to walk and slots to read, last first
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
        """'terminal' | 'intermediate' | 'plain' for the current shape."""
        kid = self.kids[v]
        if kid is None or kid == [EMPTY, EMPTY]:
            return "terminal"
        return "intermediate" if EMPTY in kid else "plain"


def _b1_signs(b: _Builder, n: int) -> dict:
    """Sign each labelled node; empty slots count as larger than any label."""
    signs = {}
    big = n + 1
    for v, kid in b.kids.items():
        if v in b.colors:
            signs[v] = 1 if b.colors[v] == WHITE else -1
        elif kid is None:
            signs[v] = -1
        elif kid == [EMPTY, EMPTY]:
            signs[v] = 1
        else:
            l = big if kid[0] == EMPTY else kid[0]
            r = big if kid[1] == EMPTY else kid[1]
            signs[v] = 1 if l > r else -1
    return signs


# -- word marks ----------------------------------------------------------

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


def _require_family(w, family: str, name: str):
    if not _member(w, family):
        signed = family.startswith("rsii") or family.startswith("adii")
        k = _simsun_levels_ok(w, signed=signed)
        raise MembershipError(f"{name}: input not in {family}", step=k)


def _unlinked_chain(w):
    """(prv, nxt, at) of ``permutations._linked`` after unlinking the
    entries |x| = n, ..., 1 in turn: one O(n) pass.  An unlinked entry
    keeps its own links, so relinking |x| = 1, ..., n in turn
    (``nxt[prv[p]] = prv[nxt[p]] = p``) replays the restriction chain:
    just before entry j is relinked, the list holds the level-(j-1)
    restriction and j's links name its neighbours in the level-j one."""
    prv, nxt, at = _linked(w)
    for k in range(len(w), 0, -1):
        p = at[k]
        nxt[prv[p]], prv[nxt[p]] = nxt[p], prv[p]
    return prv, nxt, at


# -- phi1: type-I Simsun -> forests --------------------------------------

def phi1(window, trace: bool = False):
    w = check_window(window)
    _require_family(w, "rsi", "phi1")
    return _phi1(w, trace)


def _phi1(w, trace: bool = False):
    """``phi1`` of an rsi member: step j reads the neighbours a, c of j in
    the level-j restriction and the marks of a, c one level down, where
    they are adjacent (peaks and double ascents of the absolute word,
    read off the linked list)."""
    n = len(w)
    prv, nxt, at = _unlinked_chain(w)
    key = [0] + [abs(x) for x in w] + [n + 1]
    b = _Builder()
    steps = []
    for j in range(1, n + 1):
        p = at[j]
        a, c = prv[p], nxt[p]
        x = w[p - 1]
        if c > n:
            b.colors[j] = WHITE if x > 0 else BLACK
            b.kids[j] = [EMPTY]
            steps.append(("i", "new-root", j))
        elif key[a] < key[c]:
            y = w[c - 1]
            if not key[a] < key[c] < key[nxt[c]]:
                raise MembershipError(f"phi1: {y} is not a double-ascent element", step=j)
            v = abs(y)
            kid = b.kids[v]
            if kid is None or kid.count(EMPTY) != 1:
                raise MembershipError(f"node {v} is not intermediate")
            kid[kid.index(EMPTY)] = j
            b.kids[j] = [EMPTY, EMPTY] if x > 0 else None
            steps.append(("ii", "fill-intermediate", v))
        else:
            y = w[a - 1]
            if not key[prv[a]] < key[a] > key[c]:
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
        nxt[a] = prv[c] = p
    forest = b.to_forest()
    return (forest, steps) if trace else forest


def phi1_inv(forest, trace: bool = False):
    validate_forest(forest)
    return _phi1_inv(forest, trace)


def _phi1_inv(forest, trace: bool = False):
    """``phi1_inv`` of a forest that ``validate_forest`` accepted."""
    b = _Builder.from_forest(forest)
    n = len(b.kids)
    signs = _b1_signs(b, n)
    records = _peel(b, signs, n, _type1_record)
    word = [signs[1] * 1]
    steps = [("root", 1)]
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
    out = tuple(word)
    return (out, steps) if trace else out


def _peel(b: _Builder, signs: dict, n: int, record) -> dict:
    """Remove labels n..2, keeping for each how to replay it: ("root",)
    for a root, else ``record(b, j, slot)`` once j is unhooked from the
    vacated ``slot``.  Parents are read once, before the first label
    goes: peeling from the top never moves a node that is left."""
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


def _type1_record(b: _Builder, j: int, slot) -> tuple:
    v = slot[0]
    status = b.node_status(v)
    if status == "plain":
        raise MembershipError(f"parent {v} of {j} has no empty slot after peeling")
    return ("child", v, status)


# -- phi2: type-II Simsun -> forests -------------------------------------

def phi2(window, trace: bool = False):
    w = check_window(window)
    _require_family(w, "rsii", "phi2")
    return _phi2(w, trace)


def _phi2(w, trace: bool = False):
    """``phi2`` of an rsii member, read off the linked list as in ``_phi1``
    but by signed value; a type-ii step ranks its target among the double
    ascents of the level-(j-1) restriction by walking that list."""
    n = len(w)
    prv, nxt, at = _unlinked_chain(w)
    val = [-n - 1] + list(w) + [n + 1]

    def double_ascent(q):
        return val[prv[q]] < val[q] < val[nxt[q]]

    b = _Builder()
    steps = []
    for j in range(1, n + 1):
        p = at[j]
        a, c = prv[p], nxt[p]
        x, y, z = val[p], val[a], val[c]
        if (c > n and x > 0) or (a == 0 and x < 0):
            b.colors[j] = WHITE if x > 0 else BLACK
            b.kids[j] = [EMPTY]
            steps.append(("i", "new-root", j))
        elif y < z:
            t = a if x < 0 else c
            if not double_ascent(t):
                raise MembershipError(f"phi2: {val[t]} is not a double-ascent element", step=j)
            rank, q = 0, nxt[0]
            while q != t:
                rank += double_ascent(q)
                q = nxt[q]
            slots = b.singular_slots()
            if rank >= len(slots):
                raise MembershipError("phi2: singular leaf rank out of range", step=j)
            v, i = slots[rank]
            b.kids[v][i] = j
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
        nxt[a] = prv[c] = p
    forest = b.to_forest()
    return (forest, steps) if trace else forest


def phi2_inv(forest, trace: bool = False):
    validate_forest(forest)
    return _phi2_inv(forest, trace)


def _phi2_inv(forest, trace: bool = False):
    """``phi2_inv`` of a forest that ``validate_forest`` accepted."""
    b = _Builder.from_forest(forest)
    n = len(b.kids)
    signs = _b1_signs(b, n)
    root_colors = dict(b.colors)
    records = _peel(b, signs, n, _type2_record)
    word = [signs[1] * 1]
    steps = [("root", 1)]
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
    out = tuple(word)
    return (out, steps) if trace else out


def _type2_record(b: _Builder, j: int, slot) -> tuple:
    v = slot[0]
    if b.node_status(v) == "terminal":
        return ("terminal", v)
    slots = b.singular_slots()
    if slot not in slots:
        raise MembershipError(f"vacated slot of {j} is not singular", step=j)
    return ("singular", slots.index(slot))


# -- tree-valued variants -------------------------------------------------
# Each map checks its input once and then runs the unchecked cores:
# shrinking an rsi-d (rsii-d) member leaves an rsi-b (rsii-b) member,
# which is in rsi (rsii), and a forest cut from a valid tree is valid.

def phi1_b(window):
    w = check_window(window)
    if not _member(w, "rsi-b"):
        raise MembershipError("phi1_b: input not in rsi-b")
    return _forest_to_tree(_phi1(w))


def phi1_b_inv(tree):
    validate_tree(tree)
    return _phi1_b_inv(tree)


def _phi1_b_inv(tree):
    w = _phi1_inv(_tree_to_forest(tree))
    if not _member(w, "rsi-b"):
        raise MembershipError("phi1_b_inv: tree is not a type-I B image")
    return w


def phi1_d(window):
    w = check_window(window)
    if not _member(w, "rsi-d") or len(w) < 2:
        raise MembershipError("phi1_d: input not in rsi-d (size >= 2)")
    k = abs(w[-1])
    tree = _forest_to_tree(_phi1(shrink_last_entry(w)))
    return _raise_rightmost_leaf(tree, k)


def phi1_d_inv(tree):
    validate_tree(tree)
    if not is_starred(tree):
        raise MembershipError("phi1_d_inv: rightmost leaf must be labelled")
    k = rmlab(tree)
    if k < 2:
        raise MembershipError("phi1_d_inv: rightmost label must be >= 2")
    return expand_last_entry(_phi1_b_inv(_lower_rightmost_leaf(tree)), k)


def phi2_b(window):
    w = check_window(window)
    if not _member(w, "rsii-b"):
        raise MembershipError("phi2_b: input not in rsii-b")
    return _forest_to_tree(_phi2(w))


def phi2_b_inv(tree):
    validate_tree(tree)
    return _phi2_b_inv(tree)


def _phi2_b_inv(tree):
    w = _phi2_inv(_tree_to_forest(tree))
    if not _member(w, "rsii-b"):
        raise MembershipError("phi2_b_inv: tree is not a type-II B image")
    return w


def phi2_d(window):
    w = check_window(window)
    if not _member(w, "rsii-d") or len(w) < 2:
        raise MembershipError("phi2_d: input not in rsii-d (size >= 2)")
    k = abs(w[0])
    shrunk = shrink_first_entry(w)
    aug = _augmenting(shrunk)
    if not aug or aug[-1] >= k:
        raise MembershipError("phi2_d: shrunk window lacks a smaller augmenting anchor")
    tree = _forest_to_tree(_phi2(shrunk))
    return _raise_rightmost_leaf(tree, k)


def phi2_d_inv(tree):
    validate_tree(tree)
    if not is_starred(tree):
        raise MembershipError("phi2_d_inv: rightmost leaf must be labelled")
    k = rmlab(tree)
    if k < 2:
        raise MembershipError("phi2_d_inv: rightmost label must be >= 2")
    return expand_first_entry(_phi2_b_inv(_lower_rightmost_leaf(tree)), k)


# -- zeta maps -------------------------------------------------------------

def _inc(v: int) -> int:
    return v + 1 if v > 0 else v - 1


def _slide(w, marks) -> tuple[int, ...]:
    """Drop the last position; each marked position takes the entry of
    the next mark (the last mark must be the last position), and every
    entry moves one step towards zero."""
    nxt = dict(zip(marks, marks[1:]))
    slid = (w[nxt.get(p, p)] for p in range(len(w) - 1))
    return tuple(v - 1 if v > 0 else v + 1 for v in slid)


def _unslide(w, marks) -> tuple[int, ...]:
    """Inverse of ``_slide``: append a position, move each marked entry
    to the next mark (the last one to the appended position), put 1 at
    the first mark (the appended position when there is none), and move
    every entry one step away from zero."""
    ext = marks + [len(w)]
    out = [_inc(v) for v in w] + [1]
    for p, q in zip(ext, ext[1:]):
        out[q] = _inc(w[p])
    out[ext[0]] = 1
    return tuple(out)


def _augmenting_positions(w) -> list[int]:
    """Positions of the augmenting entries: positive right-to-left minima
    of the absolute word."""
    return [p for p in _rl_min_positions([abs(x) for x in w]) if w[p] > 0]


def zeta1(window) -> tuple[int, ...]:
    """Slide entries along right-to-left minima and drop the entry 1."""
    w = check_window(window)
    _require_family(w, "adi", "zeta1")
    if len(w) < 2:
        raise MembershipError("zeta1 needs size >= 2")
    mins = _rl_min_positions([abs(x) for x in w])
    if w[mins[0]] != 1:
        raise MembershipError("zeta1: minima structure violated")
    return _slide(w, mins)


def zeta1_inv(window) -> tuple[int, ...]:
    w = check_window(window)
    _require_family(w, "rsi", "zeta1_inv")
    return _unslide(w, _rl_min_positions([abs(x) for x in w]))


def zeta2(window) -> tuple[int, ...]:
    """Slide entries along augmenting positions and drop the entry 1.

    Only the structural prerequisites of the sliding formula are
    enforced (the entry 1 must be the least augmenting element and the
    window must close on an augmenting entry): the published worked
    example for this map sits outside the literal no-double-descent
    family, so full membership is left to the callers that need it.
    """
    w = check_window(window)
    if len(w) < 2:
        raise MembershipError("zeta2 needs size >= 2")
    aug = _augmenting_positions(w)
    if not aug or w[aug[0]] != 1:
        raise MembershipError("zeta2: the entry 1 must be augmenting")
    if aug[-1] != len(w) - 1:
        raise MembershipError("zeta2: single augmenting entry must close the window"
                              if len(aug) == 1 else "zeta2: last entry must be augmenting")
    return _slide(w, aug)


def zeta2_inv(window) -> tuple[int, ...]:
    w = check_window(window)
    return _unslide(w, _augmenting_positions(w))
