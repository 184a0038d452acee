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
replaying the labels 1..n in order, each inserted into a linked word.

``phi2`` and its inverse keep the singular empty leaves on a frontier
(``_Leaves``): the forest's leaves in arranged order, a linked list over
int arrays that each step edits where it changes the forest, so a rank
costs a walk of that list, not a walk of the whole forest.  Both forward
maps hold the forest in one flat int array with the frontier's numbering,
slot (v, i) at 2v + i, and build its tuples once at the end.

``zeta1``/``zeta2`` shift signed Andre permutations of size n+1 down to
signed Simsun permutations of size n by sliding entries along the
right-to-left minima (type I) or augmenting positions (type II).

The ``*_b``/``*_d`` variants land in circ- and star-class trees; the
``_d`` maps shrink the window by its anchor entry first and relabel the
tree afterwards.
"""
from __future__ import annotations

from math import inf

from .errors import MembershipError
from .forests import (BLACK, WHITE, _forest_to_tree, _tree_to_forest,
                      validate_forest)
from .permutations import (_FAMILIES, check_window, expand_first_entry,
                           expand_last_entry, _augmenting_positions, _d_split,
                           _first_bad_level, _linked, _member,
                           _minima_positive, _rl_min_positions)
from .trees import (EMPTY, _lower_rightmost_leaf, _raise_rightmost_leaf,
                    _rightmost_end, validate_tree)


def _forest(colors: dict, kid: list) -> tuple:
    """The forest of a slot array: ``kid[2v + i]`` holds the label in slot
    (v, i), 0 when it is empty, and ``kid[2v]`` is -1 for a labelled leaf
    v; a root's one slot is (v, 0), and ``colors`` holds its color."""
    built = [EMPTY] * (len(kid) // 2)  # built[0]: an empty slot
    for k in range(len(built) - 1, 0, -1):
        left = kid[2 * k]
        built[k] = (k,) if left < 0 else (k, built[left], built[kid[2 * k + 1]])
    return tuple((colors[root], root, built[kid[2 * root]]) for root in sorted(colors))


def _link(prv: list, nxt: list, a: int, s: int) -> None:
    """Put item s right after item a in the linked list (prv, nxt)."""
    c = nxt[a]
    prv[s], nxt[s] = a, c
    nxt[a] = prv[c] = s


class _Leaves:
    """The frontier of phi2: the leaves of a forest under construction in
    arranged order (black roots decreasing, then white roots increasing),
    as a doubly linked list over flat int arrays from a head 0 to a tail 1.
    Item ``2v + i`` is the slot (v, i); a labelled leaf v, which has no
    slots, is ``2v``.  ``lone[s]`` marks a singular empty leaf, its node's
    only empty slot."""

    def __init__(self, n: int):
        self.prv = [0] * (2 * n + 2)
        self.nxt = [1] * (2 * n + 2)
        self.lone = bytearray(2 * n + 2)

    def root(self, j: int, white: bool) -> None:
        """A new root j: a black one goes first, a white one last."""
        _link(self.prv, self.nxt, self.prv[1] if white else 0, 2 * j)
        self.lone[2 * j] = 1

    def open(self, s: int) -> None:
        """Slot s of a terminal node is to be filled: its other slot, grown
        first when s is a labelled leaf's left slot, becomes singular."""
        if not s & 1:
            _link(self.prv, self.nxt, s, s + 1)
        self.lone[s ^ 1] = 1

    def put(self, s: int, j: int, two: bool) -> None:
        """j fills slot s: its items 2j (and 2j + 1) take s's place."""
        prv, nxt = self.prv, self.nxt
        a, c, t = prv[s], nxt[s], 2 * j
        nxt[a], prv[t] = t, a
        if two:
            nxt[t], prv[t + 1] = t + 1, t
            t += 1
        nxt[t], prv[c] = c, t

    def rank(self, s: int) -> int:
        """The number of singular leaves before item s."""
        lone, nxt = self.lone, self.nxt
        r, q = 0, nxt[0]
        while q != s:
            r += lone[q]
            q = nxt[q]
        return r

    def singular(self, rank: int) -> int:
        """The singular leaf of this rank, or the tail 1 past the last."""
        lone, nxt = self.lone, self.nxt
        q = nxt[0]
        while q != 1 and (rank or not lone[q]):
            rank -= lone[q]
            q = nxt[q]
        return q


def _require_family(w, family: str, name: str):
    if not _member(w, family):
        k = _first_bad_level(w, _FAMILIES[family].levels[0], False)
        raise MembershipError(f"{name}: input not in {family}", step=k)


def _member_chain(w, family: str, message: str):
    """The restriction chain of a member of ``family`` (rsi or rsii, or
    its -b refinement), else a MembershipError with ``message`` (and, for
    rsi or rsii, the first bad level as its step).  The chain is
    (prv, nxt, at) of ``permutations._linked`` after unlinking the
    entries |x| = n, ..., 1 in turn.  The membership scan
    (``permutations._first_bad_level``) unlinks n, ..., 2 from the list
    it reads, flagging each entry that creates its level's defect (the
    least bad level's defect is its own entry's, as the levels below are
    clean), and leaves only the entry 1 to unlink.  An unlinked entry
    keeps its own links, so relinking |x| = 1, ..., n in turn
    (``nxt[prv[p]] = prv[nxt[p]] = p``) replays the restriction chain:
    just before entry j is relinked, the list holds the level-(j-1)
    restriction and j's links name its neighbours in the level-j one."""
    n = len(w)
    chain = prv, nxt, _ = _linked(w)
    spec = _FAMILIES[family]
    k = _first_bad_level(w, *spec.levels, chain)
    if k is not None or spec.minima and not _minima_positive(w, spec.minima):
        raise MembershipError(message, step=None if spec.minima else k)
    nxt[0], prv[n + 1] = n + 1, 0
    return chain


def _d_member_chain(w, family: str, name: str):
    """(k, u, chain) of a member w of size >= 2 of ``family`` (rsi-d or
    rsii-d), else ``name``'s MembershipError: ``permutations._d_split``
    gives k and u, and chain is u's ``_member_chain`` in the -b family."""
    message = f"{name}: input not in {family} (size >= 2)"
    d = _FAMILIES[family].d
    split = _d_split(w, d)
    if split is None:
        raise MembershipError(message)
    k, u = split
    return k, u, _member_chain(u, d[0], message)


def _hooks(forest):
    """(colors, n, signs, hooks) for the inverses, which replay a forest's
    labels in increasing order, from one walk of its components.  A node
    is positive when it is a white root or its left slot holds the larger
    label (an empty slot counts as larger than any), so a labelled leaf
    is negative.  ``hooks[j]`` is None for a root, else (v, i, terminal)
    for j in the slot (v, i): terminal when v, no root, has no smaller
    child, and so is still a labelled leaf or two empty leaves, by its
    sign, as j arrives."""
    colors, signs, hooks = {}, {}, {}
    for color, root, child in forest:
        colors[root] = color
        signs[root] = 1 if color == WHITE else -1
        hooks[root] = None
        if child == EMPTY:
            continue
        hooks[child[0]] = (root, 0, False)
        todo = [child]
        while todo:
            node = todo.pop()
            if len(node) == 1:
                signs[node[0]] = -1
                continue
            k, left, right = node
            a = inf if left == EMPTY else left[0]
            b = inf if right == EMPTY else right[0]
            signs[k] = 1 if a >= b else -1
            if b != inf:
                hooks[b] = (k, 1, a > b)
                todo.append(right)
            if a != inf:
                hooks[a] = (k, 0, b > a)
                todo.append(left)
    return colors, len(signs), signs, hooks


def _word(nxt: list, signs: dict, n: int) -> tuple:
    """The signed word held in a linked list over the labels 1..n."""
    out, q = [], nxt[0]
    while q <= n:
        out.append(signs[q] * q)
        q = nxt[q]
    return tuple(out)


# -- phi1: type-I Simsun -> forests --------------------------------------

def phi1(window, trace: bool = False):
    w = check_window(window)
    return _phi1(w, _member_chain(w, "rsi", "phi1: input not in rsi"), trace)


def _phi1(w, chain, trace: bool = False):
    """``phi1`` of an rsi member with its ``_member_chain``: step j
    reads the neighbours a, c of j in the level-j restriction and the
    marks of a, c one level down, where they are adjacent (peaks and
    double ascents of the absolute word, read off the linked list).
    Levels j-1 and j have no double descent, so c is a double ascent if
    key[a] < key[c], else a is a peak; the class correspondence (checked
    in ``tests/test_chain_pass.py``) gives each edited node its class."""
    n = len(w)
    prv, nxt, at = chain
    key = [0] + [abs(x) for x in w] + [n + 1]
    colors, kid = {}, [0] * (2 * n + 2)  # kid: the slots of ``_forest``
    steps = []
    for j in range(1, n + 1):
        p = at[j]
        a, c = prv[p], nxt[p]
        x = w[p - 1]
        if c > n:
            colors[j] = WHITE if x > 0 else BLACK
            steps.append(("i", "new-root", j))
        elif key[a] < key[c]:
            v = abs(w[c - 1])
            kid[2 * v + (kid[2 * v] > 0)] = j  # v's first empty slot
            steps.append(("ii", "fill-intermediate", v))
        else:
            y = w[a - 1]
            kid[2 * abs(y) + (y > 0)] = j  # a labelled leaf's left slot, else a right one
            steps.append(("iii", "attach-at-peak", y))
        if x < 0 and c <= n:
            kid[2 * j] = -1  # a labelled leaf
        nxt[a] = prv[c] = p
    forest = _forest(colors, kid)
    return (forest, steps) if trace else forest


def phi1_inv(forest, trace: bool = False):
    validate_forest(forest)
    return _phi1_inv(forest, trace)


def _phi1_inv(forest, trace: bool = False):
    """``phi1_inv`` of a forest that ``validate_forest`` accepted: a root
    goes last in the word, j goes right of a terminal parent and left of
    an intermediate one."""
    _, n, signs, hooks = _hooks(forest)
    prv, nxt = [0] * (n + 2), [n + 1] * (n + 2)  # the word, between 0 and n + 1
    steps = []
    for j in range(1, n + 1):
        if hooks[j] is None:
            _link(prv, nxt, prv[n + 1], j)
            steps.append(("root", j))
        else:
            v, _, terminal = hooks[j]
            _link(prv, nxt, v if terminal else prv[v], j)
            steps.append(("right-of" if terminal else "left-of", v))
    out = _word(nxt, signs, n)
    return (out, steps) if trace else out


# -- phi2: type-II Simsun -> forests -------------------------------------

def phi2(window, trace: bool = False):
    w = check_window(window)
    return _phi2(w, _member_chain(w, "rsii", "phi2: input not in rsii"), trace)


def _phi2(w, chain, trace: bool = False):
    """``phi2`` of an rsii member, read off its ``_member_chain`` as in
    ``_phi1`` but by signed value; a type-ii step ranks its target among
    the double ascents of the level-(j-1) restriction by walking that
    list, and finds the singular leaf of that rank on the frontier.
    Membership makes each step valid, as in ``_phi1``; a type-iii step
    has y > z, so z < 0 if |y| < |z|, and y > 0 if |y| > |z|."""
    n = len(w)
    prv, nxt, at = chain
    val = [-n - 1] + list(w) + [n + 1]
    colors, kid = {}, [0] * (2 * n + 2)  # kid: the slots of ``_forest``
    leaves = _Leaves(n)
    steps = []
    for j in range(1, n + 1):
        p = at[j]
        a, c = prv[p], nxt[p]
        x, y, z = val[p], val[a], val[c]
        if (c > n and x > 0) or (a == 0 and x < 0):
            colors[j] = WHITE if x > 0 else BLACK
            leaves.root(j, x > 0)
            steps.append(("i", "new-root", j))
        else:
            if y < z:
                t = a if x < 0 else c
                rank, q = 0, nxt[0]
                while q != t:
                    rank += val[prv[q]] < val[q] < val[nxt[q]]
                    q = nxt[q]
                s = leaves.singular(rank)
                steps.append(("ii", "fill-singular", rank + 1))
            elif abs(y) < abs(z):
                s = -2 * z
                leaves.open(s)
                steps.append(("iii", "under-heavy-bottom", z))
            else:
                s = 2 * y + 1
                leaves.open(s)
                steps.append(("iii", "under-heavy-top", y))
            kid[s], kid[2 * j] = j, -(x < 0)  # -1: j is a labelled leaf
            leaves.put(s, j, x > 0)
        nxt[a] = prv[c] = p
    forest = _forest(colors, kid)
    return (forest, steps) if trace else forest


def phi2_inv(forest, trace: bool = False):
    validate_forest(forest)
    return _phi2_inv(forest, trace)


def _phi2_inv(forest, trace: bool = False):
    """``phi2_inv`` of a forest that ``validate_forest`` accepted: the
    labels replay ``_phi2``'s frontier edits, a white (black) root goes
    last (first) in the word, j goes next to a terminal parent, and a
    singular leaf's rank picks the double ascent j goes next to."""
    colors, n, signs, hooks = _hooks(forest)
    leaves = _Leaves(n)
    val = [-n - 1] + [signs[k] * k for k in range(1, n + 1)] + [n + 1]
    prv, nxt = [0] * (n + 2), [n + 1] * (n + 2)  # the word, between 0 and n + 1
    steps = []
    for j in range(1, n + 1):
        if hooks[j] is None:
            white = colors[j] == WHITE
            leaves.root(j, white)
            _link(prv, nxt, prv[n + 1] if white else 0, j)
            steps.append(("root", j))
            continue
        v, i, terminal = hooks[j]
        s = 2 * v + i
        if terminal:
            _link(prv, nxt, v if signs[v] > 0 else prv[v], j)
            leaves.open(s)
            steps.append(("at-terminal", v))
        else:
            rank = r = leaves.rank(s)
            q = nxt[0]
            while q <= n and (r or not val[prv[q]] < val[q] < val[nxt[q]]):
                r -= val[prv[q]] < val[q] < val[nxt[q]]
                q = nxt[q]
            if q > n:
                raise MembershipError("phi2_inv: double-ascent rank out of range", step=j)
            _link(prv, nxt, prv[q] if signs[j] > 0 else q, j)
            steps.append(("at-singular", rank + 1))
        leaves.put(s, j, signs[j] > 0)
    out = _word(nxt, signs, n)
    return (out, steps) if trace else out


# -- tree-valued variants -------------------------------------------------
# Each map checks its input once and then runs the unchecked cores: a
# -d map checks the window its anchor shrinks to for rsi-b (rsii-b)
# membership, which implies rsi (rsii), and a forest cut from a valid
# tree is valid.  An inverse's output needs no check: phi1 (phi2) sends
# rsi-b (rsii-b) one-to-one into the white forests, which are as many
# (prop-4-2, prop-5-1, thm-2-13).

def phi1_b(window):
    w = check_window(window)
    return _forest_to_tree(_phi1(w, _member_chain(w, "rsi-b", "phi1_b: input not in rsi-b")))


def phi1_b_inv(tree):
    validate_tree(tree)
    return _phi1_inv(_tree_to_forest(tree))


def phi1_d(window):
    k, u, chain = _d_member_chain(check_window(window), "rsi-d", "phi1_d")
    return _raise_rightmost_leaf(_forest_to_tree(_phi1(u, chain)), k)


def phi1_d_inv(tree):
    validate_tree(tree)
    starred, k = _rightmost_end(tree)
    if not starred:
        raise MembershipError("phi1_d_inv: rightmost leaf must be labelled")
    if k < 2:
        raise MembershipError("phi1_d_inv: rightmost label must be >= 2")
    return expand_last_entry(_phi1_inv(_tree_to_forest(_lower_rightmost_leaf(tree))), k)


def phi2_b(window):
    w = check_window(window)
    return _forest_to_tree(_phi2(w, _member_chain(w, "rsii-b", "phi2_b: input not in rsii-b")))


def phi2_b_inv(tree):
    validate_tree(tree)
    return _phi2_inv(_tree_to_forest(tree))


def phi2_d(window):
    k, u, chain = _d_member_chain(check_window(window), "rsii-d", "phi2_d")
    return _raise_rightmost_leaf(_forest_to_tree(_phi2(u, chain)), k)


def phi2_d_inv(tree):
    validate_tree(tree)
    starred, k = _rightmost_end(tree)
    if not starred:
        raise MembershipError("phi2_d_inv: rightmost leaf must be labelled")
    if k < 2:
        raise MembershipError("phi2_d_inv: rightmost label must be >= 2")
    return expand_first_entry(_phi2_inv(_tree_to_forest(_lower_rightmost_leaf(tree))), k)


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


def zeta1(window) -> tuple[int, ...]:
    """Slide entries along right-to-left minima and drop the entry 1."""
    w = check_window(window)
    _require_family(w, "adi", "zeta1")
    if len(w) < 2:
        raise MembershipError("zeta1 needs size >= 2")
    return _slide(w, _rl_min_positions([abs(x) for x in w]))


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
