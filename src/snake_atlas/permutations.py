"""Signed permutations: statistics, family membership, enumeration.

A signed permutation of [n] is a bijection s of {-n..-1, 1..n} with
s(-i) = -s(i); it is handled throughout as its window (s(1), ..., s(n)),
a tuple of signed integers whose absolute values are a permutation of
1..n.

Families
--------
``snakes``            alternating windows s1 > s2 < s3 > ...
``gamma-snakes``      snakes with (-1)^n * s_n < 0
``rsi`` / ``rsii``    signed Simsun of type I / II: every restriction of
                      |s| (resp. of s) to values up to k is free of
                      double descents
``adi`` / ``adii``    as above plus "ends with an ascent" at every
                      restriction level, and the entry +1 present
``*-b``               the minima of |s| read from the end (type I:
                      right to left) or the front (type II) are positive
``*-d``               s ends (type I) or starts (type II) with some -k,
                      and dropping it leaves (after closing the value
                      gap) a ``*-b`` member u with bound(u) < k: u's
                      last entry, or its gae for rsii-d; at n = 1, (-1,)
                      unless the family needs the entry +1
``alternating-unsigned``, ``simsun-unsigned``, ``andre-unsigned``
                      the classical all-positive versions

Restriction convention: subword(s, k) keeps the entries of absolute
value <= k in window order.

One table, ``_FAMILIES``, holds these rules, one entry per family;
membership, enumeration and the bijections' domain checks all read it.
"""
from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .errors import enforce_ceiling

DEFAULT_PERM_CEILING = 8


def check_window(window) -> tuple[int, ...]:
    """Validate a signed-permutation window and return it as a tuple of
    ints.  An entry must equal its ``int()``: 2.7 and "2" are rejected."""
    entries = tuple(window)
    try:
        w = tuple(map(int, entries))
    except TypeError:
        raise ValueError("window entries must be integers") from None
    if w != entries:
        raise ValueError("window entries must be integers")
    if not w:
        raise ValueError("window must be nonempty")
    if 0 in w:
        raise ValueError("window entries must be nonzero")
    if sorted(map(abs, w)) != list(range(1, len(w) + 1)):
        raise ValueError("absolute values must be a permutation of 1..n")
    return w


def subword(window, k: int) -> tuple[int, ...]:
    """Entries of absolute value <= k, in window order."""
    w = check_window(window)
    if not 1 <= k <= len(w):
        raise ValueError(f"k={k} out of range 1..{len(w)}")
    return tuple(x for x in w if abs(x) <= k)


def is_beta_snake(window) -> bool:
    return _member(check_window(window), "snakes")


def _alternates(w) -> bool:
    # s1 > s2 < s3 > s4 ... on signed values
    for i in range(len(w) - 1):
        if i % 2 == 0:
            if not w[i] > w[i + 1]:
                return False
        elif not w[i] < w[i + 1]:
            return False
    return True


def is_gamma_snake(window) -> bool:
    return _member(check_window(window), "gamma-snakes")


def npk(window) -> int:
    """Negative entries followed by a smaller absolute value."""
    w = check_window(window)
    return sum(1 for i in range(len(w) - 1)
               if w[i] < 0 and abs(w[i]) > abs(w[i + 1]))


def nva(window) -> int:
    """Negative entries at the bottom of a heavy-bottom descent."""
    w = check_window(window)
    return sum(1 for i in range(1, len(w))
               if w[i] < 0 and w[i - 1] > w[i] and abs(w[i - 1]) < abs(w[i]))


def augmenting_elements(window) -> tuple[int, ...]:
    """Values k whose positive letter closes the restriction to 1..k.

    k is augmenting when the entry +k appears and every entry after it
    has absolute value greater than k.
    """
    w = check_window(window)
    return tuple(w[p] for p in _augmenting_positions(w))


def _augmenting_positions(w) -> list[int]:
    """Positions of the augmenting entries: positive right-to-left minima
    of the absolute word."""
    return [p for p in _rl_min_positions([abs(x) for x in w]) if w[p] > 0]


def gae(window) -> int:
    """Greatest augmenting element; error when none exists."""
    aug = augmenting_elements(window)
    if not aug:
        raise ValueError("no augmenting element")
    return aug[-1]


def _gae_or_zero(w) -> int:
    aug = _augmenting_positions(w)
    return w[aug[-1]] if aug else 0


# -- building blocks for memberships ----------------------------------

def _linked(w):
    """(prv, nxt, at): the positions 1..n of w as a doubly linked list
    between the sentinels 0 and n + 1, and at[|x|] = the position of x."""
    n = len(w)
    at = [0] * (n + 1)
    for i, x in enumerate(w, 1):
        at[abs(x)] = i
    return [0] + list(range(n + 1)), list(range(1, n + 2)) + [n + 1], at


def _first_bad_level(w, signed: bool, need_ascent: bool, links=None) -> int | None:
    """The least level k whose restriction of w (of |w| unless ``signed``)
    has a double descent or, with ``need_ascent``, ends in a descent, or
    None.  Every level below k is clean, so k's defect is created by k's
    own entry.  One O(n) pass deletes |x| = n, ..., 2 from the word, a
    doubly linked list between sentinels below and above every value,
    and flags k when its entry creates a defect.  The largest entry of a
    level (always unless ``signed``, else +k) does when its right
    neighbour c descends to the next entry, or with ``need_ascent`` c is
    last; the smallest (-k) when its left neighbour a descends from the
    one before, or with ``need_ascent`` it is last and not alone.  The
    last k flagged is the least.  The list is ``links`` (``_linked(w)``,
    a fresh one by default); a caller that keeps it finds only the entry
    1 left in it once the pass has run."""
    n = len(w)
    v = [-n - 1, *(w if signed else map(abs, w)), n + 1]
    prv, nxt, at = links or _linked(w)
    first = None
    for k in range(n, 1, -1):
        p = at[k]
        a, c = prv[p], nxt[p]
        if v[p] > 0:
            if v[c] > v[nxt[c]] or need_ascent and c <= n and nxt[c] > n:
                first = k
        elif v[prv[a]] > v[a] or need_ascent and c > n and a:
            first = k
        nxt[a], prv[c] = c, a
    return first


def _minima_positive(w, end: str) -> bool:
    """The minima of |w| read from ``end`` are positive entries: the
    right-to-left minima for "end", and the same rule on the reversed
    window for "front"."""
    v = w if end == "end" else w[::-1]
    return all(v[i] > 0 for i in _rl_min_positions([abs(x) for x in v]))


def _rl_min_positions(absvals) -> list[int]:
    out = []
    m = None
    for i in range(len(absvals) - 1, -1, -1):
        if m is None or absvals[i] < m:
            m = absvals[i]
            out.append(i)
    return out[::-1]


def shrink_last_entry(w) -> tuple[int, ...]:
    """Drop the last entry and close the value gap at its absolute value."""
    k = abs(w[-1])
    return tuple(x if abs(x) < k else (x - 1 if x > 0 else x + 1) for x in w[:-1])


def expand_last_entry(w, k: int) -> tuple[int, ...]:
    """Reopen the value gap at k and append -k (inverse of shrink_last_entry)."""
    return tuple(x if abs(x) < k else (x + 1 if x > 0 else x - 1) for x in w) + (-k,)


def shrink_first_entry(w) -> tuple[int, ...]:
    """Drop the first entry and close the value gap at its absolute value."""
    k = abs(w[0])
    return tuple(x if abs(x) < k else (x - 1 if x > 0 else x + 1) for x in w[1:])


def expand_first_entry(w, k: int) -> tuple[int, ...]:
    """Reopen the value gap at k and prepend -k (inverse of shrink_first_entry)."""
    return (-k,) + tuple(x if abs(x) < k else (x + 1 if x > 0 else x - 1) for x in w)


def _d_split(w, d):
    """(k, u) when w (size >= 2) has some -k at the anchored end of ``d``
    (a ``_Family.d``) and shrinks there to a window u with bound(u) < k,
    else None; w is then in the -d family exactly when u is in the -b
    family."""
    _, end, bound = d
    if len(w) < 2:
        return None
    k = -w[-1 if end == "end" else 0]
    u = (shrink_last_entry if end == "end" else shrink_first_entry)(w)
    return (k, u) if k > 0 and bound(u) < k else None


# The rules of one family; a window is a member when all hold.
# ``levels`` is (signed, need_ascent) for ``_first_bad_level``, or None
# for s1 > s2 < s3 > ...; ``plus_one``: the entry +1 is present;
# ``positive``: every entry is positive; ``minima`` is the end ("end",
# type I, or "front", type II) that ``_minima_positive`` reads from;
# ``gamma``: (-1)^n * s_n < 0.  A -d family's ``d`` is (-b family,
# anchored end, bound) for ``_d_split``: its members are that
# decomposition, which implies the other rules, and at n = 1 the window
# (-1,) unless ``plus_one``.
_Family = namedtuple("_Family", "levels plus_one positive minima gamma d",
                     defaults=(False, False, None, False, None))


_last = itemgetter(-1)


# The anchors of ``enumerate_family``'s constraint, each with the entry it reads.
_ANCHORS = {"first": itemgetter(0), "last": _last, "gae": _gae_or_zero}


_FAMILIES = {
    "snakes": _Family(None),
    "gamma-snakes": _Family(None, gamma=True),
    "rsi": _Family((False, False)),
    "rsi-b": _Family((False, False), minima="end"),
    "rsi-d": _Family((False, False), d=("rsi-b", "end", _last)),
    "rsii": _Family((True, False)),
    "rsii-b": _Family((True, False), minima="front"),
    "rsii-d": _Family((True, False), d=("rsii-b", "front", _gae_or_zero)),
    "adi": _Family((False, True), plus_one=True),
    "adi-b": _Family((False, True), plus_one=True, minima="end"),
    "adi-d": _Family((False, True), plus_one=True, d=("adi-b", "end", _last)),
    "adii": _Family((True, True), plus_one=True),
    "adii-b": _Family((True, True), plus_one=True, minima="front"),
    "adii-d": _Family((True, True), plus_one=True, d=("adii-b", "front", _last)),
    "alternating-unsigned": _Family(None, positive=True),
    "simsun-unsigned": _Family((False, False), positive=True),
    "andre-unsigned": _Family((False, True), positive=True),
}
FAMILY_TAGS = tuple(_FAMILIES)


def is_member(window, family: str) -> bool:
    """Membership test for any of the FAMILY_TAGS families."""
    return _member(check_window(window), family)


def _member(w, family: str) -> bool:
    """``is_member`` for a window that ``check_window`` already returned."""
    spec = _FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}")
    if spec.d:
        if len(w) == 1:
            return w == (-1,) and not spec.plus_one
        split = _d_split(w, spec.d)
        return split is not None and _member(split[1], spec.d[0])
    if spec.positive and min(w) < 0 or spec.plus_one and 1 not in w:
        return False
    if spec.gamma and (-1) ** len(w) * w[-1] >= 0:
        return False
    if spec.minima and not _minima_positive(w, spec.minima):
        return False
    if spec.levels is None:
        return _alternates(w)
    return _first_bad_level(w, *spec.levels) is None


# -- enumeration -------------------------------------------------------

def _gen_positional(n, unsigned: bool):
    # alternation is a prefix property, so prune position by position
    values = range(1, n + 1) if unsigned else [v for v in range(-n, n + 1) if v]
    words = [()]
    for i in range(n):
        words = [w + (v,) for w in words for v in values
                 if v not in w and -v not in w
                 and (i == 0 or (w[-1] > v if i % 2 else w[-1] < v))]
    return words


def _gen_by_insertion(n, spec: _Family):
    """Grow windows by inserting values 1..n into the restriction chain.

    Every window is reached exactly once (the chain of restrictions is
    unique), and the level-k restriction is final once built, so the
    no-double-descent and ends-with-ascent requirements prune exactly.
    A value is a left-to-right (right-to-left) minimum of |w| exactly when
    it was inserted at the front (end), so signing the insertions at
    ``spec.minima``'s end positive is the ``-b`` sign rule.
    """
    signed_dd, need_ascent = spec.levels
    words = [()]
    for v in range(1, n + 1):
        nxt = []
        for word in words:
            m = len(word)
            view = word if signed_dd else tuple(abs(x) for x in word)
            pinned = {"front": 0, "end": m}.get(spec.minima)
            for pos in range(m + 1):
                # The new entry is the view's largest (+v, or -v read unsigned)
                # or smallest (-v, signed).  A new double descent needs a descent
                # right after the largest or right before the smallest; a word
                # ending in an ascent ends in a descent only with the largest
                # second to last or the smallest last.
                big_ok = not (pos < m - 1 and view[pos] > view[pos + 1]
                              or need_ascent and pos == m - 1)
                small_ok = not (pos >= 2 and view[pos - 2] > view[pos - 1]
                                or need_ascent and 0 < pos == m) if signed_dd else big_ok
                if big_ok:
                    nxt.append(word[:pos] + (v,) + word[pos:])
                if small_ok and not (spec.positive or pos == pinned or (v == 1 and spec.plus_one)):
                    nxt.append(word[:pos] + (-v,) + word[pos:])
        words = nxt
    return words


def _gen_d_refinement(spec: _Family, n):
    """expand(u, k) over the size-(n-1) -b members u and bound(u) < k <= n:
    the -d family, once each, as ``_d_split`` reads it."""
    b_family, end, bound = spec.d
    if n == 1:
        # (-1,) is the only candidate; a family that needs +1 has none
        return [] if spec.plus_one else [(-1,)]
    expand = expand_last_entry if end == "end" else expand_first_entry
    return [expand(u, k)
            for u in _gen_by_insertion(n - 1, _FAMILIES[b_family])
            for k in range(bound(u) + 1, n + 1)]


def enumerate_family(family: str, n: int, constraint=None, *, max_n=None):
    """All members of a family at size n, in lexicographic window order.

    ``constraint`` is an optional (anchor, value) pair with anchor one
    of "first", "last", "gae", filtering on the first entry, last
    entry, or greatest augmenting element.
    """
    spec = _FAMILIES.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}")
    enforce_ceiling(f"family {family!r} enumeration", n, max_n, DEFAULT_PERM_CEILING)
    if constraint is not None:
        anchor, value = constraint
        key = _ANCHORS.get(anchor)
        if key is None:
            raise ValueError(f"unknown anchor {anchor!r}")

    if spec.d:
        members = _gen_d_refinement(spec, n)
    elif spec.levels:
        members = _gen_by_insertion(n, spec)
    else:
        members = _gen_positional(n, unsigned=spec.positive)
        if spec.gamma:
            members = [w for w in members if (-1) ** n * w[-1] < 0]
    if constraint is not None:
        members = [w for w in members if key(w) == value]
    return sorted(members)
