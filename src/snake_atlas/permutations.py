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
``*-b`` / ``*-d``     refinements pinning the signs at right-to-left
                      (type I) or left-to-right (type II) minima
``alternating-unsigned``, ``simsun-unsigned``, ``andre-unsigned``
                      the classical all-positive versions

Restriction convention: subword(s, k) keeps the entries of absolute
value <= k in window order.
"""
from __future__ import annotations

from .errors import enforce_ceiling

DEFAULT_PERM_CEILING = 8

FAMILY_TAGS = (
    "snakes", "gamma-snakes",
    "rsi", "rsi-b", "rsi-d",
    "rsii", "rsii-b", "rsii-d",
    "adi", "adi-b", "adi-d",
    "adii", "adii-b", "adii-d",
    "alternating-unsigned", "simsun-unsigned", "andre-unsigned",
)

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
    w = check_window(window)
    return _alternates(w)


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
    w = check_window(window)
    return _alternates(w) and (-1) ** len(w) * w[-1] < 0


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
    return _augmenting(check_window(window))


def _augmenting(w) -> tuple[int, ...]:
    n = len(w)
    out = []
    suffix_min = n + 1
    for x in reversed(w):
        if x > 0 and x < suffix_min:
            out.append(x)
        suffix_min = min(suffix_min, abs(x))
    return tuple(reversed(out))


def gae(window) -> int:
    """Greatest augmenting element; error when none exists."""
    aug = augmenting_elements(window)
    if not aug:
        raise ValueError("no augmenting element")
    return aug[-1]


def _gae_or_zero(w) -> int:
    aug = _augmenting(w)
    return aug[-1] if aug else 0


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


def _simsun_levels_ok(w, signed: bool) -> int | None:
    """First level 1..n whose restriction has a double descent, else None."""
    return _first_bad_level(w, signed, need_ascent=False)


def _andre_levels_ok(w, signed: bool) -> bool:
    return _first_bad_level(w, signed, need_ascent=True) is None


def _rl_min_positions(absvals) -> list[int]:
    out = []
    m = None
    for i in range(len(absvals) - 1, -1, -1):
        if m is None or absvals[i] < m:
            m = absvals[i]
            out.append(i)
    return out[::-1]


def _lr_min_positions(absvals) -> list[int]:
    out = []
    m = None
    for i, a in enumerate(absvals):
        if m is None or a < m:
            m = a
            out.append(i)
    return out


def _cond_b_type1(w) -> bool:
    # right-to-left minima of |w| must carry positive entries
    a = [abs(x) for x in w]
    return all(w[i] > 0 for i in _rl_min_positions(a))


def _cond_d_type1(w) -> bool:
    # last entry negative and heavier than its (signed) predecessor;
    # right-to-left minima of the first n-1 absolute values positive.
    n = len(w)
    if w[-1] >= 0:
        return False
    if n >= 2 and not abs(w[-1]) > w[-2]:
        return False
    a = [abs(x) for x in w[:-1]]
    return all(w[i] > 0 for i in _rl_min_positions(a))


def _cond_b_type2(w) -> bool:
    a = [abs(x) for x in w]
    return all(w[i] > 0 for i in _lr_min_positions(a))


def _cond_d_type2(w) -> bool:
    if w[0] >= 0 or abs(w[0]) <= _gae_or_zero(w):
        return False
    a = [abs(x) for x in w[1:]]
    return all(w[i + 1] > 0 for i in _lr_min_positions(a))


def _cond_d_adii(w) -> bool:
    if w[0] >= 0 or not abs(w[0]) > w[-1]:
        return False
    a = [abs(x) for x in w[1:]]
    return all(w[i + 1] > 0 for i in _lr_min_positions(a))


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


def is_member(window, family: str) -> bool:
    """Membership test for any of the FAMILY_TAGS families."""
    return _member(check_window(window), family)


def _member(w, family: str) -> bool:
    """``is_member`` for a window that ``check_window`` already returned."""
    if family not in FAMILY_TAGS:
        raise ValueError(f"unknown family {family!r}")
    all_positive = all(x > 0 for x in w)
    if family == "snakes":
        return _alternates(w)
    if family == "gamma-snakes":
        return _alternates(w) and (-1) ** len(w) * w[-1] < 0
    if family == "alternating-unsigned":
        return all_positive and _alternates(w)
    if family == "simsun-unsigned":
        return all_positive and _simsun_levels_ok(w, signed=False) is None
    if family == "andre-unsigned":
        return all_positive and _andre_levels_ok(w, signed=False)
    if family.startswith("rsi-") or family == "rsi":
        if _simsun_levels_ok(w, signed=False) is not None:
            return False
        if family == "rsi-b":
            return _cond_b_type1(w)
        if family == "rsi-d":
            return _cond_d_type1(w)
        return True
    if family.startswith("rsii-") or family == "rsii":
        if _simsun_levels_ok(w, signed=True) is not None:
            return False
        if family == "rsii-b":
            return _cond_b_type2(w)
        if family == "rsii-d":
            return _cond_d_type2(w)
        return True
    if family.startswith("adi-") or family == "adi":
        if 1 not in w or not _andre_levels_ok(w, signed=False):
            return False
        if family == "adi-b":
            return _cond_b_type1(w)
        if family == "adi-d":
            # The suffix-minima reading over-admits here; the family is
            # the pullback of adi-b under the last-entry shrinking map,
            # which is what the index-shifting bijection requires.
            if len(w) < 2 or w[-1] >= 0 or not abs(w[-1]) > w[-2]:
                return False
            return _member(shrink_last_entry(w), "adi-b")
        return True
    # adii family group
    if 1 not in w or not _andre_levels_ok(w, signed=True):
        return False
    if family == "adii-b":
        return _cond_b_type2(w)
    if family == "adii-d":
        return _cond_d_adii(w)
    return True


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


def _gen_by_insertion(n, *, signed_dd: bool, need_ascent: bool, force_positive: bool = False,
                      force_plus_one: bool = False, positive_at=None):
    """Grow windows by inserting values 1..n into the restriction chain.

    Every window is reached exactly once (the chain of restrictions is
    unique), and the level-k restriction is final once built, so the
    no-double-descent and ends-with-ascent requirements prune exactly.
    A value is a left-to-right (right-to-left) minimum of |w| exactly when
    it was inserted at the front (end), so ``positive_at`` = "front"
    ("end") signing those insertions positive is the ``-b`` sign rule.
    """
    words = [()]
    for v in range(1, n + 1):
        nxt = []
        for word in words:
            m = len(word)
            view = word if signed_dd else tuple(abs(x) for x in word)
            pinned = {"front": 0, "end": m}.get(positive_at)
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
                if small_ok and not (force_positive or pos == pinned or (v == 1 and force_plus_one)):
                    nxt.append(word[:pos] + (-v,) + word[pos:])
        words = nxt
    return words


_INSERTION_FAMILIES = {
    "rsi": dict(signed_dd=False, need_ascent=False),
    "rsi-b": dict(signed_dd=False, need_ascent=False, positive_at="end"),
    "rsii": dict(signed_dd=True, need_ascent=False),
    "rsii-b": dict(signed_dd=True, need_ascent=False, positive_at="front"),
    "adi": dict(signed_dd=False, need_ascent=True, force_plus_one=True),
    "adi-b": dict(signed_dd=False, need_ascent=True, force_plus_one=True, positive_at="end"),
    "adii": dict(signed_dd=True, need_ascent=True, force_plus_one=True),
    "adii-b": dict(signed_dd=True, need_ascent=True, force_plus_one=True, positive_at="front"),
    "simsun-unsigned": dict(signed_dd=False, need_ascent=False, force_positive=True),
    "andre-unsigned": dict(signed_dd=False, need_ascent=True, force_positive=True),
}

# -d refinement -> (-b family, expand map, bound): expand(u, k) over the
# size-(n-1) -b members u and bound(u) < k <= n is the -d family, once each;
# bound(u) is the entry (rsii-d: the gae) that the new entry -k must outweigh.
_D_REFINEMENTS = {
    "rsi-d": ("rsi-b", expand_last_entry, lambda u: u[-1]),
    "adi-d": ("adi-b", expand_last_entry, lambda u: u[-1]),
    "rsii-d": ("rsii-b", expand_first_entry, _gae_or_zero),
    "adii-d": ("adii-b", expand_first_entry, lambda u: u[-1]),
}


def _gen_d_refinement(family, n):
    if n == 1:
        # (-1,) is the only candidate; the Andre families need the entry +1
        return [(-1,)] if family in ("rsi-d", "rsii-d") else []
    b_family, expand, bound = _D_REFINEMENTS[family]
    return [expand(u, k)
            for u in _gen_by_insertion(n - 1, **_INSERTION_FAMILIES[b_family])
            for k in range(bound(u) + 1, n + 1)]


def enumerate_family(family: str, n: int, constraint=None, *, max_n=None):
    """All members of a family at size n, in lexicographic window order.

    ``constraint`` is an optional (anchor, value) pair with anchor one
    of "first", "last", "gae", filtering on the first entry, last
    entry, or greatest augmenting element.
    """
    if family not in FAMILY_TAGS:
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    enforce_ceiling(f"family {family!r} enumeration", n, max_n, DEFAULT_PERM_CEILING)

    if family in ("snakes", "gamma-snakes", "alternating-unsigned"):
        members = _gen_positional(n, unsigned=family == "alternating-unsigned")
        if family == "gamma-snakes":
            members = [w for w in members if (-1) ** n * w[-1] < 0]
    elif family in _D_REFINEMENTS:
        members = _gen_d_refinement(family, n)
    else:
        members = _gen_by_insertion(n, **_INSERTION_FAMILIES[family])
    if constraint is not None:
        anchor, value = constraint
        key = {"first": lambda w: w[0], "last": lambda w: w[-1], "gae": _gae_or_zero}.get(anchor)
        if key is None:
            raise ValueError(f"unknown anchor {anchor!r}")
        members = [w for w in members if key(w) == value]
    return sorted(members)
