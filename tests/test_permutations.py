"""Signed-permutation statistics, memberships and enumerators."""
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snake_atlas import fixtures as fx
from snake_atlas.bijections import phi1, phi2, zeta1, zeta1_inv, zeta2_inv
from snake_atlas.errors import (LimitError, MembershipError, SettingError,
                                enforce_ceiling)
from snake_atlas.forests import enumerate_forests
from snake_atlas import permutations
from snake_atlas.permutations import (DEFAULT_PERM_CEILING, FAMILY_TAGS,
                                      _first_bad_level,
                                      augmenting_elements, check_window,
                                      enumerate_family, expand_first_entry,
                                      expand_last_entry, gae, is_beta_snake,
                                      is_gamma_snake, is_member, npk, nva,
                                      shrink_first_entry, shrink_last_entry,
                                      subword)
from snake_atlas.qcalculus import weighted_sum_forests, weighted_sum_trees
from snake_atlas.trees import enumerate_trees
from snake_atlas.triangles import hoffman_triangle_identity


def all_windows(n: int, *, max_n=None):
    """Every signed-permutation window of size n, lexicographic order."""
    enforce_ceiling("signed-permutation enumeration", n, max_n, DEFAULT_PERM_CEILING)
    out = []

    def extend(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(-n, n + 1):
            if v == 0 or abs(v) in used:
                continue
            prefix.append(v)
            used.add(abs(v))
            extend(prefix, used)
            used.discard(abs(v))
            prefix.pop()

    extend([], set())
    return out


@st.composite
def windows(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    values = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return tuple(v if s else -v for v, s in zip(values, signs))


def test_check_window_rejects_bad_input():
    for bad in [(), (0,), (1, 1), (2,), (1, -1)]:
        with pytest.raises(ValueError):
            check_window(bad)


@pytest.mark.parametrize("call", [check_window, lambda w: is_member(w, "rsi"),
                                  phi1, zeta2_inv],
                         ids=["check_window", "is_member", "phi1", "zeta2_inv"])
@pytest.mark.parametrize("window", [[2.7, 1.2], [1.5], ["2", "-1"], ((1,),)],
                         ids=["floats", "float-to-one", "strings", "tree"])
def test_non_integer_window_entries_are_rejected(call, window):
    with pytest.raises(ValueError, match="window entries must be integers"):
        call(window)


def test_snake_predicates():
    assert is_beta_snake((1,))
    assert is_beta_snake((4, -2, 5, -3, -1))
    assert not is_beta_snake((1, 2))
    assert is_gamma_snake((1,))
    assert not is_gamma_snake((-1,))
    # all 16 snakes of size 3
    assert sum(is_beta_snake(w) for w in all_windows(3)) == 16


def test_gamma_snake_counts_match_table():
    # row sums of the restricted triangle, recomputed by brute force
    count4 = sum(1 for w in all_windows(4) if is_gamma_snake(w) and w[0] > 0)
    assert count4 == 8 + 10 + 11 + 11
    assert sum(is_gamma_snake(w) for w in all_windows(2)) == 3


def test_subword_examples():
    assert subword((2, 8, -3, 4, -7, 1, -6, -5), 4) == (2, -3, 4, 1)
    assert subword((-7, 8, 3, 5, -4, -1, 2, -6), 5) == (3, 5, -4, -1, 2)
    w = (3, -1, 2)
    assert subword(w, 3) == w
    with pytest.raises(ValueError):
        subword(w, 4)


@given(windows(), st.data())
def test_subword_restriction_is_compositional(w, data):
    k = data.draw(st.integers(1, len(w)))
    kk = data.draw(st.integers(1, k))
    assert subword(subword(w, k), kk) == subword(w, kk)


def test_npk_examples():
    assert npk((1, 2, 3)) == 0
    # direct scan: negative entries followed by a smaller absolute value
    w = (2, 8, -3, 4, -7, 1, -6, -5)
    oracle = sum(1 for i in range(len(w) - 1)
                 if w[i] < 0 and abs(w[i]) > abs(w[i + 1]))
    assert oracle == 2
    assert npk(w) == 2


def test_nva_examples():
    assert nva((1, 2, 3)) == 0
    assert nva((3, -4, -1, 2)) == 1


def test_augmenting_elements():
    assert augmenting_elements((3, -1, 2, 4, 7, 5, 8, -6)) == (2, 4, 5)
    assert gae((3, -1, 2, 4, 7, 5, 8, -6)) == 5
    assert augmenting_elements((1, 2, 3)) == (1, 2, 3)
    assert gae((1, 2, 3)) == 3
    assert augmenting_elements((-1,)) == ()
    with pytest.raises(ValueError, match="no augmenting element"):
        gae((-1,))


@pytest.mark.parametrize("family,table", [
    ("rsi-b", fx.RSI_B_SETS), ("rsi-d", fx.RSI_D_SETS),
    ("rsii-b", fx.RSII_B_SETS), ("rsii-d", fx.RSII_D_SETS),
    ("adi-b", fx.ADI_B_SETS), ("adi-d", fx.ADI_D_SETS),
    ("adii-b", fx.ADII_B_SETS), ("adii-d", fx.ADII_D_SETS),
])
def test_family_listings(family, table):
    for n, ref in table.items():
        assert set(enumerate_family(family, n)) == ref


def test_membership_spot_checks():
    assert is_member((-2, 1), "rsii-d")
    assert set(enumerate_family("rsii-d", 2)) == {(-2, 1)}
    assert len(enumerate_family("adi-b", 4)) == 11
    assert len(enumerate_family("adi-d", 4)) == 5
    for n in range(1, 5):
        ident = tuple(range(1, n + 1))
        assert is_member(ident, "rsi-b") and is_member(ident, "rsii-b")


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        is_member((1,), "nope")
    with pytest.raises(ValueError):
        enumerate_family("nope", 2)


@pytest.mark.parametrize("n", range(1, 5))
def test_enumeration_agrees_with_membership_filter(n):
    everything = all_windows(n)
    for family in FAMILY_TAGS:
        assert enumerate_family(family, n) == sorted(
            w for w in everything if is_member(w, family))


def test_enumeration_is_sorted_lexicographically():
    members = enumerate_family("snakes", 3)
    assert members == sorted(members)
    assert members[0][0] < 0 < members[-1][0]


def test_snake_counts():
    for n in range(1, 9):
        assert len(enumerate_family("snakes", n)) == 2**n * fx.EULER[n]
    assert enumerate_family("snakes", 1) == [(-1,), (1,)]


def test_snake_first_entry_constraint():
    # column of the signed triangle at n=3, first entry 2
    assert len(enumerate_family("snakes", 3, ("first", 2))) == 4


def test_type1_refinements_partition():
    for n in range(1, 6):
        rsi = set(enumerate_family("rsi", n))
        b = set(enumerate_family("rsi-b", n))
        d = set(enumerate_family("rsi-d", n))
        assert b <= rsi and d <= rsi
        assert not (b & d)


def test_simsun_family_sizes():
    for n in range(1, 6):
        assert len(enumerate_family("rsi", n)) == 2**n * fx.EULER[n + 1]
        assert len(enumerate_family("rsii", n)) == 2**n * fx.EULER[n + 1]
        assert len(enumerate_family("adi", n + 1)) == 2**n * fx.EULER[n + 1]


def test_ceiling_is_enforced_and_named():
    with pytest.raises(LimitError, match="ceiling 8"):
        enumerate_family("snakes", 9)
    with pytest.raises(LimitError):
        all_windows(11)
    # an explicit ceiling unlocks larger sizes
    assert len(enumerate_family("alternating-unsigned", 9, max_n=9)) == 7936


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("SNAKE_ATLAS_MAX_N", "2")
    with pytest.raises(LimitError, match="ceiling 2"):
        enumerate_family("snakes", 3)


@pytest.mark.parametrize("enumerate_", [
    lambda: enumerate_family("snakes", 2),
    lambda: enumerate_trees(2),
    lambda: enumerate_forests(2),
])
def test_non_integer_ceiling_setting_is_a_setting_error(monkeypatch, enumerate_):
    monkeypatch.setenv("SNAKE_ATLAS_MAX_N", "x")
    with pytest.raises(SettingError, match="SNAKE_ATLAS_MAX_N must be an integer, got 'x'"):
        enumerate_()


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("call", [
    lambda n: enforce_ceiling("gate", n, None, 5),
    lambda n: enforce_ceiling("gate", n, 5, 5),
    lambda n: enumerate_trees(n),
    lambda n: enumerate_trees(n, max_n=5),
    lambda n: enumerate_forests(n),
    lambda n: enumerate_family("rsi", n),
    lambda n: enumerate_family("rsi", n, ("bogus", 1)),
    lambda n: weighted_sum_trees(n),
    lambda n: weighted_sum_forests(n, white_only=True),
    lambda n: hoffman_triangle_identity(n),
], ids=["gate", "gate-max_n", "trees", "trees-max_n", "forests", "family",
        "family-anchor", "weighted-trees", "weighted-forests", "hoffman-identity"])
def test_size_below_one_is_refused_before_any_setting_is_read(monkeypatch, call, n):
    monkeypatch.setenv("SNAKE_ATLAS_MAX_N", "x")
    with pytest.raises(ValueError) as caught:
        call(n)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "n must be >= 1"


def test_shrink_expand_round_trip():
    src, tgt = fx.TYPE1_D_EXAMPLE
    assert shrink_last_entry(src) == tgt
    assert expand_last_entry(tgt, 3) == src
    w = (-3, 1, -4, 2)
    assert expand_first_entry(shrink_first_entry(w), 3) == w


@given(windows())
def test_unsigned_families_are_all_positive(w):
    for family in ("alternating-unsigned", "simsun-unsigned", "andre-unsigned"):
        if is_member(w, family):
            assert all(x > 0 for x in w)


# -- restriction levels: the one-pass scan against the definition ---------

def _restriction(w, k, signed):
    return [x if signed else abs(x) for x in w if abs(x) <= k]


def _has_double_descent(word):
    return any(word[i] > word[i + 1] > word[i + 2] for i in range(len(word) - 2))


def reference_simsun_levels(w, signed):
    """First level whose restriction has a double descent, level by level."""
    for k in range(1, len(w) + 1):
        if _has_double_descent(_restriction(w, k, signed)):
            return k
    return None


def reference_andre_levels(w, signed):
    for k in range(1, len(w) + 1):
        word = _restriction(w, k, signed)
        if _has_double_descent(word) or len(word) >= 2 and word[-2] > word[-1]:
            return False
    return True


def _simsun_levels_ok(w, signed):
    """First level 1..n whose restriction has a double descent, else None."""
    return _first_bad_level(w, signed, need_ascent=False)


def _andre_levels_ok(w, signed):
    return _first_bad_level(w, signed, need_ascent=True) is None


def _assert_levels_match(w):
    for signed in (False, True):
        assert _simsun_levels_ok(w, signed) == reference_simsun_levels(w, signed), (w, signed)
        assert _andre_levels_ok(w, signed) == reference_andre_levels(w, signed), (w, signed)


@pytest.mark.parametrize("n", range(1, 7))
def test_level_scan_matches_definition_exhaustively(n):
    for w in all_windows(n):
        _assert_levels_match(w)


def _random_level_windows(rng, n):
    """A random window, and one grown level by level with no double
    descent (so every level is scanned) plus a copy with two entries
    swapped (so the first bad level is often high)."""
    values = list(range(1, n + 1))
    rng.shuffle(values)
    yield tuple(v * rng.choice((1, -1)) for v in values)
    signed = rng.random() < 0.5
    word = []
    for v in range(1, n + 1):
        options = [word[:i] + [s * v] + word[i:] for i in range(len(word) + 1) for s in (1, -1)]
        options = [o for o in options if not _has_double_descent(
            [x if signed else abs(x) for x in o])]
        word = rng.choice(options)
    yield tuple(word)
    i, j = rng.sample(range(n), 2)
    word[i], word[j] = word[j], word[i]
    yield tuple(word)


def test_level_scan_matches_definition_at_large_n():
    rng = random.Random(20240)
    for _ in range(150):
        for w in _random_level_windows(rng, rng.randint(20, 40)):
            _assert_levels_match(w)


@pytest.mark.parametrize("fn, family, signed", [
    (phi1, "rsi", False), (phi2, "rsii", True), (zeta1, "adi", False),
    (zeta1_inv, "rsi", False),
])
def test_membership_error_step_is_first_bad_level(fn, family, signed):
    for n in range(3, 6):
        for w in all_windows(n):
            if is_member(w, family):
                continue
            with pytest.raises(MembershipError) as err:
                fn(w)
            step = reference_simsun_levels(w, signed)
            assert err.value.step == step
            message = f"{fn.__name__}: input not in {family}"
            assert str(err.value) == (message if step is None else f"{message} (step {step})")


# -- a frozen membership test ----------------------------------------------
# is_member and enumerate_family read one family table, so comparing them
# shows nothing about the table.  ref_member is the membership test as an
# if-chain over its own readings of the sign rules (the -b rules on the
# minima of |w|, and the -d rules as conditions on the anchored entry),
# kept unchanged as the oracle for the table (tests/test_generation.py).
# It shares only the level scan, which is checked against the definition
# above.

def _ref_alternates(w):
    return all(w[i] > w[i + 1] if i % 2 == 0 else w[i] < w[i + 1]
               for i in range(len(w) - 1))


def _ref_gae_or_zero(w):
    aug = augmenting_elements(w)
    return aug[-1] if aug else 0


def _rl_min_positions(absvals):
    out = []
    m = None
    for i in range(len(absvals) - 1, -1, -1):
        if m is None or absvals[i] < m:
            m = absvals[i]
            out.append(i)
    return out[::-1]


def _lr_min_positions(absvals):
    out = []
    m = None
    for i, a in enumerate(absvals):
        if m is None or a < m:
            m = a
            out.append(i)
    return out


def _cond_b_type1(w):
    # right-to-left minima of |w| must carry positive entries
    a = [abs(x) for x in w]
    return all(w[i] > 0 for i in _rl_min_positions(a))


def _cond_d_type1(w):
    # last entry negative and heavier than its (signed) predecessor;
    # right-to-left minima of the first n-1 absolute values positive.
    n = len(w)
    if w[-1] >= 0:
        return False
    if n >= 2 and not abs(w[-1]) > w[-2]:
        return False
    a = [abs(x) for x in w[:-1]]
    return all(w[i] > 0 for i in _rl_min_positions(a))


def _cond_b_type2(w):
    a = [abs(x) for x in w]
    return all(w[i] > 0 for i in _lr_min_positions(a))


def _cond_d_type2(w):
    if w[0] >= 0 or abs(w[0]) <= _ref_gae_or_zero(w):
        return False
    a = [abs(x) for x in w[1:]]
    return all(w[i + 1] > 0 for i in _lr_min_positions(a))


def _cond_d_adii(w):
    if w[0] >= 0 or not abs(w[0]) > w[-1]:
        return False
    a = [abs(x) for x in w[1:]]
    return all(w[i + 1] > 0 for i in _lr_min_positions(a))


def ref_member(w, family):
    """Membership of a checked window w in a FAMILY_TAGS family."""
    if family not in FAMILY_TAGS:
        raise ValueError(f"unknown family {family!r}")
    all_positive = all(x > 0 for x in w)
    if family == "snakes":
        return _ref_alternates(w)
    if family == "gamma-snakes":
        return _ref_alternates(w) and (-1) ** len(w) * w[-1] < 0
    if family == "alternating-unsigned":
        return all_positive and _ref_alternates(w)
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
            return ref_member(shrink_last_entry(w), "adi-b")
        return True
    if 1 not in w or not _andre_levels_ok(w, signed=True):
        return False
    if family == "adii-b":
        return _cond_b_type2(w)
    if family == "adii-d":
        return _cond_d_adii(w)
    return True


@pytest.mark.parametrize("family", ["snakes", "rsi", "rsii-d"])
@pytest.mark.parametrize("constraint, message", [
    (("nope", 1), "unknown anchor 'nope'"),
    (("first",), "not enough values to unpack (expected 2, got 1)"),
])
def test_bad_constraint_fails_before_any_window_is_built(monkeypatch, family,
                                                          constraint, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator ran before the constraint was checked")

    for name in ("_gen_positional", "_gen_by_insertion", "_gen_d_refinement"):
        monkeypatch.setattr(permutations, name, refuse)
    with pytest.raises(ValueError) as err:
        enumerate_family(family, 7, constraint)
    assert str(err.value) == message
