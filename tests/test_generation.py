"""Exact generation: enumerate_family against the is_member oracle.

enumerate_family never calls is_member; these tests compare it with the
brute-force reading of each family (every window, filtered by is_member)
for every family and every anchor value, and, one size further, the
-b / -d refinements with their base family filtered by is_member.
"""
from functools import lru_cache

import pytest

from snake_atlas.permutations import (FAMILY_TAGS, all_windows,
                                      augmenting_elements, enumerate_family,
                                      is_member)


def _gae_or_zero(w):
    aug = augmenting_elements(w)
    return aug[-1] if aug else 0


ANCHORS = {
    "first": lambda w: w[0],
    "last": lambda w: w[-1],
    "gae": _gae_or_zero,
}


def _anchor_values(anchor, n):
    if anchor == "gae":
        return range(0, n + 1)
    return [v for v in range(-n, n + 1) if v]


@lru_cache(maxsize=None)
def _oracle(family, n):
    return tuple(w for w in all_windows(n) if is_member(w, family))


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("family", FAMILY_TAGS)
def test_generation_matches_oracle_with_every_anchor(family, n):
    oracle = _oracle(family, n)
    assert enumerate_family(family, n) == sorted(oracle)
    for anchor, key in ANCHORS.items():
        for value in _anchor_values(anchor, n):
            expected = sorted(w for w in oracle if key(w) == value)
            assert enumerate_family(family, n, (anchor, value)) == expected, (anchor, value)


@lru_cache(maxsize=None)
def _base_at_n7(base):
    return enumerate_family(base, 7)


@pytest.mark.parametrize("family", [f for f in FAMILY_TAGS if f.endswith(("-b", "-d"))])
def test_refinements_match_filtered_base_at_n7(family):
    base = _base_at_n7(family.split("-")[0])
    assert enumerate_family(family, 7) == [w for w in base if is_member(w, family)]

