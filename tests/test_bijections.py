"""The permutation-level bijections and their published worked examples."""
import pytest

from snake_atlas import fixtures as fx
from snake_atlas.bijections import (phi1, phi1_b, phi1_b_inv, phi1_d,
                                    phi1_d_inv, phi1_inv, phi2, phi2_b,
                                    phi2_b_inv, phi2_d, phi2_d_inv, phi2_inv,
                                    zeta1, zeta1_inv, zeta2, zeta2_inv)
from snake_atlas.errors import MembershipError
from snake_atlas.forests import (BLACK, WHITE, emp_forest, enumerate_forests,
                                 is_all_white, last_root)
from snake_atlas.permutations import enumerate_family, gae, is_member, npk, nva
from snake_atlas.trees import (EMPTY, emp, enumerate_trees, inorder_word,
                               is_starred, rmlab)
from test_forests import forest_sort_key
from test_trees import word_sort_key


def keyset(ts):
    return sorted(word_sort_key(inorder_word(t)) for t in ts)


def test_phi1_worked_example():
    forest, steps = phi1(fx.TYPE1_EXAMPLE, trace=True)
    assert forest == ((WHITE, 1, (2, EMPTY, (3, (4, EMPTY, (7,)), (8, EMPTY, EMPTY)))),
                      (BLACK, 5, (6,)))
    assert emp_forest(forest) == 8 - 2 * npk(fx.TYPE1_EXAMPLE)
    assert [s[0] for s in steps] == ["i", "ii", "iii", "iii", "i", "ii", "iii", "ii"]
    assert phi1_inv(forest) == fx.TYPE1_EXAMPLE


def test_phi1_base_case():
    assert phi1((1,)) == ((WHITE, 1, EMPTY),)
    assert phi1((-1,)) == ((BLACK, 1, EMPTY),)
    assert phi1_inv(((WHITE, 1, EMPTY),)) == (1,)


def test_phi1_rejects_non_members_with_level():
    with pytest.raises(MembershipError) as err:
        phi1((3, 2, 1))
    assert err.value.step == 3


@pytest.mark.parametrize("n", range(1, 6))
def test_phi1_is_a_bijection_with_statistics(n):
    images = []
    for w in enumerate_family("rsi", n):
        f = phi1(w)
        assert emp_forest(f) == n - 2 * npk(w)
        assert phi1_inv(f) == w
        images.append(f)
    assert sorted(map(forest_sort_key, images)) == \
        sorted(map(forest_sort_key, enumerate_forests(n)))


@pytest.mark.parametrize("n", range(1, 6))
def test_phi1_b_refinement(n):
    for k in range(1, n + 1):
        for w in enumerate_family("rsi-b", n, ("last", k)):
            f = phi1(w)
            assert is_all_white(f) and last_root(f) == k


def test_phi2_worked_example():
    forest, steps = phi2(fx.TYPE2_EXAMPLE, trace=True)
    assert forest == ((BLACK, 1, (3, (8, EMPTY, EMPTY), (4, (5, EMPTY, EMPTY), EMPTY))),
                      (WHITE, 2, (6,)),
                      (BLACK, 7, EMPTY))
    assert emp_forest(forest) == 8 - 2 * nva(fx.TYPE2_EXAMPLE)
    assert [s[0] for s in steps] == ["i", "i", "ii", "iii", "iii", "ii", "i", "ii"]
    assert phi2_inv(forest) == fx.TYPE2_EXAMPLE


def test_phi2_base_case():
    assert phi2((-1,)) == ((BLACK, 1, EMPTY),)
    assert phi2_inv(((BLACK, 1, EMPTY),)) == (-1,)


def test_phi2_rejects_non_members_with_level():
    with pytest.raises(MembershipError) as err:
        phi2((-1, -2, -3))
    assert err.value.step == 3


@pytest.mark.parametrize("n", range(1, 6))
def test_phi2_is_a_bijection_with_statistics(n):
    images = []
    for w in enumerate_family("rsii", n):
        f = phi2(w)
        assert emp_forest(f) == n - 2 * nva(w)
        assert phi2_inv(f) == w
        images.append(f)
    assert sorted(map(forest_sort_key, images)) == \
        sorted(map(forest_sort_key, enumerate_forests(n)))
    for w in enumerate_family("rsii-b", n):
        f = phi2(w)
        assert is_all_white(f) and last_root(f) == gae(w)


@pytest.mark.parametrize("n", range(2, 6))
def test_tree_valued_variants(n):
    for k in range(1, n + 1):
        circ = enumerate_trees(n, starred=False, rightmost=k)
        got_b1 = [phi1_b(w) for w in enumerate_family("rsi-b", n, ("last", k))]
        got_b2 = [phi2_b(w) for w in enumerate_family("rsii-b", n, ("gae", k))]
        assert keyset(got_b1) == keyset(circ) == keyset(got_b2)
        for t in got_b1:
            assert phi1_b(phi1_b_inv(t)) == t
        for t in got_b2:
            assert phi2_b(phi2_b_inv(t)) == t
    for k in range(2, n + 1):
        star = enumerate_trees(n, starred=True, rightmost=k)
        d1 = enumerate_family("rsi-d", n, ("last", -k))
        d2 = enumerate_family("rsii-d", n, ("first", -k))
        got_d1 = [phi1_d(w) for w in d1]
        got_d2 = [phi2_d(w) for w in d2]
        assert keyset(got_d1) == keyset(star) == keyset(got_d2)
        for w, t in zip(d1, got_d1):
            assert emp(t) == n - 1 - 2 * npk(w)
            assert phi1_d_inv(t) == w
        for w, t in zip(d2, got_d2):
            assert emp(t) == n - 1 - 2 * nva(w)
            assert phi2_d_inv(t) == w


def test_type1_d_worked_example():
    src, _ = fx.TYPE1_D_EXAMPLE
    t = phi1_d(src)
    assert is_starred(t) and rmlab(t) == 3
    assert emp(t) == 6 - 1 - 2 * npk(src)
    assert phi1_d_inv(t) == src


def test_zeta1_worked_example():
    a, b = fx.ZETA1_EXAMPLE
    assert zeta1(a) == b
    assert zeta1_inv(b) == a
    assert zeta1((1, 2)) == (1,)


def test_zeta2_worked_example():
    a, b = fx.ZETA2_EXAMPLE
    assert zeta2(a) == b
    assert zeta2_inv(b) == a
    # the two smallest type-II Andre windows
    assert zeta2((1, 2)) == (1,)
    assert zeta2((-2, 1)) == (-1,)
    assert zeta2_inv((-1,)) == (-2, 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_zeta1_bijection_and_index_contracts(n):
    cod = set(enumerate_family("rsi", n))
    images = set()
    for w in enumerate_family("adi", n + 1):
        v = zeta1(w)
        assert v in cod and zeta1_inv(v) == w
        images.add(v)
    assert images == cod
    for k in range(1, n + 1):
        for w in enumerate_family("adi-b", n + 1, ("last", k + 1)):
            assert zeta1(w)[-1] == k and is_member(zeta1(w), "rsi-b")
        for w in enumerate_family("adi-d", n + 1, ("last", -k - 1)):
            assert zeta1(w)[-1] == -k and is_member(zeta1(w), "rsi-d")


@pytest.mark.parametrize("n", range(1, 6))
def test_zeta2_bijection_and_index_contracts(n):
    cod = set(enumerate_family("rsii", n))
    images = set()
    for w in enumerate_family("adii", n + 1):
        v = zeta2(w)
        assert v in cod and zeta2_inv(v) == w
        images.add(v)
    assert images == cod
    for k in range(1, n + 1):
        for w in enumerate_family("adii-b", n + 1, ("last", k + 1)):
            assert gae(zeta2(w)) == k and is_member(zeta2(w), "rsii-b")
        for w in enumerate_family("adii-d", n + 1, ("first", -k - 1)):
            assert zeta2(w)[0] == -k and is_member(zeta2(w), "rsii-d")


def test_zeta_domain_errors():
    with pytest.raises(MembershipError):
        zeta1((2, 1))  # no entry 1
    with pytest.raises(MembershipError):
        zeta2((-1, -2))  # entry 1 missing entirely
    with pytest.raises(MembershipError):
        phi1_d((1,))
    with pytest.raises(MembershipError):
        phi2_d((1, 2))
