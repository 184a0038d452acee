"""q-analogue operator calculus and weighted object sums.

``D`` is the q-derivative, sending t^n to [n]_q t^(n-1) with
[n]_q = 1 + q + ... + q^(n-1); ``U`` multiplies by t.  They satisfy
DU - qUD = 1.  Polynomials in t with integer q-polynomial coefficients
are ``BiPoly`` values; composite operators are sums of words in D and U
and are applied by folding.

The three operator-defined families

    P_n = (D + UUD)^n  t
    Q_n = (D + UDU)^n  1
    R_n = (D + DUU)^n  1

specialize at q=1 to the derivative polynomials of tan, sec and sec^2.
Each step of all three sends t^k to [k]_q t^(k-1) + [k+a]_q t^(k+1)
(a = 0, 1, 2), computed on lists of q-coefficients.  They are matched by
q-weights: a tree or forest is peeled label by label, each label adding
the empty leaves read before it (black roots add one more).
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from itertools import accumulate, combinations_with_replacement, repeat

from .errors import enforce_ceiling
from .forests import BLACK, DEFAULT_FOREST_CEILING, validate_forest
from .polynomials import LaurentPoly, Value, _convolve, _set
from .trees import DEFAULT_TREE_CEILING, EMPTY, _keyed_trees, validate_tree


class QPoly(Value):
    __slots__ = ("coeffs",)  # coefficient of q^i at index i

    def __init__(self, coeffs: tuple[int, ...]):
        if coeffs and coeffs[-1] == 0:
            raise ValueError("not canonical: trailing zero")
        _set(self, "coeffs", coeffs)

    @staticmethod
    def make(coeffs: Iterable[int]) -> "QPoly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return QPoly(tuple(cs))

    @staticmethod
    def zero() -> "QPoly":
        return QPoly(())

    @staticmethod
    def one() -> "QPoly":
        return QPoly((1,))

    @staticmethod
    def q_power(m: int) -> "QPoly":
        return QPoly((0,) * m + (1,))

    @staticmethod
    def q_integer(k: int) -> "QPoly":
        """[k]_q = 1 + q + ... + q^(k-1)."""
        if k < 0:
            raise ValueError("q-integer needs k >= 0")
        return QPoly((1,) * k)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly.make([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + QPoly.make([-c for c in other.coeffs])

    def __mul__(self, other: "QPoly") -> "QPoly":
        return QPoly.make(_convolve(self.coeffs, other.coeffs))

    def __call__(self, q: int) -> int:
        return sum(c * q**i for i, c in enumerate(self.coeffs))


class BiPoly(Value):
    __slots__ = ("t_coeffs",)  # coefficient of t^i at index i

    def __init__(self, t_coeffs: tuple[QPoly, ...]):
        if t_coeffs and t_coeffs[-1].is_zero():
            raise ValueError("not canonical: trailing zero t-coefficient")
        _set(self, "t_coeffs", t_coeffs)

    @staticmethod
    def make(t_coeffs: Iterable[QPoly]) -> "BiPoly":
        cs = list(t_coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return BiPoly(tuple(cs))

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly(())

    @staticmethod
    def one() -> "BiPoly":
        return BiPoly((QPoly.one(),))

    @staticmethod
    def t_power(m: int) -> "BiPoly":
        return BiPoly((QPoly.zero(),) * m + (QPoly.one(),))

    @staticmethod
    def monomial(q_exp: int, t_exp: int) -> "BiPoly":
        return BiPoly((QPoly.zero(),) * t_exp + (QPoly.q_power(q_exp),))

    def coefficient(self, t_exp: int) -> QPoly:
        if 0 <= t_exp < len(self.t_coeffs):
            return self.t_coeffs[t_exp]
        return QPoly.zero()

    def __add__(self, other: "BiPoly") -> "BiPoly":
        m = max(len(self.t_coeffs), len(other.t_coeffs))
        return BiPoly.make([self.coefficient(i) + other.coefficient(i) for i in range(m)])

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        m = max(len(self.t_coeffs), len(other.t_coeffs))
        return BiPoly.make([self.coefficient(i) - other.coefficient(i) for i in range(m)])

    def at_q1(self) -> LaurentPoly:
        return LaurentPoly.make(0, [c(1) for c in self.t_coeffs])

    def to_json(self) -> dict:
        return {"t": [list(c.coeffs) for c in self.t_coeffs]}

    def __str__(self):
        return str(self.to_json())

    @staticmethod
    def from_json(obj: dict) -> "BiPoly":
        return BiPoly.make([QPoly.make([int(x) for x in c]) for c in obj["t"]])


def op_D(f: BiPoly) -> BiPoly:
    """q-derivative: t^n -> [n]_q t^(n-1)."""
    return BiPoly.make([f.coefficient(i + 1) * QPoly.q_integer(i + 1)
                        for i in range(len(f.t_coeffs))])


def op_U(f: BiPoly) -> BiPoly:
    """Multiplication by t."""
    if not f.t_coeffs:
        return f
    return BiPoly((QPoly.zero(),) + f.t_coeffs)


_PRIMITIVES = {"D": op_D, "U": op_U}


class Operator(Value):
    """Sum of words in the primitives D and U, applied right to left."""
    __slots__ = ("words",)

    def __init__(self, words: tuple[str, ...]):
        _set(self, "words", words)

    def __call__(self, f: BiPoly) -> BiPoly:
        total = BiPoly.zero()
        for word in self.words:
            g = f
            for ch in reversed(word):
                g = _PRIMITIVES[ch](g)
            total = total + g
        return total

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.words + other.words)

    def iterate(self, n: int, f: BiPoly) -> BiPoly:
        for _ in range(n):
            f = self(f)
        return f


def _add_times_q_integer(out: list[int], c: list[int], m: int) -> list[int]:
    """Add c * [m]_q into the q-coefficients ``out`` and return it: entry i
    gains the window sum c[i-m+1..i], kept as a running sum."""
    if c and m > 0:
        out.extend([0] * (len(c) + m - 1 - len(out)))
        window = 0
        for i in range(len(c) + m - 1):
            window += (c[i] if i < len(c) else 0) - (c[i - m] if i >= m else 0)
            out[i] += window
    return out


def _q_family(n: int, a: int, start: list[list[int]]) -> BiPoly:
    """Apply t^k -> [k]_q t^(k-1) + [k+a]_q t^(k+1) to ``start`` (the
    q-coefficients of t^0, t^1, ...) n times: the operator D + UUD for
    a = 0, D + UDU for a = 1 and D + DUU for a = 2."""
    if n < 0:
        raise ValueError("n must be >= 0")
    f = start
    for _ in range(n):
        padded = [[], *f, [], []]  # padded[k + 1] holds the t^k coefficient
        f = [_add_times_q_integer(_add_times_q_integer([], padded[k + 2], k + 1),
                                  padded[k], k - 1 + a)
             for k in range(len(f) + 1)]
    return BiPoly.make(map(QPoly.make, f))


def qpoly_P(n: int) -> BiPoly:
    return _q_family(n, 0, [[], [1]])


def qpoly_Q(n: int) -> BiPoly:
    return _q_family(n, 1, [[1]])


def qpoly_R(n: int) -> BiPoly:
    return _q_family(n, 2, [[1]])


# -- combinatorial weights ------------------------------------------------

def _slots(node, parent, out):
    """Append the ``(label or EMPTY, parent label)`` slots of a subtree in
    preorder, following left children in a loop."""
    right = []  # (right subtree, its parent's label) still to walk
    while True:
        out.append((node if node == EMPTY else node[0], parent))
        if node != EMPTY and len(node) == 3:
            right.append((node[2], node[0]))
            node, parent = node[1], node[0]
        elif right:
            node, parent = right.pop()
        else:
            return


def _step_weights(slots, n: int) -> list[int]:
    """Empty leaves read before each label j <= n (index j) once every
    label > j is peeled.  Those leaves are exactly the slots read before
    j whose parent is a label <= j and that hold EMPTY or a label > j, so
    one scan counts them without rebuilding the object."""
    out = [0] * (n + 1)
    cover = [0] * (n + 1)  # cover[j]: slots read so far that count for j
    for x, parent in slots:
        if x != EMPTY:
            out[x] = cover[x]
        if parent is not None:
            for j in range(parent, n + 1 if x == EMPTY else x):
                cover[j] += 1
    return out


def tree_step_weights(tree) -> tuple[int, ...]:
    """c_j = empty leaves read before the node labelled j, in the tree
    peeled down to labels <= j."""
    n = validate_tree(tree)
    slots = []
    _slots(tree, None, slots)
    return tuple(_step_weights(slots, n)[1:])


def weight_tree(tree) -> int:
    return sum(tree_step_weights(tree))


def forest_step_weights(forest) -> tuple[int, ...]:
    """d_j = empty leaves read before the node labelled j (components in
    root order, roots read before their subtrees), plus one when j is a
    black root."""
    n = validate_forest(forest)
    slots = []
    for _, root, child in forest:
        slots.append((root, None))
        _slots(child, root, slots)
    out = _step_weights(slots, n)
    for color, root, _ in forest:
        out[root] += color == BLACK
    return tuple(out[1:])


def weight_forest(forest) -> int:
    return sum(forest_step_weights(forest))


# -- counted sums ----------------------------------------------------------

def _profile(tree, k: int) -> tuple:
    """``(internal, emp, cover)`` of a tree on 1..k hung under 0.  A slot
    counts toward a label j when it is read before j and its parent is
    <= j < its label (any j >= parent for an empty slot), so one scan
    with a difference array gives the tree's own weight, and cover[g]:
    the slots that count toward a label read after the tree with g of
    the tree's labels below it."""
    slots = []
    _slots(tree, 0, slots)
    diff = [0] * (k + 2)
    internal = empties = 0
    for x, parent in slots:
        if x == EMPTY:
            x, empties = k + 1, empties + 1
        else:
            internal += sum(diff[:x + 1])
        diff[parent] += 1
        diff[x] -= 1
    return internal, empties, tuple(accumulate(diff[:k + 1]))


def _sum_monomials(counts: Counter) -> BiPoly:
    """Sum of q^weight t^emp over counted ``(weight, emp)`` pairs."""
    width = 1 + max((w for w, _ in counts), default=-1)
    rows = [[0] * width for _ in range(1 + max((e for _, e in counts), default=-1))]
    for (w, e), c in counts.items():
        rows[e][w] += c
    return BiPoly.make(map(QPoly.make, rows))


def _counted_sum(n: int, empty: tuple, root_weights: tuple, leaf: bool) -> BiPoly:
    """Sum of q^weight t^emp over the objects on 1..n built as the smallest
    label (adding one of ``root_weights``), a tree hung under it on k of
    the other labels, and an object of the same kind on the labels left;
    ``empty`` is the ``(weight, emp)`` of the object on no labels, and
    ``leaf`` adds the lone root.

    An object weighs its first tree's region (the tree's slots, top slot
    included, counted against its own labels and the labels left) plus
    the weight of the object on the labels left, as no slot of that object
    is read before a label of the tree.  A weight only compares labels, so
    the pairs over any m labels are the pairs over 1..m: ``memo[m]`` counts
    them once per size.  A region is the tree's profile read at the labels
    left (its internal weight plus cover[g] for each label left with g of
    the tree's labels below it), and each multiset of those g is one
    split.  So the first trees of all splits leaving a labels form one
    pool, convolved once with ``memo[a]``."""
    memo, profiles = [Counter({empty: 1})], []
    for m in range(1, n + 1):
        found = Counter({(0, 0): 1} if leaf and m == 1 else ())
        profiles.append([_profile(tree, m - 1) for _, tree
                         in _keyed_trees(tuple(range(1, m)), {})])
        for k, shapes in enumerate(profiles):
            pool = Counter()
            for w, e, cover in shapes:
                pool.update(zip(map(w.__add__, map(sum, combinations_with_replacement(
                    cover, m - 1 - k))), repeat(e)))
            for (w1, e1), c1 in pool.items():
                for (w2, e2), c2 in memo[m - 1 - k].items():
                    for b in root_weights:
                        found[w1 + w2 + b, e1 + e2] += c1 * c2
        memo.append(found)
    return _sum_monomials(memo[n])


def weighted_sum_trees(n: int, *, max_n=None) -> BiPoly:
    """Sum of q^weight t^emp over all size-n trees (= the operator P_n).
    A tree (r, L, R) is its root, L, and R on the labels L leaves."""
    enforce_ceiling("tree enumeration", n, max_n, DEFAULT_TREE_CEILING)
    return _counted_sum(n, (0, 1), (0,), leaf=True)


def weighted_sum_forests(n: int, *, white_only: bool = False, max_n=None) -> BiPoly:
    """Sum of q^weight t^emp over forests (all: R_n; white only: Q_n).
    A forest is its first root, that root's child, and a forest on the
    labels the child leaves; a black root adds one."""
    enforce_ceiling("forest enumeration", n, max_n, DEFAULT_FOREST_CEILING)
    return _counted_sum(n, (0, 0), (0,) if white_only else (1, 0), leaf=False)
