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

specialize at q=1 to the derivative polynomials of tan, sec and sec^2,
and are matched combinatorially by q-weights: a tree or forest is
peeled label by label, each label contributing the number of empty
leaves read before it (black roots add one more).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .forests import BLACK, emp_forest, enumerate_forests, validate_forest
from .polynomials import LaurentPoly
from .trees import EMPTY, emp, enumerate_trees, is_empty, is_leaf, validate_tree


@dataclass(frozen=True)
class QPoly:
    coeffs: tuple[int, ...]  # coefficient of q^i at index i

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("not canonical: trailing zero")

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
        if self.is_zero() or other.is_zero():
            return QPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly.make(out)

    def __call__(self, q: int) -> int:
        return sum(c * q**i for i, c in enumerate(self.coeffs))


@dataclass(frozen=True)
class BiPoly:
    t_coeffs: tuple[QPoly, ...]  # coefficient of t^i at index i

    def __post_init__(self):
        if self.t_coeffs and self.t_coeffs[-1].is_zero():
            raise ValueError("not canonical: trailing zero t-coefficient")

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


@dataclass(frozen=True)
class Operator:
    """Sum of words in the primitives D and U, applied right to left."""
    words: tuple[str, ...]

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


P_OPERATOR = Operator(("D", "UUD"))
Q_OPERATOR = Operator(("D", "UDU"))
R_OPERATOR = Operator(("D", "DUU"))


def qpoly_P(n: int) -> BiPoly:
    if n < 0:
        raise ValueError("n must be >= 0")
    return P_OPERATOR.iterate(n, BiPoly.t_power(1))


def qpoly_Q(n: int) -> BiPoly:
    if n < 0:
        raise ValueError("n must be >= 0")
    return Q_OPERATOR.iterate(n, BiPoly.one())


def qpoly_R(n: int) -> BiPoly:
    if n < 0:
        raise ValueError("n must be >= 0")
    return R_OPERATOR.iterate(n, BiPoly.one())


# -- combinatorial weights ------------------------------------------------

def _slots(node, parent, out):
    """Append the ``(label or EMPTY, parent label)`` slots of a subtree in
    preorder."""
    if is_empty(node):
        out.append((EMPTY, parent))
        return
    out.append((node[0], parent))
    if not is_leaf(node):
        _slots(node[1], node[0], out)
        _slots(node[2], node[0], out)


def _step_weights(slots) -> list[int]:
    """Empty leaves read before each label j (index j) once every label
    > j is peeled.  Those leaves are exactly the slots read before j
    whose parent is a label <= j and that hold EMPTY or a label > j, so
    one scan counts them without rebuilding the object."""
    n = sum(x != EMPTY for x, _ in slots)
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
    validate_tree(tree)
    slots = []
    _slots(tree, None, slots)
    return tuple(_step_weights(slots)[1:])


def weight_tree(tree) -> int:
    return sum(tree_step_weights(tree))


def _forest_weights(forest) -> list[int]:
    """d_j at index j (index 0 holds 0) of a valid forest."""
    slots = []
    for _, root, child in forest:
        slots.append((root, None))
        _slots(child, root, slots)
    out = _step_weights(slots)
    for color, root, _ in forest:
        out[root] += color == BLACK
    return out


def forest_step_weights(forest) -> tuple[int, ...]:
    """d_j = empty leaves read before the node labelled j (components in
    root order, roots read before their subtrees), plus one when j is a
    black root."""
    validate_forest(forest)
    return tuple(_forest_weights(forest)[1:])


def weight_forest(forest) -> int:
    return sum(forest_step_weights(forest))


def _sum_monomials(pairs) -> BiPoly:
    """Sum of q^weight t^emp over ``(weight, emp)`` pairs, counted first
    and built as one polynomial."""
    counts = Counter(pairs)
    width = 1 + max((w for w, _ in counts), default=-1)
    rows = [[0] * width for _ in range(1 + max((e for _, e in counts), default=-1))]
    for (w, e), c in counts.items():
        rows[e][w] += c
    return BiPoly.make(map(QPoly.make, rows))


def weighted_sum_trees(n: int, *, max_n=None) -> BiPoly:
    """Sum of q^weight t^emp over all size-n trees (= the operator P_n)."""
    return _sum_monomials((weight_tree(t), emp(t))
                          for t in enumerate_trees(n, max_n=max_n))


def weighted_sum_forests(n: int, *, white_only: bool = False, max_n=None) -> BiPoly:
    """Sum of q^weight t^emp over forests (all: R_n; white only: Q_n)."""
    return _sum_monomials((sum(_forest_weights(f)), emp_forest(f)) for f in
                          enumerate_forests(n, white_only=white_only, max_n=max_n))
