"""Boustrophedon triangles and the derivative-polynomial families.

Four recurrence-defined arrays live here:

* the zigzag triangle (alternating permutations by first entry),
* its signed analogue, a double triangle over columns -n..-1, 1..n,
* the polynomial refinement of the double triangle, and
* the variant that restricts to trees with an empty leftmost leaf.

The last three are one signed boustrophedon recurrence
(``_signed_boustrophedon``) from three first rows (V(1,1), V(1,-1)):
(1, 1) on integers, then (t^2, 1) and, for the leftmost-leaf-empty
("gamma") arrays, (t^2, 0) on Laurent polynomials.

The derivative polynomials P_n, Q_n, R_n of tan, sec and sec^2 iterate
f -> (1+t^2) f' + a t f (a = 0, 1, 2; P_0 = t, Q_0 = R_0 = 1) on a plain
coefficient list, and the triangle row sums are checked against them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

from .polynomials import LaurentPoly

V = TypeVar("V")


@dataclass(frozen=True)
class EntringerTriangle:
    n: int
    entries: dict  # (row, k) -> int, 1 <= k <= row <= n

    def row(self, r: int) -> list[int]:
        return [self.entries[(r, k)] for k in range(1, r + 1)]

    def row_sum(self, r: int) -> int:
        return sum(self.row(r))

    def to_json(self) -> dict:
        return {"n": self.n,
                "rows": [{"k": k, "value": self.entries[(self.n, k)]}
                         for k in range(1, self.n + 1)]}


@dataclass(frozen=True)
class DoubleTriangle(Generic[V]):
    n: int
    entries: dict  # (row, k) -> V, 1 <= |k| <= row <= n

    @staticmethod
    def signed_columns(r: int) -> list[int]:
        return list(range(-r, 0)) + list(range(1, r + 1))

    def row(self, r: int) -> list[V]:
        return [self.entries[(r, k)] for k in self.signed_columns(r)]

    def value(self, r: int, k: int) -> V:
        return self.entries[(r, k)]

    def positive_sum(self, r: int):
        return self._side_sum(r, 1)

    def negative_sum(self, r: int):
        return self._side_sum(r, -1)

    def _side_sum(self, r: int, sign: int):
        total = self.entries[(r, sign)]
        for k in range(2, r + 1):
            total = total + self.entries[(r, sign * k)]
        return total

    def to_json(self) -> dict:
        def enc(v):
            return v.to_json() if isinstance(v, LaurentPoly) else v
        return {"n": self.n,
                "rows": [{"k": k, "value": enc(self.entries[(self.n, k)])}
                         for k in self.signed_columns(self.n)]}


def entringer(n: int) -> EntringerTriangle:
    """Triangle counting down-up alternating permutations by first entry."""
    if n < 1:
        raise ValueError("n must be >= 1")
    e = {(1, 1): 1}
    for r in range(2, n + 1):
        e[(r, 1)] = 0
        for k in range(2, r + 1):
            e[(r, k)] = e[(r, k - 1)] + e[(r - 1, r - k + 1)]
    return EntringerTriangle(n, e)


def _signed_boustrophedon(n: int, row1: tuple, shift) -> DoubleTriangle:
    """Rows 1..n of the signed boustrophedon from row 1 = (V(1,1), V(1,-1)):

        V(r,-r) = 0,    V(r,-k) = V(r,-k-1) + t^-1 V(r-1,k)  for k = r-1..1,
        V(r,1) = t^2 V(r,-1),    V(r,k) = V(r,k-1) + t V(r-1,-k+1),

    where ``shift(x, m)`` is x times t^m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    v = {(1, 1): row1[0], (1, -1): row1[1]}
    zero = row1[0] * 0
    for r in range(2, n + 1):
        total = v[(r, -r)] = zero
        for k in range(r - 1, 0, -1):
            total = v[(r, -k)] = total + shift(v[(r - 1, k)], -1)
        total = v[(r, 1)] = shift(total, 2)
        for k in range(2, r + 1):
            total = v[(r, k)] = total + shift(v[(r - 1, -k + 1)], 1)
    return DoubleTriangle(n, v)


def arnold(n: int) -> DoubleTriangle:
    """Double triangle counting snakes by (signed) first entry.

    Row sums over positive columns give the type-B numbers, over
    negative columns the type-D numbers.
    """
    return _signed_boustrophedon(n, (1, 1), lambda x, m: x)


def arnold_poly(n: int) -> DoubleTriangle:
    """Polynomial refinement of the signed triangle.

    Same boustrophedon flow, but the turn at column 1 multiplies by t^2
    and the row-to-row transfers carry t or 1/t.  Intermediate entries
    may pass through negative exponents; every final entry is a proper
    polynomial (checked by ``verify``'s eq-5).
    """
    return _signed_boustrophedon(n, (LaurentPoly.t_power(2), LaurentPoly.one()),
                                 LaurentPoly.shift)


def gamma_arrays(n: int) -> DoubleTriangle:
    """Signed-column triangle for the leftmost-leaf-empty tree classes.

    Positive column k holds the circ-class sum at rightmost label
    n-k+1, negative column -k the star-class sum.  These are the
    ``arnold_poly`` recurrence from row 1 = (t^2, 0).  Evaluating at t=1
    yields the triangle that counts snakes whose last entry has sign
    (-1)^(n+1).
    """
    return _signed_boustrophedon(n, (LaurentPoly.t_power(2), LaurentPoly.zero()),
                                 LaurentPoly.shift)


def _derivative_poly(n: int, a: int, start: list[int]) -> LaurentPoly:
    """n steps t^k -> k t^(k-1) + (k+a) t^(k+1) on coefficients of t^0, t^1, ..."""
    f = start
    for _ in range(n):
        padded = [0, *f, 0, 0]  # padded[k + 1] is the coefficient of t^k
        f = [(k + 1) * padded[k + 2] + (k - 1 + a) * padded[k]
             for k in range(len(f) + 1)]
    return LaurentPoly.make(0, f)


def hoffman_P(n: int) -> LaurentPoly:
    """n-th derivative polynomial of tan: P_0 = t, then (1+t^2) d/dt."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _derivative_poly(n, 0, [0, 1])


def hoffman_Q(n: int) -> LaurentPoly:
    """n-th derivative polynomial of sec (cofactor of sec)."""
    return hoffman_secant_power(n, 1)


def hoffman_R(n: int) -> LaurentPoly:
    """n-th derivative polynomial of sec^2 (cofactor of sec^2)."""
    return hoffman_secant_power(n, 2)


def hoffman_secant_power(n: int, a: int) -> LaurentPoly:
    """Cofactor of sec^a in its n-th derivative (a=1 gives Q, a=2 gives R).

    Extension point for other powers; only a=1,2 are exercised by the
    triangle identities.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if a < 1:
        raise ValueError("a must be >= 1")
    return _derivative_poly(n, a, [1])


def hoffman_triangle_identity(n: int) -> bool:
    """Do the signed polynomial row sums reproduce Q_n and P_n - t*Q_n?"""
    if n < 1:
        raise ValueError("n must be >= 1")
    tri = arnold_poly(n)
    q = hoffman_Q(n)
    lhs_q = tri.positive_sum(n).shift(-1)
    lhs_p = tri.negative_sum(n)
    return lhs_q == q and lhs_p == hoffman_P(n) - LaurentPoly.t_power(1) * q
