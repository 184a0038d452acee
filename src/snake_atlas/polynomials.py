"""Exact integer Laurent polynomials in a single variable t.

A polynomial is stored as a minimum exponent plus a dense coefficient
vector, so division by t is just an exponent shift.  All arithmetic is
exact (Python integers), and every value is immutable and canonical:
the first and last stored coefficients are nonzero unless the
polynomial is zero.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import repeat
from operator import add, attrgetter

_set = object.__setattr__


class Value:
    """Immutable value: a subclass names its fields in ``__slots__`` and sets
    them in ``__init__`` with ``_set``.  Objects of one class compare and
    hash by their fields, print as ``Name(field=value, ...)`` and pickle."""
    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LaurentPoly(Value):
    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int, coeffs: tuple[int, ...]):
        if not all(map(isinstance, coeffs, repeat(int))):
            raise TypeError("coefficients must be integers")
        if coeffs and (coeffs[0] == 0 or coeffs[-1] == 0):
            raise ValueError("not canonical: leading/trailing zero coefficient")
        if not coeffs and min_exp != 0:
            raise ValueError("zero polynomial must have min_exp 0")
        _set(self, "min_exp", min_exp)
        _set(self, "coeffs", coeffs)

    # -- constructors ------------------------------------------------

    @staticmethod
    def make(min_exp: int, coeffs: Iterable[int]) -> "LaurentPoly":
        """Build from a raw coefficient run, trimming to canonical form."""
        cs = list(coeffs)
        lo = 0
        while lo < len(cs) and cs[lo] == 0:
            lo += 1
        hi = len(cs)
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return LaurentPoly(0, ())
        return LaurentPoly(min_exp + lo, tuple(cs[lo:hi]))

    @staticmethod
    def from_terms(terms: Mapping[int, int]) -> "LaurentPoly":
        """Build from an {exponent: coefficient} mapping."""
        nz = {e: c for e, c in terms.items() if c != 0}
        if not nz:
            return LaurentPoly(0, ())
        lo, hi = min(nz), max(nz)
        return LaurentPoly(lo, tuple(nz.get(e, 0) for e in range(lo, hi + 1)))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(0, ())

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly(0, (1,))

    @staticmethod
    def t_power(m: int) -> "LaurentPoly":
        return LaurentPoly(m, (1,))

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def terms(self) -> dict[int, int]:
        return {self.min_exp + i: c for i, c in enumerate(self.coeffs) if c != 0}

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        low, high = (self, other) if self.min_exp <= other.min_exp else (other, self)
        start, end = high.min_exp - low.min_exp, high.max_exp - low.min_exp + 1
        cs = [*low.coeffs, *[0] * (end - len(low.coeffs))]
        cs[start:end] = map(add, cs[start:end], high.coeffs)
        return LaurentPoly.make(low.min_exp, cs)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.min_exp, tuple(-c for c in self.coeffs)) if self.coeffs else self

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        cs = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                cs[i + j] += a * b
        return LaurentPoly.make(self.min_exp + other.min_exp, cs)

    __rmul__ = __mul__

    def scale(self, k: int) -> "LaurentPoly":
        if k == 0 or self.is_zero():
            return LaurentPoly.zero()
        return LaurentPoly(self.min_exp, tuple(k * c for c in self.coeffs))

    def shift(self, m: int) -> "LaurentPoly":
        """Multiply by t**m (m may be negative)."""
        if self.is_zero():
            return self
        return LaurentPoly(self.min_exp + m, self.coeffs)

    def derivative(self) -> "LaurentPoly":
        """Formal derivative d/dt."""
        terms = {e - 1: e * c for e, c in self.terms().items() if e != 0}
        return LaurentPoly.from_terms(terms)

    def __call__(self, t: int) -> int:
        """Evaluate at an integer t (t must be nonzero if min_exp < 0)."""
        if self.min_exp < 0 and t == 0:
            raise ZeroDivisionError("negative exponent at t=0")
        total = 0
        for e, c in self.terms().items():
            if e >= 0:
                total += c * t**e
            else:
                q, r = divmod(c, t ** (-e))
                if r != 0:
                    raise ValueError("non-integral evaluation")
                total += q
        return total

    # -- formatting & serialization -----------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in sorted(self.terms().items()):
            if e == 0:
                s = str(c)
            else:
                var = "t" if e == 1 else f"t^{e}"
                if c == 1:
                    s = var
                elif c == -1:
                    s = "-" + var
                else:
                    s = f"{c}{var}"
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def to_json(self) -> dict:
        return {"min_exp": self.min_exp, "coeffs": list(self.coeffs)}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        return LaurentPoly.make(int(obj["min_exp"]), [int(c) for c in obj["coeffs"]])
