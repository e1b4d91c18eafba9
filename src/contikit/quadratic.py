"""Exact elements p + q*sqrt(Delta) of a real quadratic field.

Delta is stored un-factored; arithmetic works over Z[x]/(x^2 - Delta), so
no square-free reduction is needed and printed forms match the closed-form
expressions exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DivisionByZero, UsageError, text


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class QuadraticNumber:
    p: Fraction
    q: Fraction
    delta: int

    def __post_init__(self):
        object.__setattr__(self, "p", _as_fraction(self.p))
        object.__setattr__(self, "q", _as_fraction(self.q))
        object.__setattr__(self, "delta", int(self.delta))

    def __add__(self, other):
        other = self._coerce(other)
        return QuadraticNumber(self.p + other.p, self.q + other.q, self.delta)

    def __sub__(self, other):
        other = self._coerce(other)
        return QuadraticNumber(self.p - other.p, self.q - other.q, self.delta)

    def __neg__(self):
        return QuadraticNumber(-self.p, -self.q, self.delta)

    def __mul__(self, other):
        other = self._coerce(other)
        return QuadraticNumber(
            self.p * other.p + self.q * other.q * self.delta,
            self.p * other.q + self.q * other.p,
            self.delta,
        )

    def __truediv__(self, other):
        other = self._coerce(other)
        n = other.norm()
        if n == 0:
            raise DivisionByZero("division by a zero-norm quadratic number")
        conj = other.conjugate()
        num = self * conj
        return QuadraticNumber(num.p / n, num.q / n, self.delta)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _coerce(self, other) -> "QuadraticNumber":
        """other as a number of this field; mixed radicands raise UsageError."""
        if not isinstance(other, QuadraticNumber):
            return QuadraticNumber(other, 0, self.delta)
        if self.delta != other.delta:
            raise UsageError(f"mixed radicands: sqrt({text(self.delta)}) vs sqrt({text(other.delta)})")
        return other

    def conjugate(self) -> "QuadraticNumber":
        return QuadraticNumber(self.p, -self.q, self.delta)

    def norm(self) -> Fraction:
        return self.p * self.p - self.q * self.q * self.delta

    def is_rational(self) -> bool:
        return self.q == 0

    def mpf(self, dps: int = 50) -> mpmath.mpf:
        """Numeric value at dps decimal digits (requires delta >= 0), to relative error 10^-dps."""
        with mpmath.workdps(dps + 10):
            p = mpmath.mpf(self.p.numerator) / self.p.denominator
            r = mpmath.mpf(self.q.numerator) / self.q.denominator * mpmath.sqrt(self.delta)
            if self.p * self.q >= 0:
                return p + r
            n = self.norm()  # p + r would cancel; N(x)/(p - r), the norm over the conjugate, does not
            return mpmath.mpf(n.numerator) / n.denominator / (p - r)

    def __str__(self) -> str:
        if self.q == 0:
            return text(self.p)
        root = f"*sqrt({text(self.delta)})"
        if self.p == 0:
            return text(self.q) + root
        return f"{text(self.p)} {'+' if self.q > 0 else '-'} {text(abs(self.q))}{root}"
