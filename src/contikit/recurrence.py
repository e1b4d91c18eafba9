"""Reduction of a d-periodic system to a single second-order recurrence.

B_{nu+2d} = C_d B_{nu+d} + D_d B_nu with C_d = tr M and
D_d = -det M = (-1)^{d-1} a_1...a_d for the period matrix M of contikit.core
(Cayley-Hamilton), in Z and in Z/m alike (reduce(system, m)), so B_{kd-1} = W_k B_{d-1}
for the Lucas sequence W of (C_d, D_d) (ReducedRecurrence.boundary), which divides by
nothing; plus exact values at positive and negative indices through powers of M and its
adjugate, at any Delta, roots in Q(sqrt(Delta)), the generating-function check and ratio limits.
A reader refuses B_{d-1} = 0 (DivisionByZero) where its answer divides by it, or is 0 = 0 or
(limit_ratio) no root's ratio, and Delta = 0 (DegenerateDiscriminant) only where it takes a root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .continuants import continuant_pair
from .core import IDENTITY, Matrix, lucas, mul, period, power, steps, walk
from .errors import DegenerateDiscriminant, DivisionByZero, IndexOutOfRange, UsageError, text
from .quadratic import QuadraticNumber
from .systems import PeriodicSystem


@dataclass(frozen=True)
class ReducedRecurrence:
    Cd: int
    Dd: int
    Bd1: int  # B_{d-1}; B_{nd-1} is stride(Cd, Dd, 0, Bd1) at n

    @property
    def delta(self) -> int:
        return self.Cd * self.Cd + 4 * self.Dd

    @classmethod
    def of(cls, mat: Matrix, m: int | None = None) -> ReducedRecurrence:
        """C_d, D_d and B_{d-1}: the trace, negated determinant and corner of the period matrix,
        in [0, m) if m is given."""
        (p, q), (r, s) = mat
        c, dd = p + s, q * r - p * s
        return cls(c, dd, r) if m is None else cls(c % m, dd % m, r % m)

    def boundary(self, k: int, m: int | None = None) -> int:
        """B_{kd-1} (mod m) for k >= 0: W_k B_{d-1} on the Lucas ladder of (C_d, D_d), or 0 at once."""
        b = self.Bd1 and lucas(self.Cd, self.Dd, k, m)[0] * self.Bd1
        return b if m is None else b % m


def reduce(system: PeriodicSystem, m: int | None = None) -> ReducedRecurrence:
    """The reduction of the period matrix, walked over Z or mod m; it divides by nothing, so
    B_{d-1} = 0 is allowed."""
    return ReducedRecurrence.of(steps(system, 0, system.d, IDENTITY, m), m)


def roots(reduced: ReducedRecurrence) -> tuple[QuadraticNumber, QuadraticNumber]:
    """alpha = (-C + sqrt(Delta))/(2D), beta = (-C - sqrt(Delta))/(2D)."""
    if reduced.delta == 0:
        raise DegenerateDiscriminant("Delta = 0")
    if reduced.Dd == 0:
        raise DegenerateDiscriminant("D_d = 0")
    two_d = 2 * reduced.Dd
    alpha = QuadraticNumber(Fraction(-reduced.Cd, two_d), Fraction(1, two_d), reduced.delta)
    beta = QuadraticNumber(Fraction(-reduced.Cd, two_d), Fraction(-1, two_d), reduced.delta)
    return alpha, beta


def binet(system: PeriodicSystem, n: int, r: int) -> int:
    """B_{nd+r} over Z, one continuant_pair read (a walk, or one period walk and the ladder); any Delta."""
    if n < 0 or r < -1:
        raise IndexOutOfRange("requires n >= 0, r >= -1")
    return continuant_pair(system, n * system.d + r)[1]


def binet_negative(system: PeriodicSystem, n: int, r: int) -> Fraction:
    """B_{-nd+r} = [T_{r+1} ... T_1 adj(M)^n]_{1,0} / det(M)^n; exact rational, any Delta.

    M^{-n} carries (B_0, B_{-1}) back to (B_{-nd}, B_{-nd-1}), and
    det M = -D_d, never 0 as no a_i is.  Satisfies (-D_d)^n B_{-nd-1} = -B_{nd-1}
    at r = -1.  Rationals appear when |a_nu| != 1, matching the backward recurrence
    B_{nu-2} = (B_nu - b_nu B_{nu-1}) / a_nu.
    """
    if n < 0 or r < -1:
        raise IndexOutOfRange("requires n >= 0, r >= -1")
    x, ((p, q), (t, s)) = period(system, r + 1)
    return Fraction(mul(x, power(((s, -q), (-t, p)), n))[1][0], (p * s - q * t) ** n)


@dataclass(frozen=True)
class GFReport:
    numerator: tuple[int, ...]   # coefficients of the expected numerator polynomial
    product: tuple[int, ...]     # (1 - C x^d - D x^{2d}) * partial series, x^0 .. x^N
    degree_checked: int

    @property
    def equal(self) -> bool:
        n = self.degree_checked + 1
        pad = lambda t: tuple(t[:n]) + (0,) * (n - len(t))
        return pad(self.numerator) == pad(self.product)


def gf_verify(system: PeriodicSystem, n_terms: int) -> GFReport:
    """Check (1 - C x^d - D x^{2d}) * sum_{n<=N} B_n x^n: each of its N + 1 coefficients is
    the numerator's (those below x^{2d}) or 0."""
    d = system.d
    if n_terms < 2 * d:
        raise IndexOutOfRange(f"need N >= 2d = {text(2 * d)}, got {text(n_terms)}")
    reduced = reduce(system)
    seq = walk(system, n_terms)[1:]  # B_0 .. B_N
    prod = list(seq)
    for i, bn in enumerate(seq):
        if i + d <= n_terms:
            prod[i + d] -= reduced.Cd * bn
        if i + 2 * d <= n_terms:
            prod[i + 2 * d] -= reduced.Dd * bn
    return GFReport(tuple(prod[: 2 * d]), tuple(prod), n_terms)


def limit_ratio(system: PeriodicSystem, mode: str, r: int) -> QuadraticNumber:
    """Exact limit of B_{nd+r}/B_{nd+r-1} or B_{(n+1)d+r}/B_{nd+r}, from B_{nd+r} = u lam^n + v mu^n."""
    x, m = period(system, r % system.d)  # first column (B_r, B_{r-1}) up to whole periods
    reduced = ReducedRecurrence.of(m)
    if reduced.Bd1 == 0:
        raise DivisionByZero("B_{d-1} = 0 makes B_{nd-1} = 0 and B_{nd+r} = B_d^n B_r, not a root's ratio")
    if reduced.delta <= 0:
        raise DegenerateDiscriminant("limits require Delta > 0")
    if reduced.Cd == 0:
        raise DegenerateDiscriminant("|alpha| = |beta| when C_d = 0")
    s = math.isqrt(reduced.delta)  # a square Delta gives rational roots, and then u may be 0
    root = QuadraticNumber(s, 0, s * s) if s * s == reduced.delta else QuadraticNumber(0, 1, reduced.delta)
    lam = (reduced.Cd + (root if reduced.Cd > 0 else -root)) / 2  # |lam| > |mu| = |C_d - lam|
    y = mul(x, m)  # first column (B_{d+r}, B_{d+r-1})
    u = lambda i: y[i][0] - (reduced.Cd - lam) * x[i][0]  # u of B_{nd+r-i} times (lam - mu)
    if mode == "consecutive_terms":
        if r < 0:
            raise IndexOutOfRange("consecutive_terms requires r >= 0")
        if not u(1).norm():
            raise DivisionByZero(f"at r = {text(r)}, B_{{nd+r-1}} has no part in the larger root, "
                                 "so B_{nd+r}/B_{nd+r-1} grows without bound")
        return u(0) / u(1)
    if mode == "consecutive_periods":
        if r < -1:
            raise IndexOutOfRange("consecutive_periods requires r >= -1")
        return lam if u(0).norm() else reduced.Cd - lam  # mu where B_{nd+r} has no lam part
    raise UsageError(f"unknown mode {mode!r}")
