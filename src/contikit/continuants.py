"""Generalized continuants A_{nu,lambda}, B_{nu,lambda} and their identities.

Values come from the integer core (contikit.core), the one module that steps
the recurrence.  A single value costs O(d + log nu) matrix products.  Batches
of identity instances (verify_identities) read one table per system instead:
B at every phase l mod d walked to the largest index the batch needs, A from
B, and a-products as ratios of prefix products.  An exact determinant of the
explicit tridiagonal matrix is kept as an independent oracle.  All values are
exact Python integers.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .core import transfer, walk
from .errors import IndexOutOfRange
from .systems import PeriodicSystem


def continuant_pair(system: PeriodicSystem, nu: int, lam: int = 0) -> tuple[int, int]:
    """Return (A_{nu,lam}, B_{nu,lam}).

    Initial values: A_{-1,lam} = 1, A_{0,lam} = b_lam and
    B_{-1,lam} = 0, B_{0,lam} = 1; then
    X_{k,lam} = b_{lam+k} X_{k-1,lam} + a_{lam+k} X_{k-2,lam}.
    """
    if nu < -1:
        raise IndexOutOfRange(f"nu must be >= -1, got {nu}")
    if lam < 0:
        raise IndexOutOfRange(f"lambda must be >= 0, got {lam}")
    if nu == -1:
        return 1, 0
    (b_nu, e_nu), _ = transfer(system, nu, lam)
    return system.coeff_b(lam) * b_nu + e_nu, b_nu


def b_sequence(system: PeriodicSystem, nu_max: int, lam: int = 0) -> list[int]:
    """B_{-1,lam} .. B_{nu_max,lam} as a list (index i holds B_{i-1,lam})."""
    if nu_max < -1:
        raise IndexOutOfRange(f"nu_max must be >= -1, got {nu_max}")
    return walk(system, nu_max, lam)


def continuant_matrix(system: PeriodicSystem, nu: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(1 1; 1 0) * prod_{j=1..nu} (b_j 1; a_j 0).

    The leading factor encodes b_0 = 1, so system.b0 is deliberately ignored
    here; rows are (A_nu, A_{nu-1}) and (B_nu, B_{nu-1}) under that
    convention.  The product is the transpose of the core's transfer matrix.
    """
    if nu < 0:
        raise IndexOutOfRange(f"nu must be >= 0, got {nu}")
    (p, q), (r, s) = transfer(system, nu)
    return (p + q, r + s), (p, r)


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant via fraction-free Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _tridiagonal(system: PeriodicSystem, lo: int, hi: int) -> list[list[int]]:
    """Matrix with diagonal b_lo..b_hi, superdiagonal -1, subdiagonal a_{lo+1}.."""
    n = hi - lo + 1
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[i][i] = system.coeff_b(lo + i)
        if i + 1 < n:
            mat[i][i + 1] = -1
            mat[i + 1][i] = system.coeff_a(lo + i + 1)
    return mat


def continuant_determinant(system: PeriodicSystem, nu: int) -> tuple[int, int]:
    """(A_nu, B_nu) as determinants of explicit tridiagonal matrices.

    Independent oracle for continuant_pair: the matrices are built entry by
    entry and reduced by an exact general-purpose determinant, not by the
    three-term recurrence.
    """
    if nu < 0:
        raise IndexOutOfRange(f"nu must be >= 0, got {nu}")
    a_val = _bareiss_det(_tridiagonal(system, 0, nu))
    b_val = _bareiss_det(_tridiagonal(system, 1, nu)) if nu >= 1 else 1
    return a_val, b_val


def convergent(system: PeriodicSystem, nu: int, lam: int = 0) -> Fraction:
    """Depth-nu truncation of the continued fraction, bottom-up in rationals."""
    if nu < 0:
        raise IndexOutOfRange(f"nu must be >= 0, got {nu}")
    value = Fraction(system.coeff_b(lam + nu))
    for k in range(nu - 1, -1, -1):
        value = system.coeff_b(lam + k) + Fraction(system.coeff_a(lam + k + 1)) / value
    return value


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    params: tuple[int, ...]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


IDENTITIES = ("cassini_A", "cassini_B", "catalan", "docagne", "index_changing", "telescoping")


def _sign(k: int) -> int:
    """(-1)**k as an int, valid for negative k too."""
    return -1 if k % 2 else 1


def _a_product(system: PeriodicSystem, lo: int, hi: int) -> int:
    """a_lo * a_{lo+1} * ... * a_hi (empty product = 1)."""
    prod = 1
    for i in range(lo, hi + 1):
        prod *= system.coeff_a(i)
    return prod


def _table_lookups(system: PeriodicSystem, top: int):
    """A(n, l), B(n, l) and a_product(lo, hi) read from tables: B and A for
    n <= top and 0 <= l <= top + 1, a-products for hi <= top.

    B_{n,l} depends only on l mod d, so d walks give every B.  A_{n,l} =
    b_l B_{n,l} + a_{l+1} B_{n-1,l+1} (A_{-1,l} = 1) depends on l mod d too,
    except at l = 0 where b_l is the leading term b_0.  a-products are ratios
    of prefix products, exact because every a is nonzero.
    """
    d = system.d
    b_rows = [walk(system, top, phi) for phi in range(d)]

    def a_row(b_l: int, phi: int) -> list[int]:
        row, nxt, a_next = b_rows[phi], b_rows[(phi + 1) % d], system.a[phi]
        return [1] + [b_l * row[i + 1] + a_next * nxt[i] for i in range(top + 1)]

    a_rows = [a_row(system.b[phi - 1], phi) for phi in range(d)]  # l = phi mod d, l >= 1
    a_by_l = [a_row(system.b0, 0)] + [a_rows[l % d] for l in range(1, top + 2)]
    b_by_l = [b_rows[l % d] for l in range(top + 2)]
    prefix = list(accumulate((system.coeff_a(k) for k in range(1, top + 1)), operator.mul, initial=1))
    A = lambda n, l=0: a_by_l[l][n + 1]
    B = lambda n, l=0: b_by_l[l][n + 1]
    return A, B, lambda lo, hi: prefix[hi] // prefix[lo - 1]


def verify_identity(system: PeriodicSystem, identity: str, params: tuple[int, ...]) -> IdentityReport:
    """Evaluate both sides of one of the catalogued identities exactly.

    Parameter conventions:
      cassini_A / cassini_B: params = (lam, nu, mu), all >= 0
      catalan:               params = (lam, nu)
      docagne:               params = (lam, nu) with lam >= nu
      index_changing:        params = (lam, nu) with nu >= 1
      telescoping:           params = (lam, nu) with lam >= nu, d | (lam - nu)
    """
    A = lambda n, l=0: continuant_pair(system, n, l)[0]
    B = lambda n, l=0: continuant_pair(system, n, l)[1]
    return _evaluate(system, identity, params, A, B, lambda lo, hi: _a_product(system, lo, hi))


def verify_identities(system: PeriodicSystem,
                      instances: Iterable[tuple[str, tuple[int, ...]]]) -> list[IdentityReport]:
    """verify_identity for each (identity, params) pair, in order, with the same
    reports and errors.

    Every value an instance reads has index at most sum(params), so all of
    them read one table walked to the largest such sum.
    """
    instances = list(instances)
    table = _table_lookups(system, max([0] + [sum(params) for _, params in instances]))
    return [_evaluate(system, identity, params, *table) for identity, params in instances]


def _evaluate(system: PeriodicSystem, identity: str, params: tuple[int, ...],
              A, B, a_product) -> IdentityReport:
    """Check params, then evaluate both sides from lookups A(n, l), B(n, l)
    and a_product(lo, hi)."""
    if identity in ("cassini_A", "cassini_B"):
        lam, nu, mu = params
        if min(lam, nu, mu) < 0:
            raise IndexOutOfRange("cassini requires lam, nu, mu >= 0")
        X = A if identity == "cassini_A" else B
        lhs = X(nu + lam + mu - 1) * B(nu - 1, lam)
        rhs = (
            X(nu + lam - 1) * B(nu + mu - 1, lam)
            + _sign(nu - 1) * a_product(lam + 1, lam + nu) * X(lam - 1) * B(mu - 1, nu + lam)
        )
        return IdentityReport(identity, tuple(params), (lhs,), (rhs,))

    if identity == "catalan":
        lam, nu = params
        if lam < 0 or nu < 0:
            raise IndexOutOfRange("catalan requires lam, nu >= 0")
        a1 = system.coeff_a(lam + 1)
        lhs = (A(nu + lam), B(nu + lam))
        rhs = (
            A(lam) * B(nu, lam) + a1 * A(lam - 1) * B(nu - 1, lam + 1),
            B(lam) * B(nu, lam) + a1 * B(lam - 1) * B(nu - 1, lam + 1),
        )
        return IdentityReport(identity, tuple(params), lhs, rhs)

    if identity == "docagne":
        lam, nu = params
        if nu < 0 or lam < nu:
            raise IndexOutOfRange("docagne requires 0 <= nu <= lam")
        prod = _sign(nu - 1) * a_product(lam - nu + 1, lam)
        lhs = (A(lam) * B(nu - 1, lam - nu), B(lam) * B(nu - 1, lam - nu))
        rhs = (
            A(lam - 1) * B(nu, lam - nu) + prod * A(lam - nu - 1),
            B(lam - 1) * B(nu, lam - nu) + prod * B(lam - nu - 1),
        )
        return IdentityReport(identity, tuple(params), lhs, rhs)

    if identity == "index_changing":
        lam, nu = params
        if lam < 0 or nu < 1:
            raise IndexOutOfRange("index_changing requires lam >= 0, nu >= 1")
        lhs = (A(nu, lam), B(nu, lam))
        rhs = (
            system.coeff_b(lam) * A(nu - 1, lam + 1) + system.coeff_a(lam + 1) * A(nu - 2, lam + 2),
            system.coeff_b(lam + 1) * B(nu - 1, lam + 1) + system.coeff_a(lam + 2) * B(nu - 2, lam + 2),
        )
        return IdentityReport(identity, tuple(params), lhs, rhs)

    if identity == "telescoping":
        lam, nu = params
        if nu < 0 or lam < nu:
            raise IndexOutOfRange("telescoping requires 0 <= nu <= lam")
        if (lam - nu) % system.d != 0:
            raise IndexOutOfRange("telescoping requires d | (lam - nu)")
        prod = _sign(nu) * a_product(lam - nu + 1, lam)
        lhs = (A(lam - 1) * B(nu) - A(lam) * B(nu - 1), B(lam - 1) * B(nu) - B(lam) * B(nu - 1))
        rhs = (prod * A(lam - nu - 1), prod * B(lam - nu - 1))
        return IdentityReport(identity, tuple(params), lhs, rhs)

    raise ValueError(f"unknown identity {identity!r}; expected one of {IDENTITIES}")
