"""Generalized continuants A_{nu,lambda}, B_{nu,lambda} and their identities.

Values are exact integers from the integer core (contikit.core); a single one
costs O(d + log nu) ladder products.  Each identity has one evaluator over rows
of A and B values, backed by continuant_pair in verify_identity, which returns
one IdentityReport named tuple, and by one table per system in
identity_failures, which returns reports only for the instances that fail.
An exact tridiagonal determinant is kept as an independent oracle.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

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


class IdentityReport(NamedTuple):
    identity: str
    params: tuple[int, ...]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


class _Evaluators(dict):
    """Identity name -> evaluator, which checks params and returns (lhs, rhs) from
    rows A[l][n + 1] = A_{n,l}, B[l][n + 1] = B_{n,l} and prefix[k] = a_1 ... a_k."""

    def __missing__(self, identity):
        raise ValueError(f"unknown identity {identity!r}; expected one of {IDENTITIES}")


def _cassini(numerator: bool):
    """Cassini's identity for X = A (numerator) or X = B."""
    def evaluate(A, B, prefix, system, params):
        lam, nu, mu = params
        if lam < 0 or nu < 0 or mu < 0:
            raise IndexOutOfRange("cassini requires lam, nu, mu >= 0")
        X, b_lam = (A[0] if numerator else B[0]), B[lam]
        term = prefix[lam + nu] // prefix[lam] * X[lam] * B[nu + lam][mu]  # * (-1)^(nu-1)
        return ((X[nu + lam + mu] * b_lam[nu],),
                (X[nu + lam] * b_lam[nu + mu] + (term if nu % 2 else -term),))
    return evaluate


def _catalan(A, B, prefix, system, params):
    lam, nu = params
    if lam < 0 or nu < 0:
        raise IndexOutOfRange("catalan requires lam, nu >= 0")
    A0, B0, b_lam, b_next, a1 = A[0], B[0], B[lam], B[lam + 1], system.coeff_a(lam + 1)
    return ((A0[nu + lam + 1], B0[nu + lam + 1]),
            (A0[lam + 1] * b_lam[nu + 1] + a1 * A0[lam] * b_next[nu],
             B0[lam + 1] * b_lam[nu + 1] + a1 * B0[lam] * b_next[nu]))


def _docagne(A, B, prefix, system, params):
    lam, nu = params
    if nu < 0 or lam < nu:
        raise IndexOutOfRange("docagne requires 0 <= nu <= lam")
    A0, B0, gap = A[0], B[0], B[lam - nu]
    prod = prefix[lam] // prefix[lam - nu] * (1 if nu % 2 else -1)
    return ((A0[lam + 1] * gap[nu], B0[lam + 1] * gap[nu]),
            (A0[lam] * gap[nu + 1] + prod * A0[lam - nu], B0[lam] * gap[nu + 1] + prod * B0[lam - nu]))


def _index_changing(A, B, prefix, system, params):
    lam, nu = params
    if lam < 0 or nu < 1:
        raise IndexOutOfRange("index_changing requires lam >= 0, nu >= 1")
    return ((A[lam][nu + 1], B[lam][nu + 1]),
            (system.coeff_b(lam) * A[lam + 1][nu] + system.coeff_a(lam + 1) * A[lam + 2][nu - 1],
             system.coeff_b(lam + 1) * B[lam + 1][nu] + system.coeff_a(lam + 2) * B[lam + 2][nu - 1]))


def _telescoping(A, B, prefix, system, params):
    lam, nu = params
    if nu < 0 or lam < nu:
        raise IndexOutOfRange("telescoping requires 0 <= nu <= lam")
    if (lam - nu) % system.d != 0:
        raise IndexOutOfRange("telescoping requires d | (lam - nu)")
    A0, B0 = A[0], B[0]
    prod = prefix[lam] // prefix[lam - nu] * (-1 if nu % 2 else 1)
    return ((A0[lam] * B0[nu + 1] - A0[lam + 1] * B0[nu],
             B0[lam] * B0[nu + 1] - B0[lam + 1] * B0[nu]),
            (prod * A0[lam - nu], prod * B0[lam - nu]))


_EVALUATORS = _Evaluators(cassini_A=_cassini(True), cassini_B=_cassini(False), catalan=_catalan,
                          docagne=_docagne, index_changing=_index_changing, telescoping=_telescoping)
IDENTITIES = tuple(_EVALUATORS)


class _PairRows:
    """rows[l][i] = continuant_pair(system, i - 1, l)[part], computed when read."""

    def __init__(self, system: PeriodicSystem, part: int, lam: int | None = None):
        self.system, self.part, self.lam = system, part, lam

    def __getitem__(self, k: int):
        if self.lam is None:
            return _PairRows(self.system, self.part, k)
        return continuant_pair(self.system, k - 1, self.lam)[self.part]


class _APrefix:
    """prefix[k] = a_1 ... a_k = (a_1 ... a_d)^(k // d) a_1 ... a_(k mod d), computed when read."""

    def __init__(self, system: PeriodicSystem):
        self.a = system.a

    def __getitem__(self, k: int) -> int:
        return math.prod(self.a) ** (k // len(self.a)) * math.prod(self.a[:k % len(self.a)])


def _tables(system: PeriodicSystem, top: int):
    """Rows A[l], B[l] of X_{-1,l} .. X_{top,l} for l <= top + 1, and prefix[k] for k <= top.
    B_{n,l}, and A_{n,l} = b_l B_{n,l} + a_{l+1} B_{n-1,l+1} except at l = 0 (where b_l
    is b_0), depend only on l mod d, so d walks give every row."""
    d = system.d
    b_rows = [walk(system, top, phi) for phi in range(d)]

    def a_row(b_l: int, phi: int) -> list[int]:
        row, nxt, a_next = b_rows[phi], b_rows[(phi + 1) % d], system.a[phi]
        return [1] + [b_l * row[i + 1] + a_next * nxt[i] for i in range(top + 1)]

    a_rows = [a_row(system.b[phi - 1], phi) for phi in range(d)]  # l = phi mod d, l >= 1
    A = [a_row(system.b0, 0)] + [a_rows[l % d] for l in range(1, top + 2)]
    B = [b_rows[l % d] for l in range(top + 2)]
    return A, B, list(accumulate((system.coeff_a(k) for k in range(1, top + 1)), operator.mul, initial=1))


def verify_identity(system: PeriodicSystem, identity: str, params: tuple[int, ...]) -> IdentityReport:
    """Evaluate both sides of one of the catalogued identities exactly, taking
    every value from continuant_pair.

    Parameter conventions:
      cassini_A / cassini_B: params = (lam, nu, mu), all >= 0
      catalan:               params = (lam, nu)
      docagne:               params = (lam, nu) with lam >= nu
      index_changing:        params = (lam, nu) with nu >= 1
      telescoping:           params = (lam, nu) with lam >= nu, d | (lam - nu)
    """
    rows = _PairRows(system, 0), _PairRows(system, 1), _APrefix(system)
    lhs, rhs = _EVALUATORS[identity](*rows, system, params)
    return IdentityReport(identity, tuple(params), lhs, rhs)


def identity_failures(system: PeriodicSystem,
                      instances: Iterable[tuple[str, tuple[int, ...]]]) -> list[IdentityReport]:
    """verify_identity's reports, in order, for the (identity, params) pairs whose sides
    differ, so [] means every instance holds.  Errors are verify_identity's, in input
    order; every value is read from one table walked to the largest sum(params)."""
    instances = list(instances)
    A, B, prefix = _tables(system, max([0] + [sum(params) for _, params in instances]))
    failures = []
    for identity, params in instances:
        lhs, rhs = _EVALUATORS[identity](A, B, prefix, system, params)
        if lhs != rhs:
            failures.append(IdentityReport(identity, tuple(params), lhs, rhs))
    return failures
