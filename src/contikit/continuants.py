"""Generalized continuants A_{nu,lambda}, B_{nu,lambda} and their identities.

Values are exact integers from the integer core (contikit.core); a single one
costs O(d + log nu) ladder products.  Each identity has one batch evaluator over
rows of A, B and a-products.  verify_identity runs it on one instance with every
value from continuant_pair; identity_failures runs it on (identity, [params, ...])
batches over one table per system and reports only the instances that fail.
An exact tridiagonal determinant is kept as an independent oracle.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import partial
from itertools import accumulate
from typing import NamedTuple

from .core import IDENTITY, period, steps, walk
from .errors import DivisionByZero, IndexOutOfRange, UsageError, text
from .systems import PeriodicSystem


def continuant_pair(system: PeriodicSystem, nu: int, lam: int = 0) -> tuple[int, int]:
    """Return (A_{nu,lam}, B_{nu,lam}).

    Initial values: A_{-1,lam} = 1, A_{0,lam} = b_lam and
    B_{-1,lam} = 0, B_{0,lam} = 1; then
    X_{k,lam} = b_{lam+k} X_{k-1,lam} + a_{lam+k} X_{k-2,lam}.  An index inside the first
    period takes nu steps; a later one, P_r M^q, one walk of d steps and the ladder.
    """
    if nu < -1:
        raise IndexOutOfRange(f"nu must be >= -1, got {text(nu)}")
    if lam < 0:
        raise IndexOutOfRange(f"lambda must be >= 0, got {text(lam)}")
    if nu == -1:
        return 1, 0
    (b_nu, e_nu), _ = steps(system, lam, nu, IDENTITY) if nu < system.d else period(system, nu, lam)[0]
    return system.coeff_b(lam) * b_nu + e_nu, b_nu


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
        raise IndexOutOfRange(f"nu must be >= 0, got {text(nu)}")
    a_val = _bareiss_det(_tridiagonal(system, 0, nu))
    b_val = _bareiss_det(_tridiagonal(system, 1, nu)) if nu >= 1 else 1
    return a_val, b_val


def convergent(system: PeriodicSystem, nu: int, lam: int = 0) -> Fraction:
    """Depth-nu convergent A_{nu,lam}/B_{nu,lam}; DivisionByZero where B_{nu,lam} = 0."""
    if nu < 0:
        raise IndexOutOfRange(f"nu must be >= 0, got {text(nu)}")
    a, b = continuant_pair(system, nu, lam)
    if b == 0:
        raise DivisionByZero(f"B_{{{text(nu)},{text(lam)}}} = 0, "
                             f"the denominator of the depth-{text(nu)} convergent")
    return Fraction(a, b)


class IdentityReport(NamedTuple):
    identity: str
    params: tuple[int, ...]
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _cassini(part: int, system, A, B, W, batch, every):
    """Cassini's identity for X = A (part 0) or X = B (part 1); what instances with the
    same (lam, nu) share is read once."""
    X, lam0, nu0 = (A, B)[part][0], None, None
    for params in batch:
        lam, nu, mu = params
        if lam != lam0 or nu != nu0 or mu < 0:
            if lam < 0 or nu < 0 or mu < 0:
                raise IndexOutOfRange("cassini requires lam, nu, mu >= 0")
            lam0, nu0, s, b_lam = lam, nu, lam + nu, B[lam]
            b_s, x_s, b_nu = B[s], X[s], b_lam[nu]
            term = W[lam][nu] * X[lam] * (1 if nu % 2 else -1)
        lhs, rhs = X[s + mu] * b_nu, x_s * b_lam[nu + mu] + term * b_s[mu]
        if lhs != rhs or every:
            yield params, (lhs,), (rhs,)


def _catalan(system, A, B, W, batch, every):
    A0, B0 = A[0], B[0]
    for params in batch:
        lam, nu = params
        if lam < 0 or nu < 0:
            raise IndexOutOfRange("catalan requires lam, nu >= 0")
        x, y, a1 = B[lam][nu + 1], B[lam + 1][nu], W[lam][1]
        la, lb = A0[nu + lam + 1], B0[nu + lam + 1]
        ra, rb = A0[lam + 1] * x + a1 * A0[lam] * y, B0[lam + 1] * x + a1 * B0[lam] * y
        if la != ra or lb != rb or every:
            yield params, (la, lb), (ra, rb)


def _docagne(system, A, B, W, batch, every):
    A0, B0 = A[0], B[0]
    for params in batch:
        lam, nu = params
        if nu < 0 or lam < nu:
            raise IndexOutOfRange("docagne requires 0 <= nu <= lam")
        g, g1, prod = B[lam - nu][nu], B[lam - nu][nu + 1], W[lam - nu][nu] * (1 if nu % 2 else -1)
        la, lb = A0[lam + 1] * g, B0[lam + 1] * g
        ra, rb = A0[lam] * g1 + prod * A0[lam - nu], B0[lam] * g1 + prod * B0[lam - nu]
        if la != ra or lb != rb or every:
            yield params, (la, lb), (ra, rb)


def _index_changing(system, A, B, W, batch, every):
    for params in batch:
        lam, nu = params
        if lam < 0 or nu < 1:
            raise IndexOutOfRange("index_changing requires lam >= 0, nu >= 1")
        la, lb = A[lam][nu + 1], B[lam][nu + 1]
        ra = A[lam][1] * A[lam + 1][nu] + W[lam][1] * A[lam + 2][nu - 1]
        rb = B[lam][2] * B[lam + 1][nu] + W[lam + 1][1] * B[lam + 2][nu - 1]
        if la != ra or lb != rb or every:
            yield params, (la, lb), (ra, rb)


def _telescoping(system, A, B, W, batch, every):
    A0, B0 = A[0], B[0]
    for params in batch:
        lam, nu = params
        if nu < 0 or lam < nu:
            raise IndexOutOfRange("telescoping requires 0 <= nu <= lam")
        if (lam - nu) % system.d != 0:
            raise IndexOutOfRange("telescoping requires d | (lam - nu)")
        prod = W[lam - nu][nu] * (-1 if nu % 2 else 1)
        la = A0[lam] * B0[nu + 1] - A0[lam + 1] * B0[nu]
        lb = B0[lam] * B0[nu + 1] - B0[lam + 1] * B0[nu]
        ra, rb = prod * A0[lam - nu], prod * B0[lam - nu]
        if la != ra or lb != rb or every:
            yield params, (la, lb), (ra, rb)


# Identity name -> batch evaluator, which takes the system, rows A[l][n + 1] = A_{n,l},
# B[l][n + 1] = B_{n,l} and W[l][k] = a_{l+1} ... a_{l+k}, and one identity's params list.
# It checks the params in order and yields (params, lhs, rhs) for each instance whose sides
# differ, or for every one if `every`.  b_l = A[l][1], b_{l+1} = B[l][2], a_{l+1} = W[l][1].
_EVALUATORS = dict(cassini_A=partial(_cassini, 0), cassini_B=partial(_cassini, 1), catalan=_catalan,
                   docagne=_docagne, index_changing=_index_changing, telescoping=_telescoping)
IDENTITIES = tuple(_EVALUATORS)


def _evaluate(system: PeriodicSystem, identity: str, rows, batch, every: bool = False) -> list:
    """The evaluator's triples; an unknown identity or a params of the wrong length raises."""
    if identity not in _EVALUATORS:
        raise UsageError(f"unknown identity {identity!r}; expected one of {IDENTITIES!r}")
    try:
        return list(_EVALUATORS[identity](system, *rows, batch, every))
    except ValueError:  # only unpacking a params tuple of the wrong length raises it
        takes = "(lam, nu, mu)" if identity.startswith("cassini") else "(lam, nu)"
        bad = next(params for params in batch if len(params) != takes.count(",") + 1)
        raise UsageError(f"{identity} takes {takes}, got {text(len(bad))} values") from None


class _Rows:
    """rows[l][i] = value(l, i), computed when read."""

    def __init__(self, value, lam: int | None = None):
        self.value, self.lam = value, lam

    def __getitem__(self, k: int):
        return _Rows(self.value, k) if self.lam is None else self.value(self.lam, k)


def _tables(system: PeriodicSystem, top: int):
    """Rows A[l], B[l] of X_{-1,l} .. X_{top,l} and W[l] of a_{l+1} ... a_{l+k}, k <= top + 1,
    for l <= top + 1.  W[l], B_{n,l}, and A_{n,l} = b_l B_{n,l} + a_{l+1} B_{n-1,l+1} except
    at l = 0 (where b_l is b_0), depend only on l mod d, so d walks give every row."""
    a, d = system.a, system.d
    b_rows = [walk(system, top, phi) for phi in range(d)]

    def a_row(b_l: int, phi: int) -> list[int]:
        row, nxt, a_next = b_rows[phi], b_rows[(phi + 1) % d], a[phi]
        return [1] + [b_l * row[i + 1] + a_next * nxt[i] for i in range(top + 1)]

    a_rows = [a_row(system.b[phi - 1], phi) for phi in range(d)]  # l = phi mod d, l >= 1
    w_rows = [list(accumulate((a[(phi + j) % d] for j in range(top + 1)), operator.mul, initial=1))
              for phi in range(d)]
    A = [a_row(system.b0, 0)] + [a_rows[l % d] for l in range(1, top + 2)]
    return A, [b_rows[l % d] for l in range(top + 2)], [w_rows[l % d] for l in range(top + 2)]


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
    a, d = system.a, system.d
    rows = (_Rows(lambda l, i: continuant_pair(system, i - 1, l)[0]),
            _Rows(lambda l, i: continuant_pair(system, i - 1, l)[1]),
            _Rows(lambda l, k: math.prod(a) ** (k // d)
                  * math.prod(a[(l + j) % d] for j in range(k % d))))
    [(params, lhs, rhs)] = _evaluate(system, identity, rows, [params], every=True)
    return IdentityReport(identity, tuple(params), lhs, rhs)


def identity_failures(system: PeriodicSystem,
                      batches: Iterable[tuple[str, Sequence[tuple[int, ...]]]]) -> list[IdentityReport]:
    """verify_identity's reports, in batch order, for the instances whose sides differ, so []
    means every instance holds; a batch is an (identity, [params, ...]) pair.  Errors are
    verify_identity's, at the first bad instance in batch order.  Every value is read from one
    table, walked to the largest sum of a batch's last params or, if that is short, of any."""
    batches = list(batches)

    def reports(top: int) -> list[IdentityReport]:
        rows = _tables(system, top)
        return [IdentityReport(identity, tuple(params), lhs, rhs) for identity, batch in batches
                for params, lhs, rhs in _evaluate(system, identity, rows, batch)]

    try:  # a sorted batch ends on its largest params
        top = max([0] + [sum(batch[-1]) for _, batch in batches if batch])
    except TypeError:  # sum() of an int: a flat (identity, params) pair
        raise TypeError("identity_failures takes (identity, [params, ...]) pairs") from None
    try:
        return reports(top)
    except IndexError:
        return reports(max([0] + [max(map(sum, batch)) for _, batch in batches if batch]))
