"""Verification of the catalogued series closed forms.

Partial sums are accumulated exactly in rationals whenever the terms are
rational (the reciprocal/telescoping families) and in guarded high-precision
arithmetic for the arctan/artanh and zeta-style families.  Each sum reads only
the terms it names, one at a time from a stride of the integer core.  Every
family hands its terms and closed form to `_report`, which sums them by one
rule, `_sum_terms` (stop at the first term below tolerance/4, or raise
PrecisionExhausted once max_terms terms have not reached it), evaluates an
exact quadratic-field closed form and judges; only that comparison is
approximate, and `converged` means exactly |partial - closed| <= tolerance =
10^-(digits-5).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, pairwise

import mpmath

from .core import mul, period, stride
from .errors import (DivisionByZero, HypothesisViolated, NoAdmissibleRoot, PoleAtRoot,
                     PrecisionExhausted, UsageError, text)
from .pell import _solutions, expand_sqrt
from .quadratic import QuadraticNumber
from .recurrence import ReducedRecurrence, reduce, roots
from .systems import PeriodicSystem


@dataclass(frozen=True)
class PrecisionContext:
    digits: int = 50
    max_terms: int = 60

    def __post_init__(self):
        if self.digits < 20:
            raise UsageError("need at least 20 working digits")
        if self.max_terms < 1:
            raise UsageError("max_terms must be positive")

    @property
    def tolerance(self) -> mpmath.mpf:
        with mpmath.workdps(self.digits + 10):
            return mpmath.mpf(10) ** (-(self.digits - 5))


@dataclass
class SeriesReport:
    family: str
    partial_sum: str
    closed_form: str
    closed_symbolic: str
    abs_error: str
    terms: int
    converged: bool
    partial_exact: Fraction | None = None
    extras: dict = field(default_factory=dict)


TELESCOPING_FAMILIES = (
    "millin", "period_reciprocal", "pell_y", "pell_x", "pell_y2", "arctan", "artanh",
)
# Each zeta kind is the arctan (c < 0) or artanh (c > 0) series at an angle theta with
# c = -cot(theta) or coth(theta), summed at a root z of D z^2 + c sqrt(Delta) z -+ 1 = 0
# (constant -1 for arctan, +1 for artanh); its target is theta B_(d-1) / sqrt(Delta):
#   pi_over_6: D z^2 - sqrt(3) sqrt(Delta) z - 1 = 0,      theta = pi/6
#   pi_over_8: D z^2 - (sqrt(2)+1) sqrt(Delta) z - 1 = 0,  theta = pi/8
#   ln3:       D z^2 + 2 sqrt(Delta) z + 1 = 0,            theta = ln(3)/2
#   ln2:       D z^2 + 3 sqrt(Delta) z + 1 = 0,            theta = ln(2)/2
# A row is (c, theta's numerator, its denominator, target symbol); thunks run at working precision.
_ZETA = {
    "pi_over_6": (lambda: -mpmath.sqrt(3), lambda: mpmath.pi, 6, "pi*{b}/(6*{root})"),
    "pi_over_8": (lambda: -(mpmath.sqrt(2) + 1), lambda: mpmath.pi, 8, "pi*{b}/(8*{root})"),
    "ln3": (lambda: 2, lambda: mpmath.log(3), 2, "{b}*ln(3)/(2*{root})"),
    "ln2": (lambda: 3, lambda: mpmath.log(2), 2, "{b}*ln(2)/(2*{root})"),
}
ZETA_KINDS = tuple(_ZETA)


def _report(family: str, terms, closed, symbol: str, ctx: PrecisionContext,
            extras: dict | None = None) -> SeriesReport:
    """Sum terms and judge them against closed: an mpf, or a QuadraticNumber shown as `symbol = closed`."""
    partial, count = _sum_terms(terms, ctx)
    if isinstance(closed, QuadraticNumber):
        symbol, closed = f"{symbol} = {closed}", closed.mpf(ctx.digits + 10)
    with mpmath.workdps(ctx.digits + 10):
        value = _to_mpf(partial)
        err = abs(value - closed)
        return SeriesReport(
            family=family,
            partial_sum=mpmath.nstr(value, ctx.digits),
            closed_form=mpmath.nstr(mpmath.mpf(closed), ctx.digits),
            closed_symbolic=symbol,
            abs_error=mpmath.nstr(err, 10),
            terms=count,
            converged=bool(err <= ctx.tolerance),
            partial_exact=partial if isinstance(partial, Fraction) else None,
            extras=extras or {},
        )


def _to_mpf(x) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else x


def _sum_terms(terms_iter, ctx: PrecisionContext):
    """Sum Fraction terms exactly, or mpf terms, until one drops below tolerance."""
    total = 0
    count = 0
    with mpmath.workdps(ctx.digits + 10):
        tol = ctx.tolerance / 4
        for term in terms_iter:
            total += term
            count += 1
            if abs(_to_mpf(term)) < tol:
                return total, count
            if count >= ctx.max_terms:
                raise PrecisionExhausted(
                    f"{text(count)} terms did not reach the tolerance 10^-{text(ctx.digits - 5)}")
    raise PrecisionExhausted("term stream exhausted before reaching tolerance")


def _admissible(system: PeriodicSystem, family: str, why: str):
    """The reduction and roots (alpha, beta) of system; refuses a system that is not a PeriodicSystem,
    B_{d-1} = 0 (saying why) and Delta <= 0."""
    if not isinstance(system, PeriodicSystem):
        raise HypothesisViolated(f"{family} expects a PeriodicSystem")
    reduced = reduce(system)
    if reduced.Bd1 == 0:
        raise DivisionByZero(why)
    if reduced.delta <= 0:
        raise HypothesisViolated("series require Delta > 0")
    return reduced, roots(reduced)


def telescoping_sum(system_or_n, family: str, ctx: PrecisionContext | None = None) -> SeriesReport:
    """Verify one telescoping family against its closed form.

    `system_or_n` is a PeriodicSystem for millin/period_reciprocal/arctan/
    artanh and a non-square integer N for the pell_* families.
    """
    ctx = ctx or PrecisionContext()
    if family not in TELESCOPING_FAMILIES:
        raise UsageError(f"unknown family {family!r}")

    if family.startswith("pell_"):
        if not isinstance(system_or_n, int):
            raise HypothesisViolated(f"{family} expects an integer N")
        return _pell_sum(system_or_n, family, ctx)

    system: PeriodicSystem = system_or_n
    reduced, (alpha, beta) = _admissible(system, family,
                                         "B_{d-1} = 0, so every B_{kd-1} the terms divide by is 0")

    if family == "millin":
        if system.d != 2:
            raise HypothesisViolated("millin analogue requires d = 2")
        a1a2 = system.a[0] * system.a[1]
        # The B index doubles per term, so the stream ends after 14 terms whatever max_terms is.
        terms = (Fraction(a1a2) ** (2 ** (n - 1)) / reduced.boundary(2 ** n)  # B_{2^(n+1)-1}
                 for n in range(1, 15))
        return _report(family, terms, 1 / (system.b[0] * beta), "1/(b1*beta)", ctx)

    B = lambda: stride(reduced.Cd, reduced.Dd, 0, reduced.Bd1)  # B_{nd-1} at n = 0, 1, ...
    if family == "period_reciprocal":
        terms = (Fraction((-reduced.Dd) ** n, lo * hi)
                 for n, (lo, hi) in enumerate(pairwise(islice(B(), 1, None))))
        return _report(family, terms, alpha / reduced.Bd1 ** 2, "alpha/B_(d-1)^2", ctx)

    if reduced.Dd != 1:
        raise HypothesisViolated(f"{family} requires D_d = 1")
    _, b1, b2, b3 = islice(B(), 4)
    # artanh's closed form atanh(b1/b3) = ln((b3+b1)/(b3-b1))/2, without cancelling
    fn, den, start, form = ((mpmath.atan, b2, 3, "arctan({1}/{0})") if family == "arctan"
                            else (mpmath.atanh, b3, 4, "ln(({0}+{1})/({0}-{1}))/2"))
    with mpmath.workdps(ctx.digits + 10):
        closed = fn(mpmath.mpf(b1) / den)
    terms = (fn(mpmath.mpf(b2) / b) for b in islice(B(), start, None, 2))
    return _report(family, terms, closed, form.format(text(den), text(b1)), ctx)


def _pell_sum(n: int, family: str, ctx: PrecisionContext) -> SeriesReport:
    system = expand_sqrt(n)
    if system.d % 2 != 0:
        raise HypothesisViolated(f"{family} requires an even period; sqrt({text(n)}) has d={text(system.d)}")
    first = next(sols := _solutions(system, n))
    x1, y1 = first.x, first.y
    pairs = pairwise(chain([first], sols))  # (s_k, s_{k+1}), k >= 1
    delta = x1 * x1 - 1  # = N * y1^2

    if family == "pell_y":
        terms = (Fraction(1, s.y * t.y) for s, t in pairs)
        closed = QuadraticNumber(Fraction(x1, y1 * y1), Fraction(-1, y1 * y1), delta)
        symbol = "(x1 - sqrt(x1^2-1))/y1^2"
    elif family == "pell_x":
        terms = (Fraction(1, s.x * t.x) for s, t in pairs)
        closed = QuadraticNumber(x1, -1, delta) / QuadraticNumber(0, x1, delta)
        symbol = "(x1 - sqrt(x1^2-1))/(x1*sqrt(x1^2-1))"
    else:  # pell_y2: y_{2k+1} = x_k y_{k+1} + y_k x_{k+1}, from s_k s_{k+1} in Z[sqrt(N)]
        terms = (Fraction(s.x * t.y + s.y * t.x, s.y ** 2 * t.y ** 2) for s, t in pairs)
        closed = QuadraticNumber(Fraction(1, y1 ** 3), 0, delta)
        symbol = "1/y1^3"
    return _report(family, terms, closed, symbol, ctx)


def zeta_series(system: PeriodicSystem, kind: str, ctx: PrecisionContext | None = None,
                compare_zeta=None) -> SeriesReport:
    """Sum the odd-index power series of kind (see _ZETA) at the admissible quadratic root.

    If compare_zeta is given (a number), the same number of terms is summed at
    that value and its distance from the target is reported in extras.
    """
    ctx = ctx or PrecisionContext()
    if kind not in ZETA_KINDS:
        raise UsageError(f"unknown kind {kind!r}")
    reduced, (alpha, _) = _admissible(system, f"zeta_{kind}",
                                      "B_{d-1} = 0 makes every term and the target 0 (0 = 0)")
    b1, (c, num, den, form) = reduced.Bd1, _ZETA[kind]
    symbolic = form.format(b=text(b1), root=f"sqrt({text(reduced.delta)})")

    with mpmath.workdps(ctx.digits + 10):
        sd, c = mpmath.sqrt(reduced.delta), c()
        lin, const = c * sd, (1 if c > 0 else -1)
        target = num() * b1 / (den * sd)

        # Roots big/D and const/big of D z^2 + lin z + const = 0, neither cancelling; sum the smaller.
        disc = lin * lin - 4 * reduced.Dd * const
        if disc < 0:
            raise NoAdmissibleRoot("complex roots")
        big = -(lin + mpmath.sign(lin) * mpmath.sqrt(disc)) / 2
        zeta = min(big / reduced.Dd, const / big, key=abs)
        abs_alpha = abs(alpha.mpf(ctx.digits))
        if not abs(zeta) < abs_alpha:
            raise NoAdmissibleRoot(
                f"no root of the {kind} quadratic has |zeta| < |alpha| = {abs_alpha}")

        def terms(z):
            odd = islice(stride(reduced.Cd, reduced.Dd, 0, b1), 1, None, 2)  # B_{(2k+1)d-1}
            for k, b in enumerate(odd):
                term = mpmath.mpf(b) / (2 * k + 1) * z ** (2 * k + 1)
                yield term if c < 0 and k % 2 else -term  # arctan: (-1)^(k+1); artanh: -1

        if compare_zeta is not None:  # parsed first: a bad value is a UsageError at any cap
            try:
                cz = mpmath.mpf(compare_zeta)
            except ValueError:
                raise UsageError(f"compare_zeta must be a number, got {compare_zeta!r}") from None
        rep = _report(f"zeta_{kind}", terms(zeta), target, symbolic, ctx,
                      extras={"zeta": mpmath.nstr(zeta, ctx.digits)})
        if compare_zeta is not None:
            rep.extras["compare_zeta"] = mpmath.nstr(cz, ctx.digits)
            residual = abs(sum(islice(terms(cz), rep.terms)) - target)
            rep.extras["compare_residual"] = mpmath.nstr(residual, 10)
        return rep


@dataclass(frozen=True)
class ExactSumReport:
    kind: str
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def weighted_sum_exact(system: PeriodicSystem, kind: str, *, x: Fraction | int | None = None,
                       big_n: int = 1, r: int = -1) -> ExactSumReport:
    """Exact finite sums: geometric-weighted and binomial-transform forms.

    geometric: sum_{n=1..N} x^n B_{nd+r} against the closed form with
    denominator (x - alpha)(x - beta) = x^2 + (C/D) x - 1/D.
    binomial: sum_{n=1..N} C(N,n) (-1)^n (alpha+beta)^n B_{nd-1} = B_{2Nd-1}/D^N.
    Either kind refuses r < -1.
    """
    if big_n < 1:
        raise UsageError("N must be >= 1")
    if r < -1:
        raise UsageError("r must be >= -1")
    if kind == "geometric" and x is None:
        raise UsageError("the geometric sum needs x")
    head, m = period(system, r + 1)  # T_{r+1} ... T_1, corner B_r
    reduced = ReducedRecurrence.of(m)
    C, D = reduced.Cd, reduced.Dd
    if reduced.Bd1 == 0 and (kind == "binomial" or (r + 1) % system.d == 0):
        raise DivisionByZero("B_{d-1} = 0 makes every B_{nd-1} and the closed form 0 (0 = 0)")

    if kind == "geometric":
        xf = Fraction(x)
        denom = xf * xf + Fraction(C, D) * xf - Fraction(1, D)
        if denom == 0:
            raise PoleAtRoot(f"x = {text(xf)} is a root of D x^2 - C x - 1")
        B = list(islice(stride(C, D, head[1][0], mul(head, m)[1][0]), big_n + 2))  # B_{nd+r}
        lhs = sum((xf ** n) * B[n] for n in range(1, big_n + 1))
        numer = xf ** (big_n + 1) * (Fraction(B[big_n + 1], D) + xf * B[big_n]) \
            - xf * (Fraction(B[1], D) + xf * B[0])
        return ExactSumReport(kind, Fraction(lhs), numer / denom)

    if kind == "binomial":  # alpha + beta = -C/D; b = B_{nd-1}
        lhs = sum(math.comb(big_n, n) * (-1) ** n * Fraction(-C, D) ** n * b
                  for n, b in zip(range(1, big_n + 1), islice(stride(C, D, 0, reduced.Bd1), 1, None)))
        rhs = Fraction(reduced.boundary(2 * big_n), D ** big_n)
        return ExactSumReport(kind, Fraction(lhs), rhs)

    raise UsageError(f"unknown kind {kind!r}")
