"""Continued fraction of sqrt(N) and Pell equation solutions.

The expansion uses the classical (m, q) iteration; the period is closed at
the first repetition of the (m, q) state, and the standard structural fact
that the last partial quotient equals 2*floor(sqrt(N)) is checked.  The
fundamental solution is the continuant pair at the end of the period.  Perron
proves a_1..a_{d-1} reads the same both ways, so the integer core folds that
product from its first half: ceil(d/2) steps for either parity of d.  Later
solutions are powers in Z[sqrt(N)], read one at a time from the core's stride.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice, repeat

from . import core
from .errors import InvariantViolated, PerfectSquare, UsageError, text
from .systems import PeriodicSystem


@dataclass(frozen=True)
class PellSolution:
    x: int
    y: int
    n: int

    def __post_init__(self):
        if self.x * self.x - self.n * (self.y * self.y) != 1:
            raise InvariantViolated(f"{text(self.x)}^2 - {text(self.n)}*{text(self.y)}^2 != 1")


def expand_sqrt(n: int) -> PeriodicSystem:
    """sqrt(n) = [a0; (a_1, ..., a_d)] with minimal period, as its convergent-denominator
    system: b0 = a0, b = the period, every partial numerator 1.  A non-int n is a TypeError."""
    n = operator.index(n)
    if n < 0:
        raise UsageError(f"need N >= 2, got {text(n)}")
    if n < 2:
        raise PerfectSquare(f"need N >= 2, got {text(n)}")
    a0 = math.isqrt(n)
    if a0 * a0 == n:
        raise PerfectSquare(f"{text(n)} is a perfect square")
    period = []
    append = period.append
    m = m1 = a0  # state (m, q) after emitting a0
    q = q1 = n - a0 * a0
    while True:
        ak = (a0 + m) // q
        append(ak)
        m = ak * q - m
        q = (n - m * m) // q
        if m == m1 and q == q1:
            break
    if period[-1] != 2 * a0:
        raise InvariantViolated(f"sqrt({text(n)}) period does not end with 2*a0 = {text(2 * a0)}")
    return PeriodicSystem(len(period), (1,) * len(period), tuple(period), a0, strict=True)


def _solutions(system: PeriodicSystem, n: int) -> Iterator[PellSolution]:
    """Every solution in order, from system = expand_sqrt(n): (x1, y1) is the continuant pair
    at the end of the (doubled, when d is odd) period, and x_k + y_k sqrt(N) is its k-th
    power, a root of t^2 - 2 x1 t + 1: X_{k+1} = 2 x1 X_k - X_{k-1} for X = x, y.
    The product over the period, Q = T_{d-1} ... T_1, is a fold; over the doubled period it is
    Q T_d Q, one more step and one product."""
    d = system.d
    q = core.fold(system, d - 1)
    if d % 2:
        q = core.mul(q, core.steps(system, d - 1, 1, q))
    (y1, e), _ = q
    x1 = system.b0 * y1 + e
    t = 2 * x1  # (x_2, y_2) = (t x1 - x_0, t y1 - y_0) with (x_0, y_0) = (1, 0)
    xs, ys = core.stride(t, -1, x1, t * x1 - 1), core.stride(t, -1, y1, t * y1)
    return map(PellSolution, xs, ys, repeat(n))


def pell_fundamental(n: int) -> PellSolution:
    """Minimal (x, y) with x^2 - N y^2 = 1, from the period-boundary convergent."""
    return next(_solutions(expand_sqrt(n), n))


def pell_solutions(n: int, count: int) -> list[PellSolution]:
    """The first `count` solutions."""
    if not isinstance(count, int) or isinstance(count, bool):
        raise UsageError(f"count must be an int, got {count!r}")
    if count < 1:
        raise UsageError("count must be >= 1")
    return list(islice(_solutions(expand_sqrt(n), n), count))
