"""Divisibility, prime congruences, Pisano periods, rank of apparition,
law of repetition and the Lucas-style pseudoprime test.

Sequence values come from the integer core (contikit.core).  Reads at period boundaries
go through ReducedRecurrence.boundary, B_{kd-1} = W_k B_{d-1} for the Lucas sequence W of
(C_d, D_d).  Congruences, apparition and Pisano periods read all they need mod p: C_d,
D_d and B_{d-1} from reduce(system, p), the period matrix walked mod p, the case and
eps = (Delta|p) from classify_case, and the values at other indices (congruences and
Pisano periods only) from the core.residues reader.  The rank of apparition divides
L = p - eps, and the Pisano period divides d L times at most one multiplicative order.
Each is the least divisor of its bound with some property, found by one search over the
bound's prime factors (a factor that trial division below 2^20 cannot split is refused).
The pseudoprime scan reduces over Z once and reads each verdict from n and three
residues, C_d, D_d and B_{d-1} mod n; only it refuses B_{d-1} = 0, which makes every
tested value 0.  Every function here that takes a prime modulus p refuses one that is not.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .core import lucas, residues
from .errors import (DivisionByZero, HypothesisViolated, IndexOutOfRange, InputTooLarge,
                     InvariantViolated, PrimalityUndecided, UsageError, text)
from .recurrence import ReducedRecurrence, reduce
from .systems import PeriodicSystem


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd n >= 1, by the standard binary algorithm."""
    a, n = operator.index(a), operator.index(n)
    if n <= 0 or n % 2 == 0:
        raise UsageError(f"Jacobi symbol needs odd n >= 1, got {text(n)}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# The least strong pseudoprime to every prime base <= 37 (Sorenson and Webster,
# 2017); Miller-Rabin with those twelve bases decides primality below it.
PSI_12 = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases <= 37, exact for n < PSI_12.

    At or above PSI_12 a composite verdict is still a proof, but passing every
    base is not, so PrimalityUndecided is raised instead of returning True.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PSI_12:
        raise PrimalityUndecided(f"cannot decide whether {text(n)} >= {text(PSI_12)} is prime")
    return True


def _require_prime(p: int):
    if not _is_prime(p):
        raise UsageError(f"{text(p)} is not prime")


@dataclass
class CongruenceCase:
    p: int
    case_tag: str
    verified: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.verified)


def classify_case(reduced: ReducedRecurrence, p: int) -> tuple[str, int]:
    """(case, eps) at a prime p: the case of the prime-divisibility theorems, and
    eps = (Delta|p), taken as -(C_d mod 2) at p = 2 (where Delta = C_d^2)."""
    c, dd = reduced.Cd % p, reduced.Dd % p
    eps = -(reduced.Cd % 2) if p == 2 else jacobi(reduced.delta, p)
    if c == 0 or dd == 0:
        tag = ("p|C," if c == 0 else "p~C,") + ("p|D" if dd == 0 else "p~D")
    elif eps == 0:
        tag = "p|Delta"
    elif p == 2:  # C and D both odd; the quadratic-residue split does not apply.
        tag = "p=2,odd"
    else:
        tag = "QR" if eps == 1 else "nonQR"
    return tag, eps


def congruence_suite(system: PeriodicSystem, p: int, r_range=None) -> CongruenceCase:
    """Verify every congruence the matching prime-divisibility theorem asserts.

    The theorems are stated for odd primes (except the p|C,p|D clause, which
    holds for p = 2 as well); for p = 2 outside that clause the suite returns
    the classified case with no congruences to check.
    """
    d = system.d
    _require_prime(p)
    r_list = list(range(-1, 2 * d + 1) if r_range is None else r_range)
    if min(r_list, default=-1) < -1:
        raise IndexOutOfRange(f"congruence_suite needs r >= -1, got {text(min(r_list))}")
    reduced = reduce(system, p)
    B = residues(system, reduced.Cd, reduced.Dd, p)
    tag = classify_case(reduced, p)[0]
    case = CongruenceCase(p, tag)
    C, D, delta = reduced.Cd, reduced.Dd, reduced.delta % p

    def check(label: str, lhs: int, rhs: int):
        case.verified.append((label, (lhs - rhs) % p == 0))

    if tag == "p|C,p|D":
        for r in r_list:
            for n in range(2, 6):
                check(f"B_({n}d+{r}) = 0", B(n * d + r), 0)
        return case
    if p == 2:
        return case

    if tag == "p|C,p~D":
        inv2 = pow(2, -1, p)
        for r in r_list:
            for n in range(2, 7):
                if n % 2 == 0:
                    rhs = pow(-inv2, n - 2, p) * D * pow(delta, (n - 2) // 2, p) * B(r)
                else:
                    rhs = pow(-inv2, n - 1, p) * pow(delta, (n - 1) // 2, p) * B(d + r)
                check(f"B_({n}d+{r})", B(n * d + r), rhs)
        check("B_(2d-1) = 0", B(2 * d - 1), 0)
    elif tag == "p~C,p|D":
        # With p | D the stride becomes geometric, B_(nd+r) = C^(n-1) B_(d+r),
        # so Fermat gives B_(pd+r) = B_(d+r); the (p-1)-step shift only
        # reaches indices >= d-1 (it cannot be pushed down to r = -1).
        for r in r_list:
            check(f"B_(pd+{r}) = B_(d+{r})", B(p * d + r), B(d + r))
            for n in range(2, 6):
                check(f"B_({n}d+{r}) = C^{n - 1}*B_(d+{r})",
                      B(n * d + r), pow(C, n - 1, p) * B(d + r))
            if r >= d - 1:
                check(f"B_((p-1)d+{r}) = B_{r}", B((p - 1) * d + r), B(r))
    elif tag == "p|Delta":
        for r in r_list:
            check(f"2B_(pd+{r}) = C*B_{r}", 2 * B(p * d + r), C * B(r))
        check("B_(pd-1) = 0", B(p * d - 1), 0)
    elif tag == "QR":
        for r in r_list:
            check(f"B_((p+1)d+{r})", B((p + 1) * d + r), C * B(d + r) + D * B(r))
            check(f"B_((p-1)d+{r}) = B_{r}", B((p - 1) * d + r), B(r))
        check("B_((p+1)d-1) = C*B_(d-1)", B((p + 1) * d - 1), C * B(d - 1))
        check("B_((p-1)d-1) = 0", B((p - 1) * d - 1), 0)
    else:  # nonQR
        for r in r_list:
            check(f"B_((p+1)d+{r}) = -D*B_{r}", B((p + 1) * d + r), -D * B(r))
            check(f"B_(pd+{r}) = C*B_{r} - B_(d+{r})", B(p * d + r), C * B(r) - B(d + r))
        check("B_((p+1)d-1) = 0", B((p + 1) * d - 1), 0)
        check("B_(pd-1) = -B_(d-1)", B(p * d - 1), -B(d - 1))
    return case


@dataclass(frozen=True)
class ApparitionReport:
    p: int
    case_tag: str
    omega: int | None
    bound: int  # L = p - (Delta|p), whose divisors the search runs over
    clause_holds: bool


def rank_of_apparition(system: PeriodicSystem, p: int) -> ApparitionReport:
    """Least k >= 1 with p | B_{kd-1}, or None if there is none.

    Unless p divides D_d but not B_{d-1}, omega is the least divisor of the
    bound L = p - eps that works, eps as classify_case reads it, or None,
    failing the clause, if p does not divide B_{Ld-1}.  Asserts the matching
    clause of the apparition theorem.  When p | C_d the identity
    B_{2d-1} = C_d B_{d-1} forces omega <= 2 whenever it exists; that (rather
    than the bare "omega = 1") is what is checked for the p|C,p|D case.
    """
    _require_prime(p)
    reduced = reduce(system, p)
    tag, eps = classify_case(reduced, p)
    C, D = reduced.Cd, reduced.Dd
    divides = lambda k: reduced.boundary(k, p) == 0
    if D % p == 0 and not divides(1):
        omega = 2 if C % p == 0 else None
    else:
        omega = _least_divisor(divides, p - eps) if divides(p - eps) else None

    if tag in ("p|C,p|D", "p|C,p~D"):
        holds = omega in (1, 2)
    elif tag == "p~C,p|D":
        # B_(kd-1) = C^(k-1) B_(d-1) mod p here, so omega is 1 or absent;
        # the theorem's divisor claim is asserted only when omega exists.
        holds = omega is None or (p - 1) % omega == 0
    elif tag == "p|Delta":
        holds = omega in (1, p)
    else:
        holds = omega is not None and (p - eps) % omega == 0
    return ApparitionReport(p, tag, omega, p - eps, holds)


def _prime_factors(n: int) -> set[int]:
    """The primes dividing n >= 1 by trial division below 2^20; InputTooLarge if
    what is left is not prime (only possible above 2^40)."""
    primes, q = set(), 2
    while q * q <= n and q < 1 << 20:
        while n % q == 0:
            primes.add(q)
            n //= q
        q += 1 if q == 2 else 2
    if n > 1 and not _is_prime(n):
        raise InputTooLarge(f"cannot factor {text(n)}: it has no prime factor below 2^20")
    return primes if n == 1 else primes | {n}


def _least_divisor(holds, *parts: int) -> int:
    """Least divisor of L = prod(parts) that holds, given that L holds and that the
    divisors of L that hold are the multiples of the least one: strip each prime
    q | L while L/q holds (Cohen 1993, Algorithm 1.4.3)."""
    k = math.prod(parts)
    for q in set().union(*map(_prime_factors, parts)):
        while k % q == 0 and holds(k // q):
            k //= q
    return k


def _mult_order(x: int, p: int) -> int:
    if x % p == 0:
        raise UsageError("order of 0 is undefined")
    return _least_divisor(lambda k: pow(x, k, p) == 1, p - 1)


def pisano(system: PeriodicSystem, p: int) -> tuple[int, int]:
    """(pi, bound) modulo a prime p coprime to 2 D_d: the least pi >= 1 with B_{nu+pi} = B_nu
    (mod p) for all nu >= -1, and the divisor bound it divides, derived once: d times the
    apparition bound L = p - eps, times ord(C_d/2) if eps = 0 or ord(-D_d) if eps = -1."""
    _require_prime(p)
    if p == 2:  # read before the walk that gives D_d
        raise HypothesisViolated("bound requires odd p coprime to D_d")
    reduced = reduce(system, p)
    C, D = reduced.Cd, reduced.Dd
    if D % p == 0:
        raise HypothesisViolated("bound requires odd p coprime to D_d")
    eps = classify_case(reduced, p)[1]
    order = () if eps == 1 else (_mult_order(-D if eps else C * pow(2, -1, p), p),)
    parts = (p - eps, system.d, *order)
    B = residues(system, C, D, p)
    limit = math.prod(parts)
    # Every shift of B obeys the reduced recurrence from nu = -1, so 2d equal values pin it.
    window = range(-1, 2 * system.d - 1)
    head = [B(nu) for nu in window]
    is_period = lambda k: all(B(k + nu) == b for nu, b in zip(window, head))
    if not is_period(limit):
        raise InvariantViolated(f"the divisor bound {text(limit)} is not a period of B mod {text(p)}")
    return _least_divisor(is_period, *parts), limit


def pisano_period(system: PeriodicSystem, p: int) -> int:
    """The period alone, pisano(system, p)[0]."""
    return pisano(system, p)[0]


@dataclass(frozen=True)
class PseudoprimeVerdict:
    n: int
    epsilon: int
    tested_index: int
    verdict: str  # composite_proven | probable_prime | inapplicable


def pseudoprime_scan(system: PeriodicSystem, candidates: Iterable[int]) -> Iterator[PseudoprimeVerdict]:
    """Lazily, the Lucas-style test B_{(n - eps(n))d - 1} mod n of each candidate n,
    eps(n) = (Delta | n), applicable to odd n >= 3 coprime to C_d D_d Delta; a nonzero
    residue proves n composite.  The system is reduced over Z once, before the first
    verdict; each verdict is read from n and the three residues C_d, D_d, B_{d-1} mod n."""
    reduced = reduce(system)
    if reduced.Bd1 == 0:
        raise DivisionByZero("B_{d-1} = 0 makes every B_{kd-1} 0, so no candidate could fail")
    for n in map(operator.index, candidates):
        if n < 3:
            raise UsageError("n must be >= 3")
        mod = ReducedRecurrence(reduced.Cd % n, reduced.Dd % n, reduced.Bd1 % n)
        if n % 2 == 0 or math.gcd(n, mod.Cd * mod.Dd * mod.delta) > 1:
            yield PseudoprimeVerdict(n, 0, 0, "inapplicable")
            continue
        eps = jacobi(mod.delta, n)
        k = n - eps
        verdict = "probable_prime" if mod.boundary(k, n) == 0 else "composite_proven"
        yield PseudoprimeVerdict(n, eps, k * system.d - 1, verdict)


def lucas_pseudoprime_test(system: PeriodicSystem, n: int) -> PseudoprimeVerdict:
    """The verdict of pseudoprime_scan on the one candidate n."""
    n = operator.index(n)  # the scan's rule for a non-int
    if n < 3:  # refused before the reduction, whose errors come second
        raise UsageError("n must be >= 3")
    return next(pseudoprime_scan(system, (n,)))


@dataclass(frozen=True)
class RepetitionReport:
    """observed = v_p(B_{p^f m n d - 1}/B_{d-1}), read mod p^(e+f+1): the value
    e + f + 1 is a lower bound, which gives the same holds as the exact one."""
    p: int
    e: int
    f: int
    observed: int
    exact_expected: bool

    @property
    def holds(self) -> bool:
        if self.exact_expected:
            return self.observed == self.e + self.f
        return self.observed >= self.e + self.f


def _padic_valuation(p: int, x: int) -> int:
    if x == 0:
        raise UsageError("valuation of 0")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def law_of_repetition_check(system: PeriodicSystem, p: int, n: int, m: int, f: int) -> RepetitionReport:
    """If p^e || B_{nd-1}/B_{d-1}, then p^(e+f) | B_{p^f m n d - 1}/B_{d-1};
    the power is exact when p does not divide D_d.  Both quotients are terms of W."""
    _require_prime(p)
    if m % p == 0:
        raise UsageError("requires p coprime to m")
    if f < 0 or n < 1 or m < 1:
        raise UsageError("need n, m >= 1 and f >= 0")
    reduced = reduce(system)
    C, D = reduced.Cd, reduced.Dd
    e = _padic_valuation(p, lucas(C, D, n)[0])
    if e == 0:
        raise UsageError("hypothesis unmet: p does not divide B_(nd-1)/B_(d-1)")
    big, cap = p ** f * m * n, e + f + 1
    # W_k = 0 at some k >= 1 only if W's root ratio has order 2, 3, 4 or 6 (so 12).
    if lucas(C, D, math.gcd(big, 12))[0] == 0:
        raise UsageError("valuation of 0")
    w = lucas(C, D, big, p ** cap)[0]
    return RepetitionReport(p, e, f, _padic_valuation(p, w) if w else cap,
                            exact_expected=D % p != 0)
