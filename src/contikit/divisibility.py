"""Divisibility, prime congruences, Pisano periods, rank of apparition,
law of repetition and the Lucas-style pseudoprime test.

Sequence values come from the integer core (contikit.core): congruences,
apparition and Pisano periods scan its walk over Z/p in O(index) steps (the
Pisano period is the first shift at which a window of 2d values recurs; a
scan above PISANO_SCAN_MAX residues is refused, before the O(p) divisor bound
is derived when even (p - 1) d is too large), and the pseudoprime test reads
B_{kd-1} = W_k B_{d-1} mod n from the core's Lucas ladder for (C_d, D_d).
Every function here that takes a prime modulus p refuses one that is not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .core import b_at, lucas, walk
from .errors import (DivisionByZero, HypothesisViolated, InputTooLarge, InvariantViolated,
                     PrimalityUndecided)
from .recurrence import ReducedRecurrence, reduce
from .systems import PeriodicSystem


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a | n) for odd n >= 1, by the standard binary algorithm."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd n >= 1, got {n}")
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
        raise PrimalityUndecided(f"cannot decide whether {n} >= {PSI_12} is prime")
    return True


def _require_prime(p: int):
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")


def divisibility_check(system: PeriodicSystem, m: int, n: int) -> bool:
    """B_{md-1} | B_{nd-1} whenever m | n."""
    if m < 1 or n < 1 or n % m != 0:
        raise ValueError(f"need positive m | n, got m={m}, n={n}")
    lo, hi = b_at(system, m * system.d - 1), b_at(system, n * system.d - 1)
    if lo == 0:
        return hi == 0
    return hi % lo == 0


def strong_gcd_check(system: PeriodicSystem, m: int, n: int) -> bool:
    """gcd(B_{md-1}, B_{nd-1}) == B_{gcd(m,n)d-1}."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    B = lambda k: b_at(system, k * system.d - 1)
    return math.gcd(B(m), B(n)) == abs(B(math.gcd(m, n)))


@dataclass
class CongruenceCase:
    p: int
    case_tag: str
    verified: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.verified)


def classify_case(reduced: ReducedRecurrence, p: int) -> str:
    c, dd, delta = reduced.Cd % p, reduced.Dd % p, reduced.delta % p
    if c == 0 and dd == 0:
        return "p|C,p|D"
    if c == 0:
        return "p|C,p~D"
    if dd == 0:
        return "p~C,p|D"
    if delta == 0:
        return "p|Delta"
    if p == 2:
        # C and D both odd; the quadratic-residue split does not apply.
        return "p=2,odd"
    return "QR" if jacobi(reduced.delta, p) == 1 else "nonQR"


def congruence_suite(system: PeriodicSystem, p: int, r_range=None) -> CongruenceCase:
    """Verify every congruence the matching prime-divisibility theorem asserts.

    The theorems are stated for odd primes (except the p|C,p|D clause, which
    holds for p = 2 as well); for p = 2 outside that clause the suite returns
    the classified case with no congruences to check.
    """
    _require_prime(p)
    d = system.d
    reduced = reduce(system)
    tag = classify_case(reduced, p)
    case = CongruenceCase(p, tag)
    if r_range is None:
        r_range = range(-1, 2 * d + 1)
    r_list = list(r_range)
    n_hi = max(p + 1, 6)
    seq = walk(system, (n_hi + 1) * d + max(r_list) + 1, m=p)
    B = lambda nu: seq[nu + 1]
    C, D, delta = reduced.Cd, reduced.Dd, reduced.delta

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
    bound: int
    clause: str
    clause_holds: bool


def rank_of_apparition(system: PeriodicSystem, p: int) -> ApparitionReport:
    """Least k >= 1 with p | B_{kd-1}, or None if no k <= p + 1 works.

    Asserts the matching clause of the apparition theorem.  When p | C_d the
    identity B_{2d-1} = C_d B_{d-1} forces omega <= 2 whenever it exists;
    that (rather than the bare "omega = 1") is what is checked for the
    p|C,p|D case.
    """
    _require_prime(p)
    bound = p + 1
    reduced = reduce(system)
    tag = classify_case(reduced, p)
    # B_{kd-1} = W_k B_{d-1} for k = 0..bound (binet at r = -1), where W_0, W_1, ...
    # is the B sequence, from index -1, of the reduced recurrence as a d = 1 system.
    companion = PeriodicSystem(d=1, a=(reduced.Dd,), b=(reduced.Cd,), strict=False)
    b_d = b_at(system, system.d - 1)
    stride = [w * b_d % p for w in walk(companion, bound - 1, m=p)]
    omega = next((k for k in range(1, bound + 1) if stride[k] == 0), None)
    C, D, delta = reduced.Cd, reduced.Dd, reduced.delta

    if p == 2:
        if tag in ("p~C,p|D",):
            clause = "omega(2) = 1 iff B_(d-1) even, else absent"
            holds = (omega == 1) if stride[1] == 0 else (omega is None)
        elif tag == "p|C,p|D":
            clause = "omega(2) <= 2 (printed: = 1)"
            holds = omega in (1, 2)
        elif D % 2 != 0 and (C % 2 == 0 or delta % 2 == 0):
            clause = "omega(2) in {1, 2}"
            holds = omega in (1, 2)
        else:
            clause = "omega(2) in {1, 3}"
            holds = omega in (1, 3)
        return ApparitionReport(p, tag, omega, bound, clause, holds)

    if tag == "p|C,p|D":
        clause = "omega(p) <= 2 (printed: = 1)"
        holds = omega in (1, 2)
    elif tag == "p|C,p~D":
        clause = "omega(p) in {1, 2}"
        holds = omega in (1, 2)
    elif tag == "p~C,p|D":
        # B_(kd-1) = C^(k-1) B_(d-1) mod p here, so omega is 1 or absent;
        # the theorem's divisor claim is asserted only when omega exists.
        clause = "omega(p) | p - 1 (when it exists)"
        holds = omega is None or (p - 1) % omega == 0
    elif tag == "p|Delta":
        clause = "omega(p) in {1, p}"
        holds = omega in (1, p)
    else:
        eps = jacobi(delta, p)
        clause = f"omega(p) | p - ({eps})"
        holds = omega is not None and (p - eps) % omega == 0
    return ApparitionReport(p, tag, omega, bound, clause, holds)


def _mult_order(x: int, p: int) -> int:
    x %= p
    if x == 0:
        raise ValueError("order of 0 is undefined")
    k, acc = 1, x
    while acc != 1:
        acc = acc * x % p
        k += 1
    return k


def pisano_bound(system: PeriodicSystem, p: int) -> int:
    """The divisor bound on the Pisano period modulo a prime p coprime to 2 D_d."""
    _require_prime(p)
    reduced = reduce(system)
    C, D, delta = reduced.Cd, reduced.Dd, reduced.delta
    if p == 2 or D % p == 0:
        raise HypothesisViolated("bound requires odd p coprime to D_d")
    d = system.d
    if delta % p == 0:
        half_c = C * pow(2, -1, p) % p
        return p * d * _mult_order(half_c, p)
    if jacobi(delta, p) == 1:
        return (p - 1) * d
    return (p + 1) * d * _mult_order(-D, p)


# Most residues (about 40 bytes each) pisano_period lists; bounds up to 10**6 at d <= 4 fit.
PISANO_SCAN_MAX = 2 ** 20


def _pisano(system: PeriodicSystem, p: int) -> tuple[int, int]:
    """(pisano_period, pisano_bound) of system mod p, with the bound derived once."""
    _require_prime(p)
    window = 2 * system.d
    least = (p - 1) * system.d + window  # every bound is at least (p - 1) d
    if least > PISANO_SCAN_MAX:  # refused before pisano_bound's O(p) _mult_order loop
        raise InputTooLarge(f"Pisano scan mod {p} needs at least {least} residues > {PISANO_SCAN_MAX}")
    limit = pisano_bound(system, p)
    if limit + window > PISANO_SCAN_MAX:
        raise InputTooLarge(f"Pisano scan mod {p} needs {limit + window} residues > {PISANO_SCAN_MAX}")
    seq = walk(system, limit + window, m=p)
    # Every shift of B obeys the reduced recurrence from nu = -1, so 2d equal values pin it.
    head = seq[:window]
    pi = next((k for k in range(1, limit + 1) if seq[k:k + window] == head), None)
    if pi is None:
        raise InvariantViolated(f"no period of B mod {p} within the divisor bound {limit}")
    if limit % pi != 0:
        raise InvariantViolated(f"period {pi} of B mod {p} does not divide the bound {limit}")
    return pi, limit


def pisano_period(system: PeriodicSystem, p: int) -> int:
    """Least pi >= 1 with B_{nu+pi} = B_nu (mod p) for all nu >= -1."""
    return _pisano(system, p)[0]


@dataclass(frozen=True)
class PseudoprimeVerdict:
    n: int
    epsilon: int
    tested_index: int
    verdict: str  # composite_proven | probable_prime | inapplicable

    def to_dict(self) -> dict:
        return {
            "n": str(self.n),
            "epsilon": self.epsilon,
            "index": str(self.tested_index),
            "verdict": self.verdict,
        }


def lucas_pseudoprime_test(system: PeriodicSystem, n: int) -> PseudoprimeVerdict:
    """Lucas-style compositeness test: B_{(n - eps(n))d - 1} mod n.

    eps(n) is the Jacobi symbol (Delta | n).  Applicable only to odd n >= 3
    coprime to C_d * D_d * Delta; a nonzero residue proves n composite.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    reduced = reduce(system)
    if n % 2 == 0 or math.gcd(n, reduced.Cd * reduced.Dd * reduced.delta) > 1:
        return PseudoprimeVerdict(n, 0, 0, "inapplicable")
    eps = jacobi(reduced.delta, n)
    k = n - eps
    residue = lucas(reduced.Cd, reduced.Dd, k, n)[0] * b_at(system, system.d - 1) % n  # B_{kd-1}
    verdict = "probable_prime" if residue == 0 else "composite_proven"
    return PseudoprimeVerdict(n, eps, k * system.d - 1, verdict)


@dataclass(frozen=True)
class RepetitionReport:
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
        raise ValueError("valuation of 0")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def law_of_repetition_check(system: PeriodicSystem, p: int, n: int, m: int, f: int) -> RepetitionReport:
    """If p^e || B_{nd-1}/B_{d-1}, then p^(e+f) | B_{p^f m n d - 1}/B_{d-1};
    the power is exact when p does not divide D_d."""
    _require_prime(p)
    if m % p == 0:
        raise ValueError("requires p coprime to m")
    if f < 0 or n < 1 or m < 1:
        raise ValueError("need n, m >= 1 and f >= 0")
    d = system.d
    big = p ** f * m * n
    base = b_at(system, d - 1)
    if base == 0:
        raise DivisionByZero("B_{d-1} = 0")
    q, rem = divmod(b_at(system, n * d - 1), base)
    if rem != 0:
        raise DivisionByZero("B_{d-1} does not divide B_{nd-1}")
    e = _padic_valuation(p, q)
    if e == 0:
        raise ValueError("hypothesis unmet: p does not divide B_(nd-1)/B_(d-1)")
    big_q, rem = divmod(b_at(system, big * d - 1), base)
    if rem != 0:
        raise DivisionByZero("B_{d-1} does not divide the target continuant")
    reduced = reduce(system)
    return RepetitionReport(p, e, f, _padic_valuation(p, big_q),
                            exact_expected=reduced.Dd % p != 0)
