"""One-shot verification runner: every catalogued claim, one pass/fail row each.

Deterministic for a fixed seed; the CLI `paper` verb prints the table and
maps any failed row to exit code 1.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import continuants, core, divisibility, pell, recurrence, series
from .systems import FIB, S8, PeriodicSystem

# Sizes of the randomized rows; run_full_suite draws every case from one seed.
IDENTITY_SYSTEMS = 100
IDENTITY_PMAX = 8
EXACT_SUM_CASES = 100
CONGRUENCE_SYSTEMS = 20


@dataclass(frozen=True)
class SuiteRow:
    name: str
    passed: bool
    detail: str


def random_strict_system(rng: random.Random, d_max: int = 4, coeff_max: int = 9) -> PeriodicSystem:
    d = rng.randint(1, d_max)
    return PeriodicSystem(
        d=d,
        a=tuple(rng.randint(1, coeff_max) for _ in range(d)),
        b=tuple(rng.randint(1, coeff_max) for _ in range(d)),
        b0=rng.randint(1, coeff_max),
        strict=True,
    )


def _row(name: str, passed: bool, detail: str = "") -> SuiteRow:
    return SuiteRow(name, bool(passed), detail)


def check_sqrt8_sequence() -> SuiteRow:
    expected = [1, 1, 5, 6, 29, 35, 169, 204, 985]
    raw = core.walk(S8, 8)[1:]
    reduced = recurrence.reduce(S8)
    d = S8.d
    via_reduced = all(raw[nu] == reduced.Cd * raw[nu - d] + reduced.Dd * raw[nu - 2 * d]
                      for nu in range(2 * d, 9))
    # P_r M^q for nu + 1 = qd + r steps, M^q read on the Lucas ladder: P's entry (1, 0) is B_nu.
    via_ladder = [core.period(S8, nu + 1)[0][1][0] for nu in range(9)]
    ok = raw == expected and via_reduced and via_ladder == expected
    ok = ok and (reduced.Cd, reduced.Dd) == (6, -1)
    return _row("sqrt8-sequence", ok, f"recurrence/reduced/closed-form all = {raw}")


def check_generating_function(rng: random.Random) -> SuiteRow:
    rep = recurrence.gf_verify(S8, 12)
    ok = rep.equal and rep.numerator[:3] == (1, 1, -1)
    details = [f"sqrt8 numerator {rep.numerator[:3]}"]
    for _ in range(3):
        sys2 = PeriodicSystem(
            d=2,
            a=(rng.randint(1, 9), rng.randint(1, 9)),
            b=(rng.randint(1, 9), rng.randint(1, 9)),
        )
        rep2 = recurrence.gf_verify(sys2, 8)
        want = (1, sys2.b[0], -sys2.a[0])
        ok = ok and rep2.equal and tuple(rep2.numerator[:3]) == want
        details.append(f"d=2 numerator {rep2.numerator[:3]}")
    return _row("generating-function", ok, "; ".join(details))


def check_identity_sweeps(rng: random.Random) -> SuiteRow:
    params = range(IDENTITY_PMAX + 1)
    pairs = list(itertools.product(params, repeat=2))  # (lam, nu)
    triples = list(itertools.product(params, repeat=3))  # (lam, nu, mu)
    # Only the telescoping batch (lam >= nu, d | lam - nu) depends on the system.
    shared = [("catalan", pairs), ("docagne", [(lam, nu) for lam, nu in pairs if lam >= nu]),
              ("index_changing", [(lam, nu) for lam, nu in pairs if nu >= 1]),
              ("cassini_A", triples), ("cassini_B", triples)]
    failures = checked = 0
    for _ in range(IDENTITY_SYSTEMS):
        system = random_strict_system(rng)
        telescoping = [(lam, nu) for lam, nu in pairs if lam >= nu and (lam - nu) % system.d == 0]
        batches = shared + [("telescoping", telescoping)]
        checked += sum(len(batch) for _, batch in batches)
        failures += len(continuants.identity_failures(system, batches))
    return _row("identity-sweeps", failures == 0, f"{checked} identity instances, {failures} failures")


def check_millin() -> SuiteRow:
    seq = core.walk(S8, 2 ** 5)
    terms = [mpmath.mpf(1) / int(seq[2 ** (n + 1)]) for n in range(1, 5)]
    with mpmath.workdps(50):
        closed = 3 - 2 * mpmath.sqrt(2)
        err4 = abs(mpmath.fsum(terms) - closed)
    rep = series.telescoping_sum(S8, "millin")
    ok = err4 < mpmath.mpf("1e-10") and rep.converged
    return _row("millin-analogue", ok,
                f"4-term error {mpmath.nstr(err4, 5)}; converged={rep.converged}")


def check_pell_sums() -> SuiteRow:
    sols = pell.pell_solutions(8, 26)
    ok = all(s.x * s.x - 8 * s.y * s.y == 1 for s in sols)
    x = [None] + [s.x for s in sols]
    y = [None] + [s.y for s in sols]
    with mpmath.workdps(50):
        s8 = mpmath.sqrt(8)
        checks = {
            "pell_y": (mpmath.fsum(mpmath.mpf(1) / (y[k] * y[k + 1]) for k in range(1, 13)),
                       3 - s8),
            "pell_x": (mpmath.fsum(mpmath.mpf(1) / (x[k] * x[k + 1]) for k in range(1, 13)),
                       (3 * mpmath.sqrt(2) - 4) / 12),
            "pell_y2": (mpmath.fsum(mpmath.mpf(y[2 * k + 1]) / (y[k] ** 2 * y[k + 1] ** 2)
                                    for k in range(1, 13)), mpmath.mpf(1)),
        }
        details = []
        for fam, (partial, closed) in checks.items():
            err = abs(partial - closed)
            ok = ok and err < mpmath.mpf("1e-10")
            details.append(f"{fam} 12-term error {mpmath.nstr(err, 4)}")
    for fam in ("pell_y", "pell_x", "pell_y2"):
        ok = ok and series.telescoping_sum(8, fam).converged
    return _row("pell-sums", ok, "; ".join(details))


def check_arctan_artanh() -> SuiteRow:
    system = pell.expand_sqrt(2)
    seq = core.walk(system, 70)
    B = lambda nu: seq[nu + 1]
    with mpmath.workdps(50):
        at = mpmath.fsum(mpmath.atan(mpmath.mpf(B(1)) / B(2 * n + 1 - 1)) for n in range(1, 16))
        err_at = abs(at - mpmath.atan(mpmath.mpf(1) / 2))
        ah = mpmath.fsum(mpmath.atanh(mpmath.mpf(B(1)) / B(2 * n - 1)) for n in range(2, 17))
        err_ah = abs(ah - mpmath.log(mpmath.mpf(3) / 2) / 2)
    rep_at = series.telescoping_sum(system, "arctan", series.PrecisionContext(40, 120))
    rep_ah = series.telescoping_sum(system, "artanh", series.PrecisionContext(40, 120))
    ok = (err_at < mpmath.mpf("1e-10") and err_ah < mpmath.mpf("1e-10")
          and rep_at.converged and rep_ah.converged)
    return _row("arctan-artanh", ok,
                f"15-term errors {mpmath.nstr(err_at, 4)} / {mpmath.nstr(err_ah, 4)}")


def check_zeta_series(digits: int = 50) -> SuiteRow:
    # pi_over_6 on S8 (D_d = -1, Delta = 32, B_1 = 1) sums at the small root of
    # z^2 + sqrt(96) z + 1 = 0, sqrt(23) - 2 sqrt(6); the paper prints 2 sqrt(6) - 5.
    odd = core.walk(S8, 157)[2::4]  # B_{(2k+1)d-1} = B_{4k+1}, k < 40
    with mpmath.workdps(digits + 10):
        partial = lambda z: mpmath.fsum((-1) ** (k + 1) * mpmath.mpf(b) / (2 * k + 1)
                                        * z ** (2 * k + 1) for k, b in enumerate(odd))
        target = mpmath.pi / (6 * mpmath.sqrt(32))
        err = abs(partial(mpmath.sqrt(23) - 2 * mpmath.sqrt(6)) - target)
        cmp_res = abs(partial(2 * mpmath.sqrt(6) - 5) - target)
    # The terms shrink by about 0.358 each, 2.3 terms per digit, so 3 per digit reach the tolerance.
    rep = series.zeta_series(S8, "pi_over_6", series.PrecisionContext(digits, 3 * digits))
    ok = err < mpmath.mpf("1e-20") and cmp_res > mpmath.mpf("1e-3") and rep.converged
    return _row("zeta-pi-over-6", ok,
                f"error {mpmath.nstr(err, 4)}; printed-root residual {mpmath.nstr(cmp_res, 4)}")


def check_exact_sums(rng: random.Random) -> SuiteRow:
    rep1 = series.weighted_sum_exact(S8, "geometric", x=1, big_n=2, r=-1)
    rep2 = series.weighted_sum_exact(S8, "binomial", big_n=2)
    ok = rep1.equal and rep1.lhs == 7 and rep2.equal and rep2.lhs == 204
    xs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3, 5)]
    done = 0
    while done < EXACT_SUM_CASES:
        system = random_strict_system(rng)
        x = rng.choice(xs)
        big_n = rng.randint(1, 6)
        r = rng.choice([-1, 0, 1])
        try:
            g = series.weighted_sum_exact(system, "geometric", x=x, big_n=big_n, r=r)
        except series.PoleAtRoot:
            continue
        b = series.weighted_sum_exact(system, "binomial", big_n=big_n)
        ok = ok and g.equal and b.equal
        done += 1
    return _row("exact-finite-sums", ok, f"S8 values 7/204 plus {done} randomized cases")


def check_congruences(rng: random.Random) -> SuiteRow:
    c3 = divisibility.congruence_suite(S8, 3, range(-1, 7))
    c7 = divisibility.congruence_suite(S8, 7, range(-1, 7))
    ok = c3.all_pass and c7.all_pass
    seq = core.walk(S8, 24)
    B = lambda nu: seq[nu + 1]
    for r in range(-1, 7):
        ok = ok and (B(r + 8) - B(r)) % 3 == 0
        ok = ok and (B(r + 6) - (6 * B(r) - B(r + 2))) % 3 == 0
        ok = ok and (B(r + 12) - B(r)) % 7 == 0
        ok = ok and (B(r + 16) - (6 * B(r + 2) - B(r))) % 7 == 0
    ran = 0
    primes = [p for p in range(2, 51) if divisibility._is_prime(p)]
    for _ in range(CONGRUENCE_SYSTEMS):
        system = random_strict_system(rng)
        for p in primes:
            case = divisibility.congruence_suite(system, p)
            ok = ok and case.all_pass
            ran += len(case.verified)
    return _row("prime-congruences", ok, f"sqrt8 mod 3/7 pass; {ran} randomized congruences")


def check_pseudoprime(rng: random.Random) -> SuiteRow:
    primes = [p for p in range(3, 201) if divisibility._is_prime(p)]
    others = [random_strict_system(rng) for _ in range(20)]
    # One scan per system, S8's led by the pseudoprime 35.  The test is
    # inapplicable at primes dividing C_d D_d Delta and must pass at the others.
    v35, *verdicts = divisibility.pseudoprime_scan(S8, [35] + primes)
    verdicts += (v for system in others for v in divisibility.pseudoprime_scan(system, primes))
    ok = v35.verdict == "probable_prime" and v35.epsilon == -1 and v35.tested_index == 71
    bad = sum(v.verdict == "composite_proven" for v in verdicts)
    return _row("lucas-pseudoprime", ok and bad == 0,
                f"35 -> {v35.verdict} at index {v35.tested_index}; {bad} false composites")


def check_pisano(rng: random.Random) -> SuiteRow:
    pi3, b3 = divisibility.pisano(S8, 3)
    pi7, b7 = divisibility.pisano(S8, 7)
    # The catalogued periods 8 and 12 are the corollary bounds; the observed
    # least period divides them (mod 7 it is properly smaller: 6).
    ok = (pi3, pi7, b3, b7) == (8, 6, 8, 12)
    tested = 0
    primes = [p for p in range(3, 31) if divisibility._is_prime(p)]
    for _ in range(10):
        system = random_strict_system(rng, d_max=3, coeff_max=6)
        for p in primes:
            if math.prod(system.a) % p == 0:  # p | D_d
                continue
            pi, _ = divisibility.pisano(system, p)
            # pi is a period: the 2d values that pin B mod p repeat, read over Z.
            ok = ok and all((continuants.continuant_pair(system, pi + nu)[1] - b) % p == 0
                            for nu, b in enumerate(core.walk(system, 2 * system.d - 2), -1))
            tested += 1
    return _row("pisano-periods", ok,
                f"sqrt8: pi(3)={pi3}, pi(7)={pi7} dividing bounds {b3}/{b7}; {tested} bounds checked")


def check_law_of_repetition() -> SuiteRow:
    r1 = divisibility.law_of_repetition_check(FIB, 5, 5, 1, 1)
    r2 = divisibility.law_of_repetition_check(FIB, 5, 5, 2, 0)
    r3 = divisibility.law_of_repetition_check(S8, 3, 2, 1, 1)
    ok = all(r.holds and r.exact_expected for r in (r1, r2, r3))
    ok = ok and (r1.e, r1.observed) == (1, 2) and (r2.e, r2.observed) == (1, 1)
    ok = ok and (r3.e, r3.observed) == (1, 2)
    return _row("law-of-repetition", ok,
                f"observed powers {r1.observed}/{r2.observed}/{r3.observed}")


def brute_force_pell(n: int, y_limit: int = 10 ** 4) -> tuple[int, int] | None:
    for y in range(1, y_limit + 1):
        x2 = n * y * y + 1
        x = math.isqrt(x2)
        if x * x == x2:
            return x, y
    return None


def check_pell_fundamental() -> SuiteRow:
    bad = []
    for n in range(2, 101):
        if math.isqrt(n) ** 2 == n:
            continue
        sol = pell.pell_fundamental(n)
        brute = brute_force_pell(n)
        if brute is None:
            # Fundamental y exceeds the brute-force window; minimality means
            # no smaller y can work, which the exhausted window confirms.
            if sol.y <= 10 ** 4:
                bad.append(n)
        elif (sol.x, sol.y) != brute:
            bad.append(n)
    return _row("pell-fundamental", not bad, f"non-square N <= 100; mismatches: {bad or 'none'}")


def run_full_suite(seed: int = 20240801, digits: int = 50) -> list[SuiteRow]:
    rng = random.Random(seed)
    return [
        check_sqrt8_sequence(),
        check_generating_function(rng),
        check_identity_sweeps(rng),
        check_millin(),
        check_pell_sums(),
        check_arctan_artanh(),
        check_zeta_series(digits),
        check_exact_sums(rng),
        check_congruences(rng),
        check_pseudoprime(rng),
        check_pisano(rng),
        check_law_of_repetition(),
        check_pell_fundamental(),
    ]
