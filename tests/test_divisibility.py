import inspect
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from contikit import (
    FIB,
    S8,
    ContikitError,
    DivisionByZero,
    HypothesisViolated,
    IndexOutOfRange,
    InputTooLarge,
    InvalidSystem,
    PerfectSquare,
    PeriodicSystem,
    PoleAtRoot,
    QuadraticNumber,
    UsageError,
    congruence_suite,
    continuant_determinant,
    continuant_pair,
    convergent,
    expand_sqrt,
    gf_verify,
    jacobi,
    law_of_repetition_check,
    limit_ratio,
    lucas_pseudoprime_test,
    pell_solutions,
    pisano,
    pisano_period,
    rank_of_apparition,
    reduce,
    telescoping_sum,
    weighted_sum_exact,
)
from contikit.quadratic import text
from contikit.core import residues, walk
from contikit import continuants, core, divisibility, recurrence, series
from contikit.divisibility import _is_prime, _mult_order, _prime_factors
from contikit.suite import random_strict_system, run_full_suite
from oracles import b_values, mat_pow, transfer

PRIMES_50 = [p for p in range(2, 51) if _is_prime(p)]


def test_jacobi_examples():
    assert jacobi(32, 35) == -1
    assert jacobi(32, 7) == 1
    assert jacobi(1, 9) == 1
    assert jacobi(0, 5) == 0
    with pytest.raises(UsageError):
        jacobi(3, 8)


def test_jacobi_euler_criterion():
    rng = random.Random(67)
    for p in [p for p in PRIMES_50 if p > 2]:
        for _ in range(10):
            a = rng.randint(0, 4 * p)
            euler = pow(a, (p - 1) // 2, p)
            assert jacobi(a, p) % p == euler


def test_jacobi_multiplicative():
    rng = random.Random(71)
    for _ in range(50):
        n = 2 * rng.randint(1, 200) + 1
        a, b = rng.randint(-100, 100), rng.randint(-100, 100)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_divisibility_sequence():
    # B_{md-1} | B_{nd-1} for m | n: B_{nd-1} read mod |B_{md-1}|, over Z where that is 0.
    rng = random.Random(73)
    for _ in range(20):
        B = reduce(random_strict_system(rng)).boundary
        for m in range(1, 7):
            for mult in range(2, 5):
                assert B(m * mult, abs(B(m)) or None) == 0


def test_strong_gcd():
    seq = walk(FIB, 20)
    assert math.gcd(seq[12], seq[18]) == 8  # gcd(F_12, F_18) = F_6 = 8
    assert math.gcd(6, 35) == 1
    # Strong divisibility needs gcd(C_d, D_d) = 1, exactly as for classical
    # Lucas sequences; e.g. d=4, a=(3,2,6,1), b=(4,2,8,5), b0=3 has
    # gcd(C, D) = 4 and gcd(B'_7, B'_8) = 64 * B'_1.
    rng = random.Random(79)
    cases = [(FIB, 12, 18), (S8, 2, 3)]
    while len(cases) < 22:
        system = random_strict_system(rng)
        red = reduce(system)
        if math.gcd(red.Cd, red.Dd) == 1:
            cases.append((system, rng.randint(1, 12), rng.randint(1, 12)))
    for system, m, n in cases:
        # gcd(B_{md-1}, B_{nd-1}) = |B_{gcd(m,n)d-1}|, the larger index read mod the smaller's value.
        B = reduce(system).boundary
        lo, hi = sorted((m, n))
        assert math.gcd(B(lo), B(hi, abs(B(lo)) or None)) == abs(B(math.gcd(m, n))), (system, m, n)


def test_congruence_suite_s8():
    assert congruence_suite(S8, 3, range(-1, 7)).all_pass
    assert congruence_suite(S8, 7, range(-1, 7)).all_pass
    assert congruence_suite(S8, 3).case_tag == "p|C,p~D"  # 3 | C = 6
    assert congruence_suite(S8, 7).case_tag == "QR"


def test_congruence_suite_random():
    rng = random.Random(83)
    for _ in range(25):
        system = random_strict_system(rng)
        for p in PRIMES_50:
            assert congruence_suite(system, p).all_pass, (system, p)


def test_congruence_suite_refuses_r_below_minus_one():
    # B_(-2) is undefined; reading it used to wrap to the end of the residue list.
    for system, p, r_range in ((S8, 7, range(-3, 1)), (FIB, 11, range(-4, 0))):
        with pytest.raises(IndexOutOfRange):
            congruence_suite(system, p, r_range)
    assert congruence_suite(FIB, 11, range(-1, 0)).all_pass


def test_congruence_suite_with_no_r_checks_the_r_free_clauses():
    # An empty r_range used to leak min()'s "arg is an empty sequence".
    for r_range in (range(0), []):
        case = congruence_suite(S8, 7, r_range)
        assert (case.case_tag, case.all_pass) == ("QR", True)
        assert [label for label, _ in case.verified] == ["B_((p+1)d-1) = C*B_(d-1)", "B_((p-1)d-1) = 0"]
    assert congruence_suite(S8, 3, []).verified == [("B_(2d-1) = 0", True)]  # p | C_d = 6


def test_prime_modulus_entry_points_take_no_period_product_over_z(monkeypatch):
    # b_1 = 0: B = 0, 1, 0, 1, ... has B_{d-1} = 0, which none of these divides by.
    zero_corner = PeriodicSystem(d=2, a=(1, 1), b=(0, 1), strict=False)
    systems = [S8, expand_sqrt(1000003), zero_corner]

    def mod_only(name, call):
        """call, refused unless it is given a modulus m (period takes none)."""
        signature = inspect.signature(call)

        def checked(*args, **kwargs):
            if signature.bind(*args, **kwargs).arguments.get("m") is None:
                raise AssertionError(f"{name} ran over Z")
            return call(*args, **kwargs)
        return checked

    for module in (core, continuants, recurrence, divisibility, series):
        for name in ("steps", "period", "reduce"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, mod_only(f"{module.__name__}.{name}", getattr(module, name)))
    for system in systems:
        assert congruence_suite(system, 7).all_pass
        assert rank_of_apparition(system, 7).clause_holds
        pi, bound = pisano(system, 11)
        assert bound % pi == 0 and pi == pisano_period(system, 11)
    assert (rank_of_apparition(zero_corner, 7).omega, pisano(zero_corner, 7)) == (1, (2, 14))


def test_paper_suite_reduces_over_z_at_most_40_times(monkeypatch):
    # One reduction per pseudoprime scan and per closed-form check; none per prime modulus.
    calls = []
    reduce_ = recurrence.reduce
    counted = lambda system, m=None: (m is None and calls.append(system)) or reduce_(system, m)
    for module in (recurrence, divisibility, series):
        monkeypatch.setattr(module, "reduce", counted)
    assert all(row.passed for row in run_full_suite())
    assert 0 < len(calls) <= 40


def test_congruence_suite_lists_nothing():
    # The walk it replaced kept (p + 2) d residues: a 97 MB peak at this p.
    tracemalloc.start()
    try:
        case = congruence_suite(S8, 10 ** 6 + 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (case.case_tag, case.all_pass, len(case.verified)) == ("nonQR", True, 14)
    assert peak < 10 ** 5


def test_congruence_rejects_composite():
    with pytest.raises(UsageError):
        congruence_suite(S8, 15)


def test_a_refused_modulus_past_the_int_str_digit_limit_is_a_usage_error():
    # str() of an int above 4300 digits raises an untyped ValueError by default; each refusal
    # that names a caller's int formats it with text(), so the typed error and its message come out.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        pytest.skip("this Python has no int -> str digit limit")
    huge, old = 10 ** 5000 + 1, sys.get_int_max_str_digits()
    zero_corner = PeriodicSystem(d=2, a=(1, 1), b=(0, 1), strict=False)  # B_{1,lam} = b_{lam+1} = 0 at even lam
    signed = PeriodicSystem(2, (7, -1), (6, 0), strict=False)  # at odd r, B_{nd+r-1} has no part in the larger root
    odd_period = (10 ** 2500) ** 2 + 1  # sqrt(k^2 + 1) = [k; 2k], d = 1
    set_digits(4300)
    try:
        for call, error, message in [
            (lambda: congruence_suite(S8, huge), UsageError, f"{text(huge)} is not prime"),
            (lambda: pisano(S8, huge), UsageError, f"{text(huge)} is not prime"),
            (lambda: jacobi(3, huge - 1), UsageError, f"Jacobi symbol needs odd n >= 1, got {text(huge - 1)}"),
            (lambda: expand_sqrt(huge - 1), PerfectSquare, f"{text(huge - 1)} is a perfect square"),
            (lambda: pell_solutions(huge - 1, 1), PerfectSquare, f"{text(huge - 1)} is a perfect square"),
            (lambda: continuant_pair(S8, -huge), IndexOutOfRange, f"nu must be >= -1, got {text(-huge)}"),
            (lambda: convergent(zero_corner, 1, huge - 1), DivisionByZero,
             f"B_{{1,{text(huge - 1)}}} = 0, the denominator of the depth-1 convergent"),
            (lambda: PeriodicSystem(huge, (1,), (1,)), InvalidSystem,
             f"need {text(huge)} coefficients, got 1 a's and 1 b's"),
            (lambda: PeriodicSystem(-huge, (1,), (1,)), InvalidSystem, f"period d must be >= 1, got {text(-huge)}"),
            (lambda: walk(S8, -huge), IndexOutOfRange, f"nu_max must be >= -1, got {text(-huge)}"),
            (lambda: core.lucas(1, 1, -huge), IndexOutOfRange,
             f"the Lucas ladder reads W_k for k >= 0, got {text(-huge)}"),
            (lambda: core.steps(S8, 0, -huge, core.IDENTITY), IndexOutOfRange,
             f"a walk takes count >= 0 steps, got {text(-huge)}"),
            (lambda: residues(S8, 6, 6, 7)(-huge), IndexOutOfRange, f"B_nu is read for nu >= -1, got {text(-huge)}"),
            (lambda: reduce(S8).boundary(-huge), IndexOutOfRange,
             f"the Lucas ladder reads W_k for k >= 0, got {text(-huge)}"),
            (lambda: gf_verify(S8, -huge), IndexOutOfRange, f"need N >= 2d = 4, got {text(-huge)}"),
            (lambda: limit_ratio(signed, "consecutive_terms", 2 * huge + 1), DivisionByZero,
             f"at r = {text(2 * huge + 1)}, B_{{nd+r-1}} has no part in the larger root, "
             "so B_{nd+r}/B_{nd+r-1} grows without bound"),
            (lambda: continuant_determinant(S8, -huge), IndexOutOfRange, f"nu must be >= 0, got {text(-huge)}"),
            (lambda: congruence_suite(S8, 7, [-huge]), IndexOutOfRange,
             f"congruence_suite needs r >= -1, got {text(-huge)}"),
            (lambda: telescoping_sum(odd_period, "pell_y"), HypothesisViolated,
             f"pell_y requires an even period; sqrt({text(odd_period)}) has d=1"),
            (lambda: QuadraticNumber(1, 1, huge) + QuadraticNumber(1, 1, 2), UsageError,
             f"mixed radicands: sqrt({text(huge)}) vs sqrt(2)"),
            # C_d = huge - 1 and D_d = huge put a pole of the geometric sum at x = 1/huge.
            (lambda: weighted_sum_exact(PeriodicSystem(1, (huge,), (huge - 1,)), "geometric", x=Fraction(1, huge)),
             PoleAtRoot, f"x = 1/{text(huge)} is a root of D x^2 - C x - 1"),
        ]:
            with pytest.raises(error) as exc:
                call()
            assert str(exc.value) == message
    finally:
        set_digits(old)


def test_fermat_little_theorem_reduction():
    # d=1, a=(-a0), b=(a0+1): B_nu = (a0^(nu+1) - 1)/(a0 - 1), so the QR-case
    # congruence B_(p-2) = 0 (mod p) is exactly a0^(p-1) = 1 (mod p).
    for a0 in (2, 3, 5):
        system = PeriodicSystem(d=1, a=(-a0,), b=(a0 + 1,), strict=False)
        for p in PRIMES_50:
            if (a0 * (a0 - 1) * (a0 + 1)) % p == 0 or p == 2:
                continue
            case = congruence_suite(system, p)
            assert case.all_pass, (a0, p)
            assert b_values(system, p - 2)[-1] % p == 0  # B_(p-2) mod p
            assert pow(a0, p - 1, p) == 1


def test_rank_of_apparition_examples():
    rep3 = rank_of_apparition(S8, 3)
    rep7 = rank_of_apparition(S8, 7)
    assert rep3.omega == 2 and rep3.clause_holds
    assert rep7.omega == 3 and rep7.clause_holds
    absent = rank_of_apparition(PeriodicSystem(d=1, a=(2,), b=(1,)), 2)
    assert absent.omega is None and absent.clause_holds


@pytest.mark.parametrize("system, p, tag, bound", [
    (S8, 3, "p|C,p~D", 4),
    (S8, 7, "QR", 6),
    (S8, 5, "nonQR", 6),
    (FIB, 5, "p|Delta", 5),
    (FIB, 2, "p=2,odd", 3),  # (Delta|2) = -(C_d mod 2)
    (PeriodicSystem(d=1, a=(3,), b=(1,)), 3, "p~C,p|D", 2),
    (PeriodicSystem(d=1, a=(3,), b=(3,)), 3, "p|C,p|D", 3),
])
def test_rank_of_apparition_reports_its_search_bound(system, p, tag, bound):
    # The search runs over the divisors of L = p - (Delta|p); the report names L.
    rep = rank_of_apparition(system, p)
    assert (rep.case_tag, rep.bound) == (tag, bound)


@pytest.mark.parametrize("system, p", [(S8, 3), (S8, 5), (S8, 7), (FIB, 5), (FIB, 11)])
def test_each_entry_point_reads_the_prime_once(monkeypatch, system, p):
    # classify_case is the one reader of (Delta|p), and the Pisano bound is built on the
    # apparition bound: d L(p) times at most one multiplicative order.
    seen = []
    jacobi = divisibility.jacobi
    monkeypatch.setattr(divisibility, "jacobi", lambda a, n: seen.append(n) or jacobi(a, n))
    for entry in (congruence_suite, rank_of_apparition, pisano):
        seen.clear()
        entry(system, p)
        assert seen == [p], entry.__name__
    bound, apparition = pisano(system, p)[1], rank_of_apparition(system, p).bound
    assert bound % (system.d * apparition) == 0 and bound // (system.d * apparition) < p


def test_rank_of_apparition_random():
    rng = random.Random(89)
    primes = [p for p in range(2, 101) if _is_prime(p)]
    for _ in range(15):
        system = random_strict_system(rng)
        for p in primes:
            assert rank_of_apparition(system, p).clause_holds, (system, p)


def test_pisano_s8():
    assert pisano(S8, 3) == (8, 8)
    assert pisano(S8, 7) == (6, 12)
    # The catalogued mod-7 congruence B_(r+12) = B_r holds (12 = 2 * 6).
    seq = [x % 7 for x in walk(S8, 40)]
    assert all(seq[i + 12] == seq[i] for i in range(len(seq) - 12))


def test_pisano_fib():
    assert pisano(FIB, 5) == (20, 20)


def test_pisano_divides_bound():
    rng = random.Random(97)
    primes = [p for p in range(3, 31) if _is_prime(p)]
    for _ in range(12):
        system = random_strict_system(rng, d_max=3, coeff_max=6)
        red = reduce(system)
        for p in primes:
            if red.Dd % p == 0:
                with pytest.raises(HypothesisViolated):
                    pisano_period(system, p)
                continue
            pi, bound = pisano(system, p)
            assert bound % pi == 0
            # Independent check: the sequence really repeats with period pi.
            seq = b_values(system, 3 * pi + 2 * system.d, m=p)
            assert all(seq[i + pi] == seq[i] for i in range(len(seq) - pi))


def test_pisano_answers_without_listing():
    system = PeriodicSystem(d=3, a=(1, 2, 3), b=(4, 5, 6))
    (pi, bound), peak = peak_bytes(lambda: pisano(system, 10007))
    assert pi == bound == 300420144
    assert peak < 10 ** 5


def test_pisano_scan_cap_is_exact():
    # p - 1 = 2 * 1048583 * 1048681, and both odd factors lie just above 2^20.
    p = 2 * 1048583 * 1048681 + 1
    assert _is_prime(p) and jacobi(32, p) == 1  # QR case: the bound is (p - 1) d
    start = time.perf_counter()
    with pytest.raises(InputTooLarge, match="no prime factor below 2"):
        pisano_period(S8, p)
    assert time.perf_counter() - start < 1
    assert _prime_factors(1048583) == {1048583}
    # 1048573 is the largest prime below 2^20, so trial division still splits this.
    assert _prime_factors(2 * 1048573 * 1048583) == {2, 1048573, 1048583}
    assert issubclass(InputTooLarge, ContikitError)


def test_mult_order_matches_brute_force():
    for p in range(2, 500):
        if not _is_prime(p):
            continue
        for x in range(1, p):
            k, acc = 1, x
            while acc != 1:
                acc, k = acc * x % p, k + 1
            assert _mult_order(x, p) == k, (x, p)
    with pytest.raises(UsageError):
        _mult_order(7, 7)


def test_rank_of_apparition_at_a_large_prime_lists_nothing():
    tracemalloc.start()
    try:
        rep = rank_of_apparition(S8, 10 ** 7 + 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.case_tag, rep.omega, rep.clause_holds) == ("nonQR", 5000010, True)
    assert peak < 10 ** 6


def peak_bytes(call):
    """(call(), the tracemalloc peak while it ran)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_of_apparition_on_a_long_period_lists_nothing():
    system = expand_sqrt(1000000007)
    d = system.d  # 12 352
    rep, peak = peak_bytes(lambda: rank_of_apparition(system, 7))
    assert peak < 10 ** 6
    residues_7 = b_values(system, rep.bound * d - 1, m=7)  # index kd holds B_{kd-1}
    least = next((k for k in range(1, rep.bound + 1) if residues_7[k * d] == 0), None)
    assert (rep.omega, rep.clause_holds) == (least, True)
    # d = 124 134: a period product over Z here peaked at gigabytes; walks mod p keep O(d) residues.
    system = expand_sqrt(10000000019)
    d = system.d
    assert d == 124134
    rep, peak = peak_bytes(lambda: rank_of_apparition(system, 7))
    assert peak < 10 ** 7
    residues_7 = b_values(system, 3 * d - 1, m=7)
    assert [residues_7[k * d] == 0 for k in (1, 2, 3)] == [False, False, True]
    assert (rep.case_tag, rep.omega, rep.bound, rep.clause_holds) == ("QR", 3, 6, True)
    (_, bound), peak = peak_bytes(lambda: pisano(system, 11))
    assert (bound, peak < 10 ** 7) == (22 * d, True)
    case, peak = peak_bytes(lambda: congruence_suite(system, 7, range(-1, 6)))
    assert (case.case_tag, case.all_pass, len(case.verified), peak < 10 ** 7) == ("QR", True, 16, True)


def test_pisano_bound_refuses_a_non_prime_modulus(monkeypatch):
    # Unchecked, _mult_order(-3, 9) never reaches 1 and p = 0 divides by zero.
    def no_order(x, p):
        raise AssertionError(f"_mult_order({x}, {p}) ran")

    monkeypatch.setattr(divisibility, "_mult_order", no_order)
    for system, p in ((PeriodicSystem(d=1, a=(3,), b=(3,)), 9), (FIB, 0)):
        with pytest.raises(UsageError, match="is not prime"):
            pisano(system, p)


def test_pseudoprime_s8_35():
    verdict = lucas_pseudoprime_test(S8, 35)
    assert verdict.verdict == "probable_prime"
    assert verdict.epsilon == -1
    assert verdict.tested_index == 71
    assert not _is_prime(35)  # 35 is a genuine Lucas pseudoprime here


def test_pseudoprime_soundness():
    rng = random.Random(101)
    systems = [S8] + [random_strict_system(rng) for _ in range(20)]
    primes = [p for p in range(3, 201) if _is_prime(p)]
    for system in systems:
        red = reduce(system)
        for p in primes:
            if math.gcd(p, red.Cd * red.Dd * red.delta) > 1:
                continue
            assert lucas_pseudoprime_test(system, p).verdict == "probable_prime"


def test_pseudoprime_detects_composites():
    verdicts = {}
    for n in range(9, 201, 2):
        if _is_prime(n):
            continue
        verdicts[n] = lucas_pseudoprime_test(S8, n).verdict
    assert "composite_proven" in verdicts.values()
    # Any composite_proven verdict must name a true composite (always here),
    # and no tested n was prime, so probable_prime entries are pseudoprimes.
    assert verdicts[35] == "probable_prime"
    assert verdicts[9] == "inapplicable"  # gcd(9, C*D*Delta) = 3


def test_modular_agrees_with_full():
    rng = random.Random(103)
    for _ in range(10):
        system = random_strict_system(rng)
        m = rng.randint(2, 1000)
        full = [x % m for x in b_values(system, 500)]
        reduced = reduce(system, m)
        read = residues(system, reduced.Cd, reduced.Dd, m)
        assert [read(nu) for nu in range(-1, 501)] == full
        period = transfer(system, system.d)
        (p, q), (r, s) = period
        assert (reduced.Cd, reduced.Dd, reduced.Bd1) == ((p + s) % m, (q * r - p * s) % m, full[system.d])
        for k in range(500 // system.d + 1):
            assert mat_pow(period, k, m)[1][0] == full[k * system.d]  # B_{kd-1}


def test_law_of_repetition():
    r1 = law_of_repetition_check(FIB, 5, 5, 1, 1)
    assert r1.e == 1 and r1.observed == 2 and r1.exact_expected and r1.holds
    r2 = law_of_repetition_check(FIB, 5, 5, 2, 0)
    assert r2.observed == 1 and r2.holds
    r3 = law_of_repetition_check(S8, 3, 2, 1, 1)
    assert r3.e == 1 and r3.observed == 2 and r3.exact_expected and r3.holds
    # Index 5^17: read mod 5^17, not built over Z.
    start = time.perf_counter()
    r4 = law_of_repetition_check(FIB, 5, 5, 1, 15)
    assert time.perf_counter() - start < 1
    assert (r4.e, r4.observed, r4.holds) == (1, 16, True)


def test_law_of_repetition_rejects():
    with pytest.raises(UsageError):
        law_of_repetition_check(FIB, 5, 5, 5, 1)  # p | m
    with pytest.raises(UsageError):
        law_of_repetition_check(FIB, 5, 4, 1, 1)  # 5 does not divide F_4 = 3
