"""Differential tests: the integer core and its callers against the linear oracles."""
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import contikit
from contikit import (
    IDENTITIES,
    ContikitError,
    DivisionByZero,
    FIB,
    HypothesisViolated,
    IndexOutOfRange,
    S8,
    PeriodicSystem,
    PrimalityUndecided,
    ReducedRecurrence,
    UsageError,
    binet,
    binet_negative,
    congruence_suite,
    expand_sqrt,
    continuant_pair,
    convergent,
    law_of_repetition_check,
    limit_ratio,
    lucas_pseudoprime_test,
    pell_fundamental,
    pell_solutions,
    pisano,
    pisano_period,
    pseudoprime_scan,
    rank_of_apparition,
    reduce,
    identity_failures,
    telescoping_sum,
    verify_identity,
    weighted_sum_exact,
)
from contikit import continuants, core, recurrence
from contikit.cli import main
from contikit.core import lucas, power, residues, stride, walk
from contikit.divisibility import PSI_12, PseudoprimeVerdict, _is_prime, jacobi
import oracles

# Indices reach well past d so that both the walk and the power path run.
NU = st.integers(-1, 60)


@st.composite
def systems(draw, strict=None, max_d=4):
    """Strict systems, or signed non-strict ones (any nonzero a, any b)."""
    strict = draw(st.booleans()) if strict is None else strict
    d = draw(st.integers(1, max_d))
    if strict:
        coeff = st.integers(1, 9)
        a = draw(st.tuples(*[coeff] * d))
    else:
        coeff = st.integers(-9, 9)
        a = draw(st.tuples(*[coeff.filter(bool)] * d))
    b = draw(st.tuples(*[coeff] * d))
    return PeriodicSystem(d=d, a=a, b=b, b0=draw(coeff), strict=strict)


def reducible(system):
    return oracles.b_values(system, system.d - 1)[-1] != 0


def period_matrix(system):
    """M = T_d ... T_1 with T_k = (b_k a_k; 1 0), multiplied out by the oracle."""
    return oracles.transfer(system, system.d)


def z_reduction(system):
    """C_d, D_d and B_{d-1} over Z from the oracle's period matrix, even if B_{d-1} = 0."""
    return ReducedRecurrence.of(period_matrix(system))


# b_1 = 0 gives B = 0, 1, 0, 1, ...: B_{d-1} = 0.  `reduce` gives (C_d, D_d) = (2, -1) and
# Delta = 0; only readers that divide by B_{d-1} (the series sums, the pseudoprime test) refuse it.
ZERO_CORNER = PeriodicSystem(d=2, a=(1, 1), b=(0, 1), strict=False)
# The same B = 0, 1, 0, 1, ... with (C_d, D_d) = (3, -2) and Delta = 1, so the closed forms apply.
SPLIT_ZERO_CORNER = PeriodicSystem(d=2, a=(2, 1), b=(0, 3), strict=False)
# C_d = 0 and D_d = 3: W = 0, 1, 0, 3, 0, 9, ..., so B_{md-1} = 0 at every even m, with B_{d-1} = 1.
ZERO_TRACE = PeriodicSystem(d=1, a=(3,), b=(0,), strict=False)


MODULI = st.one_of(st.none(), st.just(1), st.integers(2, 10 ** 6))


@given(systems(), st.integers(0, 4096))
def test_power_matches_square_and_multiply(system, n):
    (p, q), (r, s) = period_matrix(system)
    for x in (((p, q), (r, s)), ((s, -q), (-r, p))):  # M and its adjugate
        assert power(x, n) == oracles.mat_pow(x, n)


@given(st.integers(-60, 60), st.integers(-60, 60), st.integers(0, 300), MODULI)
def test_lucas_matches_linear_walk(c, d, k, m):
    w = oracles.lucas_w(c, d, k + 1)
    assert lucas(c, d, k, m) == ((w[k], w[k + 1]) if m is None else (w[k] % m, w[k + 1] % m))


@settings(max_examples=60)
@given(systems(max_d=5))
@example(ZERO_CORNER)
@example(SPLIT_ZERO_CORNER)
def test_stride_matches_linear(system):
    # Every residue class obeys B_{nu+2d} = C_d B_{nu+d} + D_d B_nu from nu = -1, so two
    # seeds give B_{nd+r} for all n; the B_{nd-1} class starts from 0 and the reduction's B_{d-1}.
    d = system.d
    full = oracles.b_values(system, 42 * d)  # index nu + 1 holds B_nu
    (p, q), (t, s) = period_matrix(system)
    c, dd = p + s, q * t - p * s
    for r in range(-1, 2 * d + 1):
        got = list(islice(stride(c, dd, continuant_pair(system, r)[1], continuant_pair(system, d + r)[1]), 41))
        assert got == [full[n * d + r + 1] for n in range(41)], r
    red = reduce(system)
    assert red == ReducedRecurrence(c, dd, full[d])
    assert list(islice(stride(red.Cd, red.Dd, 0, red.Bd1), 41)) == full[: 41 * d: d]


PRIMES_BELOW_50 = [p for p in range(2, 50) if _is_prime(p)]


@settings(max_examples=60)
@given(systems(max_d=5), st.one_of(st.none(), st.sampled_from(PRIMES_BELOW_50)))
@example(ZERO_CORNER, None)
@example(ZERO_TRACE, 7)
def test_boundary_matches_linear(system, m):
    # B_{kd-1} = W_k B_{d-1} for the Lucas sequence W of (C_d, D_d), over Z or mod m.
    d = system.d
    full = oracles.b_values(system, 40 * d - 1, m=m)  # index kd holds B_{kd-1}
    red = reduce(system)
    assert [red.boundary(k, m) for k in range(41)] == full[:: d]


@settings(max_examples=150)
@given(systems(strict=False), st.integers(1, 12), st.integers(1, 12))
@example(ZERO_CORNER, 2, 6)
@example(SPLIT_ZERO_CORNER, 3, 5)
@example(ZERO_TRACE, 2, 6)  # B_{md-1} = 0 with m | n: B_{nd-1} is read over Z
@example(ZERO_TRACE, 2, 3)  # gcd(0, B_{3d-1}) = 3 against |B_{d-1}| = 1
def test_divisibility_checks_match_z_values(system, m, n):
    # B_{md-1} | B_{mnd-1} and gcd(B_{md-1}, B_{nd-1}) = |B_{gcd(m,n)d-1}| read on the ladder, the
    # larger index mod the value at the smaller one (over Z where that is 0), against the Z values.
    d = system.d
    full = oracles.b_values(system, m * n * d - 1)  # index kd holds B_{kd-1}
    Z, B = lambda k: full[k * d], reduce(system).boundary
    divides = B(m * n, abs(B(m)) or None) == 0
    assert divides == (Z(m * n) == 0 if Z(m) == 0 else Z(m * n) % Z(m) == 0)
    lo, hi = sorted((m, n))
    strong = math.gcd(B(lo), B(hi, abs(B(lo)) or None)) == abs(B(math.gcd(m, n)))
    assert strong == (math.gcd(Z(m), Z(n)) == abs(Z(math.gcd(m, n))))


def test_divisibility_checks_at_a_huge_index_answer_at_once():
    # B_{nd-1} has millions of digits at these n; over Z the two reads took 14 s and 6 s.
    reads = (lambda B: B(7 * 10 ** 6, abs(B(7)) or None) == 0,  # 7 | 7*10^6
             lambda B: math.gcd(B(6), B(4 * 10 ** 6, abs(B(6)) or None)) == abs(B(2)))  # gcd(6, 4*10^6) = 2
    for read in reads:
        start = time.perf_counter()
        assert read(reduce(S8).boundary)
        assert time.perf_counter() - start < 0.5


def test_zero_corner_divisibility_checks_take_no_ladder(monkeypatch):
    # B_{d-1} = 0 makes every B_{kd-1} 0, so W_n is never needed: over Z at n = 4*10^6 it took seconds.
    ladders = []
    monkeypatch.setattr(recurrence, "lucas", lambda *args: ladders.append(args) or lucas(*args))
    n, B = 4 * 10 ** 6, reduce(SPLIT_ZERO_CORNER).boundary
    assert B(n, abs(B(1)) or None) == 0 and math.gcd(B(1), B(n, abs(B(1)) or None)) == abs(B(1))
    assert ladders == []


@settings(max_examples=150)
@given(systems())
def test_square_root_identity(system):
    # (2 B_{(n+1)d-1} - C_d B_{nd-1})^2 = Delta B_{nd-1}^2 + 4 (-D_d)^n B_{d-1}^2 on signed systems too;
    # on a strict one the left root is the nonnegative one, so it steps B_{nd-1} to B_{(n+1)d-1}.
    red = reduce(system)
    B = red.boundary
    for n in range(1, 8):
        root = 2 * B(n + 1) - red.Cd * B(n)
        assert root ** 2 == red.delta * B(n) ** 2 + 4 * (-red.Dd) ** n * red.Bd1 ** 2
        assert root >= 0 or not system.strict


# C_d = -6 < 0, D_d = -8: the roots are -4 and -2, and -4 is the larger in size.
NEGATIVE_TRACE = PeriodicSystem(d=2, a=(2, 4), b=(-4, 3), strict=False)


@settings(max_examples=150)
@given(systems(strict=False, max_d=3), st.sampled_from(["consecutive_periods", "consecutive_terms"]),
       st.integers(-1, 7))
@example(NEGATIVE_TRACE, "consecutive_periods", -1)
@example(NEGATIVE_TRACE, "consecutive_terms", 0)
@example(NEGATIVE_TRACE, "consecutive_terms", 1)
@example(PeriodicSystem(d=2, a=(9, -6), b=(-4, 0), strict=False), "consecutive_periods", 0)  # u = 0
@example(PeriodicSystem(d=2, a=(7, -1), b=(6, 0), strict=False), "consecutive_terms", 1)  # diverges
@example(PeriodicSystem(d=2, a=(3, -8), b=(3, 0), strict=False), "consecutive_periods", 0)  # v = 0
@example(PeriodicSystem(d=2, a=(3, -8), b=(3, 0), strict=False), "consecutive_terms", 1)  # v = 0 below
def test_limit_ratio_matches_the_ratios_at_a_large_index(system, mode, r):
    # B_{nd+r} = u lam^n + v mu^n with |mu/lam| = rho < 1, so a ratio at n is within about rho^n of its limit.
    reduced, d, n = z_reduction(system), system.d, 400
    assume(reduced.Bd1 != 0 and reduced.delta > 0 and reduced.Cd != 0)
    assume(r >= 0 or mode == "consecutive_periods")
    B = oracles.b_values(system, (n + 1) * d + r)  # index nu + 1 holds B_nu
    top, bottom = (B[(n + 1) * d + r + 1], B[n * d + r + 1]) if mode == "consecutive_periods" \
        else (B[n * d + r + 1], B[n * d + r])
    assume(bottom != 0)
    root = math.sqrt(reduced.delta)
    with mpmath.workdps(60):
        ratio, rho = mpmath.mpf(top) / bottom, mpmath.mpf(abs(root - abs(reduced.Cd))) / (root + abs(reduced.Cd))
        try:
            limit = limit_ratio(system, mode, r).mpf(60)
        except DivisionByZero:  # B_{nd+r-1} has no lam part, so the ratio grows like rho^-n
            assert mode == "consecutive_terms" and abs(ratio) > rho ** (-n / 2)
            return
        assert abs(ratio - limit) <= max(1, abs(limit)) * max(rho ** (n / 2), mpmath.mpf(10) ** -40)


def test_boundary_reads_take_one_period_product(monkeypatch):
    # Each of these walks at most one period over Z, once: the reads at period
    # boundaries take the period product of their one reduce, and a read at any
    # other index, a closed form's too, takes its r-step prefix on the way to the
    # period matrix M.  The prime-modulus entry points walk only mod p.
    taken, modular = [], []
    steps, walk_ = core.steps, core.walk
    for module in (core, continuants, recurrence):
        monkeypatch.setattr(module, "steps", lambda s, lam, n, x, m=None:
                            (taken if m is None else modular).append(n) or steps(s, lam, n, x, m))
    monkeypatch.setattr(core, "walk", lambda s, n, lam=0, m=None:
                        (taken if m is None else modular).append(n) or walk_(s, n, lam, m))
    system, odd = expand_sqrt(1000003), expand_sqrt(1000009)
    d = system.d
    assert (d, odd.d) == (458, 743)
    calls = {
        "rank_of_apparition": lambda: rank_of_apparition(system, 7),
        "congruence_suite": lambda: congruence_suite(system, 7),
        "pisano": lambda: pisano(system, 7),
        "lucas_pseudoprime_test": lambda: lucas_pseudoprime_test(system, 1000033),
        "binomial": lambda: weighted_sum_exact(system, "binomial", big_n=3),
        "millin": lambda: telescoping_sum(S8, "millin"),
        "binet": lambda: binet(system, 7, 5),
        "binet_negative": lambda: binet_negative(system, 3, 2),
        "limit_ratio": lambda: limit_ratio(system, "consecutive_terms", d + 5),
        "geometric": lambda: weighted_sum_exact(system, "geometric", x=Fraction(1, 7), big_n=3, r=4),
        "pell_solutions even d": lambda: pell_solutions(1000003, 2),
        "pell_solutions odd d": lambda: pell_solutions(1000009, 2),
        # q = 0 inside and at the end of the first period, then q >= 1.
        **{f"continuant_pair {nu}": lambda nu=nu: continuant_pair(system, nu)
           for nu in (15, d - 1, d, d + 7, 10 * d + 3, 10 ** 5)},
    }
    for name, call in calls.items():
        taken.clear()
        modular.clear()
        result = call()
        assert getattr(result, "verdict", None) != "inapplicable"
        modular_budget = {"rank_of_apparition": d, "congruence_suite": 3 * d - 2, "pisano": 3 * d - 2}
        budget = {"millin": S8.d, "pell_solutions odd d": odd.d, **dict.fromkeys(modular_budget, 0)}.get(name, d)
        assert sum(taken) <= budget, (name, sum(taken))
        # M mod p in d steps, then for the reader B_{-1} .. B_{2d-2} mod p.
        assert sum(modular) == modular_budget.get(name, 0), name
    for n, period_d in ((1000003, d), (1000009, odd.d)):
        taken.clear()
        pell_solutions(n, 2)
        assert sum(taken) == (period_d + 1) // 2, n  # the palindromic period folds from its first half


# A period long enough that reads inside it take many steps.
LONG = PeriodicSystem(d=30, a=tuple(range(1, 31)), b=tuple(k % 9 + 1 for k in range(30)), b0=3)


@st.composite
def long_period_reads(draw):
    """(system, nu, lam) with d up to 40, nu in [0, 3d + 2] and lam in [0, 2d]: every case
    of nu = qd + r, from q = 0 to q = 3."""
    system = draw(systems(max_d=40))
    return system, draw(st.integers(0, 3 * system.d + 2)), draw(st.integers(0, 2 * system.d))


@settings(max_examples=150)
@given(long_period_reads())
@example((LONG, 20, 7))  # q = 0: the walk stops after nu steps
@example((LONG, 30, 0))
@example((LONG, 2 * 30 + 5, 31))
def test_transfer_matches_stepwise_product(read):
    system, nu, lam = read
    assert core.period(system, nu, lam)[0] == oracles.transfer(system, nu, lam)
    assert continuant_pair(system, nu, lam) == oracles.continuant_pair(system, nu, lam)


@settings(max_examples=40)
@given(st.integers(2, 2000))
@example(13)  # odd period: the fundamental solution ends the doubled period
@example(61)
def test_pell_stream_matches_composition(n):
    assume(math.isqrt(n) ** 2 != n)
    sols = pell_solutions(n, 24)
    x1, y1 = sols[0].x, sols[0].y
    assert sols[0] == pell_fundamental(n)
    x, y = x1, y1
    for sol in sols[1:]:  # x_{k+1} + y_{k+1} sqrt(N) = (x_1 + y_1 sqrt(N)) (x_k + y_k sqrt(N))
        x, y = x1 * x + n * y1 * y, x1 * y + y1 * x
        assert (sol.x, sol.y) == (x, y)
    for k in range(1, 12):  # the pell_y2 terms read y_{2k+1} = x_k y_{k+1} + y_k x_{k+1}
        s, t = sols[k - 1], sols[k]
        assert sols[2 * k].y == s.x * t.y + s.y * t.x


@given(systems(), NU, st.integers(0, 10))
def test_continuant_pair_matches_linear(system, nu, lam):
    assert continuant_pair(system, nu, lam) == oracles.continuant_pair(system, nu, lam)


@given(systems(), st.integers(0, 40), st.integers(0, 10))
def test_convergent_matches_bottom_up_walk(system, nu, lam):
    # A_{nu,lam}/B_{nu,lam} is the walk's value wherever the walk is defined; where an
    # inner tail of a non-strict system is 0 the walk divides by zero and A/B need not.
    try:
        expected = oracles.convergent(system, nu, lam)
    except ZeroDivisionError:
        return
    assert convergent(system, nu, lam) == expected


@given(systems(), NU, st.integers(0, 10))
def test_b_values_match_linear(system, nu, lam):
    full = oracles.b_values(system, nu + 1, lam)
    assert walk(system, nu, lam) == full[:-1]
    assert continuant_pair(system, nu)[1] == oracles.b_values(system, nu)[-1]
    (p, _), (r, _) = core.period(system, nu + 1, lam)[0]
    assert (p, r) == (full[-1], full[-2])  # (B_{nu+1,lam}, B_{nu,lam})


MODULI_FROM_1 = st.one_of(st.just(1), st.integers(2, 10 ** 6))


def reader(system, m):
    """The reader of B mod m on the system's reduction mod m."""
    reduced = reduce(system, m)
    return residues(system, reduced.Cd, reduced.Dd, m)


@given(systems(), NU, MODULI_FROM_1)
def test_residues_match_linear(system, nu, m):
    read = reader(system, m)
    # Read backwards, so that later reads hit the ladder pairs kept by earlier ones.
    assert [read(k) for k in range(nu, -2, -1)] == [x % m for x in reversed(oracles.b_values(system, nu))]
    with pytest.raises(IndexOutOfRange):
        read(-2)


@settings(max_examples=60)
@given(systems(), st.integers(-1, 10 ** 6), MODULI_FROM_1)
def test_residues_at_large_index(system, nu, m):
    assert reader(system, m)(nu) == oracles.b_mod(system, nu, m)


def shifted(system, lam):
    """The system whose (A_nu, B_nu) are the (A_{nu,lam}, B_{nu,lam}) of `system`: its
    coefficients from 1 on are those from lam + 1 on, and its b_0 is b_lam."""
    ks = range(lam + 1, lam + system.d + 1)
    return PeriodicSystem(system.d, tuple(map(system.coeff_a, ks)), tuple(map(system.coeff_b, ks)),
                          system.coeff_b(lam), strict=False)


@given(systems(max_d=6), st.integers(-1, 12), MODULI_FROM_1)
@example(PeriodicSystem(2, (1, 1), (0, 3), strict=False), 6, 7)  # b_1 = 0: the determinant swaps rows
def test_the_three_definitions_of_a_continuant_agree(system, nu, m):
    # Euler's recurrence (walk, continuant_pair, the residues reader), Muir's tridiagonal
    # determinant and Benjamin, Su and Quinn's weighted tilings, at every lam < 2d.
    for lam in range(2 * system.d):
        a, b = continuant_pair(system, nu, lam)
        assert b == walk(system, nu, lam)[-1] == oracles.tilings(system, nu, lam)
        assert a == oracles.tilings(system, nu + 1, lam - 1)  # A_{nu,lam} tiles cells lam .. lam + nu
        assert reader(shifted(system, lam), m)(nu) == b % m
        if nu >= 0:
            assert continuants.continuant_determinant(shifted(system, lam), nu) == (a, b)


@given(systems(max_d=6), st.integers(1, 40), st.integers(0, 12))
def test_a_continuant_equals_the_continuant_of_its_mirror_image(system, nu, lam):
    # Muir's reversal: K(b_1, ..., b_nu) = K(b_nu, ..., b_1), where a_k, which joins cells k - 1
    # and k, moves to join their mirror images.  The mirror image is read as one period of length
    # nu; its a_1 joins cell 0, which no B value reads, so it keeps a_{lam+1}.
    a = [system.coeff_a(lam + k) for k in range(1, nu + 1)]
    b = [system.coeff_b(lam + k) for k in range(1, nu + 1)]
    mirror = PeriodicSystem(nu, (a[0], *reversed(a[1:])), tuple(reversed(b)), strict=False)
    assert continuant_pair(mirror, nu)[1] == continuant_pair(system, nu, lam)[1]


@st.composite
def palindromic_runs(draw):
    """(system, k): b_1..b_k reads the same both ways with every a_i = 1 on it, b_i in 1..20 and
    k in 0..80, of either parity; the period may run on past the run with any coefficients."""
    k = draw(st.integers(0, 80))
    coeff = st.integers(1, 20)
    half = draw(st.lists(coeff, min_size=k // 2, max_size=k // 2))
    run = half + draw(st.lists(coeff, min_size=k % 2, max_size=k % 2)) + half[::-1]
    tail = draw(st.lists(st.tuples(st.integers(1, 9), coeff), min_size=0 if k else 1, max_size=3))
    a, b = (1,) * k + tuple(ai for ai, _ in tail), tuple(run) + tuple(bi for _, bi in tail)
    return PeriodicSystem(len(b), a, b, b0=draw(coeff)), k


@settings(max_examples=200)
@given(palindromic_runs())
@example((FIB, 0))  # the empty run: the identity
@example((FIB, 1))
@example((expand_sqrt(13), 3))
@example((expand_sqrt(13), 4))  # (1, 1, 1, 1): the period of sqrt(13) before its 2 a_0 = 6
@example((expand_sqrt(61), 10))  # an odd centre: d = 11
def test_fold_matches_the_stepwise_product(case):
    # The centre T_{h+1} of an odd run is a step of its own; R^T R alone would miss it.
    system, k = case
    assert core.fold(system, k) == oracles.transfer(system, k)


@pytest.mark.parametrize("system, k, error", [
    (expand_sqrt(13), 5, HypothesisViolated),  # 1, 1, 1, 1, 6 is no palindrome
    (PeriodicSystem(3, (1, 1, 1), (1, 2, 3)), 2, HypothesisViolated),
    (PeriodicSystem(3, (1, 2, 1), (4, 4, 4)), 3, HypothesisViolated),  # a_2 = 2
    (PeriodicSystem(3, (2, 1, 1), (4, 4, 4)), 1, HypothesisViolated),  # a_1 = 2
    (FIB, 2, IndexOutOfRange),  # past one period
    (FIB, -1, IndexOutOfRange),
])
def test_fold_refuses_a_run_outside_its_hypothesis(system, k, error):
    with pytest.raises(error):
        core.fold(system, k)


@settings(max_examples=150)
@given(systems(max_d=12), st.integers(0, 40), st.integers(0, 12),
       st.one_of(st.integers(1, 100), st.integers(1, 10 ** 12)), st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 4))
@example(ZERO_CORNER, 2, 0, 7, (1, 0, 0, 1))
@example(PeriodicSystem(d=1, a=(-3,), b=(0,), strict=False), 1, 0, 10 ** 6, (1, 0, 0, 1))
@example(S8, 0, 0, 1, (1, 0, 0, 1))  # no step: the start alone, reduced mod 1
@example(S8, 5, 3, 10 ** 12, (-5, 7, 10 ** 6, -1))
def test_modular_steps_and_reduction_match_z(system, count, lam, m, start):
    # Walked mod m, a product of transfer matrices is the Z product reduced mod m, every entry
    # in [0, m); so the period matrix's trace, negated determinant and corner are too.
    p, q, r, s = start
    x, product = ((p, q), (r, s)), oracles.transfer(system, count, lam)
    assert core.steps(system, lam, count, x) == oracles.mat_mul(product, x)
    assert core.steps(system, lam, count, x, m) == oracles.mat_mul(product, x, m)
    red = reduce(system)
    assert red == z_reduction(system)
    assert reduce(system, m) == ReducedRecurrence(red.Cd % m, red.Dd % m, red.Bd1 % m)


@given(systems())
def test_reduce_matches_recurrence_check(system):
    if not reducible(system):
        return
    red = reduce(system)
    assert (red.Cd, red.Dd) == oracles.reduce_checked(system)


@given(systems(), st.integers(0, 40), st.integers(-1, 6))
@example(SPLIT_ZERO_CORNER, 3, 0)
def test_binet_matches_linear(system, n, r):
    assert binet(system, n, r) == oracles.b_values(system, n * system.d + r)[-1]


@given(systems(), st.integers(0, 6), st.integers(-1, 6))
@example(SPLIT_ZERO_CORNER, 3, 0)
def test_binet_negative_matches_backward(system, n, r):
    nu = -n * system.d + r
    if nu >= 0:
        expected = Fraction(oracles.b_values(system, nu)[-1])
    else:
        expected = oracles.backward_sequence(system, nu)[nu]
    assert binet_negative(system, n, r) == expected


# Up to about 12 ladder bits: a slip in a high bit of the doubling shows here.
@settings(max_examples=60)
@given(systems(), st.integers(-1, 3000), st.integers(0, 10))
def test_continuant_pair_at_large_index(system, nu, lam):
    assert continuant_pair(system, nu, lam) == oracles.continuant_pair(system, nu, lam)
    assert continuant_pair(system, nu)[1] == oracles.b_values(system, nu)[-1]


# Delta = 0: the double root 1 gives B_nu = nu + 1, and the double root 3 gives B_nu = (nu + 1) 3^nu.
DOUBLE_ROOT = PeriodicSystem(d=2, a=(-1, -1), b=(2, 2), strict=False)
DOUBLE_ROOT_3 = PeriodicSystem(d=1, a=(-9,), b=(6,), strict=False)


@settings(max_examples=150)
@given(systems(strict=False, max_d=3), st.integers(0, 12), st.integers(-1, 5))
@example(DOUBLE_ROOT, 5, 0)
@example(DOUBLE_ROOT, 3, -1)
@example(DOUBLE_ROOT_3, 7, 2)
@example(ZERO_CORNER, 4, 1)  # B_{d-1} = 0 and Delta = 0
@example(SPLIT_ZERO_CORNER, 6, -1)
def test_closed_forms_match_the_walks_at_any_delta(system, n, r):
    # binet and binet_negative take no root, so they answer Delta = 0 and B_{d-1} = 0 like any system.
    d = system.d
    B = {i - 1: b for i, b in enumerate(oracles.b_values(system, n * d + r))}  # B_-1 .. B_{nd+r}
    B.update(oracles.backward_sequence(system, r - n * d))  # B_{r-nd} .. B_0
    assert binet(system, n, r) == B[n * d + r]
    assert binet_negative(system, n, r) == B[r - n * d]


@settings(max_examples=60)
@given(systems(), st.integers(-40, -1))
@example(S8, -1)  # boundary(-1) gave 1 for B_{-3} = -1
@example(S8, -2)  # boundary(-2) gave 6 for B_{-5} = -6, power(x, -2) gave x^2
@example(ZERO_CORNER, -3)
def test_core_refuses_negative_indices(system, k):
    # Ladder rungs and step counts are defined for k >= 0 only; a negative one used to read a wrong value.
    red, mat = z_reduction(system), period_matrix(system)
    reads = [lambda: lucas(red.Cd, red.Dd, k), lambda: lucas(red.Cd, red.Dd, k, 7), lambda: power(mat, k),
             lambda: core.steps(system, 0, k, core.IDENTITY),
             lambda: core.steps(system, 0, k, core.IDENTITY, 7), lambda: core.period(system, k),
             lambda: continuant_pair(system, k - 1), lambda: walk(system, k - 1),
             lambda: binet(system, k, 0), lambda: binet_negative(system, k, 0)]
    for read in reads:
        with pytest.raises(IndexOutOfRange):
            read()
    if red.Bd1:
        with pytest.raises(IndexOutOfRange):
            red.boundary(k)
    else:  # B_{d-1} = B_{-1} = 0 makes every B_{jd-1} 0, at negative j too, and no ladder runs
        assert red.boundary(k) == 0 == oracles.backward_sequence(system, k * system.d - 1)[k * system.d - 1]


@settings(max_examples=60)
@given(systems(), st.integers(0, 1000), st.integers(-1, 6))
@example(SPLIT_ZERO_CORNER, 1000, 1)
def test_binet_at_large_index(system, n, r):
    assert binet(system, n, r) == oracles.b_values(system, n * system.d + r)[-1]


@settings(max_examples=40)
@given(systems(), st.integers(0, 200), st.integers(-1, 6))
@example(SPLIT_ZERO_CORNER, 200, -1)
def test_binet_negative_at_large_index(system, n, r):
    nu = -n * system.d + r
    if nu >= 0:
        expected = Fraction(oracles.b_values(system, nu)[-1])
    else:
        expected = oracles.backward_sequence(system, nu)[nu]
    assert binet_negative(system, n, r) == expected


@settings(max_examples=60)
@given(systems(), st.integers(1, 1492))
def test_lucas_verdicts_on_signed_systems_match_stride_list(system, half):
    if not reducible(system):
        return
    red = reduce(system)
    for n in range(2 * half + 1, 2 * half + 17, 2):  # eight consecutive odd n below 3000
        verdict = lucas_pseudoprime_test(system, n)
        if math.gcd(n, red.Cd * red.Dd * red.delta) > 1:
            assert verdict.verdict == "inapplicable"
            continue
        k = n - verdict.epsilon
        residue = oracles.lucas_residue(system, k, n, red.Cd, red.Dd)
        assert verdict.tested_index == k * system.d - 1
        assert verdict.verdict == ("probable_prime" if residue == 0 else "composite_proven")


@settings(max_examples=60)
@given(systems(), st.integers(3, 3000), st.integers(0, 60))
def test_pseudoprime_scan_matches_one_candidate_at_a_time(system, lo, width):
    # Every n in the range, even ones and ones sharing a factor with C_d D_d Delta
    # included: the scan's shared reduction must give each candidate's own verdict.
    assume(reducible(system))
    candidates = range(lo, lo + width)
    assert list(pseudoprime_scan(system, candidates)) == [
        lucas_pseudoprime_test(system, n) for n in candidates]


@settings(max_examples=100)
@given(systems(), st.integers(3, 10 ** 18), st.sampled_from([None, "Cd", "Dd", "delta"]))
@example(S8, 35, None)
@example(FIB, 10 ** 18 - 11, "delta")  # n = 5 * 199999999999999997, odd
def test_pseudoprime_verdicts_from_residues_match_the_z_reduction(system, n, shared):
    # Odd and even n up to 10^18, some made multiples of C_d, D_d or Delta over Z: the verdict
    # the scan reads from three residues mod n is the one read from the Z reduction.
    assume(reducible(system))
    z = z_reduction(system)
    f = abs(getattr(z, shared)) if shared else 0
    if f > 1:
        n = f * max(2, n // f)
    (verdict,) = pseudoprime_scan(system, [n])
    if n % 2 == 0 or math.gcd(n, z.Cd * z.Dd * z.delta) > 1:
        assert verdict == PseudoprimeVerdict(n, 0, 0, "inapplicable")
        return
    eps = jacobi(z.delta, n)
    residue = oracles.mat_pow(period_matrix(system), n - eps, n)[1][0]  # B_{(n - eps)d - 1} mod n
    assert verdict == PseudoprimeVerdict(n, eps, (n - eps) * system.d - 1,
                                         "probable_prime" if residue == 0 else "composite_proven")


@settings(max_examples=60)
@given(systems())
def test_pseudoprime_inapplicable_exactly_where_prime_divides_cd_dd_delta(system):
    assume(reducible(system))
    red = reduce(system)
    for p in range(3, 500):
        if _is_prime(p):
            expected = "inapplicable" if math.gcd(p, red.Cd * red.Dd * red.delta) > 1 else "probable_prime"
            assert lucas_pseudoprime_test(system, p).verdict == expected, p


def oracle_report(system, identity, params):
    """verify_identity with every value from the linear oracle."""
    with mock.patch.object(contikit.continuants, "continuant_pair", oracles.continuant_pair):
        return verify_identity(system, identity, params)


def raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def takes(identity):
    return 3 if identity.startswith("cassini") else 2


@st.composite
def identity_batches(draw):
    identity = draw(st.sampled_from(IDENTITIES))
    params = st.tuples(*[st.integers(0, 12)] * takes(identity))
    return identity, draw(st.lists(params, max_size=8))


def assert_tables_match_oracle(system, top):
    """Every A[l][n + 1], B[l][n + 1] (-1 <= n <= top) and W[l][k] (k <= top + 1) of
    continuants._tables, for l <= top + 1, against the linear oracle and a product of a's."""
    A, B, W = contikit.continuants._tables(system, top)
    assert len(A) == len(B) == len(W) == top + 2
    for lam in range(top + 2):
        pairs = [oracles.continuant_pair(system, nu, lam) for nu in range(-1, top + 1)]
        assert A[lam] == [a for a, _ in pairs], lam
        assert B[lam] == [b for _, b in pairs], lam
        assert W[lam] == [math.prod(system.coeff_a(lam + j) for j in range(1, k + 1))
                          for k in range(top + 2)], lam


@settings(max_examples=60)
@given(systems(), st.integers(0, 24))
def test_tables_match_oracle(system, top):
    assert_tables_match_oracle(system, top)


@given(systems(), st.lists(identity_batches(), max_size=5))
def test_identity_failures_matches_oracle(system, batches):
    valid, expected = [], []
    for at, (identity, batch) in enumerate(batches):
        kept = []
        for i, params in enumerate(batch):
            error = raised(lambda: oracle_report(system, identity, params))
            if error is None:
                kept.append(params)
                expected.append(oracle_report(system, identity, params))
            else:  # docagne/telescoping with lam < nu, and the like: the first error in batch order
                rest = [(identity, kept + batch[i:])] + batches[at + 1:]
                assert raised(lambda: identity_failures(system, valid + rest)) == error
        valid.append((identity, kept))
    assert_tables_match_oracle(system, max([0] + [sum(params) for _, batch in valid for params in batch]))
    assert identity_failures(system, valid) == []
    reports = [verify_identity(system, identity, params) for identity, batch in valid for params in batch]
    assert reports == expected
    assert all(rep.equal for rep in expected)


@given(systems(), st.sampled_from(IDENTITIES + ("nope",)), st.lists(st.integers(-3, 12), max_size=4))
def test_identity_failures_raises_like_verify_identity(system, identity, params):
    params = tuple(params)
    expected = raised(lambda: verify_identity(system, identity, params))
    assert raised(lambda: identity_failures(system, [(identity, [params])])) == expected
    if identity in IDENTITIES and len(params) != takes(identity):
        names = "(lam, nu, mu)" if takes(identity) == 3 else "(lam, nu)"
        assert expected == (UsageError, f"{identity} takes {names}, got {len(params)} values")
    elif identity in IDENTITIES and min(params) < 0:
        assert expected[0] is IndexOutOfRange


def test_identity_failures_rejects_flat_pairs():
    # The flat (identity, params) form names the expected shape, not sum()'s int.
    system = PeriodicSystem(d=2, a=(1, 1), b=(1, 4), b0=2)
    for batches in ([("catalan", (2, 1))], [("catalan", []), ("cassini_A", (2, 1, 0))]):
        with pytest.raises(TypeError) as exc:
            identity_failures(system, batches)
        assert str(exc.value) == "identity_failures takes (identity, [params, ...]) pairs"
    assert identity_failures(system, [("catalan", [(2, 1)])]) == []


def test_identity_failures_large_indices():
    system = PeriodicSystem(d=3, a=(2, -1, 3), b=(0, 5, -2), b0=4, strict=False)
    batch = [("catalan", (3, 4)), ("cassini_A", (64, 1, 2)), ("docagne", (69, 7)),
             ("telescoping", (69, 3)), ("index_changing", (2, 64))]
    assert_tables_match_oracle(system, 76)  # the largest sum(params) in the batch
    assert identity_failures(system, [(identity, [params]) for identity, params in batch]) == []
    reports = [verify_identity(system, *inst) for inst in batch]
    assert reports == [oracle_report(system, *inst) for inst in batch]
    assert all(rep.equal for rep in reports)


def test_identity_failures_reports_a_corrupted_table(monkeypatch):
    # A batch evaluator reads once what instances with the same (lam, nu) share; on a
    # corrupted table it must still report exactly what one-element batches report.
    system = PeriodicSystem(d=3, a=(2, -1, 3), b=(0, 5, -2), b0=4, strict=False)
    pairs = [(lam, nu) for lam in range(8) for nu in range(8)]
    instances = {
        "cassini_A": [(lam, nu, mu) for lam, nu in pairs for mu in range(3)],
        "cassini_B": [(nu, lam, mu) for lam, nu in pairs for mu in range(3)],
        "catalan": pairs,
        "docagne": [(lam, nu) for lam, nu in pairs if lam >= nu],
        "index_changing": [(lam, nu) for lam, nu in pairs if nu >= 1],
        "telescoping": [(lam, nu) for lam, nu in pairs if lam >= nu and (lam - nu) % 3 == 0],
    }
    assert sorted(instances) == sorted(IDENTITIES)
    rng = random.Random(7)
    shuffled = [(identity, rng.sample(batch, len(batch))) for identity, batch in instances.items()]
    rng.shuffle(shuffled)
    assert identity_failures(system, shuffled) == []
    tables = contikit.continuants._tables

    def corrupted(system, top):
        A, B, W = tables(system, top)
        for rows, lam, i in ((A, 2, 4), (B, 0, 6), (W, 1, 2)):  # A_{3,2}, B_{5,0}, a_3 a_4
            if lam < len(rows) and i < len(rows[lam]):
                rows[lam][i] += 1  # and every row l = lam mod d, which shares its list
        return A, B, W

    monkeypatch.setattr(contikit.continuants, "_tables", corrupted)

    def one_by_one(batches):
        return [rep for identity, batch in batches for params in batch
                for rep in identity_failures(system, [(identity, [params])])]

    for identity, batch in shuffled:
        for order in (batch, sorted(batch)):
            expected = one_by_one([(identity, order)])
            assert expected, identity  # the corruption reaches every identity
            assert identity_failures(system, [(identity, order)]) == expected
    failures = identity_failures(system, shuffled)
    assert failures == one_by_one(shuffled)  # in batch order
    assert all(rep.lhs != rep.rhs and not rep.equal for rep in failures)


@settings(max_examples=40)
@given(systems(strict=True), st.integers(1, 1499))
def test_lucas_verdict_matches_stride_list(system, half):
    n = 2 * half + 1
    red = reduce(system)
    verdict = lucas_pseudoprime_test(system, n)
    if math.gcd(n, red.Cd * red.Dd * red.delta) > 1:
        assert verdict.verdict == "inapplicable"
        return
    k = n - verdict.epsilon
    residue = oracles.lucas_residue(system, k, n, red.Cd, red.Dd)
    assert verdict.tested_index == k * system.d - 1
    assert verdict.verdict == ("probable_prime" if residue == 0 else "composite_proven")


@given(systems(), st.sampled_from([p for p in range(2, 100) if _is_prime(p)]))
@example(ZERO_CORNER, 7)
def test_rank_of_apparition_matches_linear(system, p):
    seq = oracles.b_values(system, (p + 1) * system.d - 1)
    omega = next((k for k in range(1, p + 2) if seq[k * system.d] % p == 0), None)
    assert rank_of_apparition(system, p).omega == omega


@given(systems(), st.sampled_from([p for p in range(3, 200) if _is_prime(p)]))
@example(ZERO_CORNER, 7)
def test_pisano_period_matches_two_stage_scan(system, p):
    if z_reduction(system).Dd % p == 0:
        return
    pi, bound = pisano(system, p)
    assert pi == pisano_period(system, p) == oracles.pisano_period(system, p, bound)


@settings(max_examples=60)
@given(systems(), st.sampled_from([p for p in range(3, 10 ** 4) if _is_prime(p)]))
@example(ZERO_CORNER, 7)
def test_pisano_period_is_the_least_window_period(system, p):
    # A period whose every pi/q (q prime) is not a period is the least one.
    if z_reduction(system).Dd % p == 0:
        return
    pi, bound = pisano(system, p)
    assert bound % pi == 0
    assert oracles.is_pisano_period(system, p, pi)
    assert not any(oracles.is_pisano_period(system, p, pi // q) for q in oracles.prime_factors(pi))


@settings(max_examples=60)
@given(systems(), st.sampled_from([p for p in range(2, 10 ** 4) if _is_prime(p)]),
       st.none() | st.tuples(st.integers(-1, 3), st.integers(0, 20)))
@example(ZERO_CORNER, 7, None)
@example(S8, 7, (0, 0))  # an empty r_range leaves only the r-free clauses
def test_congruence_suite_matches_walk(system, p, span):
    # The walk lists every residue up to about (p + 2) d; the suite reads only its clauses.
    r_range = None if span is None else range(span[0], span[0] + span[1])
    got, want = congruence_suite(system, p, r_range), oracles.congruence_suite(system, p, r_range)
    assert (got.case_tag, got.verified) == (want.case_tag, want.verified)


@settings(max_examples=300)
@given(systems(), st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 6), st.integers(1, 4),
       st.integers(0, 2))
def test_law_of_repetition_matches_exact_quotients(system, p, n, m, f):
    if not reducible(system) or m % p == 0:
        return
    try:
        e, v = oracles.law_of_repetition(system, p, n, m, f)
    except ValueError as exc:
        with pytest.raises(UsageError, match=str(exc)):
            law_of_repetition_check(system, p, n, m, f)
        return
    rep = law_of_repetition_check(system, p, n, m, f)
    assert (rep.e, rep.observed) == (e, min(v, e + f + 1))
    assert rep.holds == (v == e + f if rep.exact_expected else v >= e + f)


@settings(max_examples=30)
@given(st.integers(2, 400), st.integers(1, 8))
def test_pell_solutions_match_continuants(n, count):
    if math.isqrt(n) ** 2 == n:
        return
    sols = pell_solutions(n, count)
    system = expand_sqrt(n)
    step = system.d if system.d % 2 == 0 else 2 * system.d
    assert [(s.x, s.y) for s in sols] == [
        oracles.continuant_pair(system, k * step - 1) for k in range(1, count + 1)]


@pytest.mark.parametrize("n", [PSI_12, 3317044064679887385961981])
def test_primality_refused_above_deterministic_range(n):
    # Both are composite strong pseudoprimes to every prime base <= 37.
    with pytest.raises(PrimalityUndecided):
        _is_prime(n)
    with pytest.raises(PrimalityUndecided):
        congruence_suite(PeriodicSystem(d=2, a=(1, 1), b=(1, 4), b0=2), n)
    assert issubclass(PrimalityUndecided, ContikitError)
    assert main(["check", "--sqrt", "8", "--congruence-p", str(n)]) == 2
    assert not _is_prime(n + 1)  # an even number is still proven composite


def test_invariant_raised_under_optimize():
    code = ("from contikit import InvariantViolated, PellSolution\n"
            "try:\n    PellSolution(2, 1, 2)\n"
            "except InvariantViolated:\n    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(contikit.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_the_public_names_are_pinned():
    # Each name added to or removed from the package shows up as a diff of this list; the
    # submodules are here too, cli and suite because this module imports contikit.cli.
    assert sorted(n for n in dir(contikit) if not n.startswith("_")) == [
        "ApparitionReport", "CongruenceCase", "ContikitError", "DegenerateDiscriminant", "DivisionByZero",
        "ExactSumReport", "FIB", "GFReport", "HypothesisViolated", "IDENTITIES", "IdentityReport",
        "IndexOutOfRange", "InputTooLarge", "InvalidSystem", "InvariantViolated", "NoAdmissibleRoot",
        "PellSolution", "PerfectSquare", "PeriodicSystem", "PoleAtRoot", "PrecisionContext",
        "PrecisionExhausted", "PrimalityUndecided", "PseudoprimeVerdict", "QuadraticNumber",
        "ReducedRecurrence", "RepetitionReport", "S8", "SeriesReport", "TELESCOPING_FAMILIES", "UsageError",
        "ZETA_KINDS", "binet", "binet_negative", "cli", "congruence_suite", "continuant_determinant",
        "continuant_pair", "continuants", "convergent", "core", "divisibility", "errors", "expand_sqrt",
        "gf_verify", "identity_failures", "jacobi", "law_of_repetition_check", "limit_ratio",
        "lucas_pseudoprime_test", "pell", "pell_fundamental", "pell_solutions", "pisano", "pisano_period",
        "pseudoprime_scan", "quadratic", "rank_of_apparition", "recurrence", "reduce", "roots", "series",
        "suite", "systems", "telescoping_sum", "verify_identity", "weighted_sum_exact", "zeta_series",
    ]
