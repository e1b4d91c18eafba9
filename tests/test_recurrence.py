import math
import random
from fractions import Fraction

import mpmath
import pytest

from contikit import (
    FIB,
    S8,
    ZETA_KINDS,
    DegenerateDiscriminant,
    DivisionByZero,
    HypothesisViolated,
    IndexOutOfRange,
    PeriodicSystem,
    QuadraticNumber,
    ReducedRecurrence,
    binet,
    binet_negative,
    gf_verify,
    law_of_repetition_check,
    limit_ratio,
    lucas_pseudoprime_test,
    pseudoprime_scan,
    reduce,
    roots,
    telescoping_sum,
    weighted_sum_exact,
    zeta_series,
)
from contikit import recurrence
from contikit.core import walk
from contikit.suite import random_strict_system
from oracles import b_values, backward_sequence


def test_reduce_s8():
    red = reduce(S8)
    assert (red.Cd, red.Dd, red.delta) == (6, -1, 32)


def test_reduce_fib():
    red = reduce(FIB)
    assert (red.Cd, red.Dd, red.delta) == (1, 1, 5)


def test_reduce_alternative_form():
    # The trace of the period matrix satisfies B_(2d-1) = C_d B_(d-1).
    rng = random.Random(23)
    for _ in range(40):
        system = random_strict_system(rng)
        red = reduce(system)
        seq = walk(system, 2 * system.d)
        assert seq[2 * system.d] == red.Cd * seq[system.d]


def test_roots_symmetric_functions():
    rng = random.Random(29)
    for _ in range(25):
        system = random_strict_system(rng)
        red = reduce(system)
        if red.delta <= 0:
            continue
        alpha, beta = roots(red)
        s = alpha + beta
        p = alpha * beta
        assert s.q == 0 and s.p == Fraction(-red.Cd, red.Dd)
        assert p.q == 0 and p.p == Fraction(-1, red.Dd)


def test_binet_matches_recurrence():
    rng = random.Random(31)
    for _ in range(15):
        system = random_strict_system(rng)
        seq = walk(system, 61)
        for nu in range(-1, 61):
            n, r = divmod(nu + 1, system.d)
            r -= 1
            assert binet(system, n, r) == seq[nu + 1]


def test_binet_negative_consistency():
    rng = random.Random(37)
    for _ in range(10):
        system = random_strict_system(rng)
        back = backward_sequence(system, -3 * system.d)
        for n in range(1, 3):
            for r in range(-1, system.d - 1):
                nu = -n * system.d + r
                if nu in back:
                    assert binet_negative(system, n, r) == back[nu]


@pytest.mark.parametrize("closed_form", [binet, binet_negative])
def test_closed_forms_reject_bad_input(closed_form):
    for n, r in ((-1, 0), (0, -2)):
        with pytest.raises(IndexOutOfRange):
            closed_form(S8, n, r)
    # C_1 = 2, D_1 = -1: Delta = 0, and B_nu = nu + 1.  No root is taken, so it is answered.
    degenerate = PeriodicSystem(d=1, a=(-1,), b=(2,), strict=False)
    assert closed_form(degenerate, 2, 0) == {binet: 3, binet_negative: -1}[closed_form]


def test_root_readers_refuse_a_zero_discriminant():
    # The double root of x^2 - 2x + 1 has no Q(sqrt(Delta)) pair, so every reader that takes a root refuses it.
    degenerate = PeriodicSystem(d=1, a=(-1,), b=(2,), strict=False)
    with pytest.raises(DegenerateDiscriminant):
        roots(reduce(degenerate))
    with pytest.raises(DegenerateDiscriminant):
        limit_ratio(degenerate, "consecutive_periods", 0)
    with pytest.raises(HypothesisViolated, match="Delta > 0"):
        telescoping_sum(degenerate, "period_reciprocal")
    with pytest.raises(HypothesisViolated, match="Delta > 0"):
        zeta_series(degenerate, "pi_over_6")


def test_negative_index_reflection():
    # (-D)^n B_(-nd-1) = -B_(nd-1)
    rng = random.Random(41)
    for _ in range(15):
        system = random_strict_system(rng)
        red = reduce(system)
        seq = walk(system, 4 * system.d)
        for n in range(1, 5):
            lhs = (-red.Dd) ** n * binet_negative(system, n, -1)
            assert lhs == -seq[n * system.d]


def test_backward_sequence_s8():
    back = backward_sequence(S8, -4)
    assert back[-1] == 0 and back[-2] == 1 and back[-3] == -1


def test_gf_verify_s8():
    rep = gf_verify(S8, 14)
    assert rep.equal
    assert rep.numerator == (1, 1, -1, 0)


def test_gf_verify_judges_every_coefficient(monkeypatch):
    # One wrong B_nu anywhere in B_0 .. B_N fails the check; B_9 .. B_12 of S8 at N = 12 were never judged.
    for nu in range(13):
        def corrupted(system, nu_max, lam=0, nu=nu):
            seq = walk(system, nu_max, lam)
            seq[nu + 1] += 1  # index i holds B_{i-1}
            return seq

        monkeypatch.setattr(recurrence, "walk", corrupted)
        assert not gf_verify(S8, 12).equal, nu
    monkeypatch.undo()
    rep = gf_verify(S8, 12)
    assert rep.equal and len(rep.numerator + rep.higher) == 13
    assert rep.higher == (0,) * 9


def test_gf_verify_random():
    rng = random.Random(43)
    for _ in range(20):
        system = random_strict_system(rng)
        assert gf_verify(system, 4 * system.d + 4).equal


def square_root_step(system, n):
    # B_{(n+1)d-1} = (C_d B_{nd-1} + sqrt(Delta B_{nd-1}^2 + 4 (-D_d)^n B_{d-1}^2)) / 2, read over Z.
    red = reduce(system)
    radicand = red.delta * red.boundary(n) ** 2 + 4 * (-red.Dd) ** n * red.Bd1 ** 2
    root = math.isqrt(radicand)
    assert root * root == radicand
    value, rem = divmod(red.Cd * red.boundary(n) + root, 2)
    assert rem == 0
    return value


def test_sqrt_step_sqrt_systems():
    from contikit import expand_sqrt
    for n in (2, 3, 5, 8, 13):
        system = expand_sqrt(n)
        seq = b_values(system, 8 * system.d)
        for k in range(1, 8):
            assert square_root_step(system, k) == seq[(k + 1) * system.d]


def test_sqrt_step_random_strict():
    # For every valid strict system the radicand is a perfect square and the
    # result equals the recurrence value.
    rng = random.Random(59)
    for _ in range(15):
        system = random_strict_system(rng)
        seq = b_values(system, 6 * system.d)
        for n in range(1, 6):
            assert square_root_step(system, n) == seq[(n + 1) * system.d]


def test_limit_ratio_numeric():
    rng = random.Random(47)
    checked = 0
    while checked < 15:
        system = random_strict_system(rng)
        red = reduce(system)
        if red.delta <= 0 or red.Cd == 0:
            continue
        seq = walk(system, 21 * system.d)
        B = lambda nu: seq[nu + 1]
        with mpmath.workdps(60):
            lim = limit_ratio(system, "consecutive_periods", -1).mpf(60)
            obs = mpmath.mpf(B(20 * system.d - 1)) / B(19 * system.d - 1)
            alpha, beta = roots(red)
            ratio = abs(alpha.mpf(60) / beta.mpf(60))
            assert abs(obs - lim) <= abs(lim) * (ratio ** 18 + mpmath.mpf("1e-40"))
        checked += 1


def test_limit_ratio_consecutive_terms():
    with mpmath.workdps(50):
        lim = limit_ratio(S8, "consecutive_terms", 0).mpf(50)
        seq = walk(S8, 60)
        obs = mpmath.mpf(seq[51]) / seq[50]  # B_50 / B_49, r = 0 slot
        assert abs(lim - obs) < mpmath.mpf("1e-30")


def test_limit_ratio_follows_the_root_larger_in_size_when_c_d_is_negative():
    # C_d = -6, D_d = -8: the roots are -4 and -2, and B_(2n+2)/B_2n tends to -4.
    system = PeriodicSystem(d=2, a=(2, 4), b=(-4, 3), strict=False)
    limits = [limit_ratio(system, mode, r) for mode, r in
              (("consecutive_periods", -1), ("consecutive_terms", 0), ("consecutive_terms", 1))]
    assert limits == [QuadraticNumber(x, 0, 4) for x in (-4, Fraction(3, 2), Fraction(-8, 3))]


def test_limit_ratio_says_why_a_term_ratio_diverges():
    # B_2n = (-1)^n and B_(2n+1) grows like 7^n, so B_(2n+1)/B_2n has no limit.
    system = PeriodicSystem(d=2, a=(7, -1), b=(6, 0), strict=False)
    assert b_values(system, 6) == [0, 1, 6, -1, 36, 1, 258, -1]
    with pytest.raises(DivisionByZero, match=r"^at r = 1, B_\{nd\+r-1\} has no part in the larger "
                                             r"root, so B_\{nd\+r\}/B_\{nd\+r-1\} grows without bound$"):
        limit_ratio(system, "consecutive_terms", 1)


def test_printed_second_squared_ratio_identity_fails_on_s8():
    # With t1 = B_{2nd-1}^2/B_{nd-1}^2 and t2 = Delta B_{nd-1}^2/B_{d-1}^2 the paper prints
    # t1 - t2 = 4(-D_d)^n and t1 + t2 = 2 B_{4nd-1}^2/B_{2nd-1}^2; the second holds as 2 B_{4nd-1}/B_{2nd-1}.
    red = reduce(S8)
    B = red.boundary
    assert [B(k) for k in (1, 2, 4)] == [1, 6, 204]  # B_1, B_3, B_7 at n = 1
    t1, t2 = Fraction(B(2), B(1)) ** 2, red.delta * Fraction(B(1), red.Bd1) ** 2
    assert (t1, t2) == (36, 32)
    assert t1 - t2 == 4 * -red.Dd == 4
    assert t1 + t2 == 2 * Fraction(B(4), B(2)) == 68
    assert 2 * Fraction(B(4), B(2)) ** 2 == 2312 != t1 + t2


def test_squared_ratio_identities_random():
    # The first identity and the corrected second one hold on every strict system.
    rng = random.Random(53)
    for _ in range(15):
        system = random_strict_system(rng)
        n, red = rng.randint(1, 3), reduce(system)
        B = red.boundary
        t1, t2 = Fraction(B(2 * n), B(n)) ** 2, red.delta * Fraction(B(n), red.Bd1) ** 2
        assert (t1 - t2, t1 + t2) == (4 * (-red.Dd) ** n, 2 * Fraction(B(4 * n), B(2 * n)))


def test_reduce_accepts_zero_bd_and_only_readers_dividing_by_it_refuse():
    # The reduction divides by nothing, so B_(d-1) = 0 has one.
    degenerate = PeriodicSystem(d=2, a=(1, 1), b=(0, 1), strict=False)
    assert walk(degenerate, 1)[2] == 0  # B_(d-1) = b_1 = 0
    assert reduce(degenerate) == ReducedRecurrence(2, -1, 0)
    rep = law_of_repetition_check(degenerate, 3, 3, 1, 1)  # reads W_k = k, not B
    assert (rep.e, rep.observed, rep.holds) == (1, 2, True)
    # The same B = 0, 1, 0, 1, ... with Delta = 1, so the closed forms apply.  On both, every
    # sum divides by B_(kd-1) = 0 or is 0 = 0, and no pseudoprime candidate could fail.
    split = PeriodicSystem(d=2, a=(2, 1), b=(0, 3), strict=False)
    assert (reduce(split), reduce(split).delta) == (ReducedRecurrence(3, -2, 0), 1)
    assert binet(split, 3, 0) == 1  # B_6
    assert weighted_sum_exact(split, "geometric", x=Fraction(1, 7), big_n=3, r=0).equal  # B_{2n} = 1
    for system in (degenerate, split):
        refusals = [lambda f=f: telescoping_sum(system, f) for f in ("millin", "period_reciprocal", "arctan", "artanh")]
        refusals += [lambda k=k: zeta_series(system, k) for k in ZETA_KINDS]
        # B_{2n} = 1 makes the period ratio 1, not the root 2, and B_{2n-1} = 0 makes it 0/0.
        # consecutive_terms at r = -1 is refused as an IndexOutOfRange before the walk.
        refusals += [lambda r=r, mode=mode: limit_ratio(system, mode, r) for r, mode in
                     ((-1, "consecutive_periods"), (0, "consecutive_periods"), (0, "consecutive_terms"))]
        refusals += [lambda: weighted_sum_exact(system, "binomial", big_n=3),
                     lambda: weighted_sum_exact(system, "geometric", x=Fraction(1, 7), big_n=3, r=-1)]
        refusals += [lambda: next(pseudoprime_scan(system, []), None), lambda: lucas_pseudoprime_test(system, 7)]
        for call in refusals:
            with pytest.raises(DivisionByZero):
                call()
