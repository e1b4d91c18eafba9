import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contikit import (
    FIB,
    S8,
    ContikitError,
    HypothesisViolated,
    PoleAtRoot,
    PeriodicSystem,
    PrecisionContext,
    PrecisionExhausted,
    QuadraticNumber,
    UsageError,
    expand_sqrt,
    reduce,
    roots,
    telescoping_sum,
    weighted_sum_exact,
    zeta_series,
)
from contikit import pell, series
from contikit.cli import main
from contikit.core import walk
from contikit.series import TELESCOPING_FAMILIES, ZETA_KINDS
from contikit.suite import random_strict_system

SQRT2 = expand_sqrt(2)
SQRT_1000009 = expand_sqrt(1000009)  # period d = 743, D_d = 1


def test_millin_s8_exact_partial():
    # 1/6 + 1/204 + 1/235416 against the exact rational partial.
    seq = walk(S8, 16)
    assert seq[4] == 6 and seq[8] == 204 and seq[16] == 235416
    rep = telescoping_sum(S8, "millin")
    assert rep.converged
    partial3 = Fraction(1, 6) + Fraction(1, 204) + Fraction(1, 235416)
    assert rep.partial_exact is not None
    with mpmath.workdps(60):
        closed = 3 - 2 * mpmath.sqrt(2)
        err3 = abs(mpmath.mpf(partial3.numerator) / partial3.denominator - closed)
        assert err3 < mpmath.mpf("1e-7")


def test_millin_requires_d2():
    with pytest.raises(HypothesisViolated):
        telescoping_sum(FIB, "millin")


def test_period_reciprocal_families():
    assert telescoping_sum(S8, "period_reciprocal").converged
    assert telescoping_sum(FIB, "period_reciprocal", PrecisionContext(25, 150)).converged


def test_pell_families_converge():
    for fam in ("pell_y", "pell_x", "pell_y2"):
        rep = telescoping_sum(8, fam)
        assert rep.converged, fam


def test_a_pell_sum_expands_sqrt_n_once(monkeypatch):
    # The parity check and the solutions read one O(d) expansion.
    expanded = []
    for module in (pell, series):
        monkeypatch.setattr(module, "expand_sqrt", lambda n: expanded.append(n) or expand_sqrt(n))
    for fam in ("pell_y", "pell_x", "pell_y2"):
        expanded.clear()
        assert telescoping_sum(1000003, fam).converged
        assert expanded == [1000003], fam


def test_pell_families_need_even_period():
    with pytest.raises(HypothesisViolated):
        telescoping_sum(13, "pell_y")  # sqrt(13) has period 5


def test_arctan_artanh_sqrt2():
    ctx = PrecisionContext(40, 120)
    at = telescoping_sum(SQRT2, "arctan", ctx)
    ah = telescoping_sum(SQRT2, "artanh", ctx)
    assert at.converged and ah.converged
    with mpmath.workdps(50):
        assert abs(mpmath.mpf(at.closed_form) - mpmath.atan(mpmath.mpf(1) / 2)) < 1e-35
        assert abs(mpmath.mpf(ah.closed_form) - mpmath.log(mpmath.mpf(3) / 2) / 2) < 1e-35


def test_artanh_closed_form_does_not_cancel_on_a_long_period():
    # B_{3d-1} dwarfs B_{d-1} at d = 743, so (B_{3d-1} + B_{d-1})/(B_{3d-1} - B_{d-1}) rounds to 1.
    rep = telescoping_sum(SQRT_1000009, "artanh")
    assert rep.closed_form == rep.partial_sum == "1.4406346767329472564728624662679743490190995464448e-743"
    assert rep.converged


@pytest.mark.parametrize("source, family, ctx, message", [
    (S8, "millin", PrecisionContext(20, 2), "2 terms did not reach the tolerance 10^-15"),
    # The millin B index doubles per term, so its stream stops after 14 terms.
    (PeriodicSystem(d=2, a=(1, 1), b=(1, 1)), "millin", PrecisionContext(7000, 60),
     "term stream exhausted before reaching tolerance"),
    (S8, "period_reciprocal", PrecisionContext(20, 3),
     "3 terms did not reach the tolerance 10^-15"),
    (8, "pell_y", PrecisionContext(20, 3), "3 terms did not reach the tolerance 10^-15"),
    (SQRT2, "arctan", PrecisionContext(20, 3), "3 terms did not reach the tolerance 10^-15"),
    (SQRT2, "artanh", PrecisionContext(20, 2), "2 terms did not reach the tolerance 10^-15"),
    (8, "pell_x", PrecisionContext(20, 3), "3 terms did not reach the tolerance 10^-15"),
    (8, "pell_y2", PrecisionContext(20, 3), "3 terms did not reach the tolerance 10^-15"),
])
def test_telescoping_sums_exhaust_precision(source, family, ctx, message):
    with pytest.raises(PrecisionExhausted) as exc:
        telescoping_sum(source, family, ctx)
    assert str(exc.value) == message


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [
    lambda ctx: telescoping_sum(SQRT_1000009, "arctan", ctx),
    lambda ctx: telescoping_sum(SQRT_1000009, "artanh", ctx),
    lambda ctx: telescoping_sum(SQRT2, "period_reciprocal", ctx),
    lambda ctx: telescoping_sum(SQRT2, "arctan", ctx),
    lambda ctx: telescoping_sum(8, "pell_y", ctx),
    lambda ctx: telescoping_sum(8, "pell_y2", ctx),
    lambda ctx: zeta_series(S8, "pi_over_6", ctx),
], ids=["arctan-d743", "artanh-d743", "period_reciprocal", "arctan", "pell_y", "pell_y2",
        "pi_over_6"])
def test_sums_read_only_the_terms_they_name(call):
    # A term cap of 10^5 must not list 10^5 values ahead of a sum that needs a few dozen.
    ctx = PrecisionContext(50, 100000)
    assert call(ctx).terms < 100
    assert peak_bytes(lambda: call(ctx)) < 2 ** 20


def test_huge_closed_forms_build_under_the_default_digit_limit():
    # Python refuses str() of an int above 4300 digits by default.  The CLI lifts that
    # limit only while main runs, and a library call must not need it: B_{d-1}^2 of
    # sqrt(100000007), d = 6524, has 6658 digits.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        pytest.skip("this Python has no int -> str digit limit")
    system, old = expand_sqrt(100000007), sys.get_int_max_str_digits()
    set_digits(4300)
    try:
        rep = telescoping_sum(system, "period_reciprocal")
        # |alpha| = 1.1e-3333 there, not the 0.0 that refused it
        zeta = zeta_series(system, "pi_over_6", PrecisionContext(50, 100))
        set_digits(0)
        reduced = reduce(system)
        closed = roots(reduced)[0] / QuadraticNumber(reduced.Bd1 ** 2, 0, reduced.delta)
        sign = "+" if closed.q > 0 else "-"
        expected = f"alpha/B_(d-1)^2 = {closed.p} {sign} {abs(closed.q)}*sqrt({closed.delta})"
    finally:
        set_digits(old)
    assert len(expected) > 4300
    assert rep.closed_symbolic == expected
    assert zeta.terms == 83 and zeta.converged


@st.composite
def quadratic_numbers(draw):
    """p + q*sqrt(delta) with |p|, |q| up to 10^500, often with p near -q*sqrt(delta)."""
    s = draw(st.integers(0, 10 ** 6))
    delta = s * s if draw(st.booleans()) else draw(st.integers(0, 10 ** 12))
    den = draw(st.integers(1, 10 ** 6))
    qn = draw(st.integers(-10 ** 500, 10 ** 500))
    if draw(st.booleans()):  # p*den the integer nearest -q*den*sqrt(delta), give or take a few
        root = math.isqrt(qn * qn * delta)
        pn = -root if qn > 0 else root
        pn += draw(st.integers(-3, 3))
    else:
        pn = draw(st.integers(-10 ** 500, 10 ** 500))
    return QuadraticNumber(Fraction(pn, den), Fraction(qn, den), delta)


@given(quadratic_numbers(), st.integers(20, 200))
@example(QuadraticNumber(-3 * 10 ** 500, 10 ** 500, 9), 50)  # x = 0 exactly
@example(QuadraticNumber(-(10 ** 500 + 1), 10 ** 250, 10 ** 500 + 2), 50)  # x = -5e-501
def test_quadratic_mpf_has_small_relative_error(x, dps):
    value, s = x.mpf(dps), math.isqrt(x.delta)
    if s * s == x.delta and x.p == -x.q * s:
        assert value == 0
        return
    # Summing p and q*sqrt(delta) directly cancels at most the bits of 2*max(|p|, |q*sqrt(delta)|)^2
    # times the squared denominators, since |N(x)| >= 1/den(p)^2 den(q)^2; add those to 3x the precision.
    lost = 2 * sum(n.bit_length() for n in (x.p.numerator, x.p.denominator, x.q.numerator,
                                           x.q.denominator, x.delta)) + 8
    with mpmath.workprec(int(3 * dps * 3.33) + lost):
        exact = mpmath.mpf(x.p.numerator) / x.p.denominator + \
            mpmath.mpf(x.q.numerator) / x.q.denominator * mpmath.sqrt(x.delta)
        assert exact != 0
        assert abs(value - exact) <= mpmath.mpf(10) ** -dps * abs(exact)


def test_arctan_requires_unit_d():
    # S8 has D_2 = -1, so the D_d = 1 hypothesis fails.
    with pytest.raises(HypothesisViolated):
        telescoping_sum(S8, "arctan")
    with pytest.raises(HypothesisViolated):
        telescoping_sum(S8, "artanh")


def test_zeta_kinds_s8():
    # At 50 digits S8 needs 97, 59, 74 and 47 terms: a cap of 60 cuts two kinds off.
    for kind in ZETA_KINDS:
        if kind in ("pi_over_6", "ln3"):
            with pytest.raises(PrecisionExhausted, match="^60 terms did not reach the tolerance"):
                zeta_series(S8, kind, PrecisionContext(50, 60))
        else:
            assert zeta_series(S8, kind, PrecisionContext(50, 60)).converged, kind
        rep = zeta_series(S8, kind, PrecisionContext(50, 150))
        assert rep.converged, kind
        with mpmath.workdps(60):
            zeta = mpmath.mpf(rep.extras["zeta"])
            assert abs(zeta) < mpmath.mpf("0.172")  # |alpha| for S8


def test_zeta_pi6_tolerance_and_compare():
    with mpmath.workdps(60):
        printed = 2 * mpmath.sqrt(6) - 5
    rep = zeta_series(S8, "pi_over_6", PrecisionContext(50, 150), compare_zeta=printed)
    assert rep.converged and rep.terms == 97
    with mpmath.workdps(60):
        assert mpmath.mpf(rep.abs_error) <= mpmath.mpf("1e-45")
        # The same 97 terms summed at the printed root miss the target.
        assert mpmath.mpf(rep.extras["compare_residual"]) > mpmath.mpf("1e-3")
        want = mpmath.sqrt(23) - 2 * mpmath.sqrt(6)  # small root of z^2 + sqrt(96) z + 1
        assert abs(mpmath.mpf(rep.extras["zeta"]) - want) < mpmath.mpf("1e-45")


@given(st.integers(0, 2 ** 32), st.sampled_from(ZETA_KINDS), st.integers(1, 150),
       st.integers(20, 60))
def test_a_zeta_verdict_holds_at_the_tolerance(seed, kind, cap, digits):
    # "converged" means within 10^-(digits-5) of the target, or the call is refused; a sum
    # cut off at its cap once read as converged whenever its error was below 4x its last term.
    system = random_strict_system(random.Random(seed))
    try:
        rep = zeta_series(system, kind, PrecisionContext(digits, cap))
    except ContikitError:
        return
    assert not rep.converged or mpmath.mpf(rep.abs_error) <= mpmath.mpf(10) ** -(digits - 5)


def test_zeta_fib():
    rep = zeta_series(FIB, "pi_over_6", PrecisionContext(30, 200))
    assert rep.converged
    with mpmath.workdps(40):
        want = (mpmath.sqrt(15) - mpmath.sqrt(19)) / 2
        assert abs(mpmath.mpf(rep.extras["zeta"]) - want) < mpmath.mpf("1e-25")


def test_series_report_json(capsys):
    # The CLI writes a report as one record of its fields, under these JSON keys.
    rep = telescoping_sum(S8, "millin")
    assert main(["series", "--sqrt", "8", "--family", "millin", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "family": rep.family, "partial": rep.partial_sum, "closed": rep.closed_form,
        "closed_symbolic": rep.closed_symbolic, "abs_error": rep.abs_error, "terms": rep.terms,
        "converged": rep.converged}


def test_weighted_sums_s8():
    geo = weighted_sum_exact(S8, "geometric", x=1, big_n=2, r=-1)
    assert geo.equal and geo.lhs == 7
    bino = weighted_sum_exact(S8, "binomial", big_n=2)
    assert bino.equal and bino.lhs == 204


def test_weighted_sums_random():
    rng = random.Random(61)
    xs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4)]
    done = 0
    while done < 60:
        system = random_strict_system(rng)
        try:
            geo = weighted_sum_exact(system, "geometric", x=rng.choice(xs),
                                     big_n=rng.randint(1, 6), r=rng.choice([-1, 0, 1]))
        except PoleAtRoot:
            continue
        assert geo.equal
        assert weighted_sum_exact(system, "binomial", big_n=rng.randint(1, 6)).equal
        done += 1


def test_weighted_sum_pole():
    # d=1, a=(2), b=(1): C=1, D=2; alpha, beta are the roots of 2z^2 + z - 1,
    # i.e. 1/2 and -1, and the closed form has poles exactly there.
    system = PeriodicSystem(d=1, a=(2,), b=(1,))
    with pytest.raises(PoleAtRoot):
        weighted_sum_exact(system, "geometric", x=Fraction(1, 2), big_n=3)
    with pytest.raises(PoleAtRoot):
        weighted_sum_exact(system, "geometric", x=-1, big_n=3)


def test_weighted_sums_refuse_r_below_minus_one():
    # Either kind, before any walk; the binomial sum, which does not read r, used to accept it.
    for kind in ("geometric", "binomial"):
        with pytest.raises(UsageError, match="r must be >= -1"):
            weighted_sum_exact(S8, kind, x=1, big_n=2, r=-2)


def test_a_missing_x_or_a_system_family_without_a_system_is_refused():
    # Fraction(None) raised TypeError, and 8.d AttributeError.
    for call, error, message in [
        (lambda: weighted_sum_exact(S8, "geometric"), UsageError, "the geometric sum needs x"),
        (lambda: telescoping_sum(8, "millin"), HypothesisViolated, "millin expects a PeriodicSystem"),
        (lambda: zeta_series(8, "ln2"), HypothesisViolated, "zeta_ln2 expects a PeriodicSystem"),
    ]:
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message


def test_unknown_family_rejected():
    with pytest.raises(UsageError):
        telescoping_sum(S8, "nope")
    with pytest.raises(UsageError):
        zeta_series(S8, "nope")
    assert set(TELESCOPING_FAMILIES) >= {"millin", "pell_y", "arctan", "artanh"}
