import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest

import contikit.continuants as continuants
from contikit import (
    FIB,
    S8,
    DivisionByZero,
    IdentityReport,
    IndexOutOfRange,
    InvalidSystem,
    PeriodicSystem,
    UsageError,
    continuant_determinant,
    continuant_pair,
    convergent,
    identity_failures,
    verify_identity,
)
from contikit.core import walk
from contikit.suite import random_strict_system

S8_B = [1, 1, 5, 6, 29, 35, 169, 204, 985]
S8_A = [2, 3, 14, 17, 82, 99, 478, 577]


def test_s8_b_values():
    assert walk(S8, 8)[1:] == S8_B


def test_s8_a_values():
    assert [continuant_pair(S8, nu)[0] for nu in range(8)] == S8_A


def test_fib_is_fibonacci():
    seq = walk(FIB, 12)[1:]
    fib = [1, 1]
    while len(fib) < len(seq):
        fib.append(fib[-1] + fib[-2])
    assert seq == fib  # B_nu = F_(nu+1)


def test_base_cases():
    assert continuant_pair(S8, -1) == (1, 0)
    assert continuant_pair(S8, 0) == (2, 1)  # A_0 = b_0
    with pytest.raises(IndexOutOfRange):
        continuant_pair(S8, -2)


def test_b_is_shifted_a():
    # B_(nu,lam) = A_(nu-1, lam+1) computed with b_0 replaced by b_(lam+1).
    rng = random.Random(7)
    for _ in range(30):
        system = random_strict_system(rng)
        lam = rng.randint(0, 6)
        nu = rng.randint(0, 12)
        shifted = PeriodicSystem(
            d=system.d,
            a=tuple(system.coeff_a(lam + 1 + i) for i in range(1, system.d + 1)),
            b=tuple(system.coeff_b(lam + 1 + i) for i in range(1, system.d + 1)),
            b0=system.coeff_b(lam + 1),
        )
        assert continuant_pair(system, nu, lam)[1] == continuant_pair(shifted, nu - 1)[0]


def test_lambda_periodicity():
    rng = random.Random(11)
    for _ in range(30):
        system = random_strict_system(rng)
        nu = rng.randint(-1, 10)
        lam = rng.randint(1, 5)
        assert continuant_pair(system, nu, lam) == continuant_pair(system, nu, lam + system.d)
        # At lam = 0 only the B side is periodic: A_(0,0) = b_0 is special.
        assert continuant_pair(system, nu, 0)[1] == continuant_pair(system, nu, system.d)[1]


def test_determinant_oracle():
    assert continuant_determinant(S8, 5) == (99, 35)
    rng = random.Random(5)
    for _ in range(25):
        system = random_strict_system(rng)
        nu = rng.randint(0, 9)
        assert continuant_determinant(system, nu) == continuant_pair(system, nu)


def test_convergent_matches_quotient():
    rng = random.Random(13)
    for _ in range(25):
        system = random_strict_system(rng)
        nu = rng.randint(0, 8)
        a, b = continuant_pair(system, nu)
        assert convergent(system, nu) == Fraction(a, b)


def test_convergent_names_a_zero_denominator():
    # b_1 = 0 makes B_1 = 0; A_1/B_1 was a bare ZeroDivisionError from Fraction.
    system = PeriodicSystem(d=2, a=(1, 1), b=(0, 3), strict=False)
    with pytest.raises(DivisionByZero, match=r"B_\{1,0\} = 0"):
        convergent(system, 1)
    assert convergent(system, 2) == Fraction(*continuant_pair(system, 2))


def test_convergents_approach_sqrt8():
    values = [float(convergent(S8, nu)) for nu in range(3, 12)]
    errors = [abs(v - math.sqrt(8)) for v in values]
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    assert errors[-1] < 1e-8


def test_telescoping_example():
    # Consecutive sqrt(8) convergents: 17/6 - 82/29 has continuant numerator 1.
    rep = verify_identity(S8, "telescoping", (5, 3))
    assert rep.equal
    assert Fraction(17, 6) - Fraction(82, 29) == Fraction(1, 6 * 29)


def test_identity_reports_cross_check():
    rng = random.Random(17)
    for _ in range(50):
        system = random_strict_system(rng)
        lam, nu, mu = (rng.randint(0, 6) for _ in range(3))
        assert verify_identity(system, "cassini_A", (lam, nu, mu)).equal
        assert verify_identity(system, "cassini_B", (lam, nu, mu)).equal
        assert verify_identity(system, "catalan", (lam, nu)).equal
        if lam >= nu:
            assert verify_identity(system, "docagne", (lam, nu)).equal
            if (lam - nu) % system.d == 0:
                assert verify_identity(system, "telescoping", (lam, nu)).equal
        if nu >= 1:
            assert verify_identity(system, "index_changing", (lam, nu)).equal


def test_unknown_identity_rejected():
    with pytest.raises(UsageError):
        verify_identity(S8, "nope", (0, 1))


def test_identity_report_is_a_named_tuple():
    rep = verify_identity(S8, "catalan", (2, 1))
    assert IdentityReport._fields == ("identity", "params", "lhs", "rhs")
    assert rep == IdentityReport("catalan", (2, 1), rep.lhs, rep.rhs)
    assert rep == ("catalan", (2, 1), rep.lhs, rep.rhs)  # a plain tuple with the same values
    assert rep.lhs == rep.rhs == (S8_A[3], S8_B[3])  # (A_3, B_3)
    assert rep.equal and not rep._replace(rhs=(0, 0)).equal
    assert hash(rep) == hash(tuple(rep))
    assert identity_failures(S8, [("catalan", [(2, 1)])]) == []
    with pytest.raises(AttributeError):
        rep.lhs = (0, 0)


def test_verify_identity_reads_continuant_pair():
    # verify_identity takes every value from continuant_pair, so patching it in
    # tests/test_core.py::oracle_report makes a real differential.
    with mock.patch.object(continuants, "continuant_pair", wraps=continuant_pair) as pair:
        for identity in ("cassini_A", "cassini_B"):
            assert verify_identity(S8, identity, (1, 2, 3)).equal
        calls = pair.call_count
        for identity in ("catalan", "docagne", "index_changing", "telescoping"):
            assert verify_identity(S8, identity, (4, 2)).equal
    assert calls > 0 and pair.call_count > calls
    with mock.patch.object(continuants, "continuant_pair", side_effect=RuntimeError("oracle")):
        with pytest.raises(RuntimeError):
            verify_identity(S8, "telescoping", (4, 2))


def test_system_validation():
    # The checks run in this order, so each case reports the first rule it breaks.
    for kwargs, message in [
        (dict(d=0, a=(0,), b=(-1, 2)), "period d must be >= 1, got 0"),
        (dict(d=2, a=(0,), b=(1, 2)), "need 2 coefficients, got 1 a's and 2 b's"),
        (dict(d=2, a=(-1, 0), b=(1, 2)), "partial numerators a_i must be nonzero"),
        (dict(d=1, a=(-1,), b=(1,)), "strict mode requires a_i >= 1 and b_i >= 1"),
        (dict(d=2, a=(1, 1), b=(1, 0)), "strict mode requires a_i >= 1 and b_i >= 1"),
        (dict(d=1, a=(1.7,), b=(1,)), "system entries must be integers, got 1.7"),
        (dict(d=1, a=(1,), b=(True,)), "system entries must be integers, got True"),
        (dict(d=2.0, a=(1, 1), b=(1, 4)), "system entries must be integers, got 2.0"),
        (dict(d="2", a=(1, 1), b=(1, 4)), "system entries must be integers, got '2'"),
        (dict(d=True, a=(1,), b=(1,)), "system entries must be integers, got True"),
        (dict(d=2, a=(1, 1), b=(1, 4), b0="2"), "system entries must be integers, got '2'"),
        (dict(d=2, a=(1, 1), b=(1, 4), b0=2.0), "system entries must be integers, got 2.0"),
    ]:
        with pytest.raises(InvalidSystem) as exc:
            PeriodicSystem(**kwargs)
        assert str(exc.value) == message
    PeriodicSystem(d=1, a=(-1,), b=(1,), strict=False)
    system = PeriodicSystem(d=2, a=[1, 2], b=iter(("3", 4)))
    assert (system.a, system.b) == ((1, 2), (3, 4))


BIG = type("Big", (int,), {})(7)


@pytest.mark.parametrize("b, stored", [
    ((BIG, 1), (BIG, 1)),  # an int subclass is kept as the object it is
    (("12", 1), (12, 1)),
    ((1, "1" * 5000), (1, (10 ** 5000 - 1) // 9)),  # past the int <-> str digit limit
    (iter((3, 4)), (3, 4)),  # read once: a second read would find it empty
    ((1, True), "system entries must be integers, got True"),
    ((1.5, 1), "system entries must be integers, got 1.5"),
])
def test_system_entries_keep_the_reading_of_each_entry(b, stored):
    # A period of exact ints is stored as given; any other entry is read as _integer reads it.
    if isinstance(stored, str):
        with pytest.raises(InvalidSystem) as exc:
            PeriodicSystem(d=2, a=(1, 1), b=b)
        assert str(exc.value) == stored
        return
    system = PeriodicSystem(d=2, a=(1, 1), b=b)
    assert system.b == stored and list(map(type, system.b)) == list(map(type, stored))
    if stored[0] is BIG:
        assert system.b[0] is BIG


def test_system_json_roundtrip_big_ints():
    big = 2 ** 80 + 7
    system = PeriodicSystem(d=2, a=(big, 1), b=(1, big), b0=big, strict=True)
    again = PeriodicSystem.from_json(system.to_json())
    assert again == system
    small = PeriodicSystem.from_json(S8.to_json())
    assert small == S8


ONES = (10 ** 5000 - 1) // 9  # 5 000 ones


@pytest.mark.parametrize("read", [
    lambda: PeriodicSystem.from_json(PeriodicSystem(1, (1,), (ONES,)).to_json()),
    lambda: PeriodicSystem.from_json('{"d": 1, "a": [1], "b": ["%s"]}' % ("1" * 5000)),
    lambda: PeriodicSystem.from_json('{"d": 1, "a": [1], "b": [%s]}' % ("1" * 5000)),
])
def test_system_json_roundtrip_past_the_int_str_digit_limit(read):
    # str() and int() of an int past 4300 digits raise a bare ValueError under Python's default limit.
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        pytest.skip("this Python has no int <-> str digit limit")
    old = sys.get_int_max_str_digits()
    set_digits(4300)
    try:
        assert read() == PeriodicSystem(1, (1,), (ONES,))
    finally:
        set_digits(old)


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "a system must be a JSON object, got list"),
    ({"a": [1, 1], "b": [1, 4]}, "system is missing d"),
    ({"d": 2}, "system is missing a, b"),
    ({"d": 2, "a": "11", "b": [1, 4]}, "system entries a and b must be lists"),
    ({"d": 2, "a": [1.5, 1], "b": [1, 4]}, "system entries must be integers, got 1.5"),
    ({"d": 2, "a": [1, 1], "b": [1, "x"]}, "system entries must be integers, got 'x'"),
    ({"d": 2, "a": [1, 1], "b": [1, 4], "b0": None}, "system entries must be integers, got None"),
    ({"d": True, "a": [1], "b": [1]}, "system entries must be integers, got True"),
    ({"d": 1, "a": [-1], "b": [1], "strict": "false"}, "system entry strict must be true or false, got 'false'"),
    ({"d": 1, "a": [-1], "b": [1], "strict": "no"}, "system entry strict must be true or false, got 'no'"),
    ({"d": 1, "a": [1], "b": [1], "strict": 0}, "system entry strict must be true or false, got 0"),
    ({"d": 2, "a": [1, 1], "b": [1, "4.0"]}, "system entries must be integers, got '4.0'"),
    ({"d": 2, "a": [1, 1], "b": [1, "4e0"]}, "system entries must be integers, got '4e0'"),
])
def test_system_from_dict_rejects_malformed(doc, message):
    with pytest.raises(InvalidSystem) as exc:
        PeriodicSystem.from_dict(doc)
    assert str(exc.value) == message
