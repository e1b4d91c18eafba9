import math

import pytest

from contikit import (
    PerfectSquare,
    UsageError,
    expand_sqrt,
    pell_fundamental,
    pell_solutions,
)
import oracles
from oracles import brute_force_pell


def test_expand_sqrt8():
    system = expand_sqrt(8)
    assert (system.b0, system.b, system.d) == (2, (1, 4), 2)


def test_expand_sqrt2_and_13():
    assert expand_sqrt(2).b == (2,)
    sqrt13 = expand_sqrt(13)
    assert sqrt13.b0 == 3
    assert sqrt13.b == (1, 1, 1, 1, 6)
    assert sqrt13.d == 5


def test_expand_rejects_squares():
    for n in (0, 1, 4, 9, 49, 10000):
        with pytest.raises(PerfectSquare):
            expand_sqrt(n)


def test_a_negative_n_is_a_usage_error_not_a_perfect_square():
    for call in (lambda: expand_sqrt(-5), lambda: pell_solutions(-5, 1)):
        with pytest.raises(UsageError, match=r"^need N >= 2, got -5$"):
            call()


@pytest.mark.parametrize("count", [0, 1.5, True])
def test_pell_solutions_refuses_a_count_that_is_not_a_positive_int(count):
    # 1.5 used to leak islice's own ValueError, and True was taken as 1.
    with pytest.raises(UsageError, match="^count must be "):
        pell_solutions(7, count)


def test_period_ends_with_2a0():
    for n in range(2, 121):
        if math.isqrt(n) ** 2 == n:
            continue
        system = expand_sqrt(n)
        assert system.b[-1] == 2 * system.b0
        assert all(q >= 1 for q in system.b)


def test_expand_sqrt_is_the_convergent_denominator_system():
    from contikit import continuant_pair
    # sqrt(7) = [2; (1, 1, 1, 4)]: b0 = a0, b = the period, every partial numerator 1.
    system = expand_sqrt(7)
    assert (system.a, system.b0, system.b, system.strict) == ((1, 1, 1, 1), 2, (1, 1, 1, 4), True)
    # Convergent A/B must satisfy the Pell identity at index d-1 (even d).
    a, b = continuant_pair(system, system.d - 1)
    assert a * a - 7 * b * b in (1, -1)


def test_fundamental_examples():
    assert (pell_fundamental(13).x, pell_fundamental(13).y) == (649, 180)
    assert (pell_fundamental(8).x, pell_fundamental(8).y) == (3, 1)
    assert (pell_fundamental(2).x, pell_fundamental(2).y) == (3, 2)


def test_fundamental_is_the_continuant_pair_at_the_end_of_the_period():
    # The folded period against the stepwise oracle, at every N <= 5 000: both parities of d.
    for n in range(2, 5001):
        if math.isqrt(n) ** 2 == n:
            continue
        system = expand_sqrt(n)
        d = system.d
        sol = pell_fundamental(n)
        assert (sol.x, sol.y) == oracles.continuant_pair(system, d - 1 if d % 2 == 0 else 2 * d - 1), n


def test_fundamental_vs_brute_force():
    for n in range(2, 51):
        if math.isqrt(n) ** 2 == n:
            continue
        sol = pell_fundamental(n)
        brute = brute_force_pell(n, 10 ** 5)
        assert brute is not None
        assert (sol.x, sol.y) == brute


def test_solutions_satisfy_identity_and_grow():
    for n in (2, 8, 13, 19):
        sols = pell_solutions(n, 6)
        assert len(sols) == 6
        ys = [s.y for s in sols]
        assert ys == sorted(ys) and len(set(ys)) == 6
        for s in sols:
            assert s.x * s.x - n * s.y * s.y == 1


def test_solution_power_structure():
    # (x_k + y_k sqrt(n)) = (x_1 + y_1 sqrt(n))^k
    for n in (8, 13):
        sols = pell_solutions(n, 4)
        x1, y1 = sols[0].x, sols[0].y
        x, y = 1, 0
        for sol in sols:
            x, y = x * x1 + n * y * y1, x * y1 + y * x1
            assert (sol.x, sol.y) == (x, y)
