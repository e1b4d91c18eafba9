"""Known answers from the literature for d = 1 (Fibonacci) and for sqrt(N).

Each table is pinned as printed in the literature (OEIS numbers are citations only) and
recomputed two ways: by contikit, and by a brute force written here that uses no contikit
code.  So an index or convention slip shared by the package and its oracles still fails.
"""
import math
from itertools import islice

from contikit import FIB, expand_sqrt, pell_fundamental, pisano, pseudoprime_scan, rank_of_apparition

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
PISANO = [8, 20, 16, 10, 28, 36, 18, 48, 14, 30, 76, 40, 88, 32]  # A001175
APPARITION = [4, 5, 8, 10, 7, 9, 18, 24, 14, 30, 19, 20, 44, 16]  # A001177
# A003285: the period of the continued fraction of sqrt(N), non-square N <= 24.
SQRT_PERIODS = {2: 1, 3: 2, 5: 1, 6: 2, 7: 4, 8: 2, 10: 1, 11: 2, 12: 2, 13: 5, 14: 4, 15: 2,
                17: 1, 18: 2, 19: 6, 20: 2, 21: 6, 22: 6, 23: 4, 24: 2}
# A081264: odd composite n below 30 000 with n | F_{n - (5|n)}.
FIB_PSEUDOPRIMES = [323, 377, 1891, 3827, 4181, 5777, 6601, 6721, 8149, 10877, 11663, 13201, 13981,
                    15251, 17119, 17711, 18407, 19043, 23407, 25877, 27323]


def fibonacci_mod(p):
    """F_0, F_1, ... mod p, one plain step at a time."""
    f, g = 0, 1
    while True:
        yield f
        f, g = g, (f + g) % p


def composite(n):
    return any(n % q == 0 for q in range(2, math.isqrt(n) + 1))


def test_fibonacci_pisano_periods():
    # FIB's B_nu is F_{nu+1}, so its period mod p is the Pisano period of F.
    def brute(p):
        f, g, k = 1, 1, 1  # (F_k, F_{k+1})
        while (f, g) != (0, 1):
            f, g, k = g, (f + g) % p, k + 1
        return k

    assert [brute(p) for p in PRIMES] == PISANO
    assert [pisano(FIB, p)[0] for p in PRIMES] == PISANO


def test_fibonacci_ranks_of_apparition():
    # The rank of p is the least k >= 1 with p | F_k = B_{k-1}.
    brute = lambda p: next(k for k, f in enumerate(fibonacci_mod(p)) if k and f == 0)
    assert [brute(p) for p in PRIMES] == APPARITION
    assert [rank_of_apparition(FIB, p).omega for p in PRIMES] == APPARITION


def test_sqrt_period_lengths():
    def brute(n):
        # The textbook recurrence m' = d a - m, d' = (N - m'^2)/d, a' = (a0 + m')//d' ends at a = 2 a0.
        a0 = math.isqrt(n)
        m, d, a, length = 0, 1, a0, 0
        while a != 2 * a0:
            m = d * a - m
            d = (n - m * m) // d
            a = (a0 + m) // d
            length += 1
        return length

    squares = {k * k for k in range(1, 5)}
    table = {n: brute(n) for n in range(2, 25) if n not in squares}
    assert table == SQRT_PERIODS
    assert {n: expand_sqrt(n).d for n in SQRT_PERIODS} == SQRT_PERIODS


def test_pell_61():
    # Walk the convergents h/k of sqrt(61) until h^2 - 61 k^2 = 1: the first one that works is minimal.
    a0 = math.isqrt(61)
    m, d, a = 0, 1, a0
    h, h1, k, k1 = a0, 1, 1, 0
    while h * h - 61 * k * k != 1:
        m = d * a - m
        d = (61 - m * m) // d
        a = (a0 + m) // d
        h, h1, k, k1 = a * h + h1, h, a * k + k1, k
    assert (h, k) == (1766319049, 226153980)
    sol = pell_fundamental(61)
    assert (sol.x, sol.y) == (h, k)


def test_fibonacci_pseudoprimes_below_30000():
    # Every listed n divides F_{n - (5|n)}, by a plain loop mod n; (5|n) = (n|5) by reciprocity.
    for n in FIB_PSEUDOPRIMES:
        eps = {1: 1, 4: 1, 2: -1, 3: -1}[n % 5]
        assert composite(n)
        assert next(islice(fibonacci_mod(n), n - eps, None)) == 0
    scan = pseudoprime_scan(FIB, range(3, 30001, 2))
    passed = [v.n for v in scan if v.verdict == "probable_prime" and composite(v.n)]
    assert passed == FIB_PSEUDOPRIMES
