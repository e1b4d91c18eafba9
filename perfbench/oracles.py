"""Arithmetic the benchmark owns: input generation helpers and output checks.

Nothing here imports contikit.  Inputs must be identical on every commit the
benchmark compares, so they may not depend on the package's own functions,
and a check must not share code with what it checks.

Conventions match the package: B_{-1} = 0, B_0 = 1, A_{-1} = 1, A_0 = b_0 and
X_k = b_k X_{k-1} + a_k X_{k-2}, so [X_k, X_{k-1}] = [X_{k-1}, X_{k-2}] P_k
with P_k = (b_k 1; a_k 0).  A system is a tuple (d, a, b, b0).
"""
from __future__ import annotations

import math
from fractions import Fraction

S8 = (2, (1, 1), (1, 4), 2)


def mat_mul(x, y, m=None):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    out = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    if m is not None:
        out = tuple(tuple(v % m for v in row) for row in out)
    return out


def mat_pow(x, e, m=None):
    out = ((1, 0), (0, 1))
    while e:
        if e & 1:
            out = mat_mul(out, x, m)
        x = mat_mul(x, x, m)
        e >>= 1
    return out


def _step(system, k):
    """P_k under the periodic rule (b_0 only seeds A, so it never appears)."""
    d, a, b, _ = system
    return ((b[(k - 1) % d], 1), (a[(k - 1) % d], 0))


def _run(system, lo, hi, m=None):
    """P_lo P_(lo+1) ... P_hi."""
    out = ((1, 0), (0, 1))
    for k in range(lo, hi + 1):
        out = mat_mul(out, _step(system, k), m)
    return out


def period_matrix(system, m=None):
    return _run(system, 1, system[0], m)


def continuant(system, nu, m=None):
    """(A_nu, B_nu) for nu >= -1, by powers of the period matrix."""
    if nu == -1:
        return (1 % m, 0) if m else (1, 0)
    d = system[0]
    q, r = divmod(nu, d)
    prod = mat_mul(mat_pow(period_matrix(system, m), q, m), _run(system, 1, r, m), m)
    b0 = system[3]
    a_val = b0 * prod[0][0] + prod[1][0]
    b_val = prod[0][0]
    if m is not None:
        return a_val % m, b_val % m
    return a_val, b_val


def b_negative(system, n, r):
    """B_{-nd+r} (n >= 0, r >= -1) exactly, by inverting a power of the
    period matrix; the package computes the same value by a closed form."""
    d, a, _, _ = system
    s = r + d  # start one period up so that [B_s, B_(s-1)] is forward
    w = _run(system, s - d + 1, s)
    wn = mat_pow(w, n + 1)
    det = 1
    for x in a:
        det *= -x
    det **= n + 1
    (p, q), (u, v) = wn
    inv = ((Fraction(v, det), Fraction(-q, det)), (Fraction(-u, det), Fraction(p, det)))
    top, below = continuant(system, s)[1], continuant(system, s - 1)[1]
    return top * inv[0][0] + below * inv[1][0]


def reduced(system):
    """(C_d, D_d, Delta): trace and minus determinant of the period matrix."""
    (p, q), (u, v) = period_matrix(system)
    c, dd = p + v, -(p * v - q * u)
    return c, dd, c * c + 4 * dd


def bits_per_index(system):
    """log2 of the dominant root per index: how fast continuants grow.
    None if |alpha| = |beta|."""
    c, dd, delta = reduced(system)
    if delta <= 0 or c == 0:
        return None
    return math.log2((abs(c) + math.sqrt(delta)) / 2) / system[0]


def sqrt_system(n):
    """(d, partial quotients) of the period of sqrt(n), n not a square."""
    a0 = math.isqrt(n)
    m, q, ak, period = 0, 1, a0, []
    while ak != 2 * a0 or not period:
        m = ak * q - m
        q = (n - m * m) // q
        ak = (a0 + m) // q
        period.append(ak)
    return len(period), tuple(period)


def is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n):
    out, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


def mult_order(x, p):
    """Order of x in (Z/p)^*, p prime."""
    x %= p
    order = p - 1
    for q in _prime_factors(p - 1):
        while order % q == 0 and pow(x, order // q, p) == 1:
            order //= q
    return order


def pisano_bound(system, p):
    """The divisor bound on the period of B mod p (odd p, p not dividing D_d)."""
    c, dd, delta = reduced(system)
    d = system[0]
    if delta % p == 0:
        return p * d * mult_order(c * pow(2, -1, p), p)
    if pow(delta % p, (p - 1) // 2, p) == 1:
        return (p - 1) * d
    return (p + 1) * d * mult_order(-dd, p)
