"""The integer core: the only module that steps the recurrence.

One step of X_k = b_k X_{k-1} + a_k X_{k-2} is the transfer matrix
T_k = (b_k a_k; 1 0), which maps the column (X_{k-1}, X_{k-2}) to
(X_k, X_{k-1}).  At shift lam, P = T_{lam+nu} ... T_{lam+1} has first column
(B_{nu,lam}, B_{nu-1,lam}) and sends (b_lam, 1) to (A_{nu,lam}, A_{nu-1,lam}).
Coefficients repeat with period d, so for nu = qd + r, P is the r-step product
times M^q, where M = T_{lam+d} ... T_{lam+1} is the period matrix; its trace
and negated determinant are C_d and D_d.

Two primitives, over Z or over Z/m: a forward walk that returns the prefix of
B values, and square-and-multiply powers of 2x2 integer matrices.
"""
from __future__ import annotations

from .systems import PeriodicSystem

Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Matrix = ((1, 0), (0, 1))

# Single-index queries shorter than this many steps walk the whole way; longer
# ones jump whole periods with a matrix power.  Measured on random systems with
# coefficients 1..9 and d = 1..4 (Python 3.11), the walk costs 0.6x the power
# at 8 steps and 1.4-2x at 32; the two cross between 16 and 20 steps for every
# d.  Batches of small queries, such as the identity sweeps of `contikit
# paper`, read a table from `walk` instead (continuants.verify_identities).
WALK_BELOW = 20


def walk(system: PeriodicSystem, nu_max: int, lam: int = 0, m: int | None = None) -> list[int]:
    """[B_{-1,lam}, B_{0,lam}, ..., B_{nu_max,lam}], each reduced mod m if m is given."""
    a, b, d = system.a, system.b, system.d
    seq = [0, 1 if m is None else 1 % m]
    prev, cur = seq
    for i in range(lam, lam + nu_max):
        k = i % d
        prev, cur = cur, b[k] * cur + a[k] * prev
        if m is not None:
            cur %= m
        seq.append(cur)
    return seq[: nu_max + 2]


def mat_mul(x: Matrix, y: Matrix, m: int | None = None) -> Matrix:
    (p, q), (r, s) = x
    (e, f), (g, h) = y
    z = ((p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h))
    return z if m is None else _mod(z, m)


def mat_pow(x: Matrix, n: int, m: int | None = None) -> Matrix:
    """x^n (mod m) by square-and-multiply, n >= 0."""
    result = IDENTITY if m is None else _mod(IDENTITY, m)
    for bit in bin(n)[2:]:
        result = mat_mul(result, result, m)
        if bit == "1":
            result = mat_mul(result, x, m)
    return result


def _mod(x: Matrix, m: int) -> Matrix:
    return (x[0][0] % m, x[0][1] % m), (x[1][0] % m, x[1][1] % m)


def _steps(system: PeriodicSystem, lam: int, count: int, start: Matrix) -> Matrix:
    """T_{lam+count} ... T_{lam+1} * start over Z."""
    a, b, d = system.a, system.b, system.d
    (p, q), (r, s) = start
    for i in range(lam, lam + count):
        k = i % d
        bk, ak = b[k], a[k]
        p, q, r, s = bk * p + ak * r, bk * q + ak * s, p, q
    return (p, q), (r, s)


def transfer(system: PeriodicSystem, nu: int, lam: int = 0) -> Matrix:
    """T_{lam+nu} ... T_{lam+1} for nu >= 0."""
    if nu < WALK_BELOW:
        return _steps(system, lam, nu, IDENTITY)
    q, r = divmod(nu, system.d)
    return _steps(system, lam, r, mat_pow(_steps(system, lam, system.d, IDENTITY), q))


def b_at(system: PeriodicSystem, nu: int) -> int:
    """B_nu for nu >= -1."""
    return transfer(system, nu + 1)[1][0]
