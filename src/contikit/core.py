"""The integer core: the only module that steps the recurrence.

One step of X_k = b_k X_{k-1} + a_k X_{k-2} is the transfer matrix
T_k = (b_k a_k; 1 0), which maps the column (X_{k-1}, X_{k-2}) to
(X_k, X_{k-1}).  At shift lam, P = T_{lam+nu} ... T_{lam+1} has first column
(B_{nu,lam}, B_{nu-1,lam}) and sends (b_lam, 1) to (A_{nu,lam}, A_{nu-1,lam}).
Coefficients repeat with period d, so for nu = qd + r, P is the r-step product
times M^q, where M = T_{lam+d} ... T_{lam+1} is the period matrix; its trace
and negated determinant are C_d and D_d.

Two primitives, over Z or over Z/m: a forward walk that returns the prefix of
B values, and a Lucas doubling ladder with three big products per bit (Joye and
Quisquater, 1996).  By Cayley-Hamilton, x^k = W_k x + (W_{k+1} - c W_k) I for a
2x2 matrix x with c = tr x, d = -det x and W_0 = 0, W_1 = 1, W_{j+1} = c W_j + d W_{j-1}.
"""
from __future__ import annotations

from .systems import PeriodicSystem

Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Matrix = ((1, 0), (0, 1))

# Single-index queries shorter than this many steps walk the whole way; longer
# ones jump whole periods with the ladder.  Measured on random systems with
# coefficients 1..9 and d = 1..4 (Python 3.11), the walk costs 0.7-0.8x the
# ladder at 8 steps and 2.2-2.7x at 32; they cross at 11-14 steps (16-20 against
# square-and-multiply).  Batches of small queries, such as the identity sweeps
# of `contikit paper`, read a table from `walk` instead (continuants.verify_identities).
WALK_BELOW = 12


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


def lucas(c: int, d: int, k: int, m: int | None = None) -> tuple[int, int]:
    """(W_k, W_{k+1}) (mod m) for W_0 = 0, W_1 = 1, W_{j+1} = c W_j + d W_{j-1}, k >= 0."""
    w, w1 = 0, 1
    for bit in bin(k)[2:]:
        w, w1 = w * (2 * w1 - c * w), w1 * w1 + d * (w * w)
        if bit == "1":
            w, w1 = w1, c * w1 + d * w
        if m is not None:
            w, w1 = w % m, w1 % m
    return w, w1


def power(x: Matrix, n: int, m: int | None = None) -> Matrix:
    """x^n for n >= 0 (an entrywise congruent matrix if m is given), read from the
    Lucas sequence of tr x and -det x (taken mod m)."""
    (p, q), (r, s) = x
    c = p + s
    w, w1 = lucas(c, q * r - p * s, n, m)
    e = w1 - c * w
    return (w * p + e, w * q), (w * r, w * s + e)


def steps(system: PeriodicSystem, lam: int, count: int, start: Matrix) -> Matrix:
    """T_{lam+count} ... T_{lam+1} * start over Z, one transfer step at a time."""
    a, b, d = system.a, system.b, system.d
    (p, q), (r, s) = start
    for i in range(lam, lam + count):
        k = i % d
        bk, ak = b[k], a[k]
        p, q, r, s = bk * p + ak * r, bk * q + ak * s, p, q
    return (p, q), (r, s)


def transfer(system: PeriodicSystem, nu: int, lam: int = 0, m: int | None = None) -> Matrix:
    """T_{lam+nu} ... T_{lam+1} for nu >= 0, each entry reduced mod m if m is given."""
    if nu < WALK_BELOW:
        x = steps(system, lam, nu, IDENTITY)
    else:
        q, r = divmod(nu, system.d)
        x = steps(system, lam, r, power(steps(system, lam, system.d, IDENTITY), q, m))
    return x if m is None else tuple(tuple(v % m for v in row) for row in x)


def b_at(system: PeriodicSystem, nu: int, m: int | None = None) -> int:
    """B_nu (mod m if given) for nu >= -1."""
    return transfer(system, nu + 1, m=m)[1][0]
