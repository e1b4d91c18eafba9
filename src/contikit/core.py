"""The integer core: the only module that steps the recurrence.

One step of X_k = b_k X_{k-1} + a_k X_{k-2} is the transfer matrix
T_k = (b_k a_k; 1 0), which maps the column (X_{k-1}, X_{k-2}) to
(X_k, X_{k-1}).  At shift lam, P = T_{lam+nu} ... T_{lam+1} has first column
(B_{nu,lam}, B_{nu-1,lam}) and sends (b_lam, 1) to (A_{nu,lam}, A_{nu-1,lam}).
Coefficients repeat with period d, so for nu = qd + r, P = P_r M^q for the period
matrix M = T_{lam+d} ... T_{lam+1} (trace C_d, negated determinant D_d) and the
r-step prefix P_r, which one walk of d steps passes on its way to M (`period`).

Four primitives: a forward walk that returns the prefix of B values over Z or mod m,
a stride that yields a second-order recurrence one value at a time, a Lucas
doubling ladder with three big products per bit (Joye and Quisquater, 1996), over Z
or Z/m, and a fold that takes the product over a palindromic run with every a_i = 1 from
its first half: it is its own transpose (the reversal law of continuants; Muir, Knuth
TAOCP 4.5.3), and Perron proves the period of sqrt(N) is such a run up to its last term.
By Cayley-Hamilton, x^k = W_k x + (W_{k+1} - c W_k) I for a 2x2 matrix x
with c = tr x, d = -det x and W_0 = 0, W_1 = 1, W_{j+1} = c W_j + d W_{j-1}.
`steps` multiplies transfer matrices over Z or mod m, so M, and with it C_d and D_d, comes
from one walk in either ring; `residues`, the one reader of B mod m at any index, walks
the first two periods mod m and reads the rest on the ladder of (C_d, D_d) mod m.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from .errors import HypothesisViolated, IndexOutOfRange, text
from .systems import PeriodicSystem

Matrix = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Matrix = ((1, 0), (0, 1))


def walk(system: PeriodicSystem, nu_max: int, lam: int = 0, m: int | None = None) -> list[int]:
    """[B_{-1,lam}, ..., B_{nu_max,lam}] for nu_max >= -1, reduced mod m at every step if m is given."""
    if nu_max < -1:
        raise IndexOutOfRange(f"nu_max must be >= -1, got {text(nu_max)}")
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


def stride(c: int, d: int, x: int, y: int) -> Iterator[int]:
    """x, y, c y + d x, ...: the sequence X_{j+1} = c X_j + d X_{j-1} from X_0 = x, X_1 = y."""
    while True:
        yield x
        x, y = y, c * y + d * x


def lucas(c: int, d: int, k: int, m: int | None = None) -> tuple[int, int]:
    """(W_k, W_{k+1}) (mod m) for W_0 = 0, W_1 = 1, W_{j+1} = c W_j + d W_{j-1}, k >= 0 only."""
    if k < 0:
        raise IndexOutOfRange(f"the Lucas ladder reads W_k for k >= 0, got {text(k)}")
    if m is not None:
        c, d = c % m, d % m
    w, w1 = 0, 1
    for bit in bin(k)[2:]:
        w, w1 = w * (2 * w1 - c * w), w1 * w1 + d * (w * w)
        if bit == "1":
            w, w1 = w1, c * w1 + d * w
        if m is not None:
            w, w1 = w % m, w1 % m
    return w, w1


def power(x: Matrix, n: int) -> Matrix:
    """x^n for n >= 0, read from the Lucas sequence of tr x and -det x."""
    (p, q), (r, s) = x
    c = p + s
    w, w1 = lucas(c, q * r - p * s, n)
    e = w1 - c * w
    return (w * p + e, w * q), (w * r, w * s + e)


def steps(system: PeriodicSystem, lam: int, count: int, start: Matrix, m: int | None = None) -> Matrix:
    """T_{lam+count} ... T_{lam+1} * start for count >= 0, one transfer step at a time, over Z
    or, if m is given, mod m with every entry in [0, m)."""
    if count < 0:
        raise IndexOutOfRange(f"a walk takes count >= 0 steps, got {text(count)}")
    a, b, d = system.a, system.b, system.d
    (p, q), (r, s) = start
    if m is not None:
        p, q, r, s = p % m, q % m, r % m, s % m
    for i in range(lam, lam + count):
        k = i % d
        bk, ak = b[k], a[k]
        p, q, r, s = bk * p + ak * r, bk * q + ak * s, p, q
        if m is not None:
            p, q = p % m, q % m
    return (p, q), (r, s)


def mul(x: Matrix, y: Matrix) -> Matrix:
    """The 2x2 product x y."""
    (p, q), (r, s) = x
    (e, f), (g, h) = y
    return (p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h)


def fold(system: PeriodicSystem, k: int) -> Matrix:
    """T_k ... T_1 over Z for 0 <= k <= d, when b_1..b_k reads the same both ways and every
    a_i on it is 1.  Each T_i is then symmetric and T_i = T_{k+1-i}, so the product is
    R^T T_{h+1} R (odd k) or R^T R (even k) for R = T_h ... T_1, h = k // 2: ceil(k/2) steps
    and one product."""
    if not 0 <= k <= system.d:
        raise IndexOutOfRange(f"a fold reads a run inside one period, 0 <= k <= d, got k = {text(k)}")
    run = system.b[:k]
    if run != run[::-1] or system.a[:k] != (1,) * k:
        raise HypothesisViolated(f"a fold needs a palindromic run b_1..b_{text(k)} with every a_i = 1")
    h = k // 2
    half = steps(system, 0, h, IDENTITY)
    (p, q), (r, s) = half
    return mul(((p, r), (q, s)), steps(system, h, k - 2 * h, half))


def period(system: PeriodicSystem, nu: int, lam: int = 0) -> tuple[Matrix, Matrix]:
    """(T_{lam+nu} ... T_{lam+1}, M) for nu = qd + r >= 0: P_r M^q, one walk of d steps."""
    q, r = divmod(nu, system.d)
    prefix = steps(system, lam, r, IDENTITY)
    m = steps(system, lam + r, system.d - r, prefix)
    return (mul(prefix, power(m, q)) if q else prefix), m


def residues(system: PeriodicSystem, c: int, dd: int, m: int) -> Callable[[int], int]:
    """nu -> B_nu mod m for nu >= -1, given C_d and D_d mod m (`recurrence.reduce(system, m)`).

    Every shift of B obeys the reduced recurrence from nu = -1, so with nu + 1 = nd + k,
    0 <= k < d, B_nu = W_n B_{d+k-1} + D_d W_{n-1} B_{k-1} (Cayley-Hamilton on M^n).  The
    reader keeps B_{-1} .. B_{2d-2}, the values it reads, and one ladder pair mod m per period
    count n it has read: O(d) memory, O(log n) products.
    """
    d = system.d
    head = walk(system, 2 * d - 2, 0, m)  # B_{-1} .. B_{2d-2}
    pairs: dict[int, tuple[int, int]] = {}

    def read(nu: int) -> int:
        n, k = divmod(nu + 1, d)
        if n < 2:
            if n < 0:
                raise IndexOutOfRange(f"B_nu is read for nu >= -1, got {text(nu)}")
            return head[nu + 1]
        if n not in pairs:
            w, w1 = lucas(c, dd, n - 1, m)
            pairs[n] = w1, dd * w % m
        x, y = pairs[n]
        return (x * head[d + k] + y * head[k]) % m

    return read
