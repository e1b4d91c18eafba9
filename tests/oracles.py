"""Slow reference implementations the integer core is tested against.

Each one steps the recurrence term by term, the way the package did before
contikit.core: no matrix powers, no reduction shortcuts.  The exception is
mat_pow, the square-and-multiply power the core used before its Lucas ladder,
kept as the oracle that core.power is tested against; b_mod reads B mod p from
it at indices too large to step.  tilings steps nothing: it sums Benjamin, Su and
Quinn's weighted tilings, a definition of a continuant that shares no recurrence
with the core.
"""
from fractions import Fraction
from itertools import combinations

from contikit import PeriodicSystem
from contikit.divisibility import CongruenceCase, classify_case
from contikit.recurrence import ReducedRecurrence


def mat_mul(x, y, m=None):
    (p, q), (r, s) = x
    (e, f), (g, h) = y
    z = ((p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h))
    return z if m is None else tuple(tuple(v % m for v in row) for row in z)


def mat_pow(x, n, m=None):
    """x^n (mod m) by square-and-multiply, n >= 0."""
    result = ((1, 0), (0, 1)) if m is None else ((1 % m, 0), (0, 1 % m))
    for bit in bin(n)[2:]:
        result = mat_mul(result, result, m)
        if bit == "1":
            result = mat_mul(result, x, m)
    return result


def lucas_w(c, d, k):
    """[W_0, ..., W_k] for W_0 = 0, W_1 = 1, W_{j+1} = c W_j + d W_{j-1}, by the linear walk."""
    w = [0, 1]
    while len(w) <= k:
        w.append(c * w[-1] + d * w[-2])
    return w[: k + 1]


def transfer(system: PeriodicSystem, nu: int, lam: int = 0):
    """T_{lam+nu} ... T_{lam+1}, T_k = (b_k a_k; 1 0), multiplied out one matrix at a time."""
    product = ((1, 0), (0, 1))
    for k in range(lam + 1, lam + nu + 1):
        product = mat_mul(((system.coeff_b(k), system.coeff_a(k)), (1, 0)), product)
    return product


def continuant_pair(system: PeriodicSystem, nu: int, lam: int = 0) -> tuple[int, int]:
    """(A_{nu,lam}, B_{nu,lam}) by the linear forward recurrence, nu >= -1."""
    a_prev, a_cur = 1, system.coeff_b(lam)  # A_{-1}, A_0
    b_prev, b_cur = 0, 1                    # B_{-1}, B_0
    if nu == -1:
        return a_prev, b_prev
    for k in range(1, nu + 1):
        bk = system.coeff_b(lam + k)
        ak = system.coeff_a(lam + k)
        a_prev, a_cur = a_cur, bk * a_cur + ak * a_prev
        b_prev, b_cur = b_cur, bk * b_cur + ak * b_prev
    return a_cur, b_cur


def tilings(system: PeriodicSystem, nu: int, lam: int = 0) -> int:
    """B_{nu,lam} as Benjamin, Su and Quinn count it ("Counting on continued fractions",
    Math. Mag. 73, 2000): the sum over the tilings of cells lam+1 .. lam+nu by squares and
    dominoes of the product of b_k for each square and a_k for each domino, k the cell where
    the tile ends.  The tilings are the compositions of nu into 1s and 2s: the places of the
    dominoes among the nu - j tiles, for each count j of dominoes.  nu = -1 has none, so 0."""
    total = 0
    for j in range(nu // 2 + 1):
        tiles = nu - j
        for dominoes in map(set, combinations(range(tiles), j)):
            weight, cell = 1, lam
            for t in range(tiles):
                cell += 2 if t in dominoes else 1
                weight *= system.coeff_a(cell) if t in dominoes else system.coeff_b(cell)
            total += weight
    return total


def convergent(system: PeriodicSystem, nu: int, lam: int = 0) -> Fraction:
    """Depth-nu truncation of the continued fraction, bottom-up in rationals:
    b_{lam+nu}, then b_{lam+k} + a_{lam+k+1}/value down to k = 0.  Raises
    ZeroDivisionError wherever an inner tail is 0."""
    value = Fraction(system.coeff_b(lam + nu))
    for k in range(nu - 1, -1, -1):
        value = system.coeff_b(lam + k) + Fraction(system.coeff_a(lam + k + 1)) / value
    return value


def b_values(system: PeriodicSystem, nu_max: int, lam: int = 0, m: int | None = None) -> list[int]:
    """[B_{-1,lam}, ..., B_{nu_max,lam}] by the linear recurrence, each reduced mod m
    if m is given (step by step, so that long walks stay small)."""
    seq = [0, 1]
    for k in range(1, nu_max + 1):
        x = system.coeff_b(lam + k) * seq[-1] + system.coeff_a(lam + k) * seq[-2]
        seq.append(x if m is None else x % m)
    seq = seq[: nu_max + 2]
    return seq if m is None else [x % m for x in seq]


def backward_sequence(system: PeriodicSystem, down_to: int) -> dict[int, Fraction]:
    """B_nu for nu in [down_to, 0] by running the recurrence backwards.

    The periodic coefficient lookup is extended to nu <= 0 via the mod-d
    rule; used as an independent oracle for binet_negative.
    """
    values: dict[int, Fraction] = {-1: Fraction(0), 0: Fraction(1)}
    for target in range(-2, down_to - 1, -1):
        nu = target + 2  # B_{nu-2} = (B_nu - b_nu B_{nu-1}) / a_nu
        b_nu = system.b[(nu - 1) % system.d]
        a_nu = system.coeff_a(nu)
        values[target] = (values[nu] - b_nu * values[target + 1]) / a_nu
    return values


def reduce_checked(system: PeriodicSystem, verify_up_to: int = 60) -> tuple[int, int]:
    """(C_d, D_d) as C_d = B_{2d-1}/B_{d-1} and D_d = (-1)^{d-1} a_1...a_d,
    asserting the reduced recurrence on the first verify_up_to + 2 terms."""
    d = system.d
    seq = b_values(system, 2 * d + verify_up_to)
    B = lambda nu: seq[nu + 1]
    cd, rem = divmod(B(2 * d - 1), B(d - 1))
    assert rem == 0
    assert cd == B(d) + system.coeff_a(1) * continuant_pair(system, d - 2, 1)[1]
    dd = (-1) ** (d - 1)
    for x in system.a:
        dd *= x
    for nu in range(-1, verify_up_to + 1):
        assert B(nu + 2 * d) == cd * B(nu + d) + dd * B(nu)
    return cd, dd


def lucas_residue(system: PeriodicSystem, k: int, m: int, cd: int, dd: int) -> int:
    """B_{kd-1} mod m, k >= 1, by the reduced stride-d recurrence."""
    out = [0, continuant_pair(system, system.d - 1)[1] % m]  # B_{-1}, B_{d-1}
    for _ in range(2, k + 1):
        out.append((cd * out[-1] + dd * out[-2]) % m)
    return out[k]


def pisano_period(system: PeriodicSystem, p: int, limit: int) -> int | None:
    """Least period of B mod p by the two-stage scan the package used to run:
    the least phase-aligned period P <= limit (2d matching values), then every
    shift up to P checked against P + 1 values.  None if no P <= limit."""
    d = system.d
    seq = [0, 1]  # B_{-1}, B_0 mod p
    for k in range(1, 2 * limit + 4 * d + 1):
        seq.append((system.coeff_b(k) * seq[-1] + system.coeff_a(k) * seq[-2]) % p)
    aligned = (c for c in range(d, limit + 1, d) if all(seq[i] == seq[i + c] for i in range(2 * d)))
    P = next(aligned, None)
    if P is None:
        return None
    return next(pi for pi in range(1, P + 1) if all(seq[i + pi] == seq[i] for i in range(P + 1)))


def b_mod(system: PeriodicSystem, nu: int, p: int) -> int:
    """B_nu mod p, nu >= -1: square-and-multiply on the period matrix T_d ... T_1,
    with T_k = (b_k a_k; 1 0), then the leftover steps one matrix at a time."""
    steps = [((system.coeff_b(k), system.coeff_a(k)), (1, 0)) for k in range(1, system.d + 1)]
    period = ((1, 0), (0, 1))
    for t in steps:
        period = mat_mul(t, period)
    q, r = divmod(nu + 1, system.d)
    x = mat_pow(period, q, p)
    for t in steps[:r]:
        x = mat_mul(t, x, p)
    return x[1][0]


def is_pisano_period(system: PeriodicSystem, p: int, k: int) -> bool:
    """Whether B_{nu+k} = B_nu (mod p) for nu = -1 .. 2d - 2; both sides obey the
    reduced stride-d recurrence from nu = -1, so these 2d values decide every nu."""
    return all(b_mod(system, k + nu, p) == b_mod(system, nu, p) for nu in range(-1, 2 * system.d - 1))


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division up to sqrt(n)."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def law_of_repetition(system: PeriodicSystem, p: int, n: int, m: int, f: int) -> tuple[int, int]:
    """(e, v_p(B_{p^f m n d - 1}/B_{d-1})) from the exact quotients over Z, with
    e = v_p(B_{nd-1}/B_{d-1}); ValueError if a quotient is 0 or p does not divide
    the first one.  This is the package's law_of_repetition_check before it read
    the big quotient from the Lucas ladder mod p^(e+f+1)."""
    d = system.d

    def valuation(x):
        if x == 0:
            raise ValueError("valuation of 0")
        v = 0
        while x % p == 0:
            x, v = x // p, v + 1
        return v

    base = continuant_pair(system, d - 1)[1]
    q, rem = divmod(continuant_pair(system, n * d - 1)[1], base)
    assert rem == 0
    e = valuation(q)
    if e == 0:
        raise ValueError("hypothesis unmet")
    big_q, rem = divmod(continuant_pair(system, p ** f * m * n * d - 1)[1], base)
    assert rem == 0
    return e, valuation(big_q)


def congruence_suite(system: PeriodicSystem, p: int, r_range=None) -> CongruenceCase:
    """The package's congruence_suite as it was before core.residues: the same
    clause table, read from a walk that lists every residue mod p up to index
    (max(p + 1, 6) + 2) d + max(r_range), with C_d and D_d from the period matrix
    over Z (B_{d-1} = 0 allowed).  p must be prime and r_range >= -1."""
    d = system.d
    reduced = ReducedRecurrence.of(transfer(system, d))
    tag = classify_case(reduced, p)[0]
    case = CongruenceCase(p, tag)
    r_list = list(range(-1, 2 * d + 1) if r_range is None else r_range)
    n_hi = max(p + 1, 6)
    seq = b_values(system, (n_hi + 1) * d + max(r_list, default=-1) + 1, m=p)
    B = lambda nu: seq[nu + 1]
    C, D, delta = reduced.Cd, reduced.Dd, reduced.delta

    def check(label, lhs, rhs):
        case.verified.append((label, (lhs - rhs) % p == 0))

    if tag == "p|C,p|D":
        for r in r_list:
            for n in range(2, 6):
                check(f"B_({n}d+{r}) = 0", B(n * d + r), 0)
        return case
    if p == 2:
        return case
    if tag == "p|C,p~D":
        inv2 = pow(2, -1, p)
        for r in r_list:
            for n in range(2, 7):
                if n % 2 == 0:
                    rhs = pow(-inv2, n - 2, p) * D * pow(delta, (n - 2) // 2, p) * B(r)
                else:
                    rhs = pow(-inv2, n - 1, p) * pow(delta, (n - 1) // 2, p) * B(d + r)
                check(f"B_({n}d+{r})", B(n * d + r), rhs)
        check("B_(2d-1) = 0", B(2 * d - 1), 0)
    elif tag == "p~C,p|D":
        for r in r_list:
            check(f"B_(pd+{r}) = B_(d+{r})", B(p * d + r), B(d + r))
            for n in range(2, 6):
                check(f"B_({n}d+{r}) = C^{n - 1}*B_(d+{r})",
                      B(n * d + r), pow(C, n - 1, p) * B(d + r))
            if r >= d - 1:
                check(f"B_((p-1)d+{r}) = B_{r}", B((p - 1) * d + r), B(r))
    elif tag == "p|Delta":
        for r in r_list:
            check(f"2B_(pd+{r}) = C*B_{r}", 2 * B(p * d + r), C * B(r))
        check("B_(pd-1) = 0", B(p * d - 1), 0)
    elif tag == "QR":
        for r in r_list:
            check(f"B_((p+1)d+{r})", B((p + 1) * d + r), C * B(d + r) + D * B(r))
            check(f"B_((p-1)d+{r}) = B_{r}", B((p - 1) * d + r), B(r))
        check("B_((p+1)d-1) = C*B_(d-1)", B((p + 1) * d - 1), C * B(d - 1))
        check("B_((p-1)d-1) = 0", B((p - 1) * d - 1), 0)
    else:  # nonQR
        for r in r_list:
            check(f"B_((p+1)d+{r}) = -D*B_{r}", B((p + 1) * d + r), -D * B(r))
            check(f"B_(pd+{r}) = C*B_{r} - B_(d+{r})", B(p * d + r), C * B(r) - B(d + r))
        check("B_((p+1)d-1) = 0", B((p + 1) * d - 1), 0)
        check("B_(pd-1) = -B_(d-1)", B(p * d - 1), -B(d - 1))
    return case
