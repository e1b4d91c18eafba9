"""The four workloads: seeded inputs, the ops that call contikit, and checks.

A workload is a list of ops.  Each op names a public entry point by module and
function, so that a traced batch reaches the wrapped binding, plus its
arguments.  CLI ops call ``cli.main`` with an argv list.  Inputs come only
from the seed and from ``oracles``, never from contikit functions, so the
same seed gives the same inputs on every commit.  Ops run in the order they
are made, the same in every batch, so that how memory freed by one op is
reused by the next, and with it the peak RSS, does not vary with the seed.

Each check gets the ops and their results and returns, per op, None or the
reason the result is wrong.  Checks run after the timed batches and use an
independent path: ``oracles`` (period-matrix powers), sympy, or mpmath at
higher precision.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import oracles

WHY = {
    "paper": "the headline user path: contikit paper, 96% of it a million tiny continuant_pair calls",
    "big-index": ("few huge calls: continuant_pair, binet, binet_negative and pell_solutions "
                  "on a log ladder of indices up to 3.2e4, plus fixed binet calls with |D_d| > 1"),
    "prime-scan": "the modular layer and the CLI range scan, whose O(n) lists set peak memory",
    "series-digits": "every series family and zeta kind at about 1000 digits: mpmath, quadratic and pell",
}

# pisano_period builds a list twice as long as pisano_bound; a draw above this
# cap is dropped and counted.  ROADMAP items 3 (logarithmic modular layer) and
# 5 (no silent O(p) memory) should let a later benchmark remove the cap.
PISANO_BOUND_CAP = 10 ** 6


@dataclass(frozen=True)
class Op:
    kind: str
    module: str
    func: str
    args: tuple

    @property
    def is_cli(self) -> bool:
        return self.module == "cli"


def _cli(kind, *argv) -> Op:
    return Op(kind, "cli", "main", ([str(x) for x in argv],))


# How far, as a share of its slice's width, a seeded size may move from the
# slice's middle either way.
LADDER_JITTER = 0.05


def ladder(rng, count):
    """Positions in [0, 1), one per equal slice, each at its slice's middle
    moved by a seeded amount of at most LADDER_JITTER of the slice's width.
    Sizes then form nearly the same ladder on every seed, while what is
    computed at each size (the exact index, system or prime) varies with it,
    so a percentile over a batch falls on the same rung whatever the seed."""
    return [(i + 0.5 + LADDER_JITTER * (2 * rng.random() - 1)) / count for i in range(count)]


def log_strata(rng, count, lo, hi):
    """One value per equal slice of [log lo, log hi], by ``ladder``: the batch
    covers the whole range on every seed."""
    return [lo * (hi / lo) ** x for x in ladder(rng, count)]


def random_system(rng, d):
    return (d, tuple(rng.randint(1, 9) for _ in range(d)),
            tuple(rng.randint(1, 9) for _ in range(d)), rng.randint(1, 9))


def _growth_matched():
    """Every b with S8's period 2 and a = (1, 1) whose continuants grow by bits
    per index within 5% of S8's."""
    target = oracles.bits_per_index(oracles.S8)
    out = []
    for b in itertools.product(range(1, 10), repeat=2):
        growth = oracles.bits_per_index((2, (1, 1), b, 1))
        if growth and abs(growth / target - 1) <= 0.05:
            out.append(b)
    return out


GROWTH_MATCHED = _growth_matched()


def growth_matched_system(rng):
    """A random system like S8 in period, |D_d| = 1 and growth, so that the
    index alone sets a query's size and draws do not swing a batch's time.
    binet's cost at a fixed index falls as 1/d, and with |D_d| > 1 its
    Fractions carry powers of D_d: one such draw among the largest queries
    moved a batch by 40%.  That slow path is measured by BINET_SLOW_PATH."""
    return 2, (1, 1), rng.choice(GROWTH_MATCHED), rng.randint(1, 9)


# binet and binet_negative on systems with |D_d| in {2, 3} and d in {1, 3, 4},
# the same in every batch on every seed.  Each n is chosen so that one call
# costs about as much as the largest S8 queries (0.2 s on a 2-core x86 VM).
BINET_SLOW_PATH = (
    ((1, (2,), (3,), 1), 3200),
    ((3, (1, 1, 3), (1, 2, 1), 1), 2400),
    ((4, (1, 2, 1, 1), (2, 1, 1, 3), 1), 2800),
)


def pell_step(n):
    """Index distance between consecutive Pell solutions of sqrt(n)."""
    d = oracles.sqrt_system(n)[0]
    return d if d % 2 == 0 else 2 * d


def _next_prime(n):
    while not oracles.is_prime(n):
        n += 1
    return n


# ---------------------------------------------------------------- paper

def make_paper(rng, seed, smoke, kit):
    return [_cli("paper", "paper", "--seed", seed, "--json")], {"paper_seed": seed}


def check_paper(ops, results, kit):
    out = []
    for code, text in results:
        rows = json.loads(text)["rows"]
        failed = [r["name"] for r in rows if not r["passed"]]
        out.append(None if code == 0 and len(rows) == 13 and not failed
                   else f"exit {code}, {len(rows)} rows, failed {failed}")
    return out


# ---------------------------------------------------------------- big-index

def make_big_index(rng, seed, smoke, kit):
    per_kind, scale = (4, 50) if smoke else (40, 1)
    system_of = lambda i: oracles.S8 if i % 2 == 0 else growth_matched_system(rng)
    ops = []
    for i, nu in enumerate(log_strata(rng, per_kind, 1, 32000 / scale)):
        ops.append(Op("continuant_pair", "continuants", "continuant_pair",
                      (kit.system(system_of(i)), int(nu))))
    for i, nu in enumerate(log_strata(rng, per_kind, 1, 16000 / scale)):
        system = system_of(i)
        n, r = divmod(int(nu) + 1, system[0])
        ops.append(Op("binet", "recurrence", "binet", (kit.system(system), n, r - 1)))
    for i, nu in enumerate(log_strata(rng, per_kind, 1, 16000 / scale)):
        system = system_of(i)
        n = max(1, int(nu) // system[0])
        ops.append(Op("binet_negative", "recurrence", "binet_negative",
                      (kit.system(system), n, rng.randint(-1, system[0] - 1))))
    # count * step(N) is the index of the last solution, drawn like the
    # others; N is drawn among N <= 1e5 whose step is within 15% of
    # index / count (within 2 for small targets: steps are even).
    for nu in log_strata(rng, per_kind, 2, 12000 / scale):
        count = math.ceil(nu / 800)
        target = nu / count
        while True:
            n = rng.randint(2, 10 ** 5)
            if math.isqrt(n) ** 2 != n and abs(pell_step(n) - target) <= max(2, 0.15 * target):
                break
        ops.append(Op("pell_solutions", "pell", "pell_solutions", (n, count)))
    for system, n in BINET_SLOW_PATH:
        n //= scale
        ops.append(Op("binet", "recurrence", "binet", (kit.system(system), n, 0)))
        ops.append(Op("binet_negative", "recurrence", "binet_negative", (kit.system(system), n, -1)))
    return ops, {}


def check_big_index(ops, results, kit):
    from sympy.solvers.diophantine.diophantine import diop_DN

    out = []
    for op, res in zip(ops, results):
        if op.kind == "pell_solutions":
            n, count = op.args
            x1, y1 = min(diop_DN(n, 1))
            x, y, bad = x1, y1, None
            for k, sol in enumerate(res, start=1):
                if (sol.x, sol.y) != (x, y) or sol.x * sol.x - n * sol.y * sol.y != 1:
                    bad = f"solution {k} of N={n} is wrong"
                    break
                x, y = x1 * x + n * y1 * y, x1 * y + y1 * x
            out.append(bad or (None if len(res) == count else f"{len(res)} of {count} solutions"))
            continue
        system = kit.plain(op.args[0])
        if op.kind == "continuant_pair":
            nu = op.args[1]
            bad = res != oracles.continuant(system, nu)
            if not bad and nu <= 2000:
                n, r = divmod(nu + 1, system[0])
                bad = kit.binet(op.args[0], n, r - 1) != res[1]
            if not bad and nu <= 40:
                bad = kit.continuant_determinant(op.args[0], nu) != res
        elif op.kind == "binet":
            _, n, r = op.args
            bad = res != oracles.continuant(system, n * system[0] + r)[1]
        else:
            _, n, r = op.args
            bad = res != oracles.b_negative(system, n, r)
        out.append(f"{op.kind}{op.args[1:]} disagrees with the oracle" if bad else None)
    return out


# ---------------------------------------------------------------- prime-scan

def make_prime_scan(rng, seed, smoke, kit):
    windows, width, per_kind, n_pisano = (2, 12, 2, 2) if smoke else (12, 24, 15, 6)
    # Lucas tests are the large ops: log-spaced from 1e6 to 3e6, each lowered
    # by a seeded 0-2%.  They are 13% of the ops, so op_p90_ms falls between
    # two of them rather than on a boundary with the smaller kinds.
    n_lucas, lucas_hi = (2, 2e5) if smoke else (7, 3e6)
    lucas_sizes = [lucas_hi / 3 * 3 ** (j / (n_lucas - 1)) for j in range(n_lucas)]
    ops = []
    for x in ladder(rng, windows):
        lo = int(10 ** 4 + x * (9 * 10 ** 4 - width))
        ops.append(_cli("pseudoprime-range", "pseudoprime", "--sqrt", 8,
                        "--range", f"{lo}:{lo + width - 1}", "--json", "--jobs", 1))

    def primes():
        return [_next_prime(int(10 ** 4 + x * 9 * 10 ** 4)) for x in ladder(rng, per_kind)]

    for i, p in enumerate(primes()):
        ops.append(Op("rank_of_apparition", "divisibility", "rank_of_apparition",
                      (kit.system(random_system(rng, 1 + i % 4)), p)))
    for i, p in enumerate(primes()):
        ops.append(Op("congruence_suite", "divisibility", "congruence_suite",
                      (kit.system(random_system(rng, 1 + i % 4)), p)))
    # pisano_period's time grows with pisano_bound, so the bounds are drawn
    # near a log ladder of [lo, hi] like the other sizes; a seed's rare large
    # bound would otherwise land among the Lucas tests and move op_p90_ms.
    # 4e5 is the largest bound of the common case, (p - 1) * d with d <= 4
    # and p near 1e5.
    pisano_lo, pisano_hi = (1e4, 4e4) if smoke else (2e4, 4e5)
    dropped = 0
    for target in log_strata(rng, n_pisano, pisano_lo, pisano_hi):
        while True:
            system = random_system(rng, rng.randint(1, 4))
            p = _next_prime(rng.randint(10 ** 4, 10 ** 5))
            bound = oracles.pisano_bound(system, p)
            dropped += bound > PISANO_BOUND_CAP
            if target / 1.1 <= bound <= target * 1.1:
                break
        ops.append(Op("pisano_period", "divisibility", "pisano_period", (kit.system(system), p)))
    for j, size in enumerate(lucas_sizes):
        system = random_system(rng, 1 + j % 4)
        c, dd, delta = oracles.reduced(system)
        n = int(size * (1 - 0.02 * rng.random())) | 1
        while math.gcd(n, c * dd * delta) > 1:
            n += 2
        ops.append(Op("lucas_pseudoprime_test", "divisibility", "lucas_pseudoprime_test",
                      (kit.system(system), n)))
    return ops, {"pisano_bound_cap": PISANO_BOUND_CAP, "pisano_draws_dropped_by_cap": dropped}


def _lucas_verdict(system, n):
    """(epsilon, verdict) of the Lucas-style test, from B_{(n-eps)d-1} mod n."""
    from sympy import jacobi_symbol

    c, dd, delta = oracles.reduced(system)
    if n % 2 == 0 or math.gcd(n, c * dd * delta) > 1:
        return 0, "inapplicable"
    eps = jacobi_symbol(delta % n, n)
    residue = oracles.continuant(system, (n - eps) * system[0] - 1, n)[1]
    return eps, "probable_prime" if residue == 0 else "composite_proven"


def check_prime_scan(ops, results, kit):
    from sympy import isprime, legendre_symbol

    out = []
    for op, res in zip(ops, results):
        bad = None
        if op.is_cli:
            code, text = res
            lo, hi = (int(x) for x in op.args[0][4].split(":"))
            odd = [n for n in range(max(lo, 3), hi + 1) if n % 2]
            lines = [json.loads(line) for line in text.splitlines()]
            if code != 0 or len(lines) != len(odd):
                bad = f"exit {code}, {len(lines)} lines for {len(odd)} odd candidates"
            for n, line in zip(odd, lines):
                eps, verdict = _lucas_verdict(oracles.S8, n)
                if (int(line["n"]), line["epsilon"], line["verdict"]) != (n, eps, verdict) or (
                        isprime(n) and verdict == "composite_proven"):
                    bad = f"n={n}: got {line}"
        elif op.kind == "lucas_pseudoprime_test":
            system, n = kit.plain(op.args[0]), op.args[1]
            eps, verdict = _lucas_verdict(system, n)
            if (res.epsilon, res.verdict) != (eps, verdict) or (isprime(n) and verdict != "probable_prime"):
                bad = f"n={n}: {res.verdict}, expected {verdict}"
        else:
            system, p = kit.plain(op.args[0]), op.args[1]
            d = system[0]
            b_mod = lambda nu: oracles.continuant(system, nu, p)[1]
            if op.kind == "pisano_period":
                if oracles.pisano_bound(system, p) % res or any(
                        b_mod(nu + res) != b_mod(nu) for nu in range(-1, 2 * d + 1)):
                    bad = f"pi({p}) = {res} is not a period dividing the bound"
            elif op.kind == "rank_of_apparition":
                omega = res.omega
                if not res.clause_holds or omega is None or b_mod(omega * d - 1) or any(
                        b_mod(omega // q * d - 1) == 0 for q in range(2, omega + 1)
                        if omega % q == 0 and isprime(q)):
                    bad = f"omega({p}) = {omega} is not the rank of apparition"
            else:
                c, dd, delta = oracles.reduced(system)
                want = None if (c * dd * delta) % p == 0 else (
                    "QR" if legendre_symbol(delta % p, p) == 1 else "nonQR")
                if not res.all_pass or (want is not None and res.case_tag != want):
                    bad = f"p={p}: case {res.case_tag}, all_pass={res.all_pass}"
        out.append(bad)
    return out


# ---------------------------------------------------------------- series-digits

# (family, N of the sqrt(N) system, terms needed per digit at 1000 digits).
# S8 is the sqrt(8) system; arctan/artanh need D_d = 1, so they use sqrt(5).
SERIES = (
    ("millin", 8, 0.0), ("period_reciprocal", 8, 0.652), ("pell_y", 8, 0.652),
    ("pell_x", 8, 0.652), ("pell_y2", 8, 0.652), ("arctan", 5, 0.795),
    ("artanh", 5, 0.795), ("pi_over_6", 8, 2.245), ("pi_over_8", 8, 1.351),
    ("ln3", 8, 1.703), ("ln2", 8, 1.066),
)


def make_series_digits(rng, seed, smoke, kit):
    base = 60 if smoke else 1000
    ops, caps = [], {}
    for family, n, per_digit in SERIES:
        digits = base + rng.randint(-base // 40, base // 40)
        cap = max(20, math.ceil(1.1 * per_digit * digits) + 10)
        caps[family] = cap
        ops.append(_cli(family, "series", "--sqrt", n, "--family", family,
                        "--digits", digits, "--terms", cap, "--json"))
    return ops, {"term_caps": caps}


def _closed_form(family, n, mp):
    """The family's closed form for the sqrt(n) system, from first principles."""
    d, period = oracles.sqrt_system(n)
    system = (d, (1,) * d, period, math.isqrt(n))
    c, dd, delta = oracles.reduced(system)
    B = lambda nu: oracles.continuant(system, nu)[1]
    sd = mp.sqrt(delta)
    if family in ("millin", "period_reciprocal"):
        beta, alpha = (-c - sd) / (2 * dd), (-c + sd) / (2 * dd)
        return 1 / (period[0] * beta) if family == "millin" else alpha / B(d - 1) ** 2
    if family.startswith("pell_"):
        x1, y1 = oracles.continuant(system, pell_step(n) - 1)
        r = mp.sqrt(x1 * x1 - 1)
        return {"pell_y": (x1 - r) / y1 ** 2, "pell_x": (x1 - r) / (x1 * r),
                "pell_y2": mp.mpf(1) / y1 ** 3}[family]
    if family == "arctan":
        return mp.atan(mp.mpf(B(d - 1)) / B(2 * d - 1))
    if family == "artanh":
        return mp.log(mp.mpf(B(3 * d - 1) + B(d - 1)) / (B(3 * d - 1) - B(d - 1))) / 2
    return {"pi_over_6": mp.pi / 6, "pi_over_8": mp.pi / 8,
            "ln3": mp.log(3) / 2, "ln2": mp.log(2) / 2}[family] * B(d - 1) / sd


def check_series_digits(ops, results, kit):
    import mpmath

    out = []
    for op, (code, text) in zip(ops, results):
        argv = op.args[0]
        n, digits = int(argv[2]), int(argv[6])
        rep = json.loads(text)
        with mpmath.workdps(digits + 20):
            want = _closed_form(op.kind, n, mpmath)
            tol = mpmath.mpf(10) ** -(digits - 5) * max(1, abs(want))
            closed_err = abs(mpmath.mpf(rep["closed"]) - want)
            partial_err = abs(mpmath.mpf(rep["partial"]) - want)
        ok = code == 0 and rep["converged"] and closed_err <= tol and partial_err <= 10 * tol
        out.append(None if ok else
                   f"{op.kind}: exit {code}, converged {rep['converged']}, closed error "
                   f"{mpmath.nstr(closed_err, 3)}, partial error {mpmath.nstr(partial_err, 3)}")
    return out


WORKLOADS = {
    "paper": (make_paper, check_paper),
    "big-index": (make_big_index, check_big_index),
    "prime-scan": (make_prime_scan, check_prime_scan),
    "series-digits": (make_series_digits, check_series_digits),
}
