"""Acceptance gate: thirteen catalogued criteria, one printed line each.

Each criterion is evaluated by the corresponding deterministic suite check
(the same code the CLI `paper` verb runs) with a fixed per-criterion seed so
tests stay order-independent.  Tolerances live inside the checks: exact
integer equality where stated, 1e-10 for the few-term partial sums, 1e-20
at 50 digits for the zeta series.
"""
import random
from collections import Counter

from contikit import continuants, core, suite

CRITERIA = (
    (1, "sqrt(8) B-sequence by three computation paths", suite.check_sqrt8_sequence, False),
    (2, "generating-function numerators", suite.check_generating_function, True),
    (3, "identity sweeps, 100 random systems, params <= 8", suite.check_identity_sweeps, True),
    (4, "Millin analogue, 4 terms within 1e-10", suite.check_millin, False),
    (5, "Pell sums for N=8 within 1e-10 at <= 12 terms", suite.check_pell_sums, False),
    (6, "arctan/artanh sums for sqrt(2) within 1e-10 at <= 15 terms",
     suite.check_arctan_artanh, False),
    (7, "zeta pi/6 series within 1e-20; printed root residual > 1e-3",
     suite.check_zeta_series, False),
    (8, "exact geometric/binomial sums (7 and 204) plus 100 random cases",
     suite.check_exact_sums, True),
    (9, "prime congruences: catalogued mod 3/7 plus primes <= 50 randomized",
     suite.check_congruences, True),
    (10, "Lucas pseudoprime: 35 probable_prime; primes <= 200 sound",
     suite.check_pseudoprime, True),
    (11, "Pisano periods divide corollary bounds (8 and 12 for sqrt(8))",
     suite.check_pisano, True),
    (12, "law of repetition exact powers (Fibonacci p=5, sqrt(8) p=3)",
     suite.check_law_of_repetition, False),
    (13, "Pell fundamental solutions minimal for non-square N <= 100",
     suite.check_pell_fundamental, False),
)


def _run(number, description, check, needs_rng):
    row = check(random.Random(20240801)) if needs_rng else check()
    status = "PASS" if row.passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {description}: {row.detail}")
    assert row.passed, f"criterion {number}: {description} -- {row.detail}"


def test_criterion_01():
    _run(*CRITERIA[0])


def test_criterion_02():
    _run(*CRITERIA[1])


def test_criterion_03():
    _run(*CRITERIA[2])


def test_criterion_04():
    _run(*CRITERIA[3])


def test_criterion_05():
    _run(*CRITERIA[4])


def test_criterion_06():
    _run(*CRITERIA[5])


def test_criterion_07():
    _run(*CRITERIA[6])


def test_criterion_08():
    _run(*CRITERIA[7])


def test_criterion_09():
    _run(*CRITERIA[8])


def test_criterion_10():
    _run(*CRITERIA[9])


def test_criterion_11():
    _run(*CRITERIA[10])


def test_criterion_12():
    _run(*CRITERIA[11])


def test_criterion_13():
    _run(*CRITERIA[12])


def test_sqrt8_row_reads_a_third_path_on_the_lucas_ladder(monkeypatch):
    # The raw walk and the reduced recurrence take no ladder; P_r M^q reads M^q on the
    # ladder for each of B_1 .. B_8 (B_0 takes no whole period).
    ladders, lucas = [], core.lucas
    monkeypatch.setattr(core, "lucas", lambda *args: ladders.append(args) or lucas(*args))
    row = suite.check_sqrt8_sequence()
    assert row.passed and len(ladders) == 8


def nested_loop_instances(d):
    """The identity instances the sweep used to build for each system, one nested loop."""
    params = range(suite.IDENTITY_PMAX + 1)
    instances = []
    for lam in params:
        for nu in params:
            for ident in ("catalan", "docagne", "index_changing", "telescoping"):
                if ident in ("docagne", "telescoping") and lam < nu:
                    continue
                if ident == "telescoping" and (lam - nu) % d != 0:
                    continue
                if ident == "index_changing" and nu < 1:
                    continue
                instances.append((ident, (lam, nu)))
            for mu in params:
                for ident in ("cassini_A", "cassini_B"):
                    instances.append((ident, (lam, nu, mu)))
    return instances


def test_identity_sweep_checks_the_nested_loop_instances(monkeypatch):
    calls = []
    failures = continuants.identity_failures

    def record(system, batches):
        calls.append((system, [(identity, params) for identity, batch in batches for params in batch]))
        return failures(system, batches)

    monkeypatch.setattr(continuants, "identity_failures", record)
    row = suite.check_identity_sweeps(random.Random(20240801))
    rng = random.Random(20240801)
    assert [system for system, _ in calls] == [suite.random_strict_system(rng)
                                               for _ in range(suite.IDENTITY_SYSTEMS)]
    for system, instances in calls:
        assert Counter(instances) == Counter(nested_loop_instances(system.d))
    assert row.detail == f"{sum(len(instances) for _, instances in calls)} identity instances, 0 failures"


def test_identity_sweep_builds_no_report_for_a_passing_instance(monkeypatch):
    built = []

    class CountedReport(continuants.IdentityReport):
        def __new__(cls, *fields):
            built.append(fields[:2])
            return super().__new__(cls, *fields)

    monkeypatch.setattr(continuants, "IdentityReport", CountedReport)
    rng = random.Random(20240801)
    suite.check_generating_function(rng)  # the draws run_full_suite makes before the sweep
    row = suite.check_identity_sweeps(rng)
    assert built == []
    assert row.passed and row.detail == "168132 identity instances, 0 failures"
    continuants.verify_identity(suite.S8, "catalan", (2, 1))  # the counter does count
    assert built == [("catalan", (2, 1))]
