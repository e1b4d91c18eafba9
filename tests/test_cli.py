import ast
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import mpmath
import pytest

import contikit
from contikit import CongruenceCase, HypothesisViolated, IdentityReport, PeriodicSystem, S8, SeriesReport
from contikit import cli, continuant_pair, divisibility, errors, recurrence, series, suite
from contikit.cli import main
from contikit.quadratic import text

# sha256 of `contikit paper` stdout at the default seed 20240801 and 50 digits.
PAPER_TEXT_SHA256 = "684fd09d3dd6a784ab0adfa0f91dc06bc5a12e8398db8d3407b7e5a04d29c1b6"
PAPER_JSON_SHA256 = "cdf7ddec9c0e024750b4d11796c1ec6a87945ab0ffb9976316a5acbc39af32f2"
# sha256 of `contikit pseudoprime --sqrt 8 --range 3:301` stdout, text and --json.
RANGE_TEXT_SHA256 = "74f908b4a4dc28b6780793b36742588eafe4069067587524ce7005786cbf0079"
RANGE_JSON_SHA256 = "6c4192f3e3d28fa10b7870f0f9c730845eb983a3730e6b8591f8d542378872cb"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_text(capsys):
    code, out, _ = run(capsys, "expand", "--n", "8")
    assert code == 0
    assert out.strip() == "sqrt(8) = [2; (1,4)] period d=2"


def test_expand_json_roundtrip(capsys):
    code, out, _ = run(capsys, "expand", "--n", "13", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["a0"] == "3"
    assert doc["period"] == ["1", "1", "1", "1", "6"]
    assert json.loads(json.dumps(doc)) == doc


def test_expand_perfect_square_exit2(capsys):
    code, _, err = run(capsys, "expand", "--n", "9")
    assert code == 2
    assert "PerfectSquare" in err


def test_pell_example(capsys):
    code, out, _ = run(capsys, "pell", "--n", "13", "--count", "1")
    assert code == 0
    assert "x=649" in out and "y=180" in out


def test_pell_json(capsys):
    code, out, _ = run(capsys, "pell", "--n", "8", "--count", "3", "--json")
    sols = json.loads(out)
    assert code == 0
    assert [(s["x"], s["y"]) for s in sols] == [("3", "1"), ("17", "6"), ("99", "35")]


def test_reduce_inline_system(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "2", "--a", "1,1", "--b", "1,4",
                       "--b0", "2", "--json")
    assert code == 0
    assert json.loads(out) == {"C_d": "6", "D_d": "-1", "Delta": "32"}


def test_reduce_system_file(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(S8.to_json())
    code, out, _ = run(capsys, "reduce", "--system", str(path))
    assert code == 0
    assert "C_d = 6" in out


@pytest.mark.parametrize("doc, message", [
    ('{"a": [1, 1], "b": [1, 4]}', "system is missing d"),
    ("[1, 2]", "a system must be a JSON object, got list"),
    ('{"d": 2,', "not a JSON document: Expecting property name enclosed in double quotes: "
                 "line 1 column 9 (char 8)"),
], ids=["missing-d", "not-an-object", "not-json"])
def test_malformed_system_file_exit2(tmp_path, capsys, doc, message):
    path = tmp_path / "system.json"
    path.write_text(doc)
    code, out, err = run(capsys, "reduce", "--system", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: InvalidSystem: {message}\n"


USAGE_ERRORS = (
    (("reduce", "--sqrt", "8", "--d", "2", "--a", "1,1", "--b", "1,4"),
     "argument --d: not allowed with argument --sqrt"),
    (("reduce", "--a", "1,1", "--b", "1,4"), "one of the arguments --system --sqrt --d is required"),
    (("reduce", "--d", "2", "--a", "1,1"), "--d requires --a and --b"),
    (("series", "--d", "2", "--a", "1,1", "--b", "1,4", "--family", "pell_y"),
     "pell_y needs --sqrt N"),
    (("series", "--sqrt", "8", "--family", "pell_y", "--system", "no-such-file.json"),
     "argument --system: not allowed with argument --sqrt"),
    (("series", "--sqrt", "8", "--family", "pell_x", "--d", "2", "--a", "1,1", "--b", "1,4"),
     "argument --d: not allowed with argument --sqrt"),
    (("check", "--sqrt", "8"), "one of the arguments --identity --congruence-p is required"),
    (("check", "--sqrt", "8", "--identity", "catalan", "--params", "1,2", "--congruence-p", "3"),
     "argument --congruence-p: not allowed with argument --identity"),
    (("pseudoprime", "--sqrt", "8"), "one of the arguments --candidate --range is required"),
    (("pseudoprime", "--sqrt", "8", "--range", "3:4:5"), "--range takes LO:HI, got '3:4:5'"),
    (("pseudoprime", "--sqrt", "8", "--range", "5"), "--range takes LO:HI, got '5'"),
    (("pseudoprime", "--sqrt", "8", "--range", "3:x"), "--range takes LO:HI, got '3:x'"),
    (("reduce", "--d", "2", "--a", "1,x", "--b", "1,2"), "--a takes comma-separated integers, got '1,x'"),
    (("check", "--sqrt", "8", "--identity", "catalan", "--params", "0,q"),
     "--params takes comma-separated integers, got '0,q'"),
    (("series", "--sqrt", "8", "--family", "pi_over_6", "--compare-zeta", "abc"),
     "compare_zeta must be a number, got 'abc'"),
    (("pell", "--n", "8", "--count", "0"), "count must be >= 1"),
    (("pisano", "--sqrt", "8", "--p", "9"), "9 is not prime"),
    (("reduce", "--sqrt", "8", "--a", "5,5", "--b0", "9", "--non-strict"),
     "argument --a: not allowed without argument --d"),
    (("check", "--sqrt", "8", "--congruence-p", "7", "--params", "9,9"),
     "argument --params: not allowed with argument --congruence-p"),
    (("series", "--sqrt", "8", "--family", "pell_y", "--b0", "3"),
     "argument --b0: not allowed without argument --d"),
    (("pisano", "--system", "no-such-file.json", "--p", "7", "--non-strict"),
     "argument --non-strict: not allowed without argument --d"),
)


def test_system_sources_are_exclusive(capsys):
    # Every usage error, argparse's own included, exits 2 with one typed stderr line.
    for argv, message in USAGE_ERRORS:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: UsageError: {message}\n"


def test_argparse_refuses_through_the_one_handler_and_help_still_exits_0(capsys):
    assert run(capsys) == (2, "", "error: UsageError: the following arguments are required: verb\n")
    with pytest.raises(SystemExit) as exit_:
        main(["-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: contikit [-h]")


def test_a_value_error_from_a_bug_escapes_main(capsys, monkeypatch):
    # Only the exception's type makes exit 2: an untyped ValueError is a bug, not a usage error.
    def bug(system):
        raise ValueError("not a usage error")

    monkeypatch.setattr(recurrence, "reduce", bug)
    with pytest.raises(ValueError, match="not a usage error"):
        main(["reduce", "--sqrt", "8"])
    assert capsys.readouterr() == ("", "")


def test_every_raise_in_the_package_is_typed():
    # A refusal raises a ContikitError; the two TypeErrors name a wrong Python type.
    type_errors = {("quadratic.py", "_as_fraction"), ("continuants.py", "identity_failures")}
    found = set()
    for path in Path(contikit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}  # ast.walk is breadth first, so the innermost function is recorded last
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((node, func.name) for node in ast.walk(func) if isinstance(node, ast.Raise))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else exc.id
            where = (path.name, owner.get(node))
            if name == "TypeError" and where in type_errors:
                found.add(where)
            else:
                assert issubclass(getattr(errors, name, Exception), errors.ContikitError), (where, name)
    assert found == type_errors


def test_every_imported_name_is_read():
    # A module reads each name it imports; __init__.py imports to re-export.
    for path in Path(contikit.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, (path.name, sorted(imported - read))


def test_binet_verb(capsys):
    for nu, expect in ((7, "204"), (8, "985"), (-3, "-1")):
        code, out, _ = run(capsys, "binet", "--sqrt", "8", "--nu", str(nu), "--json")
        assert code == 0
        assert json.loads(out)["B"] == expect
    # a_1 = 2 makes negative indices non-integer.
    code, out, _ = run(capsys, "binet", "--d", "1", "--a", "2", "--b", "3", "--nu", "-7", "--json")
    assert code == 0
    assert json.loads(out) == {"nu": "-7", "B": "-495/64"}


@pytest.mark.parametrize("nu, line", [("10", "B_10 = 11"), ("-5", "B_-5 = -4")])
def test_binet_answers_a_zero_discriminant(capsys, nu, line):
    # Delta = 0 with the double root 1, so B_nu = nu + 1; binet takes no root and used to refuse it.
    argv = ("binet", "--d", "2", "--a=-1,-1", "--b", "2,2", "--non-strict", "--nu", nu)
    assert run(capsys, *argv) == (0, line + "\n", "")


def test_binet_past_the_int_str_digit_limit(capsys):
    # B_100000 has about 38 000 digits, past CPython's default 4300.
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "binet", "--sqrt", "8", "--nu", "100000", *extra)
        assert code == 0, err
        value = json.loads(out)["B"] if extra else out.strip().removeprefix("B_100000 = ")
        assert value == text(continuant_pair(S8, 100000)[1])


def test_binet_converts_its_value_to_decimal_once(capsys, monkeypatch):
    # Decimal text of a huge B costs more than B itself, so only the printed form is built.
    conversions = []

    class Counted(int):
        def __str__(self):
            conversions.append("str")
            return int.__repr__(self)

        def __format__(self, spec):
            conversions.append("format")
            return format(int(self), spec)

    binet = contikit.recurrence.binet
    monkeypatch.setattr(contikit.recurrence, "binet", lambda *args: Counted(binet(*args)))
    for extra, expect in (((), "B_7 = 204\n"), (("--json",), '{"nu": "7", "B": "204"}\n')):
        conversions.clear()
        code, out, _ = run(capsys, "binet", "--sqrt", "8", "--nu", "7", *extra)
        assert code == 0 and out == expect
        assert len(conversions) == 1, conversions


def test_pseudoprime_example_json(capsys):
    code, out, _ = run(capsys, "pseudoprime", "--sqrt", "8",
                       "--candidate", "35", "--json")
    assert code == 0
    assert json.loads(out) == {"n": "35", "epsilon": -1, "index": "71",
                               "verdict": "probable_prime"}


def test_pseudoprime_range_scan(capsys):
    code, out, _ = run(capsys, "pseudoprime", "--sqrt", "8", "--range", "3:30", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    by_n = {doc["n"]: doc["verdict"] for doc in lines}
    assert by_n["5"] == "probable_prime"
    assert by_n["9"] == "inapplicable"
    assert "composite_proven" in by_n.values()


def test_pseudoprime_range_scan_parallel_matches_serial(capsys):
    for mode in ((), ("--json",)):
        code1, serial, _ = run(capsys, "pseudoprime", "--sqrt", "8", "--range", "3:400", *mode)
        code2, parallel, _ = run(capsys, "pseudoprime", "--sqrt", "8", "--range", "3:400",
                                 *mode, "--jobs", "2")
        assert code1 == code2 == 0
        assert serial == parallel
        assert len(serial.splitlines()) == 199


def test_pseudoprime_range_output_is_pinned_for_every_jobs(capsys):
    for mode, pinned in (((), RANGE_TEXT_SHA256), (("--json",), RANGE_JSON_SHA256)):
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "pseudoprime", "--sqrt", "8", "--range", "3:301",
                               "--jobs", jobs, *mode)
            assert code == 0
            assert sha256(out) == pinned, (mode, jobs)


def test_pseudoprime_candidate_and_range_exclude_each_other(capsys):
    assert run(capsys, "pseudoprime", "--sqrt", "8", "--candidate", "35", "--range", "3:40") == (
        2, "", "error: UsageError: argument --range: not allowed with argument --candidate\n")


def test_pseudoprime_jobs_below_one_exit2(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run(capsys, "pseudoprime", "--sqrt", "8", "--range", "3:40", "--jobs", jobs)
        assert (code, out, err) == (2, "", f"error: UsageError: --jobs must be >= 1, got {jobs}\n")


def test_pseudoprime_range_streams_results(capsys, monkeypatch):
    # Results print as they are ready: an error at n = 11 leaves 3 to 9 printed.
    jacobi = divisibility.jacobi

    def stop_at_11(a, n):
        if n == 11:
            raise HypothesisViolated("stop at 11")
        return jacobi(a, n)

    monkeypatch.setattr(divisibility, "jacobi", stop_at_11)
    code, out, err = run(capsys, "pseudoprime", "--sqrt", "8", "--range", "3:20")
    assert code == 2
    assert out == ("n = 3: inapplicable\nn = 5: probable_prime\n"
                   "n = 7: probable_prime\nn = 9: inapplicable\n")
    assert err == "error: HypothesisViolated: stop at 11\n"


def test_pseudoprime_scan_reduces_each_system_once(capsys, monkeypatch):
    reduced = []
    reduce = recurrence.reduce
    counted = lambda system: reduced.append(system) or reduce(system)
    monkeypatch.setattr(recurrence, "reduce", counted)
    monkeypatch.setattr(divisibility, "reduce", counted)
    code, out, _ = run(capsys, "pseudoprime", "--sqrt", "8", "--range", "3:401")
    assert code == 0 and len(out.splitlines()) == 200
    assert reduced == [S8]
    reduced.clear()
    assert suite.check_pseudoprime(random.Random(20240801)).passed
    assert len(reduced) == 21 and reduced[0] == S8  # S8 and 20 random systems


def test_pseudoprime_range_unreducible_system_exit2(capsys):
    # b_1 = 0 gives B_{d-1} = 0, so the system has no reduction; --range 4:4
    # holds no odd candidate, and the scan still refuses the system.
    code, out, err = run(capsys, "pseudoprime", "--d", "2", "--a", "1,1", "--b", "0,1",
                         "--non-strict", "--range", "4:4")
    assert code == 2
    assert out == ""
    assert "DivisionByZero" in err


def test_series_verb(capsys):
    code, out, _ = run(capsys, "series", "--sqrt", "8", "--family", "millin", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["family"] == "millin"


def test_series_zeta_verb(capsys):
    # S8's pi_over_6 terms shrink by about 0.358 each: 50 digits take 97 terms, not 40.
    code, out, err = run(capsys, "series", "--sqrt", "8", "--family", "pi_over_6",
                         "--digits", "50", "--terms", "40", "--json")
    assert (code, out, err) == (2, "", "error: PrecisionExhausted: 40 terms did not reach "
                                       "the tolerance 10^-45\n")
    code, out, _ = run(capsys, "series", "--sqrt", "8", "--family", "pi_over_6",
                       "--digits", "50", "--terms", "97", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["converged"] is True and doc["terms"] == 97 and "zeta" in doc


@pytest.mark.parametrize("argv, terms", [
    (("--sqrt", "8", "--digits", "50", "--terms", "10"), 10),
    (("--sqrt", "1000003"), 60),
], ids=["sqrt8-terms10", "sqrt1000003-default-cap"])
def test_a_zeta_sum_cut_off_at_its_term_cap_is_refused(capsys, argv, terms):
    # Both used to print "converged : True" at errors of 1.4e-7 and 4.2e-35.
    code, out, err = run(capsys, "series", "--family", "pi_over_6", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: PrecisionExhausted: {terms} terms did not reach the tolerance 10^-45\n"


def test_compare_zeta_is_refused_outside_the_zeta_kinds(capsys):
    # It was accepted and ignored, with exit 0.
    code, out, err = run(capsys, "series", "--sqrt", "8", "--family", "millin", "--compare-zeta", "0.1")
    assert (code, out) == (2, "")
    assert err == "error: UsageError: --compare-zeta applies to the zeta kinds only, not millin\n"


def test_compare_zeta_prints_its_residual_in_text_mode(capsys):
    # Text mode printed the same five lines with or without it; now one more line names the value and residual.
    argv = ("series", "--sqrt", "8", "--family", "pi_over_6", "--terms", "100")
    code, plain, _ = run(capsys, *argv)
    lines = plain.splitlines()
    assert code == 0 and len(lines) == 5
    code, compared, _ = run(capsys, *argv, "--compare-zeta", "0.1")
    assert code == 0
    assert compared.splitlines() == lines[:4] + ["compare zeta: 0.1  (residual 0.1828138815)"] + lines[4:]


def test_series_hypothesis_violation_exit2(capsys):
    code, _, err = run(capsys, "series", "--sqrt", "13", "--family", "pell_y")
    assert code == 2
    assert "HypothesisViolated" in err


def test_check_identity(capsys):
    code, out, _ = run(capsys, "check", "--sqrt", "8", "--identity", "cassini_B",
                       "--params", "0,3,2", "--json")
    assert code == 0
    assert json.loads(out)["equal"] is True


@pytest.mark.parametrize("identity, params, message", [
    ("telescoping", "3,1,0", "telescoping takes (lam, nu), got 3 values"),
    ("cassini_A", "1,2", "cassini_A takes (lam, nu, mu), got 2 values"),
])
def test_check_identity_wrong_parameter_count_exit2(capsys, identity, params, message):
    code, out, err = run(capsys, "check", "--sqrt", "8", "--identity", identity, f"--params={params}")
    assert (code, out, err) == (2, "", f"error: UsageError: {message}\n")


def test_check_congruence(capsys):
    code, out, _ = run(capsys, "check", "--sqrt", "8", "--congruence-p", "7", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True and doc["case"] == "QR"
    assert doc["p"] == "7"  # a decimal string, as pisano --json writes its p


def test_check_congruence_composite_exit2(capsys):
    code, _, err = run(capsys, "check", "--sqrt", "8", "--congruence-p", "15")
    assert code == 2


SERIES_MILLIN_TEXT = """\
family      : millin
partial sum : 0.171572875253809902396622551581  (6 terms)
closed form : 0.171572875253809902396622551581  [1/(b1*beta) = 3 - 1/2*sqrt(32)]
abs error   : 1.115933447e-43
converged   : True
"""


def test_series_text_output(capsys):
    code, out, err = run(capsys, "series", "--sqrt", "8", "--family", "millin", "--digits", "30")
    assert (code, out, err) == (0, SERIES_MILLIN_TEXT, "")


@pytest.mark.parametrize("argv, terms, closed", [
    (("--sqrt", "1000003", "--family", "pi_over_6", "--digits", "50", "--terms", "100"), 85,
     "0.00026179899510095130853929440066758568759211081879172"),
    (("--sqrt", "1000003", "--family", "period_reciprocal"), 1,
     "1.9927415595579344962611336904775534893587086366912e-745"),
    (("--sqrt", "100000007", "--family", "period_reciprocal", "--digits", "50"), 1,
     "5.6864666535283148978652333493954935138279425559687e-9991"),
], ids=["pi_over_6-d458", "period_reciprocal-d458", "period_reciprocal-d6524"])
def test_series_closed_forms_with_a_large_c_d_do_not_cancel(capsys, argv, terms, closed):
    # p + q*sqrt(Delta) cancelled in QuadraticNumber.mpf: pi_over_6 was refused with
    # |alpha| = 0.0, and both period_reciprocal closed forms printed 0.0.
    code, out, err = run(capsys, "series", *argv)
    assert (code, err) == (0, "")
    lines = dict(line.split(" : ", 1) for line in out.splitlines())
    partial, count = lines["partial sum"].split("  ")
    assert lines["closed form"].split("  ")[0] == closed and count == f"({terms} terms)"
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(partial) - mpmath.mpf(closed)) < mpmath.mpf("1e-30") * mpmath.mpf(closed)


def test_check_congruence_text_output(capsys):
    code, out, err = run(capsys, "check", "--sqrt", "8", "--congruence-p", "7")
    assert (code, err) == (0, "")
    lines = ["p = 7  case: QR"]
    for r in range(-1, 5):
        lines += [f"  [ok] B_((p+1)d+{r})", f"  [ok] B_((p-1)d+{r}) = B_{r}"]
    lines += ["  [ok] B_((p+1)d-1) = C*B_(d-1)", "  [ok] B_((p-1)d-1) = 0"]
    assert out == "\n".join(lines) + "\n"


def test_pisano_verb(capsys):
    code, out, _ = run(capsys, "pisano", "--sqrt", "8", "--p", "7", "--json")
    assert code == 0
    assert json.loads(out) == {"p": "7", "pi": "6", "bound": "12"}


def test_pisano_verb_answers_a_huge_bound(capsys):
    # Divisor bound 300 420 144: listing that many residues used to get the process killed.
    start = time.perf_counter()
    code, out, err = run(capsys, "pisano", "--d", "3", "--a", "1,2,3", "--b", "4,5,6", "--p", "10007")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == "pi(10007) = 300420144  (divisor bound 300420144)\n"


def test_check_congruences_at_a_prime_near_10_12(capsys):
    # Every clause reads its own index mod p; nothing of length p is listed.
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--sqrt", "8", "--congruence-p", "999999999989")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "p = 999999999989  case: nonQR"
    assert len(lines) == 15 and all(line.startswith("  [ok] ") for line in lines[1:])


def test_pisano_verb_answers_a_prime_near_10_9(capsys):
    # The order of -D_d comes from factoring p - 1, not from an O(p) loop.
    start = time.perf_counter()
    code, out, err = run(capsys, "pisano", "--d", "1", "--a", "3", "--b", "1", "--p", "1000000007")
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    assert out == "pi(1000000007) = 111111112666666672  (divisor bound 1000000014000000048)\n"


def test_pisano_verb_derives_its_bound_once(capsys):
    # One reduction mod p gives the bound, and one reader the values; nothing is reduced over Z.
    with mock.patch.object(divisibility, "residues", wraps=divisibility.residues) as walks, \
            mock.patch.object(divisibility, "reduce", wraps=divisibility.reduce) as reduce, \
            mock.patch.object(recurrence, "reduce", wraps=recurrence.reduce) as z_reduce, \
            mock.patch.object(divisibility, "_mult_order", wraps=divisibility._mult_order) as order:
        code, out, _ = run(capsys, "pisano", "--d", "1", "--a", "3", "--b", "1", "--p", "109")
    assert (code, out) == (0, "pi(109) = 5940  (divisor bound 5940)\n")
    moduli = [call.args[1] if len(call.args) > 1 else call.kwargs.get("m")
              for call in reduce.call_args_list + z_reduce.call_args_list]
    assert (walks.call_count, moduli, order.call_count) == (1, [109], 1)


def test_check_congruences_accepts_a_zero_corner(capsys):
    # B_{d-1} = 0 (b_1 = 0): the suite reads C_d and D_d mod p and never divides by B_{d-1}.
    code, out, err = run(capsys, "check", "--d", "2", "--a", "1,1", "--b", "0,1", "--non-strict",
                         "--congruence-p", "7")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "p = 7  case: p|Delta"
    assert len(out.splitlines()) == 8 and "FAIL" not in out


def test_zero_corner_reduces_and_the_series_refuses(capsys):
    # B_{d-1} = 0: reduce and binet divide by nothing; a series divides by every B_{kd-1} = 0.
    zero = ("--d", "2", "--b", "0,1", "--non-strict")
    assert run(capsys, "reduce", *zero, "--a", "1,1") == (0, "C_d = 2, D_d = -1, Delta = 0\n", "")
    split = ("--d", "2", "--a", "2,1", "--b", "0,3", "--non-strict")
    assert run(capsys, "binet", *split, "--nu", "6", "--json") == (0, '{"nu": "6", "B": "1"}\n', "")
    code, out, err = run(capsys, "series", *split, "--family", "millin")
    assert (code, out) == (2, "")
    assert err.startswith("error: DivisionByZero: ") and err.count("\n") == 1


def test_paper_verb_deterministic(capsys):
    code1, out1, _ = run(capsys, "paper")
    code2, out2, _ = run(capsys, "paper")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert "seed=20240801" in out1.splitlines()[0]
    assert all("PASS" in line for line in out1.splitlines()[1:-1])
    assert "168132 identity instances, 0 failures" in out1
    assert sha256(out1) == PAPER_TEXT_SHA256
    code, doc, _ = run(capsys, "paper", "--json")
    assert code == 0
    assert sha256(doc) == PAPER_JSON_SHA256


FAILED_SERIES = SeriesReport("millin", "0.17", "0.18", "1/(b1*beta)", "1.0e-2", 6, False)
FAILED_ZETA = SeriesReport("pi_over_6", "0.5", "0.6", "pi/6", "1.0e-1", 9, False,
                           extras={"zeta": "0.3", "compare_zeta": "0.1", "compare_residual": "0.2"})
FAILED_VERDICTS = [  # (module, name, fake result, argv, text stdout, --json stdout)
    (suite, "run_full_suite", [suite.SuiteRow("cassini", True, "0 failures"), suite.SuiteRow("pell", False, "x=4")],
     ("paper", "--seed", "1", "--digits", "20"),
     "verification suite  seed=1 digits=20\n[PASS] cassini: 0 failures\n[FAIL] pell: x=4\n1/2 checks passed\n",
     '{"seed": 1, "digits": 20, "rows": [{"name": "cassini", "passed": true, "detail": "0 failures"}, '
     '{"name": "pell", "passed": false, "detail": "x=4"}]}\n'),
    (divisibility, "congruence_suite", CongruenceCase(7, "QR", [("B_x", True), ("B_y", False)]),
     ("check", "--sqrt", "8", "--congruence-p", "7"),
     "p = 7  case: QR\n  [ok] B_x\n  [FAIL] B_y\n",
     '{"p": "7", "case": "QR", "verified": [{"label": "B_x", "ok": true}, {"label": "B_y", "ok": false}], '
     '"all_pass": false}\n'),
    (cli, "verify_identity", IdentityReport("cassini_A", (1, 2, 3), (396,), (397,)),
     ("check", "--sqrt", "8", "--identity", "cassini_A", "--params", "1,2,3"),
     "cassini_A(1, 2, 3): lhs=(396,) rhs=(397,) equal=False\n",
     '{"identity": "cassini_A", "params": [1, 2, 3], "lhs": ["396"], "rhs": ["397"], "equal": false}\n'),
    (series, "telescoping_sum", FAILED_SERIES, ("series", "--sqrt", "8", "--family", "millin"),
     "family      : millin\npartial sum : 0.17  (6 terms)\nclosed form : 0.18  [1/(b1*beta)]\n"
     "abs error   : 1.0e-2\nconverged   : False\n",
     '{"family": "millin", "partial": "0.17", "closed": "0.18", "closed_symbolic": "1/(b1*beta)", '
     '"abs_error": "1.0e-2", "terms": 6, "converged": false}\n'),
    (series, "zeta_series", FAILED_ZETA,
     ("series", "--sqrt", "8", "--family", "pi_over_6", "--compare-zeta", "0.1"),
     "family      : pi_over_6\npartial sum : 0.5  (9 terms)\nclosed form : 0.6  [pi/6]\n"
     "abs error   : 1.0e-1\ncompare zeta: 0.1  (residual 0.2)\nconverged   : False\n",
     '{"family": "pi_over_6", "partial": "0.5", "closed": "0.6", "closed_symbolic": "pi/6", '
     '"abs_error": "1.0e-1", "terms": 9, "converged": false, "zeta": "0.3", "compare_zeta": "0.1", '
     '"compare_residual": "0.2"}\n'),
]


@pytest.mark.parametrize("module, name, fake, argv, text, as_json", FAILED_VERDICTS,
                         ids=["paper", "congruence", "identity", "series", "zeta"])
def test_a_failed_verdict_exits_1_and_prints_its_rows(capsys, monkeypatch, module, name, fake, argv,
                                                     text, as_json):
    # No real input fails these checks, so the library call is patched to report a failure.
    monkeypatch.setattr(module, name, lambda *args, **kwargs: fake)
    assert run(capsys, *argv) == (1, text, "")
    assert run(capsys, *argv, "--json") == (1, as_json, "")


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(contikit.__file__).parents[1])}
    # The child runs at the suite's own optimization level: -O (or -OO) strips its asserts too.
    done = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-m", "contikit",
                           "binet", "--sqrt", "8", "--nu", "10"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"B_10 = {continuant_pair(S8, 10)[1]}\n"


def test_a_closed_stdout_is_not_a_refused_input():
    # The reader closed the pipe before the first line: no error line, the SIGPIPE status.
    env = {**os.environ, "PYTHONPATH": str(Path(contikit.__file__).parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-m", "contikit",
                               "pseudoprime", "--sqrt", "8", "--range", "3:301"],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_nonstrict_flag(capsys):
    code, out, _ = run(capsys, "reduce", "--d", "1", "--a", "-2", "--b", "3",
                       "--non-strict", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["C_d"] == "3" and doc["D_d"] == "-2"
    # A list that starts with a minus sign needs the --a=... form.
    code, out, _ = run(capsys, "reduce", "--d", "2", "--a=-1,-1", "--b", "2,2", "--non-strict")
    assert code == 0
    assert out == "C_d = 2, D_d = -1, Delta = 0\n"
