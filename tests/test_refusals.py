"""Typed refusals: one table of the calls that each reach a refusal no other test reaches, the
rule for arguments that are not ints, and the rule that a refusal names an int through text()."""
import ast
import pathlib

import pytest

from contikit import (
    FIB,
    S8,
    DegenerateDiscriminant,
    DivisionByZero,
    HypothesisViolated,
    IndexOutOfRange,
    NoAdmissibleRoot,
    PeriodicSystem,
    QuadraticNumber,
    UsageError,
    continuant_pair,
    convergent,
    expand_sqrt,
    law_of_repetition_check,
    limit_ratio,
    lucas_pseudoprime_test,
    pell_fundamental,
    pell_solutions,
    roots,
    telescoping_sum,
    verify_identity,
    weighted_sum_exact,
    zeta_series,
)
from contikit.divisibility import pseudoprime_scan
from contikit.recurrence import ReducedRecurrence
from contikit.series import PrecisionContext

ZERO_C = PeriodicSystem(1, (3,), (0,), strict=False)  # C_d = 0, D_d = 3: W_k = 0 at every even k


@pytest.mark.parametrize("call, error, message", [
    (lambda: continuant_pair(S8, 3, -1), IndexOutOfRange, "lambda must be >= 0, got -1"),
    (lambda: convergent(S8, -1), IndexOutOfRange, "nu must be >= 0, got -1"),
    (lambda: verify_identity(S8, "cassini_A", (0, -1, 2)), IndexOutOfRange, "cassini requires lam, nu, mu >= 0"),
    (lambda: verify_identity(S8, "catalan", (-1, 2)), IndexOutOfRange, "catalan requires lam, nu >= 0"),
    (lambda: list(pseudoprime_scan(S8, [1])), UsageError, "n must be >= 3"),
    # n is read before the reduction, whose B_{d-1} = 0 the scan would refuse first.
    (lambda: lucas_pseudoprime_test(PeriodicSystem(2, (1, 1), (0, 3), strict=False), 2), UsageError,
     "n must be >= 3"),
    (lambda: law_of_repetition_check(FIB, 5, 5, 1, -1), UsageError, "need n, m >= 1 and f >= 0"),
    # 3 || W_3 = 3, and p^f m n = 6 shares the 6 with 12 that makes W_6 = 0.
    (lambda: law_of_repetition_check(ZERO_C, 3, 3, 2, 0), UsageError, "valuation of 0"),
    (lambda: PrecisionContext(19), UsageError, "need at least 20 working digits"),
    (lambda: PrecisionContext(50, 0), UsageError, "max_terms must be positive"),
    (lambda: weighted_sum_exact(S8, "binomial", big_n=0), UsageError, "N must be >= 1"),
    (lambda: weighted_sum_exact(S8, "nope"), UsageError, "unknown kind 'nope'"),
    (lambda: telescoping_sum(S8, "pell_y"), HypothesisViolated, "pell_y expects an integer N"),
    (lambda: zeta_series(PeriodicSystem(1, (-13,), (8,), strict=False), "pi_over_6"), NoAdmissibleRoot,
     "complex roots"),
    (lambda: zeta_series(PeriodicSystem(1, (-9,), (7,), strict=False), "pi_over_6"), NoAdmissibleRoot,
     "no root of the pi_over_6 quadratic has |zeta| < |alpha| = "
     "0.188580484696445039271154374029416891874927968119708543738308"),
    (lambda: limit_ratio(ZERO_C, "consecutive_periods", 0), DegenerateDiscriminant,
     "|alpha| = |beta| when C_d = 0"),
    (lambda: limit_ratio(S8, "nope", 0), UsageError, "unknown mode 'nope'"),
    (lambda: limit_ratio(S8, "consecutive_terms", -1), IndexOutOfRange, "consecutive_terms requires r >= 0"),
    (lambda: limit_ratio(S8, "consecutive_periods", -2), IndexOutOfRange, "consecutive_periods requires r >= -1"),
    (lambda: roots(ReducedRecurrence(1, 0, 1)), DegenerateDiscriminant, "D_d = 0"),
    (lambda: QuadraticNumber(1.5, 0, 2), TypeError, "expected int or Fraction, got float"),
    (lambda: QuadraticNumber(1, 0, 4) / QuadraticNumber(2, 1, 4), DivisionByZero,
     "division by a zero-norm quadratic number"),  # 2 + sqrt(4) has norm 4 - 4 = 0
])
def test_each_refusal_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_a_pure_surd_prints_without_a_rational_part():
    assert [str(QuadraticNumber(0, q, 2)) for q in (3, 1, -1)] == ["3*sqrt(2)", "1*sqrt(2)", "-1*sqrt(2)"]


@pytest.mark.parametrize("call", [
    lambda: expand_sqrt(1.5),
    lambda: expand_sqrt(2.5),
    lambda: expand_sqrt("8"),
    lambda: pell_fundamental(7.0),
    lambda: pell_solutions(2.5, 1),
])
def test_a_non_int_where_an_int_is_expected_is_a_type_error(call):
    # Python's own rule (math.isqrt(1.5)): the type is refused before the range is read.
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "contikit"

# Placeholders in raised f-strings that hold a string (the last two: an exception and an mpf,
# whose str() has no digit limit), by their source text.
STRINGS = {
    "flag", "form", "flag.replace('_', '-')", "args.family", "family", "kind", "identity", "takes",
    "type(x).__name__", "type(obj).__name__", "', '.join(missing)", "exc", "abs_alpha",
}


def test_a_raised_message_names_an_int_only_through_text():
    # str() of an int past 4300 digits raises an untyped ValueError under Python's default limit.
    loose = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            for part in ast.walk(node.exc):
                if not isinstance(part, ast.FormattedValue) or part.conversion == ord("r"):
                    continue
                value = part.value
                if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "text":
                    continue
                if ast.unparse(value) not in STRINGS:
                    loose.append(f"{path.name}:{node.lineno}: {{{ast.unparse(value)}}}")
    assert loose == []
