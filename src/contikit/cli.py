"""Command line interface.

Exit codes: 0 on success, 1 when a verification fails (a failed check, a
proven-composite verdict being the exception: that is still a successful
run), 2 on a ContikitError (a refused argv, bad input or a violated
hypothesis) or an OSError, printed as `error: <type>: <message>`; any other
exception is a bug (a traceback).
A stdout closed by its reader (`| head`) is not a refused input: the run stops
quietly with 141, the status of a process killed by SIGPIPE.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import divisibility, pell, recurrence, series, suite
from .continuants import IDENTITIES, verify_identity
from .errors import ContikitError, UsageError, text
from .systems import PeriodicSystem


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a refused argv takes main's one handler: one stderr line, exit 2
        raise UsageError(message)


def _add_system_args(p: argparse.ArgumentParser):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--system", metavar="FILE", help="JSON file describing the system")
    source.add_argument("--sqrt", type=int, metavar="N",
                        help="use the continued-fraction system of sqrt(N)")
    source.add_argument("--d", type=int, help="period length")
    p.add_argument("--a", help="comma-separated a_1..a_d; write a list that starts "
                               "with a minus sign as --a=-1,2")
    p.add_argument("--b", help="comma-separated b_1..b_d; write a list that starts "
                               "with a minus sign as --b=-1,2")
    p.add_argument("--b0", type=int, help="leading b_0 (default 1)")
    p.add_argument("--non-strict", action="store_true", default=None, help="allow non-positive coefficients")


def _ints(flag, text, form="comma-separated integers", sep=",", count=None) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(sep))
        if count in (None, len(values)):
            return values
    except ValueError:  # from int() alone: a part that is not an integer
        pass
    raise UsageError(f"{flag} takes {form}, got {text!r}")


def _refuse_coefficients_without_d(args):
    """--a, --b, --b0 and --non-strict describe a --d system; no other source reads them."""
    for flag in ("a", "b", "b0", "non_strict"):
        if args.d is None and getattr(args, flag) is not None:
            raise UsageError(f"argument --{flag.replace('_', '-')}: not allowed without argument --d")


def _system_from_args(args) -> PeriodicSystem:
    _refuse_coefficients_without_d(args)
    if args.system is not None:
        with open(args.system, "rb") as fh:
            return PeriodicSystem.from_json(fh.read())
    if args.sqrt is not None:
        return pell.expand_sqrt(args.sqrt)
    if args.a is None or args.b is None:
        raise UsageError("--d requires --a and --b")
    a, b = _ints("--a", args.a), _ints("--b", args.b)
    return PeriodicSystem(args.d, a, b, 1 if args.b0 is None else args.b0, strict=not args.non_strict)


def _tuple(items) -> str:
    """A tuple's repr, from its items' decimal strings."""
    return f"({', '.join(items)}{',' * (len(items) == 1)})"


def cmd_expand(args, emit) -> int:
    system = pell.expand_sqrt(args.n)
    rec = {"n": str(args.n), "a0": str(system.b0), "period": [str(x) for x in system.b], "d": system.d}
    emit(rec, "sqrt({n}) = [{a0}; ({block})] period d={d}".format(block=",".join(rec["period"]), **rec))
    return 0


def cmd_pell(args, emit) -> int:
    rec = [{"n": str(s.n), "x": str(s.x), "y": str(s.y)} for s in pell.pell_solutions(args.n, args.count)]
    emit(rec, *("k={k}: x={x} y={y}  ({x}^2 - {n}*{y}^2 = 1)".format(k=k, **s) for k, s in enumerate(rec, 1)))
    return 0


def cmd_reduce(args, emit) -> int:
    red = recurrence.reduce(_system_from_args(args))
    rec = {"C_d": str(red.Cd), "D_d": str(red.Dd), "Delta": str(red.delta)}
    emit(rec, "C_d = {C_d}, D_d = {D_d}, Delta = {Delta}".format_map(rec))
    return 0


def cmd_binet(args, emit) -> int:
    system = _system_from_args(args)
    n, r = divmod(args.nu + 1, system.d)
    value = recurrence.binet(system, n, r - 1) if n >= 0 else recurrence.binet_negative(system, -n, r - 1)
    rec = {"nu": str(args.nu), "B": str(value)}  # the one decimal conversion of a B of any size
    emit(rec, "B_{nu} = {B}".format_map(rec))
    return 0


def cmd_series(args, emit) -> int:
    ctx = series.PrecisionContext(args.digits, args.terms)
    if args.family in series.ZETA_KINDS:
        system = _system_from_args(args)
        rep = series.zeta_series(system, args.family, ctx, compare_zeta=args.compare_zeta)
    elif args.compare_zeta is not None:
        raise UsageError(f"--compare-zeta applies to the zeta kinds only, not {args.family}")
    elif args.family.startswith("pell_"):
        if args.sqrt is None:
            raise UsageError(f"{args.family} needs --sqrt N")
        _refuse_coefficients_without_d(args)
        rep = series.telescoping_sum(args.sqrt, args.family, ctx)
    else:
        rep = series.telescoping_sum(_system_from_args(args), args.family, ctx)
    rec = {"family": rep.family, "partial": rep.partial_sum, "closed": rep.closed_form,
           "closed_symbolic": rep.closed_symbolic, "abs_error": rep.abs_error, "terms": rep.terms,
           "converged": rep.converged, **rep.extras}
    lines = ["family      : {family}", "partial sum : {partial}  ({terms} terms)",
             "closed form : {closed}  [{closed_symbolic}]", "abs error   : {abs_error}"]
    if args.compare_zeta is not None:
        lines.append("compare zeta: {compare_zeta}  (residual {compare_residual})")
    emit(rec, *(line.format_map(rec) for line in lines + ["converged   : {converged}"]))
    return 0 if rep.converged else 1


def cmd_check(args, emit) -> int:
    if args.congruence_p is not None and args.params is not None:
        raise UsageError("argument --params: not allowed with argument --congruence-p")
    system = _system_from_args(args)
    if args.identity is not None:
        params = _ints("--params", "0,3" if args.params is None else args.params)
        rep = verify_identity(system, args.identity, params)
        rec = {"identity": rep.identity, "params": list(rep.params), "lhs": [str(v) for v in rep.lhs],
               "rhs": [str(v) for v in rep.rhs], "equal": rep.equal}
        emit(rec, f"{rec['identity']}{tuple(rec['params'])}: lhs={_tuple(rec['lhs'])} "
                  f"rhs={_tuple(rec['rhs'])} equal={rec['equal']}")
        return 0 if rep.equal else 1
    case = divisibility.congruence_suite(system, args.congruence_p)
    rec = {"p": str(case.p), "case": case.case_tag,
           "verified": [{"label": lbl, "ok": ok} for lbl, ok in case.verified], "all_pass": case.all_pass}
    emit(rec, "p = {p}  case: {case}".format_map(rec),
         *(f"  [{'ok' if v['ok'] else 'FAIL'}] {v['label']}" for v in rec["verified"]))
    return 0 if case.all_pass else 1


def cmd_pseudoprime(args, emit) -> int:
    system = _system_from_args(args)
    if args.candidate is not None:
        candidates = [args.candidate]
    else:
        lo, hi = _ints("--range", args.range, "LO:HI", ":", 2)
        candidates = range(max(lo, 3) | 1, hi + 1, 2)
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {text(args.jobs)}")
    tail = " (epsilon = {epsilon}, tested B index {index})" if args.range is None else ""
    for v in divisibility.pseudoprime_scan(system, candidates):  # each printed once ready
        rec = {"n": str(v.n), "epsilon": v.epsilon, "index": str(v.tested_index), "verdict": v.verdict}
        emit(rec, ("n = {n}: {verdict}" + tail).format_map(rec))
    return 0


def cmd_pisano(args, emit) -> int:
    pi, bound = divisibility.pisano(_system_from_args(args), args.p)
    rec = {"p": str(args.p), "pi": str(pi), "bound": str(bound)}
    emit(rec, "pi({p}) = {pi}  (divisor bound {bound})".format_map(rec))
    return 0


def cmd_paper(args, emit) -> int:
    rows = [{"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in suite.run_full_suite(args.seed, args.digits)]
    rec = {"seed": args.seed, "digits": args.digits, "rows": rows}
    passed = sum(r["passed"] for r in rows)
    emit(rec, "verification suite  seed={seed} digits={digits}".format_map(rec),
         *(f"[{'PASS' if r['passed'] else 'FAIL'}] {r['name']}: {r['detail']}" for r in rows),
         f"{passed}/{len(rows)} checks passed")
    return 0 if passed == len(rows) else 1


@functools.cache  # once per process, on the first main call: building it at import slows every import
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="contikit", description="exact continuant/Pell/series toolkit")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("expand", help="continued fraction of sqrt(N)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("pell", help="solutions of x^2 - N y^2 = 1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("reduce", help="C_d, D_d, Delta of a system")
    _add_system_args(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("binet", help="B_nu by the closed form (any integer nu)")
    _add_system_args(p)
    p.add_argument("--nu", type=int, required=True)
    p.set_defaults(func=cmd_binet)

    p = sub.add_parser("series", help="verify a series closed form")
    _add_system_args(p)
    p.add_argument("--family", required=True,
                   choices=series.TELESCOPING_FAMILIES + series.ZETA_KINDS)
    p.add_argument("--digits", type=int, default=50)
    p.add_argument("--terms", type=int, default=60)
    p.add_argument("--compare-zeta", type=str, default=None,
                   help="zeta kinds only: also sum as many terms at this root value")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("check", help="verify a continuant identity or congruence suite")
    _add_system_args(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--identity", choices=IDENTITIES)
    mode.add_argument("--congruence-p", type=int)
    p.add_argument("--params", help="comma-separated identity parameters (default 0,3)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pseudoprime", help="Lucas-style compositeness test")
    _add_system_args(p)
    one_or_many = p.add_mutually_exclusive_group(required=True)
    one_or_many.add_argument("--candidate", type=int)
    one_or_many.add_argument("--range", metavar="LO:HI")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and has no effect: the scan reduces the system once "
                        "and runs in one process")
    p.set_defaults(func=cmd_pseudoprime)

    p = sub.add_parser("pisano", help="period of B mod p")
    _add_system_args(p)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_pisano)

    p = sub.add_parser("paper", help="run the full deterministic verification suite")
    p.add_argument("--seed", type=int, default=20240801)
    p.add_argument("--digits", type=int, default=50)
    p.set_defaults(func=cmd_paper)

    for p in sub.choices.values():  # last in every verb's help
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return ap


def main(argv=None) -> int:
    # Exact results can run to any number of digits: print them all, then restore the limit.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: a Python with no limit
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)

    def emit(record, *text_lines):
        """The one writer of command output: the record under --json, else its text lines."""
        print(json.dumps(record) if args.json else "\n".join(text_lines))

    try:
        set_limit(0)
        args = build_parser().parse_args(argv)
        code = args.func(args, emit)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:  # the Python docs' SIGPIPE recipe: that last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ContikitError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        set_limit(limit)


if __name__ == "__main__":
    sys.exit(main())
