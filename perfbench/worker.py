"""One workload in one process, under an address-space cap.

    python3 perfbench/worker.py --mode setup|run --workload NAME --seed N
        --seconds S --trace 0|1 [--smoke]

``setup`` imports contikit, builds the inputs and reports how long that took.
``run`` does the same, then repeats the workload's batch until ``--seconds``
are used (at least once; with ``--trace 1`` alternating untraced and traced
batches), reads its own peak RSS, and only then imports the oracles (sympy)
and checks the first batch's outputs.  It prints one JSON object on stdout.
Every op's latency is its best (lowest) time across the run's untraced
batches, as ``timeit`` advises: on a shared machine other work only ever adds
to a time, so the minimum is the steadiest estimate of the op's own cost.  A
library op that took less than REPEAT_BELOW_S in the first batch is called
several times in each later untraced batch, the extra calls spread through the
batch, so that a sub-millisecond op is timed at many moments of the run; CLI
ops are called once per batch, since each call pays mpmath's constant caches
anew.
``wall_s`` is the sum of those latencies over the batch, the time a batch takes
when each op runs at its best; ``op_p50_ms`` and ``op_p90_ms`` are percentiles
of them over the batch's ops.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# A blow-up inside an op raises MemoryError and counts as a failed op instead
# of exhausting the machine's memory.
ADDRESS_SPACE_CAP = 3 * 2 ** 30

# A library op shorter than this is repeated in each untraced batch, up to
# MAX_REPEATS calls or about this much time per batch.
REPEAT_BELOW_S = 0.004
MAX_REPEATS = 40

ROOT = Path(__file__).resolve().parent.parent


class Kit:
    """The few contikit entry points the benchmark itself needs: building
    input systems, and the cross-checks against other package paths (binet,
    the determinant form)."""

    def __init__(self):
        from contikit import continuants, recurrence, systems

        self._PeriodicSystem = systems.PeriodicSystem
        self.binet = recurrence.binet
        self.continuant_determinant = continuants.continuant_determinant

    def system(self, plain):
        d, a, b, b0 = plain
        return self._PeriodicSystem(d=d, a=a, b=b, b0=b0, strict=True)

    @staticmethod
    def plain(system):
        return system.d, system.a, system.b, system.b0


def reset_mpmath_caches():
    """Forget mpmath's cached constants and series tables, which a fresh
    contikit process would have to compute again."""
    import mpmath.libmp.libelefun as elefun

    for obj in vars(elefun).values():
        for cell in getattr(obj, "__closure__", None) or ():
            memo = cell.cell_contents
            if hasattr(memo, "memo_prec"):
                memo.memo_prec, memo.memo_val = -1, None
    for name in ("atan_taylor_cache", "cos_sin_cache", "log_int_cache", "log_taylor_cache"):
        getattr(elefun, name).clear()


def _feed(h, value):
    """Hash a result canonically; big ints go in as bytes (no str() limit)."""
    if isinstance(value, bool) or value is None:
        h.update(repr(value).encode())
    elif isinstance(value, int):
        h.update(b"i" + value.to_bytes(value.bit_length() // 8 + 1, "little", signed=True))
    elif isinstance(value, (str, float)):
        h.update(b"s" + repr(value).encode())
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for v in value:
            _feed(h, v)
        h.update(b"]")
    elif isinstance(value, dict):
        h.update(b"{")
        for k in sorted(value):
            _feed(h, k)
            _feed(h, value[k])
        h.update(b"}")
    elif hasattr(value, "numerator"):
        h.update(b"q")
        _feed(h, (value.numerator, value.denominator))
    elif hasattr(value, "__dataclass_fields__"):
        h.update(type(value).__name__.encode())
        _feed(h, {k: getattr(value, k) for k in value.__dataclass_fields__})
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(values) -> str:
    h = hashlib.sha256()
    _feed(h, list(values))
    return h.hexdigest()


def run_op(op):
    """(value, error, seconds).  The entry point is looked up at call time so
    that a traced batch calls the wrapped binding."""
    fn = getattr(sys.modules[f"contikit.{op.module}"], op.func)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        if op.is_cli:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fn(*op.args)
            value = (code, out.getvalue())
        else:
            value = fn(*op.args)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        return None, f"{type(exc).__name__}: {exc}"[:300], time.perf_counter() - start
    return value, None, time.perf_counter() - start


def run_batch(ops, repeats, tracer=None):
    """(wall, rows): each row is (value, error, best seconds) of an op called
    ``repeats`` times; the value is the first call's.  The extra calls are
    spread evenly through the batch, round-robin over the ops that have them,
    so that each op is timed at many moments rather than in one burst: the
    machine's speed drifts over seconds.  ``wall`` sums the first calls, so a
    batch with repeats times the same work as one without."""
    reset_mpmath_caches()
    gc.collect()  # garbage of the previous batch is not this batch's cost
    extra = [i for r in range(1, max(repeats)) for i, count in enumerate(repeats) if count > r]
    best = [float("inf")] * len(ops)
    wall, rows = 0.0, []
    with tracer if tracer is not None else contextlib.nullcontext():
        for j, op in enumerate(ops):
            value, err, first = run_op(op)
            wall += first
            best[j] = min(best[j], first)
            rows.append([value, err])
            for i in extra[j * len(extra) // len(ops):(j + 1) * len(extra) // len(ops)]:
                best[i] = min(best[i], run_op(ops[i])[2])
    return wall, [(value, err, seconds) for (value, err), seconds in zip(rows, best)]


def repeats_for(ops, rows):
    return [1 if op.is_cli or err is not None else
            max(1, min(MAX_REPEATS, int(REPEAT_BELOW_S / max(seconds, 1e-9))))
            for op, (_, err, seconds) in zip(ops, rows)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import random

    import contikit.cli  # noqa: F401  (loads every layer module)
    import workloads

    make, check = workloads.WORKLOADS[args.workload]
    kit = Kit()
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops, facts = make(rng, args.seed, args.smoke, kit)
    setup_s = time.perf_counter() - _T0
    input_digest = digest([(op.kind, op.module, op.func,
                            [kit.plain(a) if hasattr(a, "strict") else a for a in op.args])
                           for op in ops])
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import mpmath

    from tracing import Tracer

    plain, traced, op_seconds, failed_ops, first = [], [], [], 0, None
    once = repeats = [1] * len(ops)
    deadline = time.perf_counter() + args.seconds
    while True:
        batch_start = time.perf_counter()
        for tracer in ([None, Tracer()] if args.trace else [None]):
            # Traced batches call every op once, so that their counts and
            # their wall time compare with the untraced batches'.
            wall, rows = run_batch(ops, once if tracer else repeats, tracer)
            values = [value for value, _, _ in rows]
            errors = [err for _, err, _ in rows]
            entry = {"wall_s": wall, "digest": digest(values), "tracer": tracer}
            (traced if tracer else plain).append(entry)
            failed_ops += sum(e is not None for e in errors)
            if tracer is None:
                op_seconds.append([s for _, _, s in rows])
            if first is None:
                first = (values, errors)
                repeats = repeats_for(ops, rows)
        needed = time.perf_counter() - batch_start
        if time.perf_counter() + needed > deadline:
            break
    rss = peak_rss_mb()

    values, errors = first
    done = [i for i, e in enumerate(errors) if e is None]
    verdicts = check([ops[i] for i in done], [values[i] for i in done], kit)
    problems = [f"{ops[i].kind}: {errors[i]}" for i in range(len(ops)) if errors[i] is not None]
    wrong = [v for v in verdicts if v is not None]
    problems += wrong
    batches = plain + traced
    mismatched = [b for b in batches if b["digest"] != batches[0]["digest"]]
    if mismatched:
        problems.append(f"{len(mismatched)} of {len(batches)} batches produced other outputs")
    traced_matches = all(b["digest"] == plain[0]["digest"] for b in traced)
    attempted = len(ops) * len(batches)
    failed = min(attempted, failed_ops + len(wrong) * len(batches) + len(ops) * len(mismatched))

    walls = [b["wall_s"] for b in plain]
    op_ms = [min(times) * 1000 for times in zip(*op_seconds)]
    result = {
        "setup_s": setup_s,
        "why": workloads.WHY[args.workload],
        "input_digest": input_digest,
        "output_digest": batches[0]["digest"],
        "facts": facts,
        "ops_per_batch": len(ops),
        "batch_walls_s": walls,
        "traced_batches": len(traced),
        "traced_output_matches": traced_matches,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "mpmath_backend": mpmath.libmp.BACKEND,
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": sum(op_ms) / 1000,
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[-1]
            if len(op_ms) > 1 else op_ms[0],
            "peak_rss_mb": rss,
        },
    }
    if traced:
        # Counts are the same in every traced batch; times take the best.
        per = [b["tracer"].layer_metrics() for b in traced]
        layers = {k: min(m[k] for m in per) for k in per[0]}
        # Each traced batch runs right after an untraced one, so a pair shares
        # the machine's speed of the moment; the median pair is reported.
        layers["trace.overhead_s"] = statistics.median(
            t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        result["per_layer"] = layers
        result["functions"] = traced[-1]["tracer"].function_table()[:25]
        result["wrapper_overhead_s"] = min(b["tracer"].wrapper_overhead_s for b in traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
