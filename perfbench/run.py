"""contikit benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a contikit checkout; contikit is imported from ./src.
Workloads: paper, big-index, prime-scan and series-digits; ``all`` runs each
in turn.  workloads.py says what each one exercises and why.  BENCHMARK.json
lists paper and big-index.  A prime-scan or series-digits batch takes 5-10 s,
too long to repeat often enough in one run for a steady best time on a shared
2-core machine, whose speed drifts by a third over tens of seconds; both still
run on request.

Set-up is measured several times, each in a fresh process (import, input
generation), half before the measured run and half after it, and reported as
the median.  The measured run is one more fresh process under an address-space
cap.  Every metric is printed to stderr by name with its unit.  On stdout,
each workload's full report (machine facts, input and output digests, fail
ratio with its base, per-function trace table) is one JSON line, and the last line is the result: end-to-end metrics with
``--trace 0``, per-layer metrics of the traced batches with ``--trace 1``.
``--smoke`` shrinks every input for a quick test.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "big-index", "prime-scan", "series-digits")
SETUP_PROBES = 14
TIME_LIMIT = 170  # seconds for one workload; its worker is killed after it


def metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker(mode, workload, args, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and always a digest
    of contikit's source files."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "contikit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    head = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        head = out.stdout.strip() or head
    return {"contikit_commit": head, "contikit_source_sha256": h.hexdigest()}


def run_workload(workload, args):
    """(report, metrics, result) of one workload."""
    start = time.monotonic()
    # Half the probes run before the measured run and half after it, so
    # that they meet more than one phase of the machine's drifting speed.
    count = 1 if args.smoke else SETUP_PROBES
    probes = [worker("setup", workload, args, 60)["setup_s"] for _ in range(count // 2)]
    res = worker("run", workload, args, TIME_LIMIT - (time.monotonic() - start))
    probes += [worker("setup", workload, args, 60)["setup_s"] for _ in range(count - count // 2)]
    end_to_end = dict(res["end_to_end"], setup_s=statistics.median(probes + [res["setup_s"]]))
    report = {
        "workload": workload,
        "seed": args.seed,
        "why": res["why"],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "mpmath_backend": res["mpmath_backend"], **source_identity()},
        "input_digest": res["input_digest"],
        "output_digest": res["output_digest"],
        "traced_output_matches": res["traced_output_matches"],
        "facts": res["facts"],
        "batch_walls_s": res["batch_walls_s"],
        "traced_batches": res["traced_batches"],
        "ops_per_batch": res["ops_per_batch"],
        "fail_ratio": res["failed"] / res["attempted"],
        "fail_base": res["attempted"],
        "problems": res["problems"],
        "setup_probes_s": probes + [res["setup_s"]],
        "end_to_end": end_to_end,
    }
    values = end_to_end
    if args.trace:
        values = res["per_layer"]
        report["per_layer"] = values
        report["functions"] = res["functions"]
        report["wrapper_overhead_s"] = res["wrapper_overhead_s"]
    metrics = {k: {"value": values[k], "unit": u} for k, u in metric_units(args.trace).items()}
    return report, metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up probe")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "contikit" / "__init__.py").is_file():
        print(f"error: no contikit package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            report, own, res = run_workload(name, args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for metric, m in own.items():
            print(f"{name:14s} {metric:34s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
        print(f"{name:14s} {'fail_ratio':34s} {report['fail_ratio']:14.6g} "
              f"of {report['fail_base']} ops", file=sys.stderr)
        print(json.dumps(report))
        correct = correct and not res["problems"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update(own if len(names) == 1 else {f"{name}.{k}": m for k, m in own.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
