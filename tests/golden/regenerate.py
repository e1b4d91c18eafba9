"""Rewrite tests/golden/cli.jsonl, the golden CLI corpus, from the code in this checkout.

    PYTHONPATH=src python tests/golden/regenerate.py

Each command runs in-process through cli.main, as tests/test_golden.py runs it.  The
script prints every command whose record it changed; a commit that regenerates records
says which and why.  The test never writes the corpus.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1]))
from test_golden import CORPUS, load, record  # noqa: E402

SQRTS = ["2", "3", "7", "8", "13", "61", "1000003"]
SYSTEMS = [["--sqrt", n] for n in SQRTS] + [
    ["--d", "1", "--a", "1", "--b", "1"],  # FIB
    ["--d", "3", "--a", "1,2,3", "--b", "4,5,6"],
    ["--d", "2", "--a", "1,1", "--b", "0,3", "--non-strict"],  # B_{d-1} = 0
    ["--d", "2", "--a=-1,-1", "--b", "2,2", "--non-strict"],  # Delta = 0
]
FAMILIES = ["millin", "period_reciprocal", "arctan", "artanh", "pi_over_6", "pi_over_8", "ln3", "ln2"]
IDENTITIES = [("cassini_A", "1,2,3"), ("cassini_B", "2,3,1"), ("catalan", "1,3"),
              ("docagne", "4,2"), ("index_changing", "1,3"), ("telescoping", "6,0")]


def commands() -> list[list[str]]:
    grid = []
    for n in SQRTS + ["9"]:
        grid += [["expand", "--n", n], ["pell", "--n", n, "--count", "3"]]
    grid += [["pell", "--n", n, "--count", "2"] for n in ("61", "1000003", "1000009")]  # d = 11, 458, 743
    for system in SYSTEMS:
        grid.append(["reduce", *system])
        grid += [["binet", *system, "--nu", nu] for nu in ("-7", "0", "13", "1000")]
        grid += [["series", *system, "--family", f] for f in FAMILIES]
        grid.append(["series", *system, "--family", "pi_over_6", "--digits", "20", "--terms", "200",
                     "--compare-zeta", "0.1"])
        grid += [["check", *system, "--identity", name, "--params", params] for name, params in IDENTITIES]
        grid += [["check", *system, "--congruence-p", p] for p in ("3", "7")]
        grid += [["pseudoprime", *system, "--candidate", n] for n in ("35", "323")]
        grid.append(["pseudoprime", *system, "--range", "3:60"])
        grid += [["pisano", *system, "--p", p] for p in ("3", "13")]
    for n in SQRTS:
        grid += [["series", "--sqrt", n, "--family", f] for f in ("pell_x", "pell_y", "pell_y2")]
    grid += [  # closed forms that once cancelled on long periods (d = 743 and 6524)
        ["series", "--sqrt", "1000009", "--family", "artanh"],
        ["series", "--sqrt", "100000007", "--family", "period_reciprocal", "--digits", "50"],
    ]
    grid += [["paper", "--seed", seed] for seed in ("1", "2", "3")]
    grid += [["paper", "--digits", digits] for digits in ("20", "21", "22", "23")]
    grid += [  # one refusal of each kind that the grid above may not reach
        ["check", "--sqrt", "8"],  # UsageError
        ["pisano", "--sqrt", "8", "--p", "2199258138047"],  # InputTooLarge
        ["series", "--sqrt", "8", "--family", "pi_over_6", "--terms", "10"],  # PrecisionExhausted
        ["pell", "--n", "-5", "--count", "1"],  # UsageError: a negative N is no perfect square
    ]
    grid += [  # argparse's refusals, each a UsageError through the same handler
        ["reduce", "--sqrt", "8", "--no-such-option"],
        ["reduce", "--sqrt", "x"],
        ["pisano", "--sqrt", "8"],
        ["reduce", "--sqrt", "8", "--d", "2", "--a", "1,1", "--b", "1,4"],
        ["pseudoprime", "--sqrt", "8", "--candidate", "35", "--range", "3:40"],
        ["check", "--sqrt", "8", "--identity", "catalan", "--params", "1,2", "--congruence-p", "3"],
    ]
    grid += [  # options that the chosen source or mode never reads
        ["reduce", "--sqrt", "8", "--a", "5,5", "--b0", "9", "--non-strict"],
        ["check", "--sqrt", "8", "--congruence-p", "7", "--params", "9,9"],
        ["series", "--sqrt", "8", "--family", "pell_y", "--b0", "3"],
    ]
    return [argv + json_flag for argv in grid for json_flag in ([], ["--json"])]


def main() -> int:
    old = {tuple(r["argv"]): r for r in load()} if CORPUS.exists() else {}
    records = [record(argv) for argv in commands()]
    for r in records:
        if old.get(tuple(r["argv"])) != r:
            print(("changed: " if tuple(r["argv"]) in old else "added: ") + " ".join(r["argv"]))
    gone = old.keys() - {tuple(r["argv"]) for r in records}
    for argv in sorted(gone):
        print("removed: " + " ".join(argv))
    CORPUS.write_text("".join(json.dumps(r) + "\n" for r in records))
    print(f"{len(records)} records in {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
