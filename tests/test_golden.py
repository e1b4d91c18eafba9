"""The golden CLI corpus: every command in tests/golden/cli.jsonl gives its recorded output.

Each record holds an argv, its exit status, the sha256 of its stdout and its stderr, taken
in-process through cli.main.  The records change only through tests/golden/regenerate.py,
never here; a run that changes one lists every command whose record moved.
"""
import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from contikit.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli.jsonl"


def record(argv: list[str]) -> dict:
    """The record of one command, as main gives it in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


def load() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def test_every_command_gives_its_recorded_output():
    changed = []
    for want in load():
        got = record(want["argv"])
        if got != want:
            changed.append(f"{' '.join(want['argv'])}\n    recorded {want}\n    now      {got}")
    assert not changed, f"{len(changed)} commands changed:\n" + "\n".join(changed)


def test_the_corpus_holds_the_regenerate_grid_in_order(monkeypatch):
    # A grid edited but never regenerated fails here; no command runs.
    monkeypatch.syspath_prepend(str(CORPUS.parent))
    import regenerate
    assert [r["argv"] for r in load()] == regenerate.commands()


def test_the_corpus_covers_every_verb_output_mode_and_refusal():
    records = load()
    verbs = {r["argv"][0] for r in records}
    assert verbs == {"expand", "pell", "reduce", "binet", "series", "check", "pseudoprime", "pisano", "paper"}
    for verb in verbs:
        modes = {"--json" in r["argv"] for r in records if r["argv"][0] == verb}
        assert modes == {False, True}, verb
    refused = {r["stderr"].split(":")[1].strip() for r in records if r["exit"] == 2}
    for r in records:  # argparse's refusals included: one typed line, never a usage synopsis
        if r["exit"] == 2:
            assert re.fullmatch(r"error: [A-Za-z]+: [^\n]+\n", r["stderr"]), r["argv"]
    assert refused >= {"UsageError", "DivisionByZero", "HypothesisViolated", "PrecisionExhausted", "InputTooLarge"}
