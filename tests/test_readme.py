"""README.md's examples run as shown: each `$ contikit ...` line through cli.main, and the
Library snippet as a doctest."""
import doctest
import re
import shlex
from pathlib import Path

from contikit.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```\w*\n(.*?)^```$", README, re.M | re.S)


def examples():
    """(argv, lines shown) for each `$ contikit` line; the lines run to the next `$` or blank line."""
    for body in BLOCKS:
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            if chunk.startswith("$ contikit "):
                command, *shown = chunk.split("\n\n")[0].splitlines()
                yield shlex.split(command)[2:], shown


def test_every_cli_example_prints_what_it_shows(capsys):
    seen = 0
    for argv, shown in examples():
        code = main(argv)
        out, err = capsys.readouterr()
        refused = shown[0].startswith("error: ")
        lines = (err if refused else out).splitlines()
        cut = [i for i, line in enumerate(shown) if line.strip() == "..."]
        if cut:  # the lines before "..." begin the output
            shown = shown[: cut[0]]
            lines = lines[: len(shown)]
        assert (code, lines) == (2 if refused else 0, shown), argv
        seen += 1
    assert seen >= 15


def test_the_library_snippet_runs_as_shown():
    (snippet,) = [body for body in BLOCKS if body.startswith(">>> ")]
    test = doctest.DocTestParser().get_doctest(snippet, {}, "README.md", "README.md", 0)
    result = doctest.DocTestRunner().run(test)
    assert result.failed == 0 and result.attempted >= 8
