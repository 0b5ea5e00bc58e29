"""The README's examples, run as written."""

import argparse
import re
from pathlib import Path

from dfao import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```[a-z]*\n(.*?)^```$", README, re.S | re.M)


def _block(first_line: str) -> str:
    (block,) = [b for b in BLOCKS if b.startswith(first_line)]
    return block


def test_library_tour_prints_its_comments(capsys):
    code = _block("from dfao import")
    expected = [
        line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")
    ]
    assert len(expected) == 4
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == expected


def test_analyze_example_is_the_cli_output(capsys, monkeypatch):
    command, _, shown = _block("$ dfao analyze").partition("\n")
    monkeypatch.chdir(ROOT)
    assert cli.main(command.split()[2:]) == 0
    assert capsys.readouterr().out == shown


def test_command_line_synopsis_matches_the_parser():
    """Every subcommand and flag the README lists exists, and every option
    of every subcommand is listed in one of its forms."""
    shown: dict[str, set[str]] = {}
    for line in _block("dfao ").splitlines():
        usage = line.split("#", 1)[0].split()
        assert usage[0] == "dfao", line
        shown[usage[1]] = set(re.findall(r"(?<![\w-])(--?[A-Za-z][\w-]*)", " ".join(usage[2:])))
    (sub,) = [a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = sub.choices
    assert list(shown) == list(parsers)
    for name, parser in parsers.items():
        options = [a.option_strings for a in parser._actions if a.option_strings]
        assert shown[name] <= {s for strings in options for s in strings}, name
        for strings in options:
            if strings != ["-h", "--help"]:
                assert shown[name] & set(strings), (name, strings)
