"""The README's examples, run as written."""

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
