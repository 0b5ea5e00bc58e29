"""numpy loads on the oracle's first sweep and not before: every command
that does not sweep runs without it.  Checked in a fresh interpreter,
since this process has numpy already (through `helpers`)."""

import subprocess
import sys
from pathlib import Path

from helpers import child_env

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

CHILD = """
import contextlib, io, json, sys
from pathlib import Path

import dfao
import dfao.cli


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = dfao.cli.main(list(argv))
    assert code == 0, (argv, code)
    return out.getvalue()


files = sorted(str(p) for p in Path(sys.argv[1]).glob("*.aut"))
assert files
assert "numpy" not in sys.modules, "import"
for f in files:
    for argv in (
        ["analyze", f],
        ["analyze", "--json", f],
        ["minimize", f],
        ["generate", "-n", "50", f],
        ["dot", "--witness", f],
        ["equiv", f, f],
    ):
        run(*argv)
        assert "numpy" not in sys.modules, argv
for f in files:
    report = json.loads(run("analyze", "--json", "--oracle", f))
    assert "numpy" in sys.modules, f
    assert report["oracle"]["value"] == report["opacity"], f
"""


def test_numpy_loads_only_when_the_oracle_sweeps():
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(CORPUS_DIR)], capture_output=True, text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
