"""Golden CLI outputs: every command's stdout, exit code and stderr on the
bundled machines and on seeded random ones, pinned by sha256 digest.

A change of any byte in any command's output shows here.  Pruned-state
warnings are cut to their first two words, as their listing
is pinned by its own tests.  Files are named relative to the working
directory, so the `name` field is the same on every run.
"""

import hashlib
import random
import shutil
from pathlib import Path

import pytest

from dfao import cli
from dfao.autfile import serialize
from helpers import random_dfao, residue_machine, split_state, unpruned_aut_text

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"
CORPUS = sorted(p.name for p in CORPUS_DIR.glob("*.aut"))

GOLDEN = {
    "analyze": "8114cc5ee8dfe3815498aba0bb918a7b105d64dcbf85608df742847ab2934c10",
    "corpus": "39841a1088ed09a92c30343917aa5093fb29630308e22d27443ae2b335f38aa7",
    "minimize": "52bc935d8e21b8c9060873f0d50ebc5bd826b99aefb65896fd6c113d4ca4d37a",
    "generate": "fdc18e4bac8b0a94142c992032f2a0a0f99fe2be265d638139b0b61c59fcdde2",
    "dot": "cd783f616c328c681dbf12d2f9b46bf7872ee02c2ed27e4a28a6a4e8b39d6ba6",
    "equiv": "8b92beb9c7c7b89a4a5a6c524358d038bb0ffa5b1018fc854a56257c2466f2cc",
}


def _machines(rng: random.Random) -> dict[str, str]:
    """About 30 .aut texts: shuffled machines with unreachable states,
    machines over k = 11, transparent ones, ones whose oracle refuses
    (over its relabeling budget) and small ones it answers."""
    texts = {}
    for i in range(10):
        k, n = rng.choice((2, 3, 4)), rng.randint(3, 12)
        texts[f"pruned{i}.aut"] = unpruned_aut_text(rng, k, n)
    for i in range(6):
        texts[f"small{i}.aut"] = serialize(random_dfao(rng, max_states=5, min_states=2))
    for i in range(4):
        texts[f"wide{i}.aut"] = serialize(
            random_dfao(rng, k=11, max_states=8, min_states=2, output_alphabet=("a", "b"))
        )
    for i in range(4):
        texts[f"large{i}.aut"] = serialize(
            random_dfao(rng, k=2, max_states=60, min_states=30, output_alphabet=("0", "1"))
        )
    for i in range(3):
        texts[f"flat{i}.aut"] = serialize(random_dfao(rng, max_states=6, output_alphabet=("c",)))
    texts["residue.aut"] = serialize(residue_machine(3, 6))
    base = random_dfao(rng, max_states=5, min_states=3)
    texts["unsplit.aut"] = serialize(base)
    texts["split.aut"] = serialize(split_state(rng, base))
    return texts


def _run(argv: list[str], capsys, files: tuple[str, ...] = ()) -> bytes:
    code = cli.main(argv)
    captured = capsys.readouterr()
    err = "".join(
        "warning: pruned\n" if line.startswith("warning: pruned") else line
        for line in captured.err.splitlines(keepends=True)
    )
    record = [repr(argv), str(code), captured.out, err]
    record += [Path(f).read_text(encoding="utf-8") for f in files]
    return "\0".join(record).encode("utf-8") + b"\1"


@pytest.fixture(scope="module")
def golden_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    for name in CORPUS:
        shutil.copy(CORPUS_DIR / name, tmp / name)
    machines = _machines(random.Random(2026))
    for name, text in machines.items():
        (tmp / name).write_text(text, encoding="utf-8")
    return tmp, CORPUS + sorted(machines)


def test_every_command_prints_what_it_printed_before(golden_outputs, capsys, monkeypatch):
    tmp, files = golden_outputs
    monkeypatch.chdir(tmp)
    hashes = {command: hashlib.sha256() for command in GOLDEN}
    for f in files:
        for flags in ([], ["--json"], ["--oracle"], ["--json", "--oracle"]):
            hashes["analyze"].update(_run(["analyze", f, *flags], capsys))
        hashes["minimize"].update(_run(["minimize", f], capsys))
        hashes["minimize"].update(_run(["minimize", f, "-o", "out.aut"], capsys, ("out.aut",)))
        hashes["generate"].update(_run(["generate", f, "-n", "64"], capsys))
        hashes["dot"].update(_run(["dot", f], capsys))
        hashes["dot"].update(_run(["dot", f, "--witness"], capsys))
    for f, g in zip(files, files[1:] + files[:1]):
        hashes["equiv"].update(_run(["equiv", f, g], capsys))
        hashes["equiv"].update(_run(["equiv", f, f], capsys))
    hashes["equiv"].update(_run(["equiv", "split.aut", "unsplit.aut"], capsys))
    for flags in ([], ["--json"]):
        hashes["corpus"].update(_run(["corpus", *flags], capsys))
    assert {command: h.hexdigest() for command, h in hashes.items()} == GOLDEN
