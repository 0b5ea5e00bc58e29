"""Output checks for one CLI op, computed with the reference module only.

`check` returns the problems found in an op's stdout (none means the
output is right) and whether a requested oracle verification was
skipped.  The digest comparison against the seed commit is done by the
caller; these checks make sure that what was recorded, and what is
printed now, is also correct on its own terms.
"""

from __future__ import annotations

import hashlib
import json
import re

from reference import (
    canonical_name,
    clash_length,
    in_digits,
    intrinsic,
    prune,
    strongly_connected,
    walk,
)
from workloads import CORPUS, Op, corpus_machine


# The oracle value closes an `analyze --json --oracle` report; it is absent
# when the oracle's budget refuses the machine.
ORACLE_SUFFIX = re.compile(r', "oracle": \{"L": \d+, "value": \{"num": \d+, "den": \d+\}\}\}\n\Z')


def digest(op: Op, text: str) -> str:
    """Digest of an op's stdout.  For oracle ops the oracle value is cut
    off first (it is checked by value instead), so a machine the budget
    refuses today still matches its recorded output once it is verified."""
    if op.oracle:
        text = ORACLE_SUFFIX.sub("}\n", text)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _dyadic(length: int | None) -> dict:
    """JSON fraction for opacity 2^-(length-1), or 0 when transparent."""
    return {"num": 0, "den": 1} if length is None else {"num": 1, "den": 2 ** (length - 1)}


def witness_word(obj: dict) -> list[int]:
    """The digits of an analyze report's witness; empty when transparent."""
    if "witness" not in obj:
        return []
    text = obj["witness"]["word"]
    return [int(c) for c in (text.split(",") if obj["k"] > 10 else text)]


def _check_analyze(op: Op, obj: dict) -> list[str]:
    m = op.machine
    im = intrinsic(m)
    n = len(im.trans)
    names = [canonical_name(i) for i in range(n)]
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{op.key}: {what}")

    expect(obj.get("name") == op.path, "name")
    expect(obj.get("k") == m.k, "k")
    expect(obj.get("states") == len(prune(m).trans), "input states after pruning")
    expect(obj.get("minimized_states") == n, "intrinsic states")
    expect(obj.get("strictly_accessible") == strongly_connected(im), "strict accessibility")
    inhomogeneous = [names[s] for s, ds in enumerate(in_digits(im)) if len(ds) > 1]
    expect(obj.get("inhomogeneous_states") == inhomogeneous, "inhomogeneous states")

    witness = obj.get("witness")
    length = None
    if witness is None:
        expect(obj.get("classification") == "TRANSPARENT", "classification")
    else:
        word = witness_word(obj)
        length = len(word)
        verts = walk(im, word)
        pos_a, pos_b = witness["pos_a"], witness["pos_b"]
        expect(pos_b == length - 1 and 0 <= pos_a < pos_b, "clash positions")
        expect(
            verts[pos_a + 1] == verts[-1] and word[pos_a] != word[-1],
            "witness does not clash",
        )
        expect(witness["state"] == names[verts[-1]], "clash state")
        expect(
            obj.get("classification") == ("OPAQUE" if length == 2 else "INTERMEDIATE"),
            "classification",
        )
        expect(obj.get("complexity") == {"num": 1, "den": 2 ** (length - 2)}, "complexity")
    expect(obj.get("opacity") == _dyadic(length), "opacity")
    if op.chain:
        expect(length == len(m.trans) + 1, "chain witness length is not n + 1")
    if op.oracle:
        # small machines: the shortest clash length is cheap to confirm
        expect(length == clash_length(im), "witness is not shortest")
        if "oracle" in obj:
            expect(
                obj["oracle"] == {"L": 2 * n + 2, "value": obj.get("opacity")},
                "oracle disagrees",
            )
    return problems


def _check_corpus(obj: list) -> list[str]:
    problems = []
    if sorted(row.get("name") for row in obj) != sorted(CORPUS):
        return ["corpus: rows do not name the nine corpus machines"]
    for row in obj:
        im = intrinsic(corpus_machine(row["name"]))
        length = clash_length(im)
        expected = {
            "states": len(im.trans),
            "witness_length": length,
            "opacity": _dyadic(length),
            "oracle_length": 2 * len(im.trans) + 2,
            "oracle_value": _dyadic(length),
            "pass": True,
        }
        for field, value in expected.items():
            if row.get(field) != value:
                problems.append(f"corpus {row['name']}: {field}")
    return problems


def check(op: Op, stdout: str) -> tuple[list[str], bool]:
    """Problems with an analyze or corpus op's stdout, and whether a
    requested oracle verification came back skipped (no oracle value)."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        return [f"{op.key}: stdout is not JSON"], False
    if op.machine is None:
        return _check_corpus(obj), False
    return _check_analyze(op, obj), op.oracle and "oracle" not in obj
