"""The benchmark workloads: their inputs and the CLI calls made on them.

A workload yields blocks of ops; the closed loop runs whole blocks until
its time is up.  Where cost depends on input size, op j takes its size
from u_j = (u_0 + j * phi) mod 1, with u_0 drawn from the seed and phi the
golden ratio: every stretch of the sequence covers the size range nearly
evenly, so every run carries the same mix of sizes whatever the seed or
the run length.  verify-oracle instead runs blocks of one op per cell in
a seeded order, so its mix of classes is exact.

Machines come from a fixed pool, because each pool member's CLI output
is checked against a digest recorded from the seed commit (`pool.json`);
the seed draws from that pool.

Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from reference import Machine, canonical_name, clash_length, intrinsic

WORK_DIR = "perfbench/.work"
POOL_FILE = Path(__file__).with_name("pool.json")
PHI = (math.sqrt(5) - 1) / 2

# The nine bundled corpus machines: radix, successor rows, outputs.
CORPUS: dict[str, tuple[int, tuple[tuple[int, ...], ...], tuple[str, ...]]] = {
    "baum_sweet": (2, ((0, 1), (2, 1), (1, 3), (3, 3)), ("1", "1", "0", "0")),
    "golay_shapiro": (2, ((0, 1), (0, 2), (3, 1), (3, 2)), ("1", "1", "-1", "-1")),
    "hanoi": (
        2,
        ((0, 3), (0, 2), (4, 1), (4, 0), (2, 5), (2, 4)),
        ("a", "a_bar", "c", "c_bar", "b", "b_bar"),
    ),
    "identity2": (2, ((0, 1), (0, 1)), ("0", "1")),
    "one_state": (2, ((0, 0),), ("0",)),
    "paperfolding": (2, ((0, 1), (0, 2), (3, 2), (3, 1)), ("1", "1", "-1", "-1")),
    "period_doubling": (2, ((0, 1), (0, 0)), ("0", "1")),
    "ternary_digit_sum": (3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)), ("0", "1", "2")),
    "thue_morse": (2, ((0, 1), (1, 0)), ("0", "1")),
}


def corpus_machine(name: str) -> Machine:
    k, rows, out = CORPUS[name]
    return Machine(k, rows, 0, out)


def random_machine(rng: random.Random, n: int, k: int, tokens: str = "012") -> Machine:
    """Uniform random successors and outputs; state 0 is initial."""
    trans = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
    return Machine(k, trans, 0, tuple(rng.choice(tokens) for _ in range(n)))


def homogeneous_machine(rng: random.Random, n: int, k: int, tokens: str = "012") -> Machine:
    """Every state is entered by one digit only, so no word clashes.

    Each state gets a label digit and every edge on digit d goes to a state
    labelled d.  State 0 is labelled 0 and loops on 0, so zero-normalizing
    leaves it alone.
    """
    labels = [0] + list(range(1, k)) + [rng.randrange(k) for _ in range(n - k)]
    tail = labels[1:]
    rng.shuffle(tail)
    labels[1:] = tail
    by_label = [[s for s in range(n) if labels[s] == d] for d in range(k)]
    trans = [[rng.choice(by_label[d]) for d in range(k)] for _ in range(n)]
    trans[0][0] = 0
    return Machine(k, tuple(map(tuple, trans)), 0, tuple(rng.choice(tokens) for _ in range(n)))


def chain_machine(n: int, k: int) -> Machine:
    """Every digit steps c_i -> c_(i+1 mod n); only the last state outputs 1.

    Moore refinement needs about n rounds and the shortest clashing word is
    1 0^n, of length n + 1.
    """
    trans = tuple(((i + 1) % n,) * k for i in range(n))
    return Machine(k, trans, 0, tuple("1" if i == n - 1 else "0" for i in range(n)))


def aut_text(m: Machine) -> str:
    names = [canonical_name(i) if len(m.trans) <= 26 else f"q{i}" for i in range(len(m.trans))]
    lines = [f"k {m.k}", "states " + " ".join(names), f"initial {names[m.initial]}"]
    lines += [f"output {names[s]} {tok}" for s, tok in enumerate(m.out)]
    lines += [
        f"edge {names[s]} {d} {names[t]}"
        for s, row in enumerate(m.trans)
        for d, t in enumerate(row)
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Op:
    """One CLI call.  `key` names the input for digests and memoized checks."""

    key: str
    argv: tuple[str, ...]
    path: str | None = None
    machine: Machine | None = None
    oracle: bool = False
    chain: bool = False


class Workload:
    name: str
    trace_ops: int  # ops in the traced replay

    def __init__(self, seed: int, pool: dict):
        self.seed = seed
        self.pool = pool

    def path(self, key: str) -> str:
        return f"{WORK_DIR}/{self.name}/{key}.aut"

    def members(self) -> dict[str, Machine]:
        """Every input machine an op can name, by key; one file each."""
        raise NotImplementedError

    def make_op(self, key: str, members: dict[str, Machine]) -> Op:
        raise NotImplementedError

    def pool_ops(self, members: dict[str, Machine]) -> list[Op]:
        """One op per pool member whose output digest is recorded."""
        return [self.make_op(key, members) for key in members]

    def digest(self, key: str) -> str | None:
        return self.pool["digests"][self.name].get(key)

    def blocks(self, members: dict[str, Machine]) -> Iterator[list[Op]]:
        raise NotImplementedError

    def warm_op(self, members: dict[str, Machine]) -> Op:
        """The set-up's warm-up op: the cheapest kind, so set-up time does
        not depend on the seed."""
        raise NotImplementedError


class SizeSequence(Workload):
    """One op per block; op j gets size parameter u_j in [0, 1)."""

    def blocks(self, members):
        rng = random.Random(f"{self.name}:{self.seed}")
        u0 = rng.random()
        for j in itertools.count():
            yield [self.op_at(j, (u0 + j * PHI) % 1.0, rng, members)]

    def warm_op(self, members):
        return self.op_at(0, 0.0, random.Random(f"{self.name}:{self.seed}:warm"), members)

    def op_at(self, j: int, u: float, rng: random.Random, members: dict[str, Machine]) -> Op:
        raise NotImplementedError


class AnalyzeRandom(SizeSequence):
    """Uniform random machines with 3 output tokens: n log-uniform in
    [64, 1024), from 64 buckets of 1/16 octave, two machines per bucket
    and radix; k alternates between 2 and 4."""

    name = "analyze-random"
    trace_ops = 64

    def members(self):
        out = {}
        for b in range(64):
            for k in (2, 4):
                for v in range(2):
                    key = f"b{b:02d}k{k}v{v}"
                    rng = random.Random(f"analyze-random/{key}")
                    out[key] = random_machine(rng, int(2 ** (6 + (b + rng.random()) / 16)), k)
        return out

    def make_op(self, key, members):
        path = self.path(key)
        return Op(key, ("analyze", "--json", path), path, members[key])

    def op_at(self, j, u, rng, members):
        return self.make_op(f"b{int(64 * u):02d}k{(2, 4)[j % 2]}v{rng.randrange(2)}", members)


class AnalyzeChain(SizeSequence):
    """Cycle chains, n log-uniform in [32, 256); k alternates between 2 and 3."""

    name = "analyze-chain"
    trace_ops = 40

    def members(self):
        return {f"n{n}k{k}": chain_machine(n, k) for k in (2, 3) for n in range(32, 256)}

    def make_op(self, key, members):
        path = self.path(key)
        return Op(key, ("analyze", "--json", path), path, members[key], chain=True)

    def op_at(self, j, u, rng, members):
        return self.make_op(f"n{int(32 * 8**u)}k{(2, 3)[j % 2]}", members)


# verify-oracle cells that draw generated machines: (kind, k, intrinsic
# states, shortest clash length or None).  Their oracle cost depends only on
# these, so every seed carries the same load.
ORACLE_CELLS = {
    # transparent: the sweep runs every length up to 2n + 2
    "t-k2n5": ("t", 2, 5, None),
    "t-k2n6": ("t", 2, 6, None),
    "t-k3n3": ("t", 3, 3, None),
    "t-k3n4": ("t", 3, 4, None),
    # opaque and intermediate: the sweep stops at the clash length
    "r-k2n6L2": ("r", 2, 6, 2),
    "r-k2n8L3": ("r", 2, 8, 3),
    "r-k2n10L4": ("r", 2, 10, 4),
    "r-k3n4L2": ("r", 3, 4, 2),
    "r-k3n5L3": ("r", 3, 5, 3),
    "r-k3n6L3": ("r", 3, 6, 3),
    # 11 to 14 states: the word budget refuses the sweep at bound 2n + 2
    "x-k2n11L3": ("x", 2, 11, 3),
    "x-k2n12L3": ("x", 2, 12, 3),
    "x-k2n13L4": ("x", 2, 13, 4),
    "x-k2n14L4": ("x", 2, 14, 4),
}


def oracle_candidate(cell: str, j: int) -> Machine:
    """Candidate j for a generated verify-oracle cell."""
    kind, k, n, _ = ORACLE_CELLS[cell]
    rng = random.Random(f"verify-oracle/{cell}/{j}")
    if kind == "t":
        return homogeneous_machine(rng, n + rng.randrange(3), k)
    if kind == "r":
        return random_machine(rng, rng.randint(3, 10), k)
    return random_machine(rng, rng.randint(11, 16), k)


def oracle_selects(cell: str, m: Machine) -> bool:
    """Whether a candidate's intrinsic machine has the cell's (k, n, clash)."""
    _, _, n, length = ORACLE_CELLS[cell]
    im = intrinsic(m)
    return len(im.trans) == n and clash_length(im) == length


class VerifyOracle(Workload):
    """analyze --json --oracle on small machines, plus the corpus; one op
    per cell in each block."""

    name = "verify-oracle"
    trace_ops = 48
    # Transparent machines come twice per block.  Their sweeps are the
    # slowest ops, so the top decile of latencies then falls inside one
    # class (t-k2n6) rather than on the edge between two.
    cells = (
        [f"corpus-{name}" for name in CORPUS]
        + ["corpus-json"]
        + list(ORACLE_CELLS)
        + [cell for cell in ORACLE_CELLS if cell.startswith("t-")]
    )

    def members(self):
        out = {f"corpus-{name}": corpus_machine(name) for name in CORPUS}
        for cell, picks in self.pool["verify-oracle"].items():
            out.update({f"{cell}j{j}": oracle_candidate(cell, j) for j in picks})
        return out

    def make_op(self, key, members):
        if key == "corpus-json":
            return Op(key, ("corpus", "--json"))
        path = self.path(key)
        return Op(key, ("analyze", "--json", "--oracle", path), path, members[key], oracle=True)

    def pool_ops(self, members):
        return super().pool_ops(members) + [self.make_op("corpus-json", members)]

    def keys(self, cell: str) -> list[str]:
        if cell in ORACLE_CELLS:
            return [f"{cell}j{j}" for j in self.pool["verify-oracle"][cell]]
        return [cell]

    def warm_op(self, members):
        return self.make_op("corpus-thue_morse", members)

    def blocks(self, members):
        rng = random.Random(f"{self.name}:{self.seed}")
        while True:
            yield [
                self.make_op(rng.choice(self.keys(cell)), members)
                for cell in rng.sample(self.cells, len(self.cells))
            ]


WORKLOADS = {w.name: w for w in (AnalyzeRandom, AnalyzeChain, VerifyOracle)}


def load_pool() -> dict:
    return json.loads(POOL_FILE.read_text())
