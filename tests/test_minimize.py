"""Partition refinement, quotients and the intrinsic machine."""

import math
import random
from collections import Counter
from importlib import import_module

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfao.automaton import Automaton, Dfao, are_equivalent, make_dfao
from dfao.corpus import ENTRIES, build
from dfao.errors import UnknownState
from dfao.minimize import intrinsic_automaton, minimize, moore_partition
from helpers import (
    blocks,
    canonical_form,
    cycle_chain,
    is_minimal,
    minimize_reference,
    moore_reference,
    random_dfao,
    small_dfaos,
    split_state,
    tree_cycle,
)


def tm_with_split_a():
    """Thue-Morse with its initial state duplicated into A1/A2."""
    return make_dfao(
        2,
        {"A1": ("A2", "B"), "A2": ("A1", "B"), "B": ("B", "A1")},
        "A1",
        {"A1": "0", "A2": "0", "B": "1"},
    )


def test_moore_partition_merges_split_states():
    part = moore_partition(tm_with_split_a())
    assert part.n_blocks == 2
    assert part.block_of == (0, 0, 1)
    assert blocks(part) == ((0, 1), (2,))


def test_moore_partition_on_minimal_machines():
    for name in ("identity2", "thue_morse", "golay_shapiro", "hanoi"):
        d = build(name)
        part = moore_partition(d)
        assert part.n_blocks == len(d.states)
        assert blocks(part) == tuple((s,) for s in range(len(d.states)))


def test_moore_partition_constant_outputs_collapse():
    d = make_dfao(
        2,
        {"A": ("B", "C"), "B": ("C", "A"), "C": ("A", "B")},
        "A",
        {"A": "x", "B": "x", "C": "x"},
    )
    part = moore_partition(d)
    assert part.n_blocks == 1
    assert part.block_of == (0, 0, 0)


def test_is_minimal_on_corpus():
    for ent in ENTRIES:
        assert is_minimal(build(ent.name)), ent.name
    assert not is_minimal(tm_with_split_a())


def test_minimize_recovers_thue_morse():
    fm = minimize(tm_with_split_a())
    assert fm.target == build("thue_morse")
    assert fm.assignment == (0, 0, 1)


def test_minimize_names_states_canonically():
    d = cycle_chain(30, 2).normalize_zero()
    letters = tuple(chr(c) for c in range(ord("A"), ord("Z") + 1))
    assert minimize(d).target.states == letters + ("s26", "s27", "s28", "s29", "s30")


def test_minimize_rejects_an_unreachable_block():
    """Directly built machines skip pruning; C is unreachable and alone in
    its block, so the quotient has a block no word reaches."""
    d = Dfao(Automaton(2, ("A", "B", "C"), 0, ((1, 1), (0, 0), (0, 0))), ("0", "1", "2"))
    for minimizer in (minimize, minimize_reference):
        with pytest.raises(UnknownState, match="^canonical form needs every state reachable$"):
            minimizer(d)


def test_minimize_merges_unreachable_states_into_reachable_blocks():
    """Unreachable states that are mates of reachable ones are no error:
    every block is still reached."""
    # X, unreachable, copies B; the initial state is A, listed second
    tm = Dfao(Automaton(2, ("X", "A", "B"), 1, ((2, 1), (1, 2), (2, 1))), ("1", "0", "1"))
    # one output over six states, of which U, V, X and Z are unreachable
    rows = ((0, 1, 2), (3, 3, 3), (2, 4, 2), (5, 5, 0), (4, 4, 4), (1, 1, 1))
    flat = Dfao(Automaton(3, tuple("UVWXYZ"), 2, rows), ("0",) * 6)
    for d, target, assignment in (
        (tm, build("thue_morse"), (1, 0, 1)),
        (flat, Dfao(Automaton(3, ("A",), 0, ((0, 0, 0),)), ("0",)), (0,) * 6),
    ):
        for minimizer in (minimize, minimize_reference):
            fm = minimizer(d)
            assert (fm.target, fm.assignment) == (target, assignment)


def test_minimize_factor_map_laws():
    rng = random.Random(5)
    for _ in range(60):
        d = random_dfao(rng)
        fm = minimize(d)
        src, tgt, asg = fm.source, fm.target, fm.assignment
        assert src is d
        assert len(asg) == len(src.states)
        assert asg[src.initial] == tgt.initial
        assert set(asg) == set(range(len(tgt.states)))  # onto
        for s in range(len(src.states)):
            assert tgt.output[asg[s]] == src.output[s]
            for dig in range(src.k):
                assert asg[src.automaton.transition[s][dig]] == tgt.automaton.transition[asg[s]][dig]
        assert is_minimal(tgt)
        assert are_equivalent(src, tgt)
        # minimizing again changes nothing
        again = minimize(tgt)
        assert again.target == tgt


def test_minimize_is_constant_on_equivalence_classes():
    rng = random.Random(6)
    for _ in range(40):
        d = random_dfao(rng)
        base = minimize(d).target
        e = d
        for _ in range(3):
            e = split_state(rng, e)
            assert minimize(e).target == base


def test_minimize_never_grows():
    rng = random.Random(8)
    for _ in range(60):
        d = random_dfao(rng)
        assert len(minimize(d).target.states) <= len(d.states)


def test_intrinsic_fixed_points_on_corpus():
    for ent in ENTRIES:
        d = build(ent.name)
        fm = intrinsic_automaton(d)
        assert len(fm.target.states) == ent.states, ent.name
        assert are_equivalent(fm.target, canonical_form(d)), ent.name
        assert fm.target == canonical_form(d), ent.name


def test_intrinsic_normalizes_before_minimizing():
    # initial state lacks a 0-loop, so a fresh one is added and survives
    d = make_dfao(2, {"A": ("B", "A"), "B": ("A", "B")}, "A", {"A": "0", "B": "1"})
    fm = intrinsic_automaton(d)
    assert fm.source == d.normalize_zero()
    assert fm.target.automaton.transition[fm.target.initial][0] == fm.target.initial
    assert fm.target.generate(300) == d.generate(300)
    assert len(fm.target.states) == 3


def test_intrinsic_collapses_redundant_zero_loop():
    # the fresh state is behaviorally the old initial: it merges away
    d = build("baum_sweet")
    nz = d.normalize_zero()
    assert nz is d  # already loops on 0
    fm = intrinsic_automaton(d)
    assert fm.target == d


def test_minimize_idempotent_via_intrinsic():
    rng = random.Random(9)
    for _ in range(30):
        d = random_dfao(rng)
        fm = intrinsic_automaton(d)
        twice = intrinsic_automaton(fm.target)
        assert twice.target == fm.target


def inflate(rng, d, n):
    """A machine of n states, each a copy of one of d's states: a copy
    keeps its original's output, and each of its edges goes to some copy
    of the original edge's target, so copies of a state are equivalent."""
    m = len(d.states)
    origin = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    copies = [[] for _ in range(m)]
    for i, o in enumerate(origin):
        copies[o].append(f"s{i}")
    rows = {
        f"s{i}": [rng.choice(copies[t]) for t in d.automaton.transition[o]]
        for i, o in enumerate(origin)
    }
    return make_dfao(d.k, rows, "s0", {f"s{i}": d.output[o] for i, o in enumerate(origin)})


def machine(k, rows, outputs):
    """A directly built machine with states q0, q1, ... and q0 initial."""
    names = tuple(f"q{s}" for s in range(len(rows)))
    return Dfao(Automaton(k, names, 0, tuple(map(tuple, rows))), tuple(outputs))


def copied_machine(rng):
    """A random m-state machine with outputs 0, 1, 2, 0, ... copied c times,
    each edge going to a random copy of its target: the rounds mostly end
    stable with the copies merged."""
    k, m, c = rng.choice((2, 3, 4)), rng.randint(2, 4), rng.randint(2, 20)
    base = [[rng.randrange(m) for _ in range(k)] for _ in range(m)]
    rows = [[rng.randrange(c) * m + t for t in base[s % m]] for s in range(m * c)]
    return machine(k, rows, (str(s % m % 3) for s in range(m * c)))


def three_token_machine(rng, n=None, k=None):
    """A uniform random machine with three output tokens: the rounds
    mostly end with every state alone."""
    k = k or rng.choice((2, 3, 4))
    n = n or rng.randint(50, 150)
    rows = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    return machine(k, rows, (rng.choice("012") for _ in range(n)))


def stalling_machine(rng):
    """A random part with alternating outputs 0, 1 and an even cycle with
    the same outputs but for one defect: the rounds split the cycle one
    state at a time, stall, and hand over to the refinement."""
    k, r, cycle = rng.choice((2, 3)), 2 * rng.randint(2, 20), 2 * rng.randint(8, 40)
    n = r + cycle
    rows = [[rng.randrange(n) for _ in range(k)] for _ in range(r)]
    rows += [[r + (j + 1) % cycle] * k for j in range(cycle)]
    outputs = [str(s % 2) for s in range(n)]
    outputs[r + rng.randrange(cycle)] = "2"
    return machine(k, rows, outputs)


def dominated_machine(rng):
    """A uniform random machine whose output 0 covers more than half of
    the states: the refinement runs from the output classes, no round."""
    k, n = rng.choice((2, 3, 4)), rng.randint(3, 120)
    outputs = ["0"] * n
    for s in rng.sample(range(n), rng.randint(1, (n - 1) // 2)):
        outputs[s] = rng.choice("12")
    return machine(k, [[rng.randrange(n) for _ in range(k)] for _ in range(n)], outputs)


def partition_and_calls(monkeypatch, d):
    """moore_partition(d), and how often it called `_renumber` (once for
    the output classes, once per round, once at the end of a refinement)
    and `_preimages` (once per refinement)."""
    module = import_module("dfao.minimize")
    calls = Counter()

    def counting(name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    with monkeypatch.context() as patch:
        for name in ("_renumber", "_preimages"):
            patch.setattr(module, name, counting(name))
        return moore_partition(d), calls["_renumber"], calls["_preimages"]


def route(monkeypatch, d):
    """Check moore_partition(d) against the reference and name its route."""
    part, renumbers, refinements = partition_and_calls(monkeypatch, d)
    assert part == moore_reference(d)
    rounds = renumbers - 1 - refinements
    if refinements:
        return "handover" if rounds else "refinement"
    return "singletons" if part.n_blocks == len(d.states) else "stable"


def test_moore_partition_matches_reference_on_random_machines(monkeypatch):
    rng = random.Random(31)
    for _ in range(400):
        d = random_dfao(rng, max_states=12)
        assert moore_partition(d) == moore_reference(d)
        e = split_state(rng, d)
        assert moore_partition(e) == moore_reference(e)
    singletons = Counter(route(monkeypatch, three_token_machine(rng)) for _ in range(100))
    assert singletons["singletons"] >= 80, singletons
    stalled = Counter(route(monkeypatch, stalling_machine(rng)) for _ in range(100))
    assert stalled == {"handover": 100}


def test_moore_partition_matches_reference_on_cycle_chains(monkeypatch):
    for k in (2, 3):
        for n in range(1, 201):
            d = cycle_chain(n, k).normalize_zero()
            assert moore_partition(d) == moore_reference(d), (n, k)
        for n in range(3, 60):
            assert route(monkeypatch, cycle_chain(n, k)) == "refinement", (n, k)
    rng = random.Random(33)
    dominated = Counter(route(monkeypatch, dominated_machine(rng)) for _ in range(100))
    assert dominated == {"refinement": 100}


def test_moore_partition_matches_reference_with_many_equal_states(monkeypatch):
    """Two output tokens over a few distinct behaviours, each copied many
    times: blocks split over many rounds and mates stay merged."""
    rng = random.Random(32)
    for _ in range(150):
        base = random_dfao(rng, k=rng.choice((2, 3, 4)), max_states=8,
                           output_alphabet=("0", "1"))
        d = inflate(rng, base, rng.randint(len(base.states), 120))
        part = moore_partition(d)
        assert part == moore_reference(d)
        assert part.n_blocks <= len(base.states)
    stable = Counter(route(monkeypatch, copied_machine(rng)) for _ in range(100))
    assert stable["stable"] >= 50, stable


ROUTE_FAMILIES = (copied_machine, three_token_machine, stalling_machine, dominated_machine)


@given(small_dfaos(), st.sampled_from(ROUTE_FAMILIES), st.randoms(use_true_random=False))
def test_moore_partition_equals_reference_property(d, family, rng):
    assert moore_partition(d) == moore_reference(d)
    e = family(rng)
    assert moore_partition(e) == moore_reference(e)


def test_moore_partition_cost_on_random_tree_and_chain_machines(monkeypatch):
    """Cost: each round but the last at least doubles the blocks or halves
    n minus the blocks, so there are at most 2 ceil(log2 n) + 2
    renumberings, O(n k log n) in C-level passes, and no in-edge lists
    where the rounds settle the partition.
    - Random machines with three output tokens settle in two or three
      rounds.  One can still hand its last few splits over (about one in
      ten at 2048 states and k = 2); these seeded ones do not.
    - A complete binary tree whose leaves all output differently gains one
      level of singletons per round: its blocks never double, but n minus
      the blocks halves each time, so h renumberings settle depth h.
    - On cycle chains the largest output class holds all but one state,
      so no round is taken and the in-edge lists are built once."""
    rng = random.Random(34)
    for n in (256, 512, 1024, 2048):
        for k in (2, 4):
            _, renumbers, refinements = partition_and_calls(
                monkeypatch, three_token_machine(rng, n, k))
            assert refinements == 0, (n, k)
            assert renumbers <= 2 * math.ceil(math.log2(n)) + 2, (n, k, renumbers)
    for h in (8, 9, 10, 11):
        a = tree_cycle(h)
        first_leaf = 2**h - 1
        d = Dfao(a, tuple("x" if s < first_leaf else f"y{s}" for s in range(len(a.states))))
        part, renumbers, refinements = partition_and_calls(monkeypatch, d)
        assert (part.n_blocks, renumbers, refinements) == (len(a.states), h, 0), h
    for n in (64, 255):
        for k in (2, 3):
            d = cycle_chain(n, k).normalize_zero()
            assert partition_and_calls(monkeypatch, d)[1:] == (2, 1), (n, k)


@given(small_dfaos())
def test_minimize_preserves_equivalence_property(d):
    assert are_equivalent(d, minimize(d).target)


@given(small_dfaos())
def test_minimize_is_idempotent_property(d):
    target = minimize(d).target
    assert minimize(target).target == target


def test_minimize_matches_quotient_then_canonicalize():
    """One-step build = the b0.. quotient machine run through canonicalize,
    on the seeded machines the tests above draw."""
    rng = random.Random(5)
    machines = [random_dfao(rng) for _ in range(60)]
    rng = random.Random(31)
    for _ in range(400):
        d = random_dfao(rng, max_states=12)
        machines += [d, split_state(rng, d)]
    machines += [cycle_chain(n, k).normalize_zero() for k in (2, 3) for n in range(1, 60)]
    rng = random.Random(32)
    for _ in range(150):
        base = random_dfao(rng, k=rng.choice((2, 3, 4)), max_states=8,
                           output_alphabet=("0", "1"))
        machines.append(inflate(rng, base, rng.randint(len(base.states), 120)))
    machines += [build(ent.name) for ent in ENTRIES]
    for d in machines:
        got, want = minimize(d), minimize_reference(d)
        assert (got.target, got.assignment) == (want.target, want.assignment)


@given(small_dfaos())
def test_minimize_matches_quotient_then_canonicalize_property(d):
    got, want = minimize(d), minimize_reference(d)
    assert (got.target, got.assignment) == (want.target, want.assignment)
