"""Collapse indistinguishable states into the canonical minimal machine.

Two states are indistinguishable when every word read from them produces
the same output trace.  The coarsest such partition (the Moore
equivalence) is computed in two stages.  Signature rounds (Moore,
"Gedanken-experiments on sequential machines", 1956) come first: each
renumbers every state by its block and its successors' blocks, in one
O(nk) pass for n states and radix k, and a random machine settles in a
few of them.  They go on only while each round at least doubles the
blocks or at least halves n minus the blocks, so there are O(log n) of
them, and none is taken when one output class holds more than half of
the states.  Where the rounds stall, as on a cycle that splits one state
at a time, Hopcroft's partition refinement in the in-place form of
Valmari and Lehtinen (Valmari, "Fast brief practical DFA minimization",
IPL 112, 2012) finishes from the partition the rounds reached: it splits
a block whenever some digit sends part of it into a splitter block and
the rest elsewhere.  Each split re-queues only its smaller half, so a
state is re-queued at most log2(n) times, and either stage costs
O(n k log n).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable, Sequence

from .automaton import Dfao, _bfs, _build, _preimages, _relabel_rows
from .errors import UnknownState

_LETTERS = tuple(chr(c) for c in range(ord("A"), ord("Z") + 1))


@dataclass(frozen=True)
class Partition:
    """Assignment of each state index to a block id.

    Blocks are numbered by their smallest member, so the numbering is
    deterministic for a given machine.
    """

    block_of: tuple[int, ...]
    n_blocks: int


@dataclass(frozen=True)
class FactorMap:
    """A structure-preserving onto map between machines.

    assignment[s] is the target state for source state s.  It commutes
    with the transitions, maps initial to initial and preserves outputs;
    the test suite checks these laws hold for every map built here.
    """

    source: Dfao
    target: Dfao
    assignment: tuple[int, ...]


def _renumber(keys: Sequence[Hashable]) -> list[int]:
    # ids by first appearance, so block b's smallest member appears first
    ids: dict[Hashable, int] = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def moore_partition(d: Dfao) -> Partition:
    """Coarsest partition where mates share an output and, digit by digit,
    successors in a common block.

    Signature rounds come first.  A round renumbers the states by (own
    block, digit-0 successor's block, ..., digit-(k-1) successor's block)
    in one pass; the partition is found when a round splits nothing or
    leaves every state alone.  A round costs O(nk) whatever it splits, so
    the rounds go on only while each pays: it at least doubles the block
    count, or at least halves n minus the block count.  Either can happen
    at most log2(n) times, so the rounds cost O(n k log n) in all.  No
    round is taken when the largest output class holds more than half of
    the states: the refinement below never touches that class's
    in-edges, while a round re-signs every state.  A cycle chain, with
    classes of 1 and n - 1 states that split one state at a time, goes
    straight to the refinement.

    When the rounds stall, the partition is refined in place.  Blocks are
    ranges of one array of states: block b holds elems[first[b]:end[b]],
    and its marked members sit at the front, up to mid[b].  Marking a
    state is one swap, and a split turns the smaller of the marked and
    unmarked parts into a new block, so it costs no more than the marking
    did.  A block of one state never splits, so its state is never marked:
    its mid sits past it from the start, or from the split that left it
    alone.  A splitter is read from a snapshot of its members, since it may
    itself split while it is being used.

    The queue starts with every block but the largest; the digit
    preimages of the blocks cover all states, so stability against the
    others implies it for that one.  When a block splits, its new part,
    always the smaller, is queued: if the block was queued, both parts
    must be, and the old part still is; if not, the partition is already
    stable against the union, so the smaller part settles the other.  The
    start, the output classes or what the rounds made of them, refines
    the output partition and is refined by the Moore equivalence, so its
    coarsest stable refinement is that equivalence.  It is unique, and
    the blocks are renumbered by smallest member at the end, so the
    result does not depend on the route or on the order in which
    splitters were taken.  Cost O(n k log n).
    """
    a = d.automaton
    n, k = len(a.states), a.k
    block_of = _renumber(d.output)
    n_blocks = max(block_of) + 1
    if n_blocks == n:
        return Partition(tuple(block_of), n)
    if 2 * max(Counter(block_of).values()) <= n:
        columns = list(zip(*a.transition))  # columns[dig][s]: s's digit-dig successor
        while True:
            refined = _renumber(zip(block_of, *(map(block_of.__getitem__, col) for col in columns)))
            count = max(refined) + 1
            if count == n_blocks or count == n:
                return Partition(tuple(refined), count)
            paid = count >= 2 * n_blocks or 2 * (n - count) <= n - n_blocks
            block_of, n_blocks = refined, count
            if not paid:
                break

    preimages = _preimages(a.transition, k, range(n))
    elems = sorted(range(n), key=block_of.__getitem__)
    loc = [0] * n
    for i, s in enumerate(elems):
        loc[s] = i
    sizes = [0] * n_blocks
    for b in block_of:
        sizes[b] += 1
    end = list(accumulate(sizes))
    first = [e - size for e, size in zip(end, sizes)]
    # A one-state block's mid sits past its member, so it is never marked.
    mid = [e if size == 1 else f for f, e, size in zip(first, end, sizes)]
    largest = sizes.index(max(sizes))
    queue = [b for b in range(n_blocks) if b != largest]

    while queue and n_blocks < n:
        splitter = queue.pop()
        members = elems[first[splitter] : end[splitter]]
        for preimage in preimages:
            touched = []
            for t in members:
                for s in preimage[t]:
                    b = block_of[s]
                    i, m = loc[s], mid[b]
                    if i >= m:
                        if m == first[b]:
                            touched.append(b)
                        u = elems[m]
                        elems[m], elems[i] = s, u
                        loc[s], loc[u] = m, i
                        mid[b] = m + 1
            for b in touched:
                f, m, e = first[b], mid[b], end[b]
                mid[b] = f
                if m == e:
                    continue  # every member was marked: no split
                if m - f <= e - m:
                    lo, hi = f, m
                    first[b] = mid[b] = m
                else:
                    lo, hi = m, e
                    end[b] = m
                if end[b] - first[b] == 1:
                    mid[b] = end[b]
                c = n_blocks
                n_blocks += 1
                first.append(lo)
                mid.append(hi if hi - lo == 1 else lo)
                end.append(hi)
                for s in elems[lo:hi]:
                    block_of[s] = c
                queue.append(c)
    return Partition(tuple(_renumber(block_of)), n_blocks)


def minimize(d: Dfao) -> FactorMap:
    """Quotient by indistinguishability, relabeled canonically.

    The target generates the same sequence as the source, has no two
    indistinguishable states, and is the unique smallest such machine up
    to renaming; since it is returned in canonical form (states numbered
    in breadth-first order, digits ascending, and named A .. Z, then s26,
    s27, ...), equal targets mean isomorphic minimizations.

    A search of the source meets states in the order of their smallest
    shortest words.  Mates step to mates, so a word reaches a block in
    the quotient exactly when it reaches one of its members here: blocks
    are numbered as this search first meets them, and each takes its
    first member's row, successors replaced by their blocks.  A block
    with no reachable member raises UnknownState.  Beyond the refinement,
    the one search and one relabeling cost O(nk) for n states.
    """
    part = moore_partition(d)
    a = d.automaton
    block_of = part.block_of
    canon: list[int | None] = [None] * part.n_blocks
    reps: list[int] = []  # each block's first member met, in canonical order
    for s in _bfs(a.transition, a.initial)[0]:
        b = block_of[s]
        if canon[b] is None:
            canon[b] = len(reps)
            reps.append(s)
    n = len(reps)
    if n != part.n_blocks:
        raise UnknownState("canonical form needs every state reachable")
    assignment = tuple(map(canon.__getitem__, block_of))
    _, rows = _relabel_rows(a.transition, reps, a.k, assignment)
    names = _LETTERS[:n] + tuple(f"s{i}" for i in range(26, n))
    target = _build(a.k, names, 0, rows, tuple(map(d.output.__getitem__, reps)))
    return FactorMap(d, target, assignment)


def intrinsic_automaton(d: Dfao) -> FactorMap:
    """The canonical smallest machine for d's sequence among machines whose
    initial state absorbs the digit 0.

    Equivalent to `minimize(d.normalize_zero())`; the factor map's source
    is the zero-normalized machine.  Opacity of a sequence is defined on
    this target.
    """
    return minimize(d.normalize_zero())
