"""Collapse indistinguishable states into the canonical minimal machine.

Two states are indistinguishable when every word read from them produces
the same output trace.  The coarsest such partition (the Moore
equivalence) is computed by Hopcroft's partition refinement in the
in-place form of Valmari and Lehtinen (Valmari, "Fast brief practical DFA
minimization", IPL 112, 2012): start from the output classes and split a
block whenever some digit sends part of it into a splitter block and the
rest elsewhere.  Each split re-queues only its smaller half, so a state
is re-queued at most log2(n) times and the whole refinement costs
O(n k log n) for n states and radix k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Hashable, Sequence

from .automaton import Dfao, _canonical, _preimages, _relabel_rows


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
    out = []
    for key in keys:
        if key not in ids:
            ids[key] = len(ids)
        out.append(ids[key])
    return out


def moore_partition(d: Dfao) -> Partition:
    """Coarsest partition where mates share an output and, digit by digit,
    successors in a common block.

    Blocks are ranges of one array of states: block b holds
    elems[first[b]:end[b]], and its marked members sit at the front, up to
    mid[b].  Marking a state is one swap, and a split turns the smaller
    of the marked and unmarked parts into a new block, so it costs no more
    than the marking did.  A splitter is read from a snapshot of its
    members, since it may itself split while it is being used.

    The queue starts with every output class but the largest; the digit
    preimages of the classes cover all states, so stability against the
    others implies it for that one.  When a block splits, its new part,
    always the smaller, is queued: if the block was queued, both parts
    must be, and the old part still is; if not, the partition is already
    stable against the union, so the smaller part settles the other.  The
    coarsest partition is unique, and the blocks are renumbered by
    smallest member at the end, so the result does not depend on the
    order in which splitters were taken.  Cost O(n k log n).
    """
    a = d.automaton
    n, k = len(a.states), a.k
    preimages = _preimages(a.transition, k, range(n))

    block_of = _renumber(d.output)
    n_blocks = max(block_of) + 1
    elems = sorted(range(n), key=block_of.__getitem__)
    loc = [0] * n
    for i, s in enumerate(elems):
        loc[s] = i
    sizes = [0] * n_blocks
    for b in block_of:
        sizes[b] += 1
    end = list(accumulate(sizes))
    first = [e - size for e, size in zip(end, sizes)]
    mid = first[:]
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
                c = n_blocks
                n_blocks += 1
                first.append(lo)
                mid.append(lo)
                end.append(hi)
                for s in elems[lo:hi]:
                    block_of[s] = c
                queue.append(c)
    return Partition(tuple(_renumber(block_of)), n_blocks)


def minimize(d: Dfao) -> FactorMap:
    """Quotient by indistinguishability, relabeled canonically.

    The target generates the same sequence as the source, has no two
    indistinguishable states, and is the unique smallest such machine up
    to renaming; since it is returned in canonical form, equal targets
    mean isomorphic minimizations.  It is built in one step from the block
    graph, where block b steps on each digit to the block of its smallest
    member's successor, so it is the canonical form of the quotient.
    Besides the refinement, this costs O(nk) for n states.
    """
    part = moore_partition(d)
    a = d.automaton
    block_of = part.block_of
    reps: list[int] = []  # each block's smallest member, in block order
    for s, b in enumerate(block_of):
        if b == len(reps):
            reps.append(s)
    _, rows = _relabel_rows(a.transition, reps, a.k, block_of)
    target, relabel = _canonical(
        a.k, rows, block_of[a.initial], tuple(map(d.output.__getitem__, reps))
    )
    return FactorMap(d, target, tuple(map(relabel.__getitem__, block_of)))


def intrinsic_automaton(d: Dfao) -> FactorMap:
    """The canonical smallest machine for d's sequence among machines whose
    initial state absorbs the digit 0.

    Equivalent to `minimize(d.normalize_zero())`; the factor map's source
    is the zero-normalized machine.  Opacity of a sequence is defined on
    this target.
    """
    return minimize(d.normalize_zero())
