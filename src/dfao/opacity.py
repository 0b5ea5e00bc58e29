"""Exact opacity of a machine, read off the label structure of its graph.

Opacity asks how well the digits fed into a machine can be recovered by
just watching which states it visits.  Relabel each state with a digit of
your choosing; running a word through the machine then reads back some
digit word.  The recovery error for one input word is measured in the
prefix metric (2**-i where i is the first position the readback misses),
the relabeling is chosen to minimize that error, and the opacity of the
machine is the worst case over all input words.

Call a path label-consistent, or homogeneous, when every state it visits
is entered along that path by edges of a single digit only.  A
homogeneous path can be read back perfectly: label each visited state
with its unique entering digit.  Conversely, if a word's path enters some
state first with digit x and later with digit y != x, no relabeling can
be right at both positions.  Hence:

* If every word traces a homogeneous path, the opacity is zero (the
  machine is transparent).
* Otherwise let n be the length of the shortest word whose path clashes.
  Minimality puts the clash on the final edge, so the best relabeling
  first misses at position n-1 and the word costs 2**-(n-1).  No word
  can cost more: a word whose best relabeling misses earlier, at
  position h-1 < n-1, clashes within its first h < n edges, and that
  prefix would be a shorter clashing word.  So the opacity is exactly
  2**-(n-1).

Finding n needs no word search.  A clashing word of minimal length n
splits at its clash state s into an entry path from the initial state
whose final edge carries some digit x, followed by a loop from s back to
s whose final edge carries a digit y != x; conversely every entry+loop
concatenation of that shape clashes.  Both halves are shortest-path
problems, so n is the minimum of entry(s, x) + loop(s, y) over all states
s and ordered digit pairs x != y, computed from breadth-first distances:
entry(s, x) is one past the depth of the first digit-x in-neighbour of s
that the search from the initial state reaches; no table of entries is kept.

The loop searches are bounded without changing n or the set of states
that attain it.  The best total starts above any total, at 2m + 1 for
m states, as an entry and a loop each take at most m edges.  States are
visited in breadth-first order, so their shortest entries e(s) never
decrease (the initial state's, a loop, comes first), and a loop has an
edge: once e(s) + 1 exceeds the best total, no state left can match it.
A visited state can only match the best total b with a loop of at most
b - e(s) edges, whose last edge leaves a state at most b - e(s) - 1
edges from s, so its breadth-first search stops at that depth.  Some
of these searches are skipped outright.  Every cycle through s ends on
an edge r -> s, so it is a cycle through that in-neighbour r too, and
the shortest cycle through s is at least the least shortest cycle
through any in-neighbour.  A searched state records a lower bound on
its shortest cycle: the shortest loop found, which is exact, or one edge
more than its search could find; a skipped state records the bound it
was skipped on.  A state entered on fewer than two digits is never
searched, and it records the least bound of its reached in-neighbours:
every in-neighbour on a cycle through it is reachable from it, and so
reached.  A state not yet visited carries the trivial bound of one edge.
When every in-neighbour's bound exceeds b - e(s), no loop at s can match
b, and s needs no search.  Every total that does not exceed
the running best is therefore exact, ties included, and the states
whose total is the final n are exactly known.

The witness is the lexicographically smallest clashing word of length n,
and both of its halves are shortest words.  In such a word the final
edge enters a state s on a digit y, and the first entry into s, at
position a, is on a digit x != y: the first n-1 edges clash nowhere, so
every earlier entry into s is on x.  The head word[:a+1] is at least
entry(s, x) long and the tail at least loop(s, y), and their lengths add
up to n <= entry(s, x) + loop(s, y), so both bounds are tight: the head
is a shortest entry, the tail a shortest loop, s is the clash state and
a is the head's length minus 1.  Breadth-first search that takes
successors in digit order discovers states in the order of their
smallest shortest words, by length and then lexicographically.  So a
state's smallest shortest word is read backwards along the search's
parents: each letter is the digit on which the parent, the state whose
row first reached it, enters it.  The same order compares words without
reading them: heads of one length compare as (rank of the state their
last edge leaves, digit), and so do tails.  Heads of one length into
different states, or on different digits, are different words, so among
the heads of one length that some tied state completes with a tail, only
the smallest can start the witness.  So a tie completes a head only
when it is the smallest of its length so far, with the smallest tail of
the tie's own loop search: that search reached the tail's depth, and
breadth-first ranks and parents up to a depth do not depend on where
the search stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .automaton import Automaton, Dfao, Rows, Word, _bfs, _preimages
from .dyadic import ZERO, DyadicDistance, pow2inv
from .minimize import intrinsic_automaton

# Largest possible opacity, attained by the one-state machine of any radix.
MAX_OPACITY = Fraction(1, 2)


class Classification(Enum):
    TRANSPARENT = "TRANSPARENT"
    OPAQUE = "OPAQUE"
    INTERMEDIATE = "INTERMEDIATE"


@dataclass(frozen=True)
class StateHomogeneity:
    """Whole-graph verdict for one state.

    homogeneous is True when all in-edges of the state carry one digit;
    `label` is that digit, or None for a state with no in-edges at all
    (only the initial state can be one, and it counts as homogeneous).
    """

    homogeneous: bool
    label: int | None


@dataclass(frozen=True)
class PathWitness:
    """A shortest clashing word and where it clashes.

    The path of `word` enters `collide_state` on edge position_a with one
    digit and on edge position_b with a different digit, and position_b is
    the final edge.
    """

    word: Word
    collide_state: int
    position_a: int

    @property
    def position_b(self) -> int:
        return len(self.word) - 1


@dataclass(frozen=True)
class AnalysisReport:
    """Opacity analysis of the sequence generated by a machine.

    All fields describe the intrinsic machine (the canonical minimal
    zero-normalized form), which is included as `intrinsic`; the opacity
    and everything read off it derive from the witness.
    """

    witness: PathWitness | None
    state_homogeneity: tuple[StateHomogeneity, ...]
    strictly_accessible: bool
    intrinsic: Dfao

    @property
    def opacity(self) -> DyadicDistance:
        return _opacity(self.witness)

    @property
    def classification(self) -> Classification:
        if self.opacity.is_transparent:
            return Classification.TRANSPARENT
        return Classification.OPAQUE if self.opacity.is_opaque else Classification.INTERMEDIATE

    @property
    def complexity(self) -> Fraction:
        """The opacity rescaled by its maximum 1/2, so it lies in [0, 1]."""
        return self.opacity.as_fraction() / MAX_OPACITY

    @property
    def states_count(self) -> int:
        return len(self.intrinsic.states)

    @property
    def k(self) -> int:
        return self.intrinsic.k


def _arrival(dist: list[int | None], feeders: list[int]) -> int | None:
    """Length of a shortest path whose final edge leaves one of `feeders`,
    given distances to them; None when `dist` reaches none of them."""
    ds = [dist[r] for r in feeders if dist[r] is not None]
    return 1 + min(ds) if ds else None


def state_homogeneity(a: Automaton) -> tuple[StateHomogeneity, ...]:
    """Whole-graph in-edge verdict for every state, in state order.  O(nk)
    for n states: one pass over the transition table.  At most k + 2
    verdicts differ; each is immutable, built once and shared."""
    n = len(a.states)
    label: list[int | None] = [None] * n
    mixed = [False] * n
    for row in a.transition:
        for dig, t in enumerate(row):
            if label[t] is None:
                label[t] = dig
            elif label[t] != dig:
                mixed[t] = True
    inhomogeneous = StateHomogeneity(False, None)
    homogeneous = {d: StateHomogeneity(True, d) for d in set(label)}
    return tuple(inhomogeneous if m else homogeneous[d] for m, d in zip(mixed, label))


def is_homogeneous_automaton(a: Automaton) -> bool:
    """True when every state passes the whole-graph in-edge test.

    Homogeneous machines are always transparent.  The converse holds on
    strictly accessible machines but not in general: a clash also needs a
    loop back to the inhomogeneous state.
    """
    return all(v.homogeneous for v in state_homogeneity(a))


def _read_word(rows: Rows, parent: list[int | None], t: int) -> Word:
    """The smallest shortest word from a breadth-first search's start into
    t, read backwards along the search's parents: each letter is the first
    digit on which the parent's row enters the state, the digit the search
    reached it on.  O(k) per letter."""
    word = []
    while (p := parent[t]) is not None:
        word.append(rows[p].index(t))
        t = p
    return tuple(reversed(word))


def shortest_inhomogeneous_path(a: Automaton) -> PathWitness | None:
    """Shortest clashing word, or None when the machine is transparent.

    Among all shortest clashing words the lexicographically smallest is
    returned.  By the module docstring it is a shortest entry into some
    tied state s followed by a shortest loop at s.  One breadth-first
    search from the initial state ranks every head.  When a searched state
    ties or beats the running best, each of its heads that reaches the
    total and is the smallest of its length so far is completed at once,
    with the smallest tail of the loop search just run; both are read off
    breadth-first parents, and no search runs after the candidate loop.
    Memory stays O(n): the best word, the search from the initial state
    with its ranks, one head per head length, and two n-slot lists,
    distances and parents, that every loop search shares.

    Cost: O(nk) for the search from the initial state and its lists of
    reached in-neighbours, whose first entries give a visited state's
    shortest entries; one depth-bounded search per candidate state that
    its in-neighbours' cycle bounds do not rule out, which costs its
    reach and nothing more, as it first clears only the entries of the
    shared lists that the search before it reached; and per completed
    head a scan of that search's reach for the tail, and the head and
    the tail read off parents at O(k) per letter.
    That is O(nk) on cycle chains: every state there is a candidate, but
    after the first full loop search each next state's in-neighbour
    carries a bound longer than any loop that could still tie.  It is
    O(nk) on the alternating cycle too, where every other state is entered
    on one digit only: such a state is never searched, but it inherits its
    in-neighbour's bound, which then rules out the next candidate.  The
    worst case stays O(n^2 k), in the candidate loop.  On the tree-cycle,
    a complete binary tree whose leaves form one cycle run against
    breadth-first order, every leaf is a candidate whose cycle
    in-neighbour is visited after it, so no bound applies and every leaf
    is searched; all of them tie with heads of one length, and only the
    first leaf's head is completed.
    """
    rows, n = a.transition, len(a.states)
    order0, dist0, parent0 = _bfs(rows, a.initial)
    # Reached feeders in breadth-first order, so the first one is the shallowest.
    preimages = _preimages(rows, a.k, order0)
    rank0 = {t: i for i, t in enumerate(order0)}
    # Every loop search fills these; the next one first clears what it reached.
    dist: list[int | None] = [None] * n
    parent: list[int | None] = [None] * n
    reached: list[int] = []

    # Only states entered on two distinct digits can host a clash; the
    # visiting order, both bounds and the skip on the in-neighbours' cycle
    # bounds are justified in the module docstring.
    best_total = 2 * n + 1  # exceeds every total (module docstring)
    best: PathWitness | None = None
    heads: dict[int, tuple[int, int]] = {}  # head length -> smallest head recorded
    cycle = [1] * n  # lower bound on the shortest cycle through each state
    for s in order0:
        # One pass over s's in-neighbour lists: the digits entering s, the
        # depth of its shallowest feeder, and the last digit's feeders.
        digits, depth, feeders = 0, best_total, None
        for p in preimages:
            if p[s]:
                feeders = p[s]
                digits += 1
                if dist0[feeders[0]] < depth:
                    depth = dist0[feeders[0]]
        if digits < 2:
            if feeders:  # then all of s's in-neighbours; s inherits their least bound
                cycle[s] = min(map(cycle.__getitem__, feeders))
            continue
        entry_min = depth + 1
        if entry_min + 1 > best_total:
            break
        limit = best_total - entry_min - 1
        # No loop search when every in-neighbour's cycle bound is too long
        # for a loop at s to tie; the check stops at the first that is not.
        for p in preimages:
            for r in p[s]:
                if cycle[r] <= limit + 1:
                    break
            else:
                continue
            break
        else:
            cycle[s] = limit + 2
            continue
        for t in reached:
            dist[t] = parent[t] = None
        reached = _bfs(rows, s, limit, dist, parent)[0]
        if all(dist[r] is None for p in preimages for r in p[s]):
            cycle[s] = limit + 2  # no loop within the limit
            continue
        entry = [dist0[p[s][0]] + 1 if p[s] else None for p in preimages]
        loop = [_arrival(dist, p[s]) for p in preimages]
        cycle[s] = min(lp for lp in loop if lp is not None)
        total = min(
            (
                e + lp
                for d1, e in enumerate(entry)
                if e is not None
                for d2, lp in enumerate(loop)
                if d2 != d1 and lp is not None
            ),
            default=best_total + 1,
        )
        if total > best_total:
            continue
        if total < best_total:
            best_total, best, heads = total, None, {}
        # Complete each head of s that reaches the total, unless a smaller
        # head of its length is recorded (module docstring).  This search
        # reached every state within the tail's depth, total - e - 1, and
        # there each feeder of s on a digit other than x ends a shortest
        # tail, as no total at s is below `total`; the smallest tail ends
        # on the first of them reached, on its smallest such digit.
        for x, e in enumerate(entry):
            if e is None or total - e not in loop[:x] + loop[x + 1 :]:
                continue
            p = preimages[x][s][0]
            head = (rank0[p], x)
            if heads.get(e, head) < head:
                continue
            heads[e] = head
            feeds = {
                q
                for y, preimage in enumerate(preimages)
                if y != x
                for q in preimage[s]
                if dist[q] == total - e - 1
            }
            q = next(q for q in reached if q in feeds)
            y = min(y for y, t in enumerate(rows[q]) if t == s and y != x)
            # A word's head ends at its position_a.
            word = _read_word(rows, parent0, p) + (x,) + _read_word(rows, parent, q) + (y,)
            if best is None or word < best.word:
                best = PathWitness(word, s, e - 1)
    return best


def _opacity(witness: PathWitness | None) -> DyadicDistance:
    """Zero, or 2**-(n-1) for a shortest clashing word of length n."""
    return ZERO if witness is None else pow2inv(len(witness.word) - 1)


def compute_opacity(a: Automaton) -> DyadicDistance:
    """Exact opacity from the shortest clashing word."""
    return _opacity(shortest_inhomogeneous_path(a))


def is_opaque_quick(a: Automaton) -> bool:
    """Constant-size test for maximal opacity: some pair of distinct digits
    x, y with step(initial, x) == step(initial, xy); equivalently a length-2
    clash, i.e. the first step on x lands on a state with a y self-loop."""
    i0 = a.initial
    for x in range(a.k):
        s = a.transition[i0][x]
        for y in range(a.k):
            if y != x and a.transition[s][y] == s:
                return True
    return False


def longest_homogeneous_prefix(a: Automaton, word: Iterable[int]) -> int:
    """Number of edges in the longest prefix of the word's path on which
    every visited state is entered by a single digit only.

    The best relabeling of the states reads the word back correctly for
    exactly this many positions, so the word's floor distance over all
    relabelings is 2**-(this value), or zero when it equals the length.
    """
    word = tuple(word)
    first_label: dict[int, int] = {}
    s = a.initial
    for j, d in enumerate(word):
        a._check_digit(d)
        s = a.transition[s][d]
        prev = first_label.setdefault(s, d)
        if prev != d:
            return j
    return len(word)


def analyze_sequence(d: Dfao) -> AnalysisReport:
    """Full opacity report for the sequence generated by a machine.

    The machine is zero-normalized and minimized first; opacity of a
    sequence is by definition the opacity of that intrinsic machine.
    """
    fm = intrinsic_automaton(d)
    target = fm.target
    a = target.automaton
    return AnalysisReport(
        witness=shortest_inhomogeneous_path(a),
        state_homogeneity=state_homogeneity(a),
        strictly_accessible=a.is_strictly_accessible(),
        intrinsic=target,
    )
