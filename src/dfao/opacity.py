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
s and ordered digit pairs x != y, computed from breadth-first distances.

The loop searches are bounded without changing n or the set of states
that attain it.  States are visited in order of their shortest entry
e(s), ties by index.  A loop has at least one edge, so once e(s) + 1
exceeds the best total found so far, neither this state nor any later
one can match it, and the search stops.  A visited state can only match
the best total b with a loop of at most b - e(s) edges, whose last edge
leaves a state at most b - e(s) - 1 edges from s, so its breadth-first
search stops at that depth.  Every total that does not exceed the running
best is therefore exact, ties included, and the states whose total is the
final n are exactly known.

The witness is the lexicographically smallest entry+loop word of length
n over those states and every split of n.  The smallest word of exact
length m from a start into each state comes from rank tables: level m
orders the states reachable in exactly m steps by their smallest word.
All words of one level have the same length, so a word w + (d,) compares
as the pair (rank of w, d); level m follows from level m-1 in one pass
over it in rank order, with a parent pointer per state.  At each split
only the one entry+loop pair that can win is rebuilt into a word.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .automaton import Automaton, Dfao, Word, _bfs, _preimages
from .dyadic import ZERO, DyadicDistance, pow2inv
from .minimize import intrinsic_automaton

# Largest possible opacity, attained by the one-state machine of any radix.
MAX_OPACITY = Fraction(1, 2)


class Classification(Enum):
    TRANSPARENT = "TRANSPARENT"
    OPAQUE = "OPAQUE"
    INTERMEDIATE = "INTERMEDIATE"


@dataclass(frozen=True)
class Opacity:
    """Opacity value: zero, or 2**-(witness_length - 1).

    witness_length is the length of the shortest clashing word (always
    >= 2 when present); None means the machine is transparent.
    """

    witness_length: int | None

    def __post_init__(self):
        if self.witness_length is not None and self.witness_length < 2:
            raise ValueError(f"witness length must be >= 2, got {self.witness_length}")

    @property
    def is_transparent(self) -> bool:
        return self.witness_length is None

    @property
    def is_opaque(self) -> bool:
        """True at the maximum value 1/2."""
        return self.witness_length == 2

    @property
    def classification(self) -> Classification:
        if self.is_transparent:
            return Classification.TRANSPARENT
        return Classification.OPAQUE if self.is_opaque else Classification.INTERMEDIATE

    @property
    def complexity(self) -> Fraction:
        """The value rescaled by its maximum 1/2, so it lies in [0, 1]."""
        return self.as_fraction() / MAX_OPACITY

    def as_dyadic(self) -> DyadicDistance:
        if self.witness_length is None:
            return ZERO
        return pow2inv(self.witness_length - 1)

    def as_fraction(self) -> Fraction:
        return self.as_dyadic().as_fraction()

    def __str__(self) -> str:
        return str(self.as_fraction())


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
    position_b: int


@dataclass(frozen=True)
class AnalysisReport:
    """Opacity analysis of the sequence generated by a machine.

    All fields describe the intrinsic machine (the canonical minimal
    zero-normalized form), which is included as `intrinsic`.
    """

    opacity: Opacity
    complexity: Fraction
    classification: Classification
    witness: PathWitness | None
    state_homogeneity: tuple[StateHomogeneity, ...]
    strictly_accessible: bool
    states_count: int
    k: int
    intrinsic: Dfao


def _arrival(dist: list[int | None], feeders: list[int]) -> int | None:
    """Length of a shortest path whose final edge leaves one of `feeders`,
    given distances to them; None when `dist` reaches none of them."""
    ds = [dist[r] for r in feeders if dist[r] is not None]
    return 1 + min(ds) if ds else None


def state_homogeneity(a: Automaton) -> tuple[StateHomogeneity, ...]:
    """Whole-graph in-edge verdict for every state, in state order."""
    n = len(a.states)
    label: list[int | None] = [None] * n
    mixed = [False] * n
    for row in a.transition:
        for dig, t in enumerate(row):
            if label[t] is None:
                label[t] = dig
            elif label[t] != dig:
                mixed[t] = True
    return tuple(
        StateHomogeneity(False, None) if mixed[s] else StateHomogeneity(True, label[s])
        for s in range(n)
    )


def is_homogeneous_automaton(a: Automaton) -> bool:
    """True when every state passes the whole-graph in-edge test.

    Homogeneous machines are always transparent.  The converse holds on
    strictly accessible machines but not in general: a clash also needs a
    loop back to the inhomogeneous state.
    """
    return all(v.homogeneous for v in state_homogeneity(a))


def _lexmin_levels(
    a: Automaton, start: int, depth: int
) -> list[dict[int, tuple[int, int, int]]]:
    """levels[m][t] = (rank, parent, digit) for each state t reachable from
    start in exactly m steps, for m up to depth.

    The lexicographically smallest length-m word into t is the smallest
    length-(m-1) word into `parent` followed by `digit`, and `rank` orders
    these words among the states of level m.  Walking level m-1 in rank
    order and each state's digits ascending visits the (rank, digit) keys
    in increasing order, so the first key to hit t is its minimum and the
    order of first hits is the rank order of level m: no sorting needed.
    """
    levels = [{start: (0, start, -1)}]
    for _ in range(depth):
        level: dict[int, tuple[int, int, int]] = {}
        for r in levels[-1]:  # insertion order is rank order
            for dig, t in enumerate(a.transition[r]):
                if t not in level:
                    level[t] = (len(level), r, dig)
        levels.append(level)
    return levels


def _lexmin_word(levels: list[dict[int, tuple[int, int, int]]], m: int, t: int) -> Word:
    """The smallest length-m word into t, rebuilt from parent pointers."""
    word = []
    for j in range(m, 0, -1):
        _rank, t, dig = levels[j][t]
        word.append(dig)
    return tuple(reversed(word))


def _arrivals(
    levels: list[dict[int, tuple[int, int, int]]],
    m: int,
    preimages: list[list[list[int]]],
    s: int,
) -> list[tuple[int, int, int]]:
    """For each digit d, the smallest length-m word from the tables' start
    whose final edge enters s on d, as (rank of its first m-1 digits, d,
    the state that edge leaves); sorted, which orders the words."""
    level = levels[m - 1]
    found = []
    for dig, preimage in enumerate(preimages):
        reached = [(level[r][0], r) for r in preimage[s] if r in level]
        if reached:
            rank, r = min(reached)
            found.append((rank, dig, r))
    found.sort()
    return found


def shortest_inhomogeneous_path(a: Automaton) -> PathWitness | None:
    """Shortest clashing word, or None when the machine is transparent.

    Among all shortest clashing words the lexicographically smallest is
    returned.  Minimal clashing words are exactly the entry+loop
    concatenations described in the module docstring, so scanning every
    split of the minimal length over exact-length lexicographic tables
    covers all of them.

    Cost: one depth-bounded breadth-first search, O(nk), per candidate
    state.  That is O(n^2 k) on cycle chains: every state there is entered
    on every digit and its shortest loop is the whole cycle, so every
    state is a candidate and no bound cuts its search short.
    """
    n, k = len(a.states), a.k
    preimages = _preimages(a.transition, k)
    _, dist0 = _bfs(a.transition, a.initial)
    entry: list[list[int | None]] = [[None] * k for _ in range(n)]
    for r, row in enumerate(a.transition):
        if dist0[r] is None:
            continue
        e = dist0[r] + 1
        for dig, t in enumerate(row):
            if entry[t][dig] is None or e < entry[t][dig]:
                entry[t][dig] = e

    # Only states entered on two distinct digits can host a clash; the
    # visiting order and both bounds are justified in the module docstring.
    candidates = sorted(
        (min(e for e in row if e is not None), s)
        for s, row in enumerate(entry)
        if sum(e is not None for e in row) >= 2
    )
    best_total: int | None = None
    totals: dict[int, tuple[int, int]] = {}  # state -> (total, shortest entry)
    for entry_min, s in candidates:
        if best_total is not None and entry_min + 1 > best_total:
            break
        limit = None if best_total is None else best_total - entry_min - 1
        _, dist_s = _bfs(a.transition, s, limit)
        loop = [_arrival(dist_s, preimage[s]) for preimage in preimages]
        total = min(
            (
                e + lp
                for d1, e in enumerate(entry[s])
                if e is not None
                for d2, lp in enumerate(loop)
                if d2 != d1 and lp is not None
            ),
            default=None,
        )
        if total is None:
            continue
        totals[s] = (total, entry_min)
        if best_total is None or total < best_total:
            best_total = total
    if best_total is None:
        return None

    # Loops first: an entry takes at least entry_min edges, which bounds
    # each loop table, and the shortest loop with a tail bounds the one
    # entry table shared by all states.
    length = best_total
    tails = {}
    for s, (total, entry_min) in totals.items():
        if total != length:
            continue
        from_s = _lexmin_levels(a, s, length - entry_min - 1)
        for m2 in range(1, length - entry_min + 1):
            found = _arrivals(from_s, m2, preimages, s)
            if found:
                tails[s, m2] = (from_s, found)
    from_initial = _lexmin_levels(a, a.initial, length - min(m2 for _, m2 in tails) - 1)
    best_word: Word | None = None
    for (s, m2), (from_s, found) in tails.items():
        m1 = length - m2
        heads = _arrivals(from_initial, m1, preimages, s)
        # The smallest head that a tail on another digit can follow, with
        # the smallest such tail; only that word is rebuilt.
        pair = next(((h, t) for h in heads for t in found if t[1] != h[1]), None)
        if pair is None:
            continue
        (_, d1, r1), (_, d2, r2) = pair
        cand = (
            _lexmin_word(from_initial, m1 - 1, r1)
            + (d1,)
            + _lexmin_word(from_s, m2 - 1, r2)
            + (d2,)
        )
        if best_word is None or cand < best_word:
            best_word = cand

    assert best_word is not None and len(best_word) == length
    vertices = a.run_path(best_word)
    collide = vertices[-1]
    b = length - 1
    a_pos = next(
        j
        for j in range(b)
        if vertices[j + 1] == collide and best_word[j] != best_word[b]
    )
    return PathWitness(best_word, collide, a_pos, b)


def compute_opacity(a: Automaton) -> Opacity:
    """Exact opacity from the shortest clashing word."""
    witness = shortest_inhomogeneous_path(a)
    return Opacity(None if witness is None else len(witness.word))


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
    witness = shortest_inhomogeneous_path(a)
    opacity = Opacity(None if witness is None else len(witness.word))
    return AnalysisReport(
        opacity=opacity,
        complexity=opacity.complexity,
        classification=opacity.classification,
        witness=witness,
        state_homogeneity=state_homogeneity(a),
        strictly_accessible=a.is_strictly_accessible(),
        states_count=len(a.states),
        k=a.k,
        intrinsic=target,
    )
