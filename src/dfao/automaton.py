"""Complete deterministic automata over digit alphabets, with per-state output.

A machine here reads base-k digits (most significant first) and has a
total transition table: every state consumes every digit, and there is no
acceptance.  Attaching an output token to each state turns the machine
into a transducer; feeding it the digits of n and reading the output of
the state it lands on yields term n of the sequence the machine defines.

Everything is an immutable value.  Operations never mutate their inputs
and are safe to call from multiple threads.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral
from typing import Iterable, Mapping, NoReturn, Sequence

from .errors import (
    BadRadix,
    BadToken,
    DigitOutOfRange,
    DuplicateState,
    DuplicateTransition,
    MissingOutput,
    MissingTransition,
    NoStates,
    RadixMismatch,
    UnknownState,
)

Word = tuple[int, ...]
Names = tuple[str, ...]
Rows = tuple[tuple[int, ...], ...]

# Tokens must survive the whitespace-delimited text format round trip.
_TOKEN = re.compile(r"[^\s#]+").fullmatch
_SPACELESS = re.compile(r"\S*").fullmatch


def _check_radix(k: int, line: int | None = None) -> None:
    if not isinstance(k, Integral):
        raise BadRadix(f"radix must be an integer, got {k!r}", line)
    if k < 2:
        raise BadRadix(f"radix must be >= 2, got {k}", line)


def _check_tokens(kind: str, tokens: Sequence[str]) -> None:
    """Raise BadToken for the first of `tokens` that is no string or does
    not fit the text format.  They all fit when their '#'-joined string has
    no whitespace, its only '#' are the joiners and no token is empty; only
    when that check fails is any token looked at alone.  O(total length)."""
    try:
        joined = "#".join(tokens)
    except TypeError:  # some token is no string; the loop below names it
        joined = " "
    if _SPACELESS(joined) and joined.count("#") == len(tokens) - 1 and "" not in tokens:
        return
    for token in tokens:
        if not isinstance(token, str):
            raise BadToken(f"{kind} {token!r} must be a string")
        if not _TOKEN(token):
            raise BadToken(f"{kind} {token!r} must be non-empty and free of whitespace and '#'")


@dataclass(frozen=True)
class Automaton:
    """A total deterministic transition system over digits 0 .. k-1.

    transition[s][d] is the state reached from state s on digit d.  States
    are referred to by index; `states` holds their display names.  Every
    state is expected to be reachable from `initial`; use `validate` to
    build machines from untrusted descriptions, which prunes the rest.
    Direct construction checks every field, in O(nk) for n states.
    """

    k: int
    states: tuple[str, ...]
    initial: int
    transition: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_radix(self.k)
        n = len(self.states)
        if n == 0:
            raise NoStates("a machine needs at least one state")
        try:
            duplicate = len(set(self.states)) != n
        except TypeError:  # an unhashable name is no string, as `_check_tokens` reports
            duplicate = False
        if duplicate:
            raise DuplicateState("state names must be distinct")
        _check_tokens("state name", self.states)
        if not (isinstance(self.initial, Integral) and 0 <= self.initial < n):
            raise UnknownState(f"initial state index {self.initial!r} out of range")
        if len(self.transition) != n:
            raise MissingTransition(
                f"transition table has {len(self.transition)} rows for {n} states"
            )
        for s, row in enumerate(self.transition):
            if len(row) != self.k:
                raise MissingTransition(
                    f"state {self.states[s]!r} defines {len(row)} of {self.k} digits"
                )
            for t in row:
                if not (isinstance(t, Integral) and 0 <= t < n):
                    raise UnknownState(f"transition target index {t!r} out of range")

    def _check_digit(self, d: int) -> None:
        if not (isinstance(d, Integral) and 0 <= d < self.k):
            raise DigitOutOfRange(f"digit {d!r} out of range for k={self.k}")

    def run_path(self, word: Iterable[int]) -> tuple[int, ...]:
        """The states `word` visits from the initial state, that one first,
        so one more than the word has digits."""
        s = self.initial
        vertices = [s]
        for d in word:
            self._check_digit(d)
            s = self.transition[s][d]
            vertices.append(s)
        return tuple(vertices)

    def is_strictly_accessible(self) -> bool:
        """True when every state can be reached from every other state.

        One forward and one backward search from the initial state: O(nk)
        for n states.
        """
        n = len(self.states)
        if len(_bfs(self.transition, self.initial)[0]) != n:
            return False
        # With full forward reachability, strong connectivity reduces to
        # the initial state being reachable from everywhere.
        back = [[] for _ in range(n)]
        for s, row in enumerate(self.transition):
            for t in row:
                back[t].append(s)
        return len(_bfs(back, self.initial)[0]) == n


def _preimages(rows: Sequence[Sequence[int]], k: int, order: Iterable[int]) -> list[list[list[int]]]:
    """preimages[d][t] lists, in `order`, the states of `order` whose digit-d
    edge enters t; range(n) lists them all.  O(nk) for n rows."""
    preimages: list[list[list[int]]] = [[[] for _ in rows] for _ in range(k)]
    for s in order:
        for dig, t in enumerate(rows[s]):
            preimages[dig][t].append(s)
    return preimages


def _bfs(
    rows: Sequence[Sequence[int]],
    start: int,
    limit: int | None = None,
    dist: list[int | None] | None = None,
    parent: list[int | None] | None = None,
) -> tuple[list[int], list[int | None], list[int | None]]:
    """Breadth-first search from start over the successor lists rows[s].

    Returns the reached states in discovery order, successors taken in
    row order, each state's distance from start and its parent, the state
    whose row first reached it (both None for a state not reached, and
    the parent None at start).  With a limit, the search stops expanding
    at the first state `limit` edges away, so exactly the states within
    `limit` edges are reached.  A caller may pass its own `dist` and
    `parent` lists, None at every entry; the search then allocates
    nothing of size n and costs only its reach.
    """
    if dist is None:
        dist, parent = [None] * len(rows), [None] * len(rows)
    dist[start] = 0
    order = [start]
    for s in order:  # grows while iterating; append order is BFS order
        depth = dist[s]
        if depth == limit:
            break
        depth += 1
        for t in rows[s]:
            if dist[t] is None:
                dist[t] = depth
                parent[t] = s
                order.append(t)
    return order, dist, parent


@dataclass(frozen=True)
class Dfao:
    """An automaton plus one output token per state."""

    automaton: Automaton
    output: tuple[str, ...]

    def __post_init__(self):
        if len(self.output) != len(self.automaton.states):
            raise MissingOutput(
                f"{len(self.output)} outputs for {len(self.automaton.states)} states"
            )
        _check_tokens("output token", self.output)

    @property
    def k(self) -> int:
        return self.automaton.k

    @property
    def states(self) -> tuple[str, ...]:
        return self.automaton.states

    @property
    def initial(self) -> int:
        return self.automaton.initial

    def generate(self, n_terms: int) -> tuple[str, ...]:
        """First n_terms of the sequence: term n is the output of the state
        reached on the base-k digits of n (term 0 reads the initial state).

        The digits of n are those of n // k followed by n % k, so
        state(n) = transition[state(n // k)][n % k]: the row of state(q)
        holds the states of terms qk .. qk + k - 1, and each term costs O(1)
        (Allouche and Shallit, Automatic Sequences, 2003, ch. 5).
        """
        if n_terms <= 0:
            return ()
        rows, initial = self.automaton.transition, self.automaton.initial
        states = [initial, *rows[initial][1:]]  # term 0 is initial, not its 0-successor
        q = 1
        while len(states) < n_terms:
            states += rows[states[q]]
            q += 1
        del states[n_terms:]  # in place: a slice would copy the whole list
        return tuple(map(self.output.__getitem__, states))

    def normalize_zero(self) -> Dfao:
        """Make digit 0 loop on the initial state, preserving the sequence.

        A machine ignores leading zeros exactly when its initial state
        absorbs 0.  If it does not, a fresh initial state is prepended that
        loops on 0 and copies the old initial state's other transitions and
        output.  Either way any unreachable state is dropped, so the result
        has every state reachable; a machine that already loops on 0 and
        has no unreachable state is returned unchanged.  O(nk) for n states.
        """
        a = self.automaton
        rows, initial = a.transition, a.initial
        if rows[initial][0] == initial:
            pruned, dropped = _prune(a.k, a.states, initial, rows, self.output)
            return pruned if dropped else self
        fresh = a.states[initial] + "'"
        while fresh in a.states:
            fresh += "'"
        # The fresh state is declared first, so every old index moves up one.
        n = len(rows)
        # A list: reading a range allocates a fresh int on every read.
        _, shifted = _relabel_rows(rows, range(n), a.k, list(range(1, n + 1)))
        rows = ((0, *shifted[initial][1:]), *shifted)
        outputs = (self.output[initial], *self.output)
        return _prune(a.k, (fresh, *a.states), 0, rows, outputs)[0]


@dataclass(frozen=True)
class LineMap:
    """Source lines of a raw description, so validation errors can name
    them: the k directive's line, then the line of each output pair and of
    each edge, by its position in the description.  `outputs` and `edges`
    need only be indexable, so a parser may find a line when asked."""

    k: int
    outputs: Sequence[int]
    edges: Sequence[int]


@dataclass(frozen=True)
class RawDfao:
    """Unchecked machine description, e.g. fresh out of the .aut parser.

    outputs is either a tuple of (state, token) pairs covering every state,
    or None, meaning each state outputs its own name.  lines, when given,
    is where each part came from; it is not part of the description.
    """

    k: int
    states: tuple[str, ...]
    initial: str
    edges: tuple[tuple[str, int, str], ...]
    outputs: tuple[tuple[str, str], ...] | None = None
    lines: LineMap | None = field(default=None, compare=False, repr=False)


def validate(raw: RawDfao) -> tuple[Dfao, tuple[str, ...]]:
    """Check a raw description, prune unreachable states, build the machine.

    Returns the machine together with the names of any pruned states (in
    declaration order) so callers can surface a warning.  State order of
    the result is the declaration order restricted to survivors.  When
    the description carries a line map, errors about the radix, outputs
    and edges start with the offending line and store it as `.line`.
    Untrusted input is checked here, once, in O(nk); machines built from
    it are not checked again.  Besides the description it holds a name
    index and one list cell per edge, so `validate(parse_raw(text))` on a
    random binary file peaks at about 14 traced bytes per byte of text.
    """
    # A LineMap is never false, so `lines and lines.k` is None without one.
    lines = raw.lines
    _check_radix(raw.k, lines and lines.k)
    if not raw.states:
        raise NoStates("a machine needs at least one state")
    states = tuple(raw.states)
    n = len(states)
    try:
        index = dict(zip(states, range(n)))
    except TypeError:  # an unhashable name; the loop below names it
        index = {}
    if len(index) < n:
        index = {}
        for name in states:
            try:
                if name in index:
                    raise DuplicateState(f"state {name!r} declared twice")
            except TypeError:  # unhashable
                raise BadToken(f"state name {name!r} must be a string") from None
            index[name] = len(index)
    # Below, a lookup of an unhashable name raises TypeError: it is not
    # declared either.
    try:
        initial = index[raw.initial]
    except (KeyError, TypeError):
        raise UnknownState(f"initial state {raw.initial!r} is not declared") from None
    try:
        by_state = dict(raw.outputs or ())
        undeclared = not by_state.keys() <= index.keys()
    except (TypeError, ValueError):  # the loop below tells what is wrong
        undeclared = True
    if undeclared:
        for i, (name, _token) in enumerate(raw.outputs):
            try:
                index[name]
            except (KeyError, TypeError):
                raise UnknownState(
                    f"output for undeclared state {name!r}", lines and lines.outputs[i]
                ) from None

    # A complete table has one edge per state and digit, so the table is
    # sized by the edges, never by the radix alone.  Each edge fills cell
    # state * k + digit; a digit out of range stops the loop, and list
    # indexing refuses a key that is no integer, such as one of a digit
    # 1.0.  With as many edges as cells, a cell left empty means that
    # some cell was filled twice.
    k, edges = raw.k, raw.edges
    complete = False
    if len(edges) == n * k:
        table = [None] * len(edges)
        try:
            for src, digit, dst in edges:
                if not 0 <= digit < k:
                    break
                table[index[src] * k + digit] = index[dst]
            else:
                complete = None not in table
        except (KeyError, TypeError, ValueError):  # the scan below tells what is wrong
            pass
    if not complete:
        _raise_edge_fault(raw, index)
    rows = tuple(zip(*[iter(table)] * k))

    if raw.outputs is None:
        outputs = states
    else:
        if len(by_state) < len(raw.outputs):
            seen = set()
            for name, _token in raw.outputs:
                if name in seen:
                    raise DuplicateState(f"output for state {name!r} given twice")
                seen.add(name)
        if len(by_state) < n:  # every named state is declared, checked above
            missing = [name for name in states if name not in by_state]
            raise MissingOutput(
                "outputs must cover every state or be omitted entirely; "
                f"missing: {', '.join(map(str, missing))}"
            )
        outputs = tuple(map(by_state.__getitem__, states))

    dfao, pruned = _prune(k, states, initial, rows, outputs)
    # Only tokens that survive pruning must fit the text format.
    _check_tokens("state name", dfao.states)
    _check_tokens("output token", dfao.output)
    return dfao, pruned


def _raise_edge_fault(raw: RawDfao, index: dict[str, int]) -> NoReturn:
    """Raise the first fault of raw's edges, taken in order: an undeclared
    name, a digit out of range or a pair defined twice, then a pair no edge
    defines, then a digit that is no integer.  Only for edges that do not
    fill a table.  O(len(edges)): the first pair missing comes at most
    len(edges) pairs in."""
    lines, k, edges = raw.lines, raw.k, raw.edges
    keys: set[int] = set()
    try:
        for i, (src, digit, dst) in enumerate(edges):
            try:
                s = index[src]
                index[dst]
            except (KeyError, TypeError):
                end, name = ("source", src) if src not in raw.states else ("target", dst)
                raise UnknownState(
                    f"edge {end} {name!r} is not declared", lines and lines.edges[i]
                ) from None
            if not 0 <= digit < k:
                raise DigitOutOfRange(
                    f"digit {digit} out of range for k={k}", lines and lines.edges[i]
                )
            key = s * k + digit  # a digit 1.0 keys like 1
            if key in keys:
                if lines is None:
                    raise DuplicateTransition(f"edge {src} {digit} ... defined twice")
                j = next(j for j, e in enumerate(edges) if e[:2] == (src, digit))
                raise DuplicateTransition(
                    f"edge {src} {digit} ... already defined on line {lines.edges[j]}",
                    lines.edges[i],
                )
            keys.add(key)
        if len(keys) < len(index) * k:
            s, d = divmod(next(key for key in range(len(index) * k) if key not in keys), k)
            raise MissingTransition(f"no edge for state {raw.states[s]!r} on digit {d}")
    except TypeError:  # '0' fails `<=`
        pass
    i = next(i for i, e in enumerate(edges) if not isinstance(e[1], Integral))
    raise DigitOutOfRange(
        f"digit {edges[i][1]!r} out of range for k={k}", lines and lines.edges[i]
    )


def _build(k: int, states: Names, initial: int, transition: Rows, output: Names) -> Dfao:
    """The machine with these fields, skipping the constructors' checks: only
    for fields derived from a machine or description checked already.  O(1)."""
    automaton, dfao = object.__new__(Automaton), object.__new__(Dfao)
    # Field by field, as a frozen dataclass's own __init__ does: filling
    # __dict__ in one go would make every later attribute read slower.
    for obj, name, value in (
        (automaton, "k", k),
        (automaton, "states", states),
        (automaton, "initial", initial),
        (automaton, "transition", transition),
        (dfao, "automaton", automaton),
        (dfao, "output", output),
    ):
        object.__setattr__(obj, name, value)
    return dfao


def _relabel_rows(
    rows: Rows, keep: Sequence[int], k: int, label: Sequence[int] | None = None
) -> tuple[Sequence[int], Rows]:
    """label, and the rows of the states `keep` in that order with each
    successor t replaced by label[t].  label[t] defaults to t's position in
    `keep`, and then every successor of a kept state must be kept.  O(nk)."""
    if label is None:
        label = [0] * len(rows)
        for new, old in enumerate(keep):
            label[old] = new
    flat = map(label.__getitem__, chain.from_iterable(map(rows.__getitem__, keep)))
    return label, tuple(zip(*[flat] * k))


def _prune(k: int, states: Names, initial: int, rows: Rows, outputs: Names) -> tuple[Dfao, Names]:
    """Drop states unreachable from `initial`, keeping declaration order.
    Returns the machine, built unchecked, and the dropped names.  O(nk)."""
    order, dist, _ = _bfs(rows, initial)
    if len(order) == len(rows):
        return _build(k, states, initial, rows, outputs), ()
    keep = [i for i, depth in enumerate(dist) if depth is not None]
    remap, kept_rows = _relabel_rows(rows, keep, k)
    kept = tuple(map(states.__getitem__, keep))
    dfao = _build(k, kept, remap[initial], kept_rows, tuple(map(outputs.__getitem__, keep)))
    return dfao, tuple(states[i] for i, depth in enumerate(dist) if depth is None)


def make_dfao(
    k: int,
    transitions: Mapping[str, Sequence[str]],
    initial: str,
    outputs: Mapping[str, str] | None = None,
) -> Dfao:
    """Convenience builder: transitions[name] lists the k successors of
    `name` in digit order.  Unreachable states are pruned silently."""
    names = tuple(transitions)
    edges = tuple(
        (src, digit, dst)
        for src, row in transitions.items()
        for digit, dst in enumerate(row)
    )
    out = None if outputs is None else tuple(outputs.items())
    dfao, _ = validate(RawDfao(k, names, initial, edges, out))
    return dfao


def _check_same_radix(d1: Dfao, d2: Dfao) -> None:
    if d1.k != d2.k:
        raise RadixMismatch(f"cannot compare machines over k={d1.k} and k={d2.k}")


def are_equivalent(d1: Dfao, d2: Dfao) -> bool:
    """Whether the two machines read out the same token on every word.

    Breadth-first search over reachable state pairs of the product,
    comparing outputs at each pair.  The initial pair is included, so the
    machines must also agree on term 0 of their sequences.  O(n1 n2 k)
    time and O(n1 n2) memory for machines of n1 and n2 states: each
    reachable pair is kept and expanded once.
    """
    _check_same_radix(d1, d2)
    a1, a2 = d1.automaton, d2.automaton
    start = (a1.initial, a2.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        s1, s2 = queue.popleft()
        if d1.output[s1] != d2.output[s2]:
            return False
        for d in range(a1.k):
            pair = (a1.transition[s1][d], a2.transition[s2][d])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True

