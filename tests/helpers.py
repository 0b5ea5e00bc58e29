"""Shared fixtures: random machine generators and exhaustive reference
searches used to cross-check the structural algorithms."""

from __future__ import annotations

import itertools
import os
import random
from collections import deque
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from dfao.automaton import (
    Automaton,
    Dfao,
    RawDfao,
    Word,
    _bfs,
    make_dfao,
    validate,
)
from dfao.dyadic import ZERO, DyadicDistance, pow2inv
from dfao.errors import BadRadix, UnknownState
from dfao.minimize import FactorMap, Partition, moore_partition
from dfao.opacity import _arrival

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**changes: str) -> dict[str, str]:
    """This process's environment with `changes`, and with the checkout's
    `src` first on PYTHONPATH: a child interpreter then imports this
    checkout's `dfao` whether or not the package is installed."""
    env = {**os.environ, **changes}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def digits_msb(n: int, k: int) -> Word:
    """Base-k digits of n, most significant first.  n = 0 gives ()."""
    if k < 2:
        raise BadRadix(f"radix must be >= 2, got {k}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    digits = []
    while n:
        n, r = divmod(n, k)
        digits.append(r)
    return tuple(reversed(digits))


def step(a: Automaton, s: int, word) -> int:
    """State reached from s after reading `word` digit by digit."""
    if not 0 <= s < len(a.states):
        raise UnknownState(f"state index {s} out of range")
    for d in word:
        a._check_digit(d)
        s = a.transition[s][d]
    return s


def index(a: Automaton, name: str) -> int:
    """State index for a display name."""
    try:
        return a.states.index(name)
    except ValueError:
        raise UnknownState(f"no state named {name!r}") from None


def output_of(d: Dfao, name: str) -> str:
    return d.output[index(d.automaton, name)]


def blocks(part: Partition) -> tuple[tuple[int, ...], ...]:
    """Members of each block of `part`, in block order."""
    members: list[list[int]] = [[] for _ in range(part.n_blocks)]
    for s, b in enumerate(part.block_of):
        members[b].append(s)
    return tuple(tuple(m) for m in members)


def canonicalize(d: Dfao) -> tuple[Dfao, tuple[int, ...]]:
    """Relabel states in breadth-first discovery order, digits ascending.

    Returns the relabeled machine and the index map old -> new.  Isomorphic
    machines canonicalize to identical descriptions, whatever their state
    names or listing order, so equality of canonical forms decides
    isomorphism.  States are named A .. Z, then s26, s27, ...  A reference
    for `minimize`'s canonical order: its own queue search, built through
    the checked constructors; every state must be reachable.
    """
    a = d.automaton
    relabel = {a.initial: 0}
    queue = deque([a.initial])
    while queue:
        for t in a.transition[queue.popleft()]:
            if t not in relabel:
                relabel[t] = len(relabel)
                queue.append(t)
    n = len(a.states)
    if len(relabel) != n:
        raise UnknownState("canonical form needs every state reachable")
    order = list(relabel)  # in discovery order
    names = tuple(chr(ord("A") + i) if i < 26 else f"s{i}" for i in range(n))
    rows = tuple(tuple(relabel[t] for t in a.transition[s]) for s in order)
    target = Dfao(Automaton(a.k, names, 0, rows), tuple(d.output[s] for s in order))
    return target, tuple(relabel[s] for s in range(n))


def canonical_form(d: Dfao) -> Dfao:
    """Relabeled copy whose description is identical for all isomorphs."""
    return canonicalize(d)[0]


def is_minimal(d: Dfao) -> bool:
    """True when no two states are indistinguishable."""
    return moore_partition(d).n_blocks == len(d.states)


def random_dfao(
    rng: random.Random,
    k: int | None = None,
    max_states: int = 5,
    output_alphabet: tuple[str, ...] = ("0", "1", "2"),
    min_states: int = 1,
) -> Dfao:
    """Uniform random complete machine, pruned to its accessible part.

    k defaults to a coin flip between 2 and 3.  Between min_states and
    max_states states are drawn; pruning keeps the accessible ones.
    """
    if k is None:
        k = rng.choice((2, 3))
    n = rng.randint(min_states, max_states)
    names = tuple(f"q{i}" for i in range(n))
    edges = tuple(
        (names[s], d, names[rng.randrange(n)]) for s in range(n) for d in range(k)
    )
    outputs = tuple((name, rng.choice(output_alphabet)) for name in names)
    dfao, _pruned = validate(RawDfao(k, names, names[0], edges, outputs))
    return dfao


def split_state(rng: random.Random, d: Dfao) -> Dfao:
    """Equivalent machine with one state duplicated.

    A random state is copied (same row, same output) and a random
    non-empty subset of its incoming edges is redirected to the copy.
    The sequence and the word-for-word readout are unchanged.
    """
    a = d.automaton
    n = len(a.states)
    # pick a state that has at least one incoming edge to redirect
    targets = sorted({t for row in a.transition for t in row})
    victim = rng.choice(targets)
    incoming = [
        (src, dig)
        for src in range(n)
        for dig in range(a.k)
        if a.transition[src][dig] == victim
    ]
    subset_size = rng.randint(1, len(incoming))
    chosen = set(rng.sample(incoming, subset_size))

    copy_name = a.states[victim] + "c"
    while copy_name in a.states:
        copy_name += "c"
    names = a.states + (copy_name,)
    copy_index = n
    rows = [list(row) for row in a.transition]
    rows.append(list(a.transition[victim]))  # the copy behaves identically
    for src, dig in chosen:
        rows[src][dig] = copy_index
    edges = tuple(
        (names[s], dig, names[rows[s][dig]])
        for s in range(n + 1)
        for dig in range(a.k)
    )
    outputs = tuple(
        (names[s], (d.output + (d.output[victim],))[s]) for s in range(n + 1)
    )
    dfao, _pruned = validate(RawDfao(a.k, names, names[a.initial], edges, outputs))
    return dfao


def unpruned_aut_text(rng: random.Random, k: int, n: int) -> str:
    """.aut text of a uniform random machine on n states, before pruning:
    states are listed in a shuffled order, so some are usually unreachable
    and the initial state need not be first, and outputs are given or not."""
    names = [f"q{i}" for i in range(n)]
    rng.shuffle(names)
    lines = [f"k {k}", "states " + " ".join(names), f"initial {names[rng.randrange(n)]}"]
    if rng.random() < 0.5:
        lines += [f"output {name} {rng.choice('01')}" for name in names]
    lines += [f"edge {name} {d} {rng.choice(names)}" for name in names for d in range(k)]
    return "\n".join(lines) + "\n"


_JUNK_TOKENS = (
    "", "x", "-1", "0", "1", "2", "99", "1.5", "#", "A", "0x1", "\u0661", "9" * 40, "edge", "k",
)
_JUNK_LINES = (
    "foo bar", "edge", "k", "k 1", "states", "initial", "output A", "# note", "", "   ", "edge A 0",
)


def malformed_aut_text(rng: random.Random, text: str) -> str:
    """Damage .aut text by one to three random edits: drop, repeat, swap or
    add lines, drop, add or replace tokens, insert a '#', or cut the text
    short.  The result may or may not still be a valid description."""
    lines = text.splitlines()
    pool = sorted(set(text.split())) + list(_JUNK_TOKENS)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines)) if lines else 0
        edit = rng.choice((0, 1, 1, 2, 2, 3, 4, 5, 6, 6, 6, 6, 7))
        if not lines or edit == 0:
            lines.insert(i, rng.choice(_JUNK_LINES))
        elif edit == 1:
            del lines[i]
        elif edit == 2:
            lines.insert(i, lines[rng.randrange(len(lines))])
        elif edit == 3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            t = rng.randrange(len(tokens) + 1)
            if edit == 4 and tokens:
                del tokens[min(t, len(tokens) - 1)]
            elif edit == 5:
                tokens.insert(t, rng.choice(pool))
            elif edit == 6 and tokens:
                tokens[min(t, len(tokens) - 1)] = rng.choice(pool)
            else:
                line = lines[i]
                cut = rng.randrange(len(line) + 1)
                tokens = [line[:cut] + "#" + line[cut:]]
            lines[i] = " ".join(tokens)
    out = "\n".join(lines) + "\n"
    return out[: rng.randrange(len(out) + 1)] if rng.random() < 0.1 else out


def cycle_chain(n: int, k: int) -> Dfao:
    """Every digit steps c_i -> c_(i+1 mod n); only the last state outputs 1."""
    return make_dfao(
        k,
        {f"c{i}": (f"c{(i + 1) % n}",) * k for i in range(n)},
        "c0",
        {f"c{i}": "1" if i == n - 1 else "0" for i in range(n)},
    )


def alternating_cycle(n: int) -> Automaton:
    """A binary cycle of n states (n even) from state 0: even state e steps
    0 -> e+1 and 1 -> e+2, odd states step to the next state on both
    digits.  Every odd state is entered on digit 0 only, so the witness
    search never searches it for a loop."""
    rows = tuple(((s + 1) % n, (s + 2) % n) if s % 2 == 0 else ((s + 1) % n,) * 2 for s in range(n))
    return Automaton(2, tuple(f"q{s}" for s in range(n)), 0, rows)


def tree_cycle(h: int) -> Automaton:
    """A complete binary tree of depth h rooted at state 0 (internal state i
    steps to 2i+1 and 2i+2), whose 2^h leaves form one cycle run against
    breadth-first order: leaf j steps to leaf j-1 (mod 2^h) on both digits.
    Every leaf is a clash candidate, and each one's cycle in-neighbour is
    visited after it."""
    leaves, first = 2**h, 2**h - 1
    rows = tuple((2 * i + 1, 2 * i + 2) for i in range(first))
    rows += tuple((first + (j - 1) % leaves,) * 2 for j in range(leaves))
    return Automaton(2, tuple(f"q{s}" for s in range(len(rows))), 0, rows)


def residue_machine(k: int, p: int) -> Dfao:
    """n mod p read in base k: delta(r, d) = (r k + d) mod p, output r at
    state r.  State r is entered only on digit r mod k, so it is
    transparent when k divides p; p = 10, k = 2 is the 10-state binary
    de Bruijn machine."""
    return periodic_machine(k, tuple(str(r) for r in range(p)))


def periodic_machine(k: int, pattern: tuple[str, ...]) -> Dfao:
    """Term n is pattern[n mod q], q = len(pattern): the n mod q machine in
    base k, delta(r, d) = (r k + d) mod q, with output pattern[r] at state r."""
    q = len(pattern)
    return make_dfao(
        k,
        {f"r{r}": tuple(f"r{(r * k + d) % q}" for d in range(k)) for r in range(q)},
        "r0",
        {f"r{r}": pattern[r] for r in range(q)},
    )


def digit_sum_machine(k: int, m: int) -> Dfao:
    """The base-k digit sum of n mod m: delta(r, d) = (r + d) mod m, output
    r at state r.  Digit 1 enters s1 and digit 0 then loops on s1, so (1, 0)
    clashes and the machine is opaque (1/2) for all k, m >= 2; k = m = 2 is
    Thue-Morse and k = m = 3 the ternary digit sum."""
    return make_dfao(
        k,
        {f"s{r}": tuple(f"s{(r + d) % m}" for d in range(k)) for r in range(m)},
        "s0",
        {f"s{r}": str(r) for r in range(m)},
    )


def block_parity_machine(k: int, block: tuple[int, ...], tokens: tuple[str, str]) -> Dfao:
    """Parity of the number of overlapping occurrences of `block` in the
    base-k digits of n, output tokens[parity].  State (j, parity) has read
    digits whose longest suffix that is a prefix of `block` has length j <
    len(block); a full match flips the parity and falls back to the longest
    proper border.  block[0] != 0 keeps leading zeros from matching, and
    k = 2 with block (1, 1) is Golay-Shapiro."""
    assert block and block[0] != 0

    def longest_prefix_suffix(seq: tuple[int, ...], most: int) -> int:
        return next(m for m in range(min(len(seq), most), -1, -1)
                    if seq[len(seq) - m:] == block[:m])

    size = len(block)
    rows = {}
    for j in range(size):
        for parity in (0, 1):
            row = []
            for d in range(k):
                nxt = longest_prefix_suffix(block[:j] + (d,), size)
                flip = parity
                if nxt == size:
                    flip, nxt = 1 - parity, longest_prefix_suffix(block, size - 1)
                row.append(f"q{nxt}p{flip}")
            rows[f"q{j}p{parity}"] = tuple(row)
    return make_dfao(k, rows, "q0p0", {name: tokens[int(name[-1])] for name in rows})


@st.composite
def small_automata(draw):
    k = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 5 if k == 2 else 3))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                         min_size=n, max_size=n))
    names = [f"q{i}" for i in range(n)]
    return make_dfao(k, {names[s]: [names[t] for t in row] for s, row in enumerate(rows)}, "q0").automaton


@st.composite
def small_dfaos(draw):
    """A small_automata machine with outputs drawn from two tokens."""
    a = draw(small_automata())
    n = len(a.states)
    return Dfao(a, tuple(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))))


def first_appearance(keys) -> list[int]:
    """Number keys by first appearance: the i-th distinct key gets id i."""
    ids = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


def moore_reference(d: Dfao) -> Partition:
    """Moore's round-by-round refinement, O(n^2 k): each round recomputes
    every state's signature (its block and its successors' blocks) and
    stops when no block splits.  It numbers blocks with its own
    `first_appearance`, not the package's helper."""
    block = first_appearance(d.output)
    columns = list(zip(*d.automaton.transition))  # columns[dig][s]: s's digit-dig successor
    while True:
        signature = zip(block, *(map(block.__getitem__, col) for col in columns))
        refined = first_appearance(signature)
        if max(refined) == max(block):
            return Partition(tuple(refined), max(refined) + 1)
        block = refined


def minimize_reference(d: Dfao) -> FactorMap:
    """Minimization in two steps: build the quotient machine with states
    b0, b1, ... (block b takes its smallest member's row), then
    canonicalize it."""
    part = moore_partition(d)
    a = d.automaton
    rep: dict[int, int] = {}
    for s, b in enumerate(part.block_of):
        rep.setdefault(b, s)
    m = part.n_blocks
    quotient = Dfao(
        Automaton(
            a.k,
            tuple(f"b{b}" for b in range(m)),
            part.block_of[a.initial],
            tuple(
                tuple(part.block_of[a.transition[rep[b]][dig]] for dig in range(a.k))
                for b in range(m)
            ),
        ),
        tuple(d.output[rep[b]] for b in range(m)),
    )
    target, relabel = canonicalize(quotient)
    assignment = tuple(relabel[part.block_of[s]] for s in range(len(a.states)))
    return FactorMap(d, target, assignment)


def _distance_into(a: Automaton, start: int, s: int, digit: int) -> int | None:
    a._check_digit(digit)
    feeders = [r for r, row in enumerate(a.transition) if row[digit] == s]
    return _arrival(_bfs(a.transition, start)[1], feeders)


def entry_distance(a: Automaton, s: int, digit: int) -> int | None:
    """Length of a shortest path from the initial state whose final edge
    enters s carrying `digit`; None when s has no such in-edge."""
    return _distance_into(a, a.initial, s, digit)


def return_distance(a: Automaton, s: int, digit: int) -> int | None:
    """Length of a shortest loop from s back to s whose final edge carries
    `digit`; None when no in-edge source of that digit is reachable from s."""
    return _distance_into(a, s, s, digit)


def all_words(k: int, length: int):
    """Every digit word of exactly this length, lexicographic order."""
    return itertools.product(range(k), repeat=length)


def find_clash(a: Automaton, word) -> tuple[int, int, int] | None:
    """(collide_state, pos_a, pos_b) for the word's first label clash on
    its path, or None when the path is homogeneous.  Straight from the
    definition, used to cross-check the BFS-based search."""
    word = tuple(word)
    s = a.initial
    first: dict[int, tuple[int, int]] = {}  # state -> (first label, position)
    for j, dig in enumerate(word):
        s = a.transition[s][dig]
        if s in first:
            label, pos = first[s]
            if label != dig:
                return s, pos, j
        else:
            first[s] = (dig, j)
    return None


def exhaustive_shortest_clash(a: Automaton, max_len: int):
    """Lexicographically smallest shortest clashing word up to max_len,
    with the same (collide, pos_a, pos_b) convention as the analyzer:
    pos_b is the final edge and pos_a the first earlier entry of the
    colliding state under a different label."""
    for m in range(1, max_len + 1):
        for word in all_words(a.k, m):
            hit = find_clash(a, word)
            if hit is not None:
                collide, _pos_a, pos_b = hit
                vertices = a.run_path(word)
                b = len(word) - 1
                assert pos_b == b, "a first clash before the last edge means a shorter word clashes"
                a_pos = next(
                    j
                    for j in range(b)
                    if vertices[j + 1] == collide and word[j] != word[b]
                )
                return word, collide, a_pos, b
    return None


def word_search_shortest_clash(a: Automaton):
    """`exhaustive_shortest_clash` without its length cap, in polynomial
    time, following words rather than the entry+loop lemma.

    For each state t entered on two digits, a breadth-first search in digit
    order runs over pairs (state, digit of the first entry into t, or None
    before it), from (initial, None), and stops at the first edge that
    enters t on another digit.  Pairs are expanded in the order of their
    smallest shortest words, so that edge ends the smallest shortest word
    that clashes at t; a search goes no deeper than the best word so far.
    The smallest (length, word) over all t is the witness, and a walk of it
    gives the clash state and position_a.  O(n k^2) time per t.
    """
    k, rows = a.k, a.transition
    entry_digits: list[set[int]] = [set() for _ in rows]
    for row in rows:
        for d, u in enumerate(row):
            entry_digits[u].add(d)
    best = None
    for t in range(len(rows)):
        if len(entry_digits[t]) < 2:
            continue
        start = (a.initial, None)
        back = {start: None}  # pair -> (pair it was first reached from, digit)
        level, depth, clash = [start], 0, None
        while level and clash is None and (best is None or depth < len(best)):
            below = []
            for pair in level:
                s, first = pair
                for d, u in enumerate(rows[s]):
                    if u == t and first is not None and d != first:
                        clash = pair, d
                        break
                    nxt = (u, d if u == t and first is None else first)
                    if nxt not in back:
                        back[nxt] = pair, d
                        below.append(nxt)
                if clash is not None:
                    break
            level, depth = below, depth + 1
        if clash is None:
            continue
        pair, d = clash
        word = [d]
        while back[pair] is not None:
            pair, d = back[pair]
            word.append(d)
        word = tuple(reversed(word))
        if best is None or (len(word), word) < (len(best), best):
            best = word
    if best is None:
        return None
    vertices = a.run_path(best)
    b = len(best) - 1
    a_pos = next(j for j in range(b) if vertices[j + 1] == vertices[-1] and best[j] != best[b])
    return best, vertices[-1], a_pos, b


def prefix_distance(w, v) -> DyadicDistance:
    """2**-(first index where the words differ); zero only for equality.

    When one word is a proper prefix of the other there is no differing
    index to point at, so the distance is taken at the shorter length:
    a strict prefix is close to, but never at distance zero from, its
    extension.
    """
    w = tuple(w)
    v = tuple(v)
    if w == v:
        return ZERO
    m = min(len(w), len(v))
    for i in range(m):
        if w[i] != v[i]:
            return pow2inv(i)
    return pow2inv(m)


def readout(a: Automaton, word, assignment) -> tuple[int, ...]:
    """Digit word produced by a relabeling: assignment[s] is the digit
    shown when the machine sits in state s, read once per input digit."""
    out = []
    s = a.initial
    for d in word:
        a._check_digit(d)
        s = a.transition[s][d]
        out.append(assignment[s])
    return tuple(out)


def pure_python_inf(a: Automaton, word) -> DyadicDistance:
    """inf over relabelings of the prefix distance, without numpy: the
    definition itself, independent of dfao.oracle."""
    word = tuple(word)
    return min(
        prefix_distance(word, readout(a, word, assignment))
        for assignment in itertools.product(range(a.k), repeat=len(a.states))
    )


def assignment_matrix(k: int, n_states: int) -> np.ndarray:
    """All k**n_states relabelings, one per row, lexicographic order."""
    size = k**n_states
    return np.stack(
        np.unravel_index(np.arange(size), (k,) * n_states), axis=1
    ).astype(np.int16)


def length_sweep(a: Automaton, max_len: int):
    """Yield (length, words, path_vertices) for every length 1..max_len.

    Rows of `words` are all words of that length in lexicographic order;
    the matching row of `path_vertices` lists the states entered after
    each digit.  Arrays grow incrementally from the previous length.
    """
    k = a.k
    trans = np.asarray(a.transition, dtype=np.int64)
    words = np.zeros((1, 0), dtype=np.int16)
    verts = np.zeros((1, 0), dtype=np.int16)
    ends = np.asarray([a.initial], dtype=np.int64)
    for m in range(1, max_len + 1):
        n_prev = words.shape[0]
        last = np.tile(np.arange(k, dtype=np.int16), n_prev)
        new_ends = trans[np.repeat(ends, k), last.astype(np.int64)]
        new_words = np.empty((n_prev * k, m), dtype=np.int16)
        new_words[:, : m - 1] = np.repeat(words, k, axis=0)
        new_words[:, m - 1] = last
        new_verts = np.empty((n_prev * k, m), dtype=np.int16)
        new_verts[:, : m - 1] = np.repeat(verts, k, axis=0)
        new_verts[:, m - 1] = new_ends.astype(np.int16)
        words, verts, ends = new_words, new_verts, new_ends
        yield m, words, verts


def per_word_floor(
    assignments: np.ndarray, words: np.ndarray, verts: np.ndarray, chunk: int = 2048
) -> np.ndarray:
    """For each row of the (n_words, m) `words`, with `verts` the states
    its path enters: the latest first-miss position any relabeling
    achieves, or m when some relabeling reads the word back perfectly.
    Every relabeling's readback is compared over all m positions, a chunk
    of words at a time."""
    n_words, m = words.shape
    h = np.empty(n_words, dtype=np.int64)
    for lo in range(0, n_words, chunk):
        hi = min(lo + chunk, n_words)
        readbacks = assignments[:, verts[lo:hi]]  # (n_assign, chunk, m)
        mismatch = readbacks != words[lo:hi][None, :, :]
        first = np.where(mismatch.any(axis=2), mismatch.argmax(axis=2), m)
        h[lo:hi] = first.max(axis=0)
    return h


def readback_per_word_infs(a: Automaton, max_len: int):
    """`dfao.oracle.per_word_infs` by the full readback of every word
    under every relabeling, without budgets: the test reference for the
    bit-sliced, prefix-shared sweep."""
    assignments = assignment_matrix(a.k, len(a.states))
    for m, words, verts in length_sweep(a, max_len):
        h = per_word_floor(assignments, words, verts)
        for row, hi in zip(words.tolist(), h.tolist()):
            yield tuple(row), ZERO if hi == m else pow2inv(hi)


def readback_brute_force_opacity(a: Automaton, max_len: int) -> DyadicDistance:
    """`dfao.oracle.brute_force_opacity` by the full readback, without
    budgets: lengths in order, stopping at the first clashing one."""
    assignments = assignment_matrix(a.k, len(a.states))
    for m, words, verts in length_sweep(a, max_len):
        h = int(per_word_floor(assignments, words, verts).min())
        if h < m:
            return pow2inv(h)
    return ZERO
