"""Reference opacity values by exhaustive enumeration.

Everything here evaluates the defining min/max directly: every relabeling
of the states by digits is tried against every input word up to a length
bound.  A word's prefix distance to its readback is 2**-i for the first
position i where the readback misses the word, and zero when it never
misses; a readback is as long as its word, so no other case arises.  No
graph analysis is used, so these numbers are a fair, independent check
for the structural algorithms in `dfao.opacity`.

The enumeration is bit-sliced over relabelings and shares each word's
work with its prefix.  Relabelings are numbered in lexicographic order
and held as bits of uint64 words, 64 to a word: bit r of the bitset
`masks[:, s, d]` is set when relabeling r shows digit d at state s.  Each
word w carries its end state and its alive set, the relabelings that read
w back perfectly.  The readbacks of w and of its child w.d agree on w, so
the child's alive set is alive(w) & masks[:, delta(end, d), d]: one AND
settles the last position of 64 (word, relabeling) cells.  So a length m
costs O(k^m * ceil(k^n / 64)) word operations, where reading every
relabeling back over all m positions cost O(k^m * k^n * m).

Every value comes from that one sweep, `_sweep`, which yields for each
length which words some relabeling still reads back: whether each alive
set is non-empty.  A word's floor index h, the latest first miss over
relabelings (len(w) when some relabeling reads w back perfectly), follows
from its prefix's: h(w.d) = len(w) + 1 when w.d is read back, else h(w).
A relabeling perfect on w misses w.d at position len(w), which is then
h(w), and every other relabeling keeps the first miss it had on w.
`per_word_infs` rebuilds each floor with that recurrence.
`brute_force_opacity` needs no floor at all: it stops at the first length
m where some word is not read back, and the answer there is 2**-(m - 1).

This is still a plain enumeration.  Every word of every length is
extended and every (word, relabeling) cell is decided by its own bit; no
two words are merged, not even when they share an end state and an alive
set, and nothing is computed about which digits enter which state.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .automaton import Automaton, Word
from .dyadic import ZERO, DyadicDistance, pow2inv
from .errors import InstanceTooLarge

# Budget guard: relabelings per machine.
ASSIGNMENT_LIMIT = 10**6
# Bytes of the per-(k, n) mask table and of one length's alive table,
# k**m rows of ceil(k**n / 64) uint64 words; a sweep refuses the first
# length whose table would not fit.  The cap counts that one table only:
# a sweep whose table fills it holds about 1.6 times as much, and each
# sweep builds a table the size of its mask table too (see `_sweep`).  It
# also bounds the sweep buffers kept between sweeps.
_TABLE_LIMIT = 64 * 2**20
# The set of buffers that a finished sweep leaves for the next one.
_spare: list[list[np.ndarray]] = []


def oracle_bound(a: Automaton) -> int:
    """Word length by which the brute-force maximum has stabilized.

    A shortest clashing word is an entry path (at most one edge per state)
    followed by a loop (at most one more pass), so 2 * states + 2 edges
    always suffice.
    """
    return 2 * len(a.states) + 2


# An entry holds n * k * ceil(k**n / 64) uint64 words, at most
# `_TABLE_LIMIT` bytes, and is built only after the relabeling budget has
# passed.  The corpus and perfbench's verify-oracle workload sweep 15
# distinct (k, n) between them.
@lru_cache(maxsize=16)
def _masks(k: int, n_states: int) -> np.ndarray:
    """(ceil(k**n_states / 64), n_states, k) uint64 bitsets: bit r of
    masks[:, s, d] is set when relabeling r shows digit d at state s.

    Relabeling r gives state s the digit at place s of r written with
    n_states base-k digits, most significant first (lexicographic order).
    Bits past k**n_states are clear, so an AND with any mask clears them.
    Which bit of which word holds r does not matter to any caller, only
    that every mask uses the same layout.  The word index comes first so
    that the sweep's ANDs and gathers run along contiguous rows.

    `_sweep` checks the relabeling budget first.  Within it a large radix
    still makes the table big (k = 1000 with 2 states needs 250 MB), so
    the table is refused over `_TABLE_LIMIT` bytes.  Builds in
    O(n k^(n+1)) time with O(k^n) bytes of scratch.
    """
    # numpy is imported here and in `_sweep`, not at module level, so that
    # commands which never sweep start without loading it.
    import numpy as np

    width = -(-(k**n_states) // 64)
    table_bytes = n_states * k * width * 8
    if table_bytes > _TABLE_LIMIT:
        raise InstanceTooLarge(
            f"{k}**{n_states} relabelings need a {table_bytes}-byte mask table, "
            f"over the budget of {_TABLE_LIMIT} bytes"
        )
    relabeling = np.arange(width * 64)
    masks = np.empty((width, n_states, k), dtype=np.uint64)
    for s in range(n_states):
        digit = relabeling // k ** (n_states - 1 - s) % k
        digit[k**n_states :] = k  # padding bits show no digit
        for d in range(k):
            masks[:, s, d] = np.packbits(digit == d, bitorder="little").view(np.uint64)
    masks.flags.writeable = False
    return masks


def _sweep(a: Automaton, max_len: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (m, read) for m = 1..max_len, where read[i] is True when some
    relabeling reads back the word of length m whose digits, last first,
    spell i in base k: entry i of length m extends entry i % k**(m-1) of
    length m - 1 by the digit i // k**(m-1).  Keeping the new digit
    outermost lets each length's AND read its parents' alive table as
    contiguous rows.  `read` is valid only until the next length is asked
    for; both callers use it at once.

    Each word carries its end state.  follow[:, d, s], a table the size of
    the mask table, is the mask for digit d of the state that s enters on
    d, so the children of a word gather their masks from follow with the
    word's end state, and AND them with its alive set.  A length's end
    states are built only when the next length is asked for, so the last
    length builds none.

    Budgets, in this order: relabelings, before anything is built; then
    the mask table, and before each length that length's alive table,
    against `_TABLE_LIMIT`.  Length m costs O(k^m * ceil(k^n / 64)) time.
    Its alive table of k^m * ceil(k^n / 64) * 8 bytes, its 1-byte readback
    flags and then its 8-byte end states go into buffers of parity m % 2,
    so its parent's stay readable.  A buffer is replaced only when a
    length needs more room.  A finished sweep leaves its set of buffers,
    follow's included, to the next one if the set totals at most
    `_TABLE_LIMIT` bytes, so a repeated sweep takes no fresh memory and a
    process keeps at most that much between sweeps; a sweep that finds no
    set left, such as a second live one, builds its own.  The cap counts
    the alive table alone, so the peak is higher: a transparent 9-state
    binary machine, whose length-20 table of 2^20 rows of 8 words fills
    the cap exactly, peaked at 132 MiB of resident memory, against 28 MiB
    for a trivial sweep in the same child process.  So the sweep held
    about 1.6 times the cap: its last two tables, 1.5 times, and their
    flags and end states (CPython 3.11, numpy 2.4, Linux x86_64).
    """
    import numpy as np  # local for the same reason as in `_masks`

    k, n = a.k, len(a.states)
    if k**n > ASSIGNMENT_LIMIT:
        raise InstanceTooLarge(
            f"{k}**{n} relabelings exceed the budget of {ASSIGNMENT_LIMIT}"
        )
    masks = _masks(k, n)
    width = masks.shape[0]
    try:
        bufs = _spare.pop()
    except IndexError:
        kinds = (np.uint64,) * 3 + (np.intp,) * 2 + (np.bool_,) * 2
        bufs = [np.empty(0, kind) for kind in kinds]

    # bufs[0] holds follow; bufs[1 + j % 2], bufs[3 + j % 2] and
    # bufs[5 + j % 2] hold length j's alive table, end states and flags
    def room(slot: int, size: int) -> np.ndarray:
        if bufs[slot].size < size:
            bufs[slot] = np.empty(size, bufs[slot].dtype)
        return bufs[slot][:size]

    # Every gather writes into its buffer through `out=`.  The indices are
    # in range by construction, so mode="clip", as "raise" would buffer
    # `out`; the array method skips `np.take`'s Python wrapper.
    try:
        # step[d, s]: the state s enters on digit d
        step = np.asarray(a.transition, dtype=np.intp).T.copy()
        follow = room(0, width * k * n).reshape(width, k, n)
        column = step * k + np.arange(k)[:, None]
        masks.reshape(width, n * k).take(column, axis=1, out=follow, mode="clip")
        end = np.array([a.initial], dtype=np.intp)  # the empty word's
        for m in range(1, max_len + 1):
            words = k**m
            table_bytes = words * width * 8
            if table_bytes > _TABLE_LIMIT:
                raise InstanceTooLarge(
                    f"length {m} needs a {table_bytes}-byte table of {k}**{m} words "
                    f"x {k}**{n} relabelings, over the budget of {_TABLE_LIMIT} bytes"
                )
            p = m % 2
            if m > 1:  # the end states of length m - 1
                out = room(3 + (m - 1) % 2, words // k)
                step.take(end, axis=1, out=out.reshape(k, -1), mode="clip")
                end = out
            children = room(1 + p, words * width).reshape(width, k, -1)
            follow.take(end, axis=2, out=children, mode="clip")
            if m > 1:
                children &= alive
            alive = children.reshape(width, 1, -1)  # the next length's parents
            read = room(5 + p, words)
            yield m, np.logical_or.reduce(alive, axis=(0, 1), out=read)
    finally:
        if sum([b.nbytes for b in bufs]) <= _TABLE_LIMIT:
            _spare[:] = [bufs]  # one set, whichever sweep ends last


def per_word_infs(
    a: Automaton, max_len: int
) -> Iterator[tuple[Word, DyadicDistance]]:
    """(word, floor distance over relabelings) for every word of length
    1..max_len, lexicographic within each length.

    Each word's floor index is rebuilt from its prefix's as the module
    docstring derives it: h(w.d) = m when `_sweep` says some relabeling
    reads w.d back, else h(w), with h = 0 for the empty word.  Each
    length m costs what `_sweep` says, plus O(k^m * m) to spell out its
    words."""
    import numpy as np  # local for the same reason as in `_masks`

    h = np.zeros(1, dtype=np.int16)
    for m, read in _sweep(a, max_len):
        h = np.where(read.reshape(a.k, -1), np.int16(m), h).ravel()
        words = itertools.product(range(a.k), repeat=m)
        lexicographic = h.reshape((a.k,) * m).T.ravel()  # first digit outermost
        for word, hi in zip(words, lexicographic.tolist()):
            yield word, ZERO if hi == m else pow2inv(hi)


def brute_force_opacity(a: Automaton, max_len: int) -> DyadicDistance:
    """Largest floor distance over every word of length 1..max_len.

    Lengths are scanned in increasing order, and the scan stops at the
    first length m where some word clashes (no relabeling reads it back).
    The answer is then 2**-(m - 1), by prefix reasoning alone, without
    any graph reasoning.  Every word of length m - 1 was read back by
    some relabeling, or the scan would have stopped earlier.  So every
    word of length m or more has a relabeling that first misses at
    position m - 1 or later, and its floor is at most 2**-(m - 1).  A
    clashing word of length m attains that bound: the relabeling that
    reads its prefix back misses it at position m - 1, and no relabeling
    does better.  When no word up to max_len clashes, every floor is zero.

    Cost: the lengths up to the first clashing one, each as `_sweep`
    gives it, O(k^m * ceil(k^n / 64)) time and, at length m, an alive
    table of k^m * ceil(k^n / 64) * 8 bytes next to its parent's, plus a
    table the size of the mask table.  The buffers pass from sweep to
    sweep while they total at most `_TABLE_LIMIT` bytes.  No words are
    spelled out.  Budgets in `_sweep`'s order; a length's table is checked
    only when it is reached, so a machine that clashes early is answered
    whatever its bound.
    """
    for m, read in _sweep(a, max_len):
        if not read.all():
            return pow2inv(m - 1)
    return ZERO
