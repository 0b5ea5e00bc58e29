"""Reference opacity values by exhaustive enumeration.

Everything here evaluates the defining min/max directly: every relabeling
of the states by digits is tried against every input word up to a length
bound, and the prefix distance between a word and its readback is taken
literally.  No graph analysis is used, so these numbers are a fair,
independent check for the structural algorithms in `dfao.opacity`.  The
enumeration is vectorized with numpy for speed but remains a plain
enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .automaton import Automaton, Word
from .dyadic import ZERO, DyadicDistance, pow2inv
from .errors import InstanceTooLarge

# Budget guards: relabelings per machine and words per sweep.
ASSIGNMENT_LIMIT = 10**6
WORD_LIMIT = 10**7

_WORD_CHUNK = 2048


def prefix_distance(w: Sequence, v: Sequence) -> DyadicDistance:
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


def oracle_bound(a: Automaton) -> int:
    """Word length by which the brute-force maximum has stabilized.

    A shortest clashing word is an entry path (at most one edge per state)
    followed by a loop (at most one more pass), so 2 * states + 2 edges
    always suffice.
    """
    return 2 * len(a.states) + 2


def readout(a: Automaton, word: Iterable[int], assignment: Sequence[int]) -> Word:
    """Digit word produced by a relabeling: assignment[s] is the digit
    shown when the machine sits in state s, read once per input digit."""
    out = []
    s = a.initial
    for d in word:
        a._check_digit(d)
        s = a.transition[s][d]
        out.append(assignment[s])
    return tuple(out)


# An entry can hold 10**6 rows of n int16 digits, so the cache is bounded;
# the oracle runs of the corpus and of perfbench's verify-oracle workload
# ask for 11 distinct (k, n) between them, which all stay cached.
@lru_cache(maxsize=16)
def _assignment_matrix(k: int, n_states: int) -> np.ndarray:
    """All k**n_states relabelings, one per row, lexicographic order."""
    size = k**n_states
    matrix = np.stack(
        np.unravel_index(np.arange(size), (k,) * n_states), axis=1
    ).astype(np.int16)
    matrix.flags.writeable = False
    return matrix


def _check_assignment_budget(a: Automaton) -> None:
    if a.k ** len(a.states) > ASSIGNMENT_LIMIT:
        raise InstanceTooLarge(
            f"{a.k}**{len(a.states)} relabelings exceed the budget of {ASSIGNMENT_LIMIT}"
        )


def inf_over_outputs(a: Automaton, word: Iterable[int]) -> DyadicDistance:
    """Smallest prefix distance between `word` and its readback, over every
    relabeling of the states.  Plain enumeration of all k**n relabelings."""
    word = tuple(word)
    _check_assignment_budget(a)
    if not word:
        return ZERO
    path = []
    s = a.initial
    for d in word:
        a._check_digit(d)
        s = a.transition[s][d]
        path.append(s)
    assignments = _assignment_matrix(a.k, len(a.states))
    readbacks = assignments[:, np.asarray(path)]
    mismatch = readbacks != np.asarray(word, dtype=np.int16)
    missed = mismatch.any(axis=1)
    if not missed.all():
        return ZERO  # some relabeling reads the word back perfectly
    return pow2inv(int(mismatch.argmax(axis=1).max()))


def _length_sweep(a: Automaton, max_len: int):
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


def _per_word_floor(a: Automaton, words: np.ndarray, verts: np.ndarray):
    """For each word row: (True, -) when some relabeling reads it back
    perfectly, else (False, h) with h the latest first-miss position any
    relabeling achieves.  The word's floor distance is ZERO or 2**-h."""
    assignments = _assignment_matrix(a.k, len(a.states))
    n_words = words.shape[0]
    perfect = np.empty(n_words, dtype=bool)
    h = np.empty(n_words, dtype=np.int64)
    for lo in range(0, n_words, _WORD_CHUNK):
        hi = min(lo + _WORD_CHUNK, n_words)
        readbacks = assignments[:, verts[lo:hi]]  # (n_assign, chunk, m)
        mismatch = readbacks != words[lo:hi][None, :, :]
        missed = mismatch.any(axis=2)  # (n_assign, chunk)
        perfect[lo:hi] = (~missed).any(axis=0)
        first = np.argmax(mismatch, axis=2)
        h[lo:hi] = np.where(missed, first, -1).max(axis=0)
    return perfect, h


def per_word_infs(
    a: Automaton, max_len: int
) -> Iterator[tuple[Word, DyadicDistance]]:
    """(word, floor distance over relabelings) for every word of length
    1..max_len, lexicographic within each length."""
    _check_assignment_budget(a)
    if a.k**max_len > WORD_LIMIT:
        raise InstanceTooLarge(
            f"{a.k}**{max_len} words exceed the budget of {WORD_LIMIT}"
        )
    for _m, words, verts in _length_sweep(a, max_len):
        perfect, h = _per_word_floor(a, words, verts)
        word_rows = words.tolist()
        for i, row in enumerate(word_rows):
            yield tuple(row), (ZERO if perfect[i] else pow2inv(int(h[i])))


def brute_force_opacity(a: Automaton, max_len: int) -> DyadicDistance:
    """Largest floor distance over every word of length 1..max_len.

    Lengths are scanned in increasing order and the scan stops at the
    first length where any word clashes (no relabeling reads it back).
    That is sound without any graph reasoning: a longer word whose best
    relabeling first misses at an even earlier position h would clash
    within its first h+1 edges, and that prefix is itself a word this
    scan has already processed.  So later lengths can never produce a
    larger value, and the minimum h seen at the first clashing length is
    the exact answer for every bound at or beyond it.
    """
    _check_assignment_budget(a)
    if max_len >= 1 and a.k**max_len > WORD_LIMIT:
        raise InstanceTooLarge(
            f"{a.k}**{max_len} words exceed the budget of {WORD_LIMIT}"
        )
    for _m, words, verts in _length_sweep(a, max_len):
        perfect, h = _per_word_floor(a, words, verts)
        clashed = ~perfect
        if clashed.any():
            return pow2inv(int(h[clashed].min()))
    return ZERO
