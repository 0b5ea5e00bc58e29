"""Reference opacity values by exhaustive enumeration.

Everything here evaluates the defining min/max directly: every relabeling
of the states by digits is tried against every input word up to a length
bound.  A word's prefix distance to its readback is 2**-i for the first
position i where the readback misses the word, and zero when it never
misses; a readback is as long as its word, so no other case arises.  No
graph analysis is used, so these numbers are a fair, independent check
for the structural algorithms in `dfao.opacity`.  The enumeration is
vectorized with numpy for speed but remains a plain enumeration.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .automaton import Automaton, Word
from .dyadic import ZERO, DyadicDistance, pow2inv
from .errors import InstanceTooLarge

# Budget guards: relabelings per machine and words per sweep.
ASSIGNMENT_LIMIT = 10**6
WORD_LIMIT = 10**7

_WORD_CHUNK = 2048


def oracle_bound(a: Automaton) -> int:
    """Word length by which the brute-force maximum has stabilized.

    A shortest clashing word is an entry path (at most one edge per state)
    followed by a loop (at most one more pass), so 2 * states + 2 edges
    always suffice.
    """
    return 2 * len(a.states) + 2


# An entry can hold 10**6 rows of n int16 digits, so the cache is bounded;
# the oracle runs of the corpus and of perfbench's verify-oracle workload
# ask for 15 distinct (k, n) between them, the word-refused ones included,
# which all stay cached.
@lru_cache(maxsize=16)
def _assignment_matrix(k: int, n_states: int) -> np.ndarray:
    """All k**n_states relabelings, one per row, lexicographic order.

    This is the relabeling budget's only check, and every oracle entry
    point fetches the matrix first, so an instance over both budgets is
    refused for its relabelings.  `lru_cache` keeps no exceptions, so the
    check runs on every over-budget call.
    """
    size = k**n_states
    if size > ASSIGNMENT_LIMIT:
        raise InstanceTooLarge(
            f"{k}**{n_states} relabelings exceed the budget of {ASSIGNMENT_LIMIT}"
        )
    matrix = np.stack(
        np.unravel_index(np.arange(size), (k,) * n_states), axis=1
    ).astype(np.int16)
    matrix.flags.writeable = False
    return matrix


def _length_sweep(a: Automaton, max_len: int):
    """Yield (length, words, path_vertices) for every length 1..max_len.

    Rows of `words` are all words of that length in lexicographic order;
    the matching row of `path_vertices` lists the states entered after
    each digit.  Arrays grow incrementally from the previous length.
    Refuses the whole sweep up front when k**max_len words exceed the
    word budget.
    """
    k = a.k
    if k**max_len > WORD_LIMIT:
        raise InstanceTooLarge(f"{k}**{max_len} words exceed the budget of {WORD_LIMIT}")
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


def _per_word_floor(
    assignments: np.ndarray, words: np.ndarray, verts: np.ndarray
) -> np.ndarray:
    """For each row of the (n_words, m) `words`, with `verts` the states
    its path enters: the latest first-miss position any relabeling
    achieves, or m when some relabeling reads the word back perfectly.
    The word's floor distance is ZERO for m, else 2**-h (`_floor`)."""
    n_words, m = words.shape
    h = np.empty(n_words, dtype=np.int64)
    for lo in range(0, n_words, _WORD_CHUNK):
        hi = min(lo + _WORD_CHUNK, n_words)
        readbacks = assignments[:, verts[lo:hi]]  # (n_assign, chunk, m)
        mismatch = readbacks != words[lo:hi][None, :, :]
        first = np.where(mismatch.any(axis=2), mismatch.argmax(axis=2), m)
        h[lo:hi] = first.max(axis=0)
    return h


def _floor(h: int, m: int) -> DyadicDistance:
    return ZERO if h == m else pow2inv(h)


def inf_over_outputs(a: Automaton, word: Iterable[int]) -> DyadicDistance:
    """Smallest prefix distance between `word` and its readback, over every
    relabeling of the states.  Plain enumeration of all k**n relabelings."""
    assignments = _assignment_matrix(a.k, len(a.states))
    run = a.run_path(word)
    if not run.word:
        return ZERO
    words = np.asarray([run.word], dtype=np.int16)
    verts = np.asarray([run.vertices[1:]], dtype=np.int16)
    return _floor(int(_per_word_floor(assignments, words, verts)[0]), len(run.word))


def per_word_infs(
    a: Automaton, max_len: int
) -> Iterator[tuple[Word, DyadicDistance]]:
    """(word, floor distance over relabelings) for every word of length
    1..max_len, lexicographic within each length."""
    assignments = _assignment_matrix(a.k, len(a.states))
    for m, words, verts in _length_sweep(a, max_len):
        h = _per_word_floor(assignments, words, verts)
        for row, hi in zip(words.tolist(), h.tolist()):
            yield tuple(row), _floor(hi, m)


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
    assignments = _assignment_matrix(a.k, len(a.states))
    for m, words, verts in _length_sweep(a, max_len):
        h = int(_per_word_floor(assignments, words, verts).min())
        if h < m:
            return pow2inv(h)
    return ZERO
