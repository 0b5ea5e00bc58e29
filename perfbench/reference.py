"""Independent reference computations that check dfao's answers.

Nothing here imports dfao.  A machine is a plain `Machine` tuple, and each
function is a direct implementation written for checking, not for speed:
pruning, zero-normalization, Moore refinement (vectorized with numpy so
that long chains stay cheap to check), canonical relabeling, the
entry+loop shortest clash length and a per-word clash walk.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

import numpy as np


class Machine(NamedTuple):
    k: int
    trans: tuple[tuple[int, ...], ...]
    initial: int
    out: tuple[str, ...]


def canonical_name(i: int) -> str:
    return chr(ord("A") + i) if i < 26 else f"s{i}"


def bfs(trans, start: int) -> list[int | None]:
    """Breadth-first distances from `start`; None where unreachable."""
    dist: list[int | None] = [None] * len(trans)
    dist[start] = 0
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for t in trans[s]:
            if dist[t] is None:
                dist[t] = dist[s] + 1
                queue.append(t)
    return dist


def prune(m: Machine) -> Machine:
    """Restrict to states reachable from the initial one, keeping order."""
    dist = bfs(m.trans, m.initial)
    keep = [s for s in range(len(m.trans)) if dist[s] is not None]
    new = {old: i for i, old in enumerate(keep)}
    return Machine(
        m.k,
        tuple(tuple(new[t] for t in m.trans[s]) for s in keep),
        new[m.initial],
        tuple(m.out[s] for s in keep),
    )


def normalize_zero(m: Machine) -> Machine:
    """Prepend a fresh initial state looping on 0 unless the initial one does."""
    if m.trans[m.initial][0] == m.initial:
        return m
    first = (0,) + tuple(m.trans[m.initial][d] + 1 for d in range(1, m.k))
    rows = (first,) + tuple(tuple(t + 1 for t in row) for row in m.trans)
    return prune(Machine(m.k, rows, 0, (m.out[m.initial],) + m.out))


def moore_blocks(m: Machine) -> np.ndarray:
    """Block id per state of the coarsest output-respecting congruence."""
    n = len(m.trans)
    table = np.asarray(m.trans, dtype=np.int64)
    _, block = np.unique(np.asarray(m.out), return_inverse=True)
    count = int(block.max()) + 1
    while True:
        key = block.astype(np.int64)
        for d in range(m.k):
            key = key * (n + 1) + block[table[:, d]]
        _, refined = np.unique(key, return_inverse=True)
        refined_count = int(refined.max()) + 1
        if refined_count == count:
            return refined
        block, count = refined, refined_count


def intrinsic(m: Machine) -> Machine:
    """Canonical minimal zero-normalized machine, states in BFS order."""
    m = normalize_zero(prune(m))
    block = moore_blocks(m).tolist()
    rep: dict[int, int] = {}
    for s, b in enumerate(block):
        rep.setdefault(b, s)
    start = block[m.initial]
    order = [start]
    index = {start: 0}
    for b in order:  # grows while iterating: BFS, digits ascending
        for t in m.trans[rep[b]]:
            if block[t] not in index:
                index[block[t]] = len(order)
                order.append(block[t])
    return Machine(
        m.k,
        tuple(tuple(index[block[t]] for t in m.trans[rep[b]]) for b in order),
        0,
        tuple(m.out[rep[b]] for b in order),
    )


def in_digits(m: Machine) -> list[set[int]]:
    """Digits on the edges entering each state."""
    seen: list[set[int]] = [set() for _ in m.trans]
    for row in m.trans:
        for d, t in enumerate(row):
            seen[t].add(d)
    return seen


def strongly_connected(m: Machine) -> bool:
    back: list[list[int]] = [[] for _ in m.trans]
    for s, row in enumerate(m.trans):
        for t in row:
            back[t].append(s)
    return None not in bfs(m.trans, m.initial) and None not in bfs(back, m.initial)


def clash_length(m: Machine) -> int | None:
    """Length of a shortest clashing word: an entry path into some state s
    ending on digit x, then a loop back to s ending on a digit y != x."""
    dist0 = bfs(m.trans, m.initial)
    sources: list[list[list[int]]] = [[[] for _ in range(m.k)] for _ in m.trans]
    for r, row in enumerate(m.trans):
        for d, t in enumerate(row):
            sources[t][d].append(r)
    best = None
    for s in range(len(m.trans)):
        entry = {
            d: 1 + min(dist0[r] for r in rs if dist0[r] is not None)
            for d, rs in enumerate(sources[s])
            if any(dist0[r] is not None for r in rs)
        }
        if len(entry) < 2:
            continue
        dist = bfs(m.trans, s)
        for y, rs in enumerate(sources[s]):
            back = [dist[r] for r in rs if dist[r] is not None]
            if not back:
                continue
            for x, e in entry.items():
                if x != y and (best is None or e + 1 + min(back) < best):
                    best = e + 1 + min(back)
    return best


def walk(m: Machine, word) -> list[int]:
    """States visited by `word` from the initial state, initial included."""
    verts = [m.initial]
    for d in word:
        verts.append(m.trans[verts[-1]][d])
    return verts
