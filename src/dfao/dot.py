"""Graphviz rendering of machines."""

from __future__ import annotations

from .automaton import Dfao
from .opacity import PathWitness


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(d: Dfao, witness: PathWitness | None = None) -> str:
    """DOT text for a machine, deterministic for a given input.

    Nodes are labeled name/output and the initial state gets an arrow from
    a point-shaped marker.  Parallel edges are merged into one arrow with
    a comma-joined digit list.  When a witness is given, the edges its
    path takes are drawn separately in red.  O(nk log k) for n states,
    from sorting each row's targets, plus the witness's length.
    """
    a = d.automaton
    witness_edges: set[tuple[int, int, int]] = set()
    if witness is not None:
        vertices = a.run_path(witness.word)
        witness_edges = set(zip(vertices, witness.word, vertices[1:]))

    lines = ["digraph dfao {", "  rankdir=LR;", "  start [shape=point];"]
    for i, name in enumerate(a.states):
        label = _escape(f"{name}/{d.output[i]}")
        lines.append(f'  s{i} [shape=circle, label="{label}"];')
    lines.append(f"  start -> s{a.initial};")

    for src, row in enumerate(a.transition):
        arrows: dict[tuple[int, bool], list[int]] = {}  # (dst, on witness) -> digits
        for digit, dst in enumerate(row):
            arrows.setdefault((dst, (src, digit, dst) in witness_edges), []).append(digit)
        for (dst, red), digits in sorted(arrows.items()):
            label = ",".join(map(str, digits))
            style = ", color=red, penwidth=2" if red else ""
            lines.append(f'  s{src} -> s{dst} [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
