"""Line-oriented text format for machines (.aut).

    # Thue-Morse
    k 2
    states A B
    initial A
    output A 0
    output B 1
    edge A 0 A
    edge A 1 B
    edge B 0 B
    edge B 1 A

Tokens are whitespace-separated and `#` starts a comment anywhere on a
line.  A line ends at LF, at CRLF or at a lone CR (`str.splitlines`).
Directives may appear in any order.  `output` lines either cover every
state or are omitted entirely, in which case each state outputs its own
name.  Serialization is canonical: parse(serialize(d)) == d, and
serializing the same machine twice gives identical bytes.
"""

from __future__ import annotations

from .automaton import Dfao, LineMap, RawDfao, validate
from .errors import AutSyntaxError, DuplicateState


def _int_token(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise AutSyntaxError(f"{what} must be an integer, got {token!r}", line) from None


def parse_raw(text: str) -> RawDfao:
    """Tokenize .aut text into an unchecked description.

    Syntax problems (unknown directives, bad arity, duplicate or missing
    directives, repeated names) are reported with their line numbers.
    Every other check is left to `validate`; the description carries the
    line of each directive, so its errors about the radix, unknown names,
    digits out of range and duplicate edges name their lines too.  One
    pass with one split per line: O(len(text)).
    """
    k: int | None = None
    k_line = 0
    states: tuple[str, ...] | None = None
    initial: str | None = None
    outputs: list[tuple[str, str]] = []
    output_lines: dict[str, int] = {}
    edges: list[tuple[str, int, str]] = []
    edge_lines: list[int] = []
    digits: dict[str, int] = {}
    lineno = 0

    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    for lineno, line in enumerate(lines, 1):
        tokens = line.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "edge":  # by far the most common line
            if len(tokens) != 4:
                raise AutSyntaxError("edge takes source, digit, target", lineno)
            _, src, digit_token, dst = tokens
            digit = digits.get(digit_token)
            if digit is None:  # a digit token not seen before in this text
                digit = digits[digit_token] = _int_token(digit_token, "edge digit", lineno)
            edges.append((src, digit, dst))
            edge_lines.append(lineno)
        elif directive == "output":
            if len(tokens) != 3:
                raise AutSyntaxError("output takes a state and a token", lineno)
            _, name, token = tokens
            if name in output_lines:
                raise DuplicateState(
                    f"output for state {name!r} already given on line {output_lines[name]}",
                    lineno,
                )
            output_lines[name] = lineno
            outputs.append((name, token))
        elif directive == "k":
            if k is not None:
                raise AutSyntaxError("duplicate k directive", lineno)
            if len(tokens) != 2:
                raise AutSyntaxError("k takes exactly one value", lineno)
            k = _int_token(tokens[1], "k", lineno)
            k_line = lineno
        elif directive == "states":
            if states is not None:
                raise AutSyntaxError("duplicate states directive", lineno)
            states = tuple(tokens[1:])
            if not states:
                raise AutSyntaxError("states needs at least one name", lineno)
            if len(set(states)) != len(states):
                raise DuplicateState("repeated state name", lineno)
        elif directive == "initial":
            if initial is not None:
                raise AutSyntaxError("duplicate initial directive", lineno)
            if len(tokens) != 2:
                raise AutSyntaxError("initial takes exactly one state", lineno)
            initial = tokens[1]
        else:
            raise AutSyntaxError(f"unknown directive {directive!r}", lineno)

    if k is None:
        raise AutSyntaxError("missing k directive", lineno or None)
    if states is None:
        raise AutSyntaxError("missing states directive", lineno or None)
    if initial is None:
        raise AutSyntaxError("missing initial directive", lineno or None)

    return RawDfao(
        k,
        states,
        initial,
        tuple(edges),
        tuple(outputs) if outputs else None,
        LineMap(k_line, tuple(output_lines.values()), tuple(edge_lines)),
    )


def parse(text: str) -> Dfao:
    """Parse and validate .aut text; unreachable states are pruned silently.

    Use `parse_raw` plus `validate` to also learn which states were pruned.
    """
    dfao, _pruned = validate(parse_raw(text))
    return dfao


def serialize(d: Dfao) -> str:
    """Canonical .aut text for a machine.

    Output lines are omitted when every state outputs its own name, which
    is exactly the parser's default.
    """
    a = d.automaton
    lines = [
        f"k {a.k}",
        "states " + " ".join(a.states),
        f"initial {a.states[a.initial]}",
    ]
    if d.output != a.states:
        lines.extend(
            f"output {name} {token}" for name, token in zip(a.states, d.output)
        )
    for s, row in enumerate(a.transition):
        lines.extend(
            f"edge {a.states[s]} {digit} {a.states[t]}" for digit, t in enumerate(row)
        )
    return "\n".join(lines) + "\n"
