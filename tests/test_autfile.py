"""Text format: round trips, defaults, and positioned error reports."""

import random
import re

import pytest
from hypothesis import given

from dfao.autfile import parse, parse_raw, serialize
from dfao.automaton import make_dfao, validate
from dfao.corpus import ENTRIES, build
from dfao.errors import (
    AutSyntaxError,
    BadRadix,
    DfaoError,
    DigitOutOfRange,
    DuplicateState,
    DuplicateTransition,
    MissingOutput,
    MissingTransition,
    UnknownState,
)
from dfao.minimize import intrinsic_automaton
from helpers import malformed_aut_text, random_dfao, small_dfaos, unpruned_aut_text

TM_TEXT = """\
# Thue-Morse
k 2
states A B
initial A
output A 0
output B 1

edge A 0 A
edge A 1 B   # back half
edge B 0 B
edge B 1 A
"""


def test_parse_example():
    assert parse(TM_TEXT) == build("thue_morse")


def test_parse_tolerates_order_and_comments():
    shuffled = """\
edge B 1 A
initial A   # start here
output B 1
k 2
edge A 1 B
states A B
edge B 0 B
output A 0
edge A 0 A
"""
    assert parse(shuffled) == build("thue_morse")


def test_corpus_round_trips():
    for ent in ENTRIES:
        d = build(ent.name)
        assert parse(serialize(d)) == d, ent.name


def test_random_round_trips():
    rng = random.Random(71)
    for _ in range(200):
        d = random_dfao(rng)
        assert parse(serialize(d)) == d


@given(small_dfaos())
def test_round_trip_property(d):
    assert parse(serialize(d)) == d


def test_serialize_omits_default_outputs():
    d = make_dfao(2, {"A": ("A", "B"), "B": ("B", "A")}, "A")
    text = serialize(d)
    assert d.output == ("A", "B")
    assert "output" not in text
    assert parse(text) == d


def test_serialize_is_deterministic():
    d = build("hanoi")
    assert serialize(d) == serialize(d)
    assert serialize(d).endswith("\n")


def test_parse_prunes_silently():
    text = TM_TEXT + "\n".join(
        ["", "# unreachable island", "edge Z 0 Z", "edge Z 1 A"]
    )
    text = text.replace("states A B", "states A B Z").replace(
        "output B 1", "output B 1\noutput Z 9"
    )
    d = parse(text)
    assert d.states == ("A", "B")
    assert d == build("thue_morse")


def prefix_line(msg):
    """N of a message that starts with `line N: `, else None."""
    prefix = re.match(r"line (\d+): ", msg)
    return prefix and int(prefix[1])


def parse_error(text, error):
    """The message of the `error` that `text` raises, whose `.line` must be
    its prefix's number."""
    with pytest.raises(error) as info:
        validate(parse_raw(text))
    msg = str(info.value)
    assert info.value.line == prefix_line(msg), msg
    return msg


def test_syntax_errors_carry_line_numbers():
    msg = parse_error("k 2\nk 3\n", AutSyntaxError)
    assert "line 2" in msg and "duplicate k" in msg

    msg = parse_error("k 2\nstates A\nwibble A\n", AutSyntaxError)
    assert "line 3" in msg and "wibble" in msg

    msg = parse_error("k two\n", AutSyntaxError)
    assert "line 1" in msg and "integer" in msg

    msg = parse_error("k 2\nstates A\nedge A x A\ninitial A\n", AutSyntaxError)
    assert "line 3" in msg

    msg = parse_error("k 2\nstates A\ninitial A B\n", AutSyntaxError)
    assert "line 3" in msg

    msg = parse_error("k 2\nstates\ninitial A\n", AutSyntaxError)
    assert "line 2" in msg


def test_missing_directives_report_the_end():
    msg = parse_error("states A\ninitial A\nedge A 0 A\nedge A 1 A\n", AutSyntaxError)
    assert "missing k" in msg and "line 4" in msg
    msg = parse_error("k 2\ninitial A\n", AutSyntaxError)
    assert "missing states" in msg
    msg = parse_error("k 2\nstates A\n", AutSyntaxError)
    assert "missing initial" in msg


def test_semantic_errors_carry_line_numbers():
    base = "k 2\nstates A B\ninitial A\n"
    edges = "edge A 0 A\nedge A 1 B\nedge B 0 B\nedge B 1 A\n"

    msg = parse_error("k 1\nstates A\ninitial A\nedge A 0 A\n", BadRadix)
    assert "line 1" in msg

    msg = parse_error(base + edges + "edge C 0 A\n", UnknownState)
    assert "line 8" in msg and "'C'" in msg

    msg = parse_error(base + edges + "edge A 0 C\n", UnknownState)
    assert "line 8" in msg

    msg = parse_error(base + "edge A 5 B\n" + edges, DigitOutOfRange)
    assert "line 4" in msg

    msg = parse_error(base + edges + "edge B 1 B\n", DuplicateTransition)
    assert "line 8" in msg and "line 7" in msg  # both the clash and the original

    msg = parse_error("k 2\nstates A A\ninitial A\n", DuplicateState)
    assert "line 2" in msg

    msg = parse_error(base + "output A 0\noutput A 1\n" + edges, DuplicateState)
    assert "line 5" in msg and "line 4" in msg

    msg = parse_error(base + "output C 0\n" + edges, UnknownState)
    assert "line 4" in msg

    msg = parse_error("k 2\nstates A B\ninitial C\n" + edges, UnknownState)
    assert "'C'" in msg


def test_incomplete_table_fails_validation():
    text = "k 2\nstates A\ninitial A\nedge A 0 A\n"
    parse_error(text, MissingTransition)


def test_partial_outputs_fail_validation():
    text = TM_TEXT.replace("output B 1\n", "")
    parse_error(text, MissingOutput)


def test_autsyntaxerror_records_line():
    err = AutSyntaxError("boom", 12)
    assert err.line == 12
    assert str(err) == "line 12: boom"
    assert str(AutSyntaxError("boom")) == "boom"


def test_malformed_text_raises_only_dfao_errors():
    """Damaged descriptions parse or fail with a DfaoError, never with
    another exception."""
    rng = random.Random(67)
    corpus = [serialize(build(ent.name)) for ent in ENTRIES]
    outcomes = set()
    for _ in range(400):
        if rng.random() < 0.3:
            text = rng.choice(corpus)
        else:
            text = unpruned_aut_text(rng, rng.choice((2, 3)), rng.randint(1, 6))
        text = malformed_aut_text(rng, text)
        try:
            dfao, _pruned = validate(parse_raw(text))
        except DfaoError as exc:
            assert exc.line == prefix_line(str(exc)), exc
            outcomes.add(type(exc))
        else:
            intrinsic_automaton(dfao)
            outcomes.add(None)
    assert None in outcomes and len(outcomes) >= 6, outcomes
