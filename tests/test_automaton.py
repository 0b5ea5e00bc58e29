"""Core machine type: construction, validation, runs, equivalence."""

import dataclasses
import random
import tracemalloc
from collections import deque
from collections.abc import Hashable
from decimal import Decimal
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfao.automaton import (
    Automaton,
    Dfao,
    LineMap,
    RawDfao,
    _bfs,
    are_equivalent,
    make_dfao,
    validate,
)
from dfao.autfile import parse_raw
from dfao.corpus import ENTRIES, build
from dfao.errors import (
    BadRadix,
    BadToken,
    DfaoError,
    DigitOutOfRange,
    DuplicateState,
    DuplicateTransition,
    MissingOutput,
    MissingTransition,
    NoStates,
    RadixMismatch,
    UnknownState,
)
from dfao.minimize import intrinsic_automaton, minimize
from dfao.opacity import analyze_sequence, longest_homogeneous_prefix
from helpers import (
    all_words,
    canonical_form,
    canonicalize,
    digits_msb,
    index,
    output_of,
    random_dfao,
    small_automata,
    small_dfaos,
    split_state,
    step,
    unpruned_aut_text,
)


def test_digits_msb():
    assert digits_msb(0, 2) == ()
    assert digits_msb(1, 2) == (1,)
    assert digits_msb(6, 2) == (1, 1, 0)
    assert digits_msb(10, 3) == (1, 0, 1)
    assert digits_msb(255, 16) == (15, 15)
    with pytest.raises(BadRadix):
        digits_msb(5, 1)
    with pytest.raises(ValueError):
        digits_msb(-1, 2)


def test_constructor_validation():
    with pytest.raises(BadRadix):
        Automaton(1, ("A",), 0, ((0,),))
    with pytest.raises(NoStates):
        Automaton(2, (), 0, ())
    with pytest.raises(DuplicateState):
        Automaton(2, ("A", "A"), 0, ((0, 0), (0, 0)))
    with pytest.raises(UnknownState):
        Automaton(2, ("A",), 3, ((0, 0),))
    with pytest.raises(MissingTransition):
        Automaton(2, ("A",), 0, ())
    with pytest.raises(MissingTransition):
        Automaton(2, ("A",), 0, ((0,),))
    with pytest.raises(UnknownState):
        Automaton(2, ("A",), 0, ((0, 5),))
    with pytest.raises(ValueError):
        Automaton(2, ("A B",), 0, ((0, 0),))
    with pytest.raises(ValueError):
        Automaton(2, ("A#",), 0, ((0, 0),))


def test_output_validation():
    a = Automaton(2, ("A",), 0, ((0, 0),))
    with pytest.raises(MissingOutput):
        Dfao(a, ())
    with pytest.raises(ValueError):
        Dfao(a, ("a b",))


def test_step_and_run_path():
    bs = build("baum_sweet")
    a = bs.automaton
    assert step(a, a.initial, (1, 0, 0)) == index(a, "B")
    assert step(a, index(a, "D"), (0, 1, 0, 1)) == index(a, "D")

    tern = build("ternary_digit_sum")
    vertices = tern.automaton.run_path((1, 0))
    assert vertices == (0, 1, 1)
    assert tuple(tern.states[v] for v in vertices) == ("A", "B", "B")
    assert tern.automaton.run_path(()) == (tern.initial,)
    tm = build("thue_morse").automaton
    for word in ((2,), (0, 1, -1)):
        with pytest.raises(DigitOutOfRange, match=rf"^digit {word[-1]} out of range for k=2$"):
            tm.run_path(word)

    with pytest.raises(DigitOutOfRange):
        step(a, a.initial, (2,))
    with pytest.raises(UnknownState):
        step(a, 99, (0,))


def test_index_lookup():
    tm = build("thue_morse")
    assert index(tm.automaton, "B") == 1
    assert output_of(tm, "B") == "1"
    with pytest.raises(UnknownState):
        index(tm.automaton, "Z")


def test_strict_accessibility():
    assert build("hanoi").automaton.is_strictly_accessible()
    assert build("thue_morse").automaton.is_strictly_accessible()
    assert build("one_state").automaton.is_strictly_accessible()
    assert not build("baum_sweet").automaton.is_strictly_accessible()


def test_validate_accepts_and_prunes():
    raw = RawDfao(
        2,
        ("A", "B", "Z"),
        "A",
        (
            ("A", 0, "A"),
            ("A", 1, "B"),
            ("B", 0, "B"),
            ("B", 1, "A"),
            ("Z", 0, "Z"),
            ("Z", 1, "A"),
        ),
        (("A", "0"), ("B", "1"), ("Z", "9")),
    )
    dfao, pruned = validate(raw)
    assert pruned == ("Z",)
    assert dfao == build("thue_morse")


def test_validate_default_outputs_are_names():
    raw = RawDfao(2, ("A", "B"), "A", (("A", 0, "A"), ("A", 1, "B"), ("B", 0, "B"), ("B", 1, "A")))
    dfao, pruned = validate(raw)
    assert pruned == ()
    assert dfao.output == ("A", "B")


@pytest.mark.parametrize(
    "raw, error",
    [
        (RawDfao(1, ("A",), "A", (("A", 0, "A"),)), BadRadix),
        (RawDfao(2, (), "A", ()), NoStates),
        (RawDfao(2, ("A", "A"), "A", ()), DuplicateState),
        (RawDfao(2, ("A",), "B", ()), UnknownState),
        (RawDfao(2, ("A",), "A", (("B", 0, "A"), ("A", 0, "A"), ("A", 1, "A"))), UnknownState),
        (RawDfao(2, ("A",), "A", (("A", 0, "B"), ("A", 1, "A"))), UnknownState),
        (RawDfao(2, ("A",), "A", (("A", 2, "A"), ("A", 0, "A"), ("A", 1, "A"))), DigitOutOfRange),
        (RawDfao(2, ("A",), "A", (("A", 0, "A"), ("A", 0, "A"), ("A", 1, "A"))), DuplicateTransition),
        (RawDfao(2, ("A",), "A", (("A", 0, "A"),)), MissingTransition),
        (
            RawDfao(2, ("A", "B"), "A",
                    (("A", 0, "A"), ("A", 1, "B"), ("B", 0, "B"), ("B", 1, "A")),
                    (("A", "0"),)),
            MissingOutput,
        ),
        (
            RawDfao(2, ("A",), "A", (("A", 0, "A"), ("A", 1, "A")),
                    (("A", "0"), ("A", "1"))),
            DuplicateState,
        ),
        (
            RawDfao(2, ("A",), "A", (("A", 0, "A"), ("A", 1, "A")),
                    (("A", "0"), ("B", "1"))),
            UnknownState,
        ),
    ],
)
def test_validate_rejects(raw, error):
    with pytest.raises(error) as info:
        validate(raw)
    assert info.value.line is None  # a RawDfao built here has no line map


_UNFIT = "must be non-empty and free of whitespace and '#'"


def _three(tokens, names=("A", "B", "C")):
    return tuple(zip(names, tokens))


@pytest.mark.parametrize(
    "name, initial, message",
    [
        ("Z Z", "Z Z", f"state name 'Z Z' {_UNFIT}"),  # names come before outputs
        ("Z", "Z", f"output token 'x#' {_UNFIT}"),
        ("Z Z", "A", None),  # Z Z is unreachable from A, so it is pruned
        ("Z", "A", None),
        # Faults that a '#' join of the tokens could hide, among fit tokens;
        # `name` lists every (state, output) pair here.
        (_three("012", ("A", "a#b", "C")), "C", f"state name 'a#b' {_UNFIT}"),
        (_three(("0", "a#b", "2")), "C", f"output token 'a#b' {_UNFIT}"),
        (_three(("0", "#", "2")), "C", f"output token '#' {_UNFIT}"),
        (_three(("#", "##", "2")), "C", f"output token '#' {_UNFIT}"),
        (_three("012", ("", "B", "C")), "C", f"state name '' {_UNFIT}"),
        (_three(("", "1", "2")), "C", f"output token '' {_UNFIT}"),
        (_three(("0", "", "2")), "C", f"output token '' {_UNFIT}"),
        (_three(("0", "1", "")), "C", f"output token '' {_UNFIT}"),
        (_three(("0", "a b", "2")), "C", f"output token 'a b' {_UNFIT}"),
        (_three(("0", " ", "2")), "C", f"output token ' ' {_UNFIT}"),
        (_three(("0", "\xa0", "2")), "C", f"output token '\\xa0' {_UNFIT}"),
        (_three(("0", "a b", "#")), "C", f"output token 'a b' {_UNFIT}"),  # first in state order
    ],
)
def test_validate_checks_tokens_of_surviving_states_only(name, initial, message):
    """Each state steps to the state declared before it, the first to
    itself.  A str `name` is a second state after A, with output x#."""
    pairs = (("A", "0"), (name, "x#")) if isinstance(name, str) else name
    names = tuple(state for state, _ in pairs)
    edges = tuple((state, d, names[max(i - 1, 0)]) for i, state in enumerate(names) for d in (0, 1))
    raw = RawDfao(2, names, initial, edges, pairs)
    if message is None:
        dfao, pruned = validate(raw)
        assert pruned == (name,)
        assert dfao.states == ("A",) and dfao.output == ("0",)
    else:
        with pytest.raises(BadToken) as info:
            validate(raw)
        assert str(info.value) == message


def test_validate_checks_default_outputs_as_names():
    raw = RawDfao(2, ("",), "", (("", 0, ""), ("", 1, "")))
    with pytest.raises(ValueError) as info:
        validate(raw)
    assert str(info.value) == f"state name '' {_UNFIT}"


@pytest.mark.parametrize("bad", [1, None])
@pytest.mark.parametrize("kind", ["state name", "output token"])
def test_a_token_that_is_no_string_is_a_bad_token(bad, kind):
    """validate, make_dfao and both constructors raise BadToken, a DfaoError
    and a ValueError, for a name or token that is no string."""
    name, token = (bad, "0") if kind == "state name" else ("A", bad)
    edges = ((name, 0, name), (name, 1, name))
    for build_it in (
        lambda: validate(RawDfao(2, (name,), name, edges, ((name, token),))),
        lambda: make_dfao(2, {name: (name, name)}, name, {name: token}),
        lambda: Dfao(Automaton(2, (name,), 0, ((0, 0),)), (token,)),
    ):
        with pytest.raises(BadToken) as info:
            build_it()
        assert str(info.value) == f"{kind} {bad!r} must be a string"
        assert isinstance(info.value, ValueError) and info.value.line is None


# Values of the wrong type or range for every field of a description.
_JUNK = (
    0, 1, -1, 2, True, None, 0.5, 1.0, float("nan"), 10**30,
    b"A", b"0", ["A"], [0], ("A",), (0,), "A", "B", "0", "a b", "",
)


def _entry_point_calls(pick):
    """Calls of every public entry point on a valid two-state machine, each
    field of which `pick(slot, value)` may replace with junk."""
    raw = RawDfao(
        pick("radix", 2),
        (pick("state", "A"), pick("state", "B")),
        pick("initial", "A"),
        (
            (pick("source", "A"), pick("digit", 0), pick("target", "A")),
            ("A", pick("digit", 1), "B"),
            ("B", 0, pick("target", "B")),
            ("B", 1, "A"),
        ),
        ((pick("output name", "A"), pick("token", "0")), ("B", pick("token", "1"))),
    )
    key = pick("state", "A")
    rows = {"B": (pick("target", "B"), "A")}
    if isinstance(key, Hashable):
        rows[key] = (pick("target", "A"), "B")
    outputs = {"A": pick("token", "0"), "B": pick("token", "1")}
    table = ((0, pick("index", 1)), (pick("index", 1), 0))
    a = Automaton(2, ("A", "B"), 0, ((0, 1), (1, 0)))
    word = (1, pick("digit", 0), pick("digit", 1))
    return [
        lambda: validate(raw),
        lambda: make_dfao(pick("radix", 2), rows, pick("initial", "A"), outputs),
        lambda: Automaton(pick("radix", 2), (pick("state", "A"), "B"), pick("index", 0), table),
        lambda: Dfao(a, (pick("token", "0"), pick("token", "1"))),
        lambda: a.run_path(word),
        lambda: longest_homogeneous_prefix(a, word),
    ]


def test_library_input_raises_only_dfao_errors():
    """Every entry point answers or raises a DfaoError for junk in one field,
    for each field and each value, and for junk in random fields."""
    slots = ("radix", "state", "initial", "source", "digit", "target", "output name", "token",
             "index")
    picks = [lambda slot, value, s=s, j=j: j if slot == s else value for s in slots for j in _JUNK]
    rng = random.Random(26)
    picks += [lambda slot, value: rng.choice(_JUNK) if rng.random() < 0.3 else value] * 300
    outcomes = set()
    for pick in picks:
        for call in _entry_point_calls(pick):
            try:
                call()
            except DfaoError as exc:
                outcomes.add(type(exc))
            else:
                outcomes.add(None)
    assert None in outcomes and len(outcomes) >= 7, outcomes


def test_whole_digits_that_are_no_integers_are_refused():
    """A digit of 1.0, Decimal(1) or Fraction(1) keys its edge like 1, yet it
    is no integer: `validate` refuses it as `run_path` does, with the
    message 0.5 gets, and names its edge's line when it has a line map.
    numpy integers are integers."""
    for digit in (0.5, 1.0, Decimal(1), Fraction(1)):
        raw = RawDfao(2, ("A", "B"), "A", (("A", 0, "A"), ("A", digit, "B"), ("B", 0, "B"), ("B", 1, "A")))
        message = f"digit {digit!r} out of range for k=2"
        with pytest.raises(DigitOutOfRange) as info:
            validate(raw)
        assert (str(info.value), info.value.line) == (message, None)
        with pytest.raises(DigitOutOfRange) as info:
            validate(dataclasses.replace(raw, lines=LineMap(1, (), (5, 6, 7, 8))))
        assert (str(info.value), info.value.line) == (f"line 6: {message}", 6)
        with pytest.raises(DigitOutOfRange) as info:
            Automaton(2, ("A", "B"), 0, ((0, 1), (1, 0))).run_path((digit,))
        assert str(info.value) == message
    edges = (("A", np.int64(0), "A"), ("A", np.int8(1), "B"), ("B", 0, "B"), ("B", 1, "A"))
    assert validate(RawDfao(2, ("A", "B"), "A", edges)) == validate(
        RawDfao(2, ("A", "B"), "A", (("A", 0, "A"), ("A", 1, "B"), ("B", 0, "B"), ("B", 1, "A")))
    )


def _rebuilt(d):
    """d through the checking public constructors, from fresh tuples."""
    a = d.automaton
    return Dfao(
        Automaton(a.k, tuple(a.states), a.initial, tuple(map(tuple, a.transition))),
        tuple(d.output),
    )


def _check_built_machines(d):
    """Every machine validate, normalize_zero, minimize and
    intrinsic_automaton return passes the public checks unchanged."""
    nz = d.normalize_zero()
    fm, im = minimize(d), intrinsic_automaton(d)
    for m in (d, nz, fm.source, fm.target, im.source, im.target):
        assert _rebuilt(m) == m


def test_unchecked_builds_pass_the_public_checks():
    rng = random.Random(53)
    nonzero = pruned = 0
    for _ in range(120):
        k, n = rng.choice((2, 3, 4)), rng.randint(1, 12)
        d, dropped = validate(parse_raw(unpruned_aut_text(rng, k, n)))
        nonzero += d.automaton.transition[d.initial][0] != d.initial
        pruned += bool(dropped)
        _check_built_machines(d)
        _check_built_machines(split_state(rng, d))
    assert nonzero and pruned  # both cases were exercised


@given(small_dfaos())
def test_unchecked_builds_pass_the_public_checks_property(d):
    _check_built_machines(d)


def test_validate_names_the_first_missing_edge():
    raw = RawDfao(2, ("A", "B"), "A", (("B", 1, "A"), ("A", 0, "B"), ("A", 1, "A")))
    with pytest.raises(MissingTransition, match="state 'B' on digit 0$"):
        validate(raw)
    huge = RawDfao(10**9, ("A",), "A", (("A", 0, "A"), ("A", 1, "A")))
    with pytest.raises(MissingTransition, match="state 'A' on digit 2$"):
        validate(huge)


def test_generate_known_sequences():
    tm = build("thue_morse")
    assert "".join(tm.generate(16)) == "0110100110010110"
    pd = build("period_doubling")
    assert "".join(pd.generate(16)) == "0100010101000100"
    ident = build("identity2")
    assert "".join(ident.generate(8)) == "01010101"
    assert tm.generate(1) == (tm.output[tm.initial],)
    assert tm.generate(0) == ()


def test_generate_holds_no_copy_of_its_states():
    """generate's peak is its list of states and the tuple of terms, 8 bytes
    a term each plus the list's slack: about 17 bytes a term.  A copy of
    the list would add 8 more."""
    n = 10**6
    tracemalloc.start()
    try:
        terms = build("thue_morse").generate(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(terms) == n
    assert peak < 20 * n, peak / n


def test_generate_nonpositive_count_is_empty():
    assert build("thue_morse").generate(-3) == ()
    assert build("ternary_digit_sum").generate(0) == ()


def _digit_walk_terms(d, n_terms):
    a = d.automaton
    return tuple(d.output[step(a, a.initial, digits_msb(n, a.k))] for n in range(n_terms))


def test_generate_matches_digit_walk_on_corpus():
    for ent in ENTRIES:
        d = build(ent.name)
        for n_terms in (1, 2, d.k - 1, d.k, d.k + 1, 3000):
            assert d.generate(n_terms) == _digit_walk_terms(d, n_terms), (ent.name, n_terms)


@given(small_dfaos(), st.integers(0, 300))
def test_generate_matches_digit_walk_property(d, n_terms):
    assert d.generate(n_terms) == _digit_walk_terms(d, n_terms)


def test_normalize_zero_noop_when_looping():
    tm = build("thue_morse")
    assert tm.normalize_zero() is tm


def test_normalize_zero_adds_fresh_state():
    d = make_dfao(2, {"A": ("B", "A"), "B": ("A", "B")}, "A", {"A": "0", "B": "1"})
    nz = d.normalize_zero()
    assert nz.states == ("A'", "A", "B")
    assert nz.initial == 0
    assert nz.automaton.transition[0][0] == 0
    assert nz.output[0] == d.output[d.initial]
    assert nz.generate(200) == d.generate(200)
    assert nz.normalize_zero() is nz


def test_normalize_zero_prunes_orphaned_initial():
    d = make_dfao(2, {"A": ("B", "B"), "B": ("B", "B")}, "A", {"A": "0", "B": "1"})
    nz = d.normalize_zero()
    assert nz.states == ("A'", "B")
    assert nz.generate(100) == d.generate(100)


def test_normalize_zero_prunes_when_initial_already_loops():
    # Built directly, so nothing has pruned B; A already loops on 0.
    d = Dfao(Automaton(2, ("A", "B"), 0, ((0, 0), (0, 1))), ("0", "1"))
    pruned = make_dfao(2, {"A": ("A", "A")}, "A", {"A": "0"})
    assert d.normalize_zero() == pruned
    assert analyze_sequence(d) == analyze_sequence(pruned)


def test_normalize_zero_keeps_declaration_order_after_pruning():
    # Breadth-first order from the fresh state would be B', D, C, A; the
    # result keeps declaration order, the fresh state first, and drops B,
    # which no edge enters.
    d = make_dfao(
        2,
        {"D": ("C", "A"), "A": ("A", "C"), "C": ("C", "D"), "B": ("C", "D")},
        "B",
        {"D": "0", "A": "1", "C": "2", "B": "1"},
    )
    assert d.states == ("D", "A", "C", "B")
    nz = d.normalize_zero()
    assert nz.states == ("B'", "D", "A", "C")
    assert nz.initial == 0
    assert nz.automaton.transition == ((0, 1), (3, 2), (2, 3), (3, 1))
    assert nz.output == ("1", "0", "1", "2")
    assert nz.generate(200) == d.generate(200)


def test_normalize_zero_fresh_name_avoids_collision():
    d = make_dfao(2, {"A": ("A'", "A"), "A'": ("A", "A'")}, "A", {"A": "0", "A'": "1"})
    nz = d.normalize_zero()
    assert nz.states[0] == "A''"


def test_are_equivalent_basics():
    tm = build("thue_morse")
    rng = random.Random(11)
    assert are_equivalent(tm, tm)
    assert are_equivalent(tm, split_state(rng, tm))
    assert not are_equivalent(tm, build("period_doubling"))
    assert not are_equivalent(tm, build("identity2"))
    with pytest.raises(RadixMismatch):
        are_equivalent(tm, build("ternary_digit_sum"))


def test_are_equivalent_sees_initial_output():
    x = make_dfao(2, {"A": ("A", "A")}, "A", {"A": "0"})
    y = make_dfao(2, {"A": ("A", "A")}, "A", {"A": "1"})
    assert not are_equivalent(x, y)


def test_are_equivalent_is_an_equivalence_relation():
    rng = random.Random(23)
    for _ in range(20):
        d = random_dfao(rng)
        e = split_state(rng, d)
        f = split_state(rng, e)
        assert are_equivalent(d, d)
        assert are_equivalent(d, e) and are_equivalent(e, d)
        assert are_equivalent(e, f)
        assert are_equivalent(d, f)
        other = random_dfao(rng, k=d.k)
        assert are_equivalent(d, other) == are_equivalent(other, d)


def test_are_equivalent_matches_exhaustive_word_comparison():
    rng = random.Random(37)
    for _ in range(25):
        d1 = random_dfao(rng, k=2, max_states=3, output_alphabet=("0", "1"))
        d2 = random_dfao(rng, k=2, max_states=3, output_alphabet=("0", "1"))
        # outputs agreeing on every word up to |S1| * |S2| settles it
        bound = len(d1.states) * len(d2.states)
        same = all(
            _readout(d1, w) == _readout(d2, w)
            for m in range(bound + 1)
            for w in all_words(2, m)
        )
        assert are_equivalent(d1, d2) == same


def _readout(d, word):
    return d.output[step(d.automaton, d.initial, word)]


def test_equivalence_implies_sequence_equality_but_not_conversely():
    rng = random.Random(41)
    for _ in range(20):
        d = random_dfao(rng)
        e = split_state(rng, d)
        assert d.generate(300) == e.generate(300)
    # same sequence, different readout on a zero-prefixed word
    x = make_dfao(
        2,
        {"I": ("P", "Q"), "P": ("P", "P"), "Q": ("Q", "Q")},
        "I",
        {"I": "0", "P": "9", "Q": "1"},
    )
    y = make_dfao(
        2,
        {"I": ("P", "Q"), "P": ("P", "P"), "Q": ("Q", "Q")},
        "I",
        {"I": "0", "P": "8", "Q": "1"},
    )
    assert x.generate(500) == y.generate(500)
    assert not are_equivalent(x, y)


def test_canonicalize_is_isomorphism_invariant():
    gs = build("golay_shapiro")
    # same machine with the state list permuted
    perm = make_dfao(
        2,
        {"D": ("D", "C"), "B": ("A", "C"), "C": ("D", "B"), "A": ("A", "B")},
        "A",
        {"A": "1", "B": "1", "C": "-1", "D": "-1"},
    )
    assert canonical_form(perm) == canonical_form(gs)
    assert canonical_form(gs) == gs  # already in discovery order
    assert canonical_form(canonical_form(gs)) == canonical_form(gs)


def test_canonicalize_relabel_map():
    d = make_dfao(2, {"X": ("Y", "X"), "Y": ("Y", "X")}, "Y", {"X": "a", "Y": "b"})
    canon, relabel = canonicalize(d)
    assert canon.states == ("A", "B")
    assert canon.initial == 0
    # old Y (index 1) becomes the new initial A (index 0)
    assert relabel[d.initial] == 0
    for old_s in range(2):
        for dig in range(2):
            old_t = d.automaton.transition[old_s][dig]
            assert canon.automaton.transition[relabel[old_s]][dig] == relabel[old_t]
        assert canon.output[relabel[old_s]] == d.output[old_s]


def test_canonical_names_beyond_z():
    n = 30
    rows = {f"n{i}": (f"n{min(i + 1, n - 1)}", f"n{min(i + 1, n - 1)}") for i in range(n)}
    d = make_dfao(2, rows, "n0", {f"n{i}": "x" for i in range(n)})
    canon = canonical_form(d)
    assert canon.states[:3] == ("A", "B", "C")
    assert canon.states[-4:] == ("s26", "s27", "s28", "s29")


def test_make_dfao_matches_builder():
    tm = make_dfao(2, {"A": ("A", "B"), "B": ("B", "A")}, "A", {"A": "0", "B": "1"})
    assert tm == build("thue_morse")


def test_dfao_properties():
    tm = build("thue_morse")
    assert tm.k == 2
    assert tm.states == ("A", "B")
    assert tm.initial == 0


def _deque_bfs(rows, start):
    """Queue-based breadth-first search: discovery order, distances and
    each state's discoverer."""
    dist = [None] * len(rows)
    parent = [None] * len(rows)
    dist[start] = 0
    order = []
    queue = deque([start])
    while queue:
        s = queue.popleft()
        order.append(s)
        for t in rows[s]:
            if dist[t] is None:
                dist[t] = dist[s] + 1
                parent[t] = s
                queue.append(t)
    return order, dist, parent


def _check_bfs(rows):
    """_bfs from every start equals the queue-based search, parents
    included, and each limit from 0 to len(rows) cuts off exactly the
    states beyond it, keeping the parents of those within it."""
    for start in range(len(rows)):
        order, dist, parent = _bfs(rows, start)
        assert (order, dist, parent) == _deque_bfs(rows, start)
        for limit in range(len(rows) + 1):
            within = [d is not None and d <= limit for d in dist]
            assert _bfs(rows, start, limit) == (
                [s for s in order if dist[s] <= limit],
                [d if w else None for d, w in zip(dist, within)],
                [p if w else None for p, w in zip(parent, within)],
            )


def _backward(rows):
    back = [[] for _ in rows]
    for s, row in enumerate(rows):
        for t in row:
            back[t].append(s)
    return back


def test_bfs_matches_queue_search_on_seeded_machines():
    rng = random.Random(41)
    for _ in range(150):
        a = random_dfao(rng, k=rng.choice((2, 3, 4)), max_states=14).automaton
        _check_bfs(a.transition)
        _check_bfs(_backward(a.transition))  # uneven rows, some empty
    for ent in ENTRIES:
        _check_bfs(build(ent.name).automaton.transition)


@given(small_automata())
def test_bfs_matches_queue_search_property(a):
    _check_bfs(a.transition)
    _check_bfs(_backward(a.transition))
