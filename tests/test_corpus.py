"""Bundled machines: golden values, reference recurrences, shipped files."""

from fractions import Fraction
from pathlib import Path

import pytest

from dfao.autfile import parse, serialize
from dfao.corpus import (
    ENTRIES,
    build,
    entry,
    evaluate_all,
    evaluate_entry,
    one_state,
    sequence_checks,
)
from dfao.dyadic import ZERO, pow2inv
from dfao.errors import NoRecurrence, UnknownCorpusName
from dfao.opacity import Classification

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

# Independent copy of the expected table; must not drift from the package's.
GOLDEN = {
    # name: (k, states, opacity, complexity, classification, witness length)
    "one_state": (2, 1, pow2inv(1), Fraction(1), Classification.OPAQUE, 2),
    "identity2": (2, 2, ZERO, Fraction(0), Classification.TRANSPARENT, None),
    "thue_morse": (2, 2, pow2inv(1), Fraction(1), Classification.OPAQUE, 2),
    "period_doubling": (2, 2, pow2inv(2), Fraction(1, 2), Classification.INTERMEDIATE, 3),
    "golay_shapiro": (2, 4, ZERO, Fraction(0), Classification.TRANSPARENT, None),
    "paperfolding": (2, 4, ZERO, Fraction(0), Classification.TRANSPARENT, None),
    "baum_sweet": (2, 4, pow2inv(2), Fraction(1, 2), Classification.INTERMEDIATE, 3),
    "hanoi": (2, 6, pow2inv(2), Fraction(1, 2), Classification.INTERMEDIATE, 3),
    "ternary_digit_sum": (3, 3, pow2inv(1), Fraction(1), Classification.OPAQUE, 2),
}

FIRST_TERMS = {
    "thue_morse": "0 1 1 0 1 0 0 1 1 0 0 1 0 1 1 0",
    "period_doubling": "0 1 0 0 0 1 0 1 0 1 0 0 0 1 0 0",
    "golay_shapiro": "1 1 1 -1 1 1 -1 1 1 1 1 -1 -1 -1 1 -1",
    "paperfolding": "1 1 1 -1 1 1 -1 -1 1 1 1 -1 -1 1 -1 -1",
    "baum_sweet": "1 1 0 1 1 0 0 1 0 1 0 0 1 0 0 1",
    "ternary_digit_sum": "0 1 2 1 2 0 2 0 1 1 2 0 2 0 1 0",
}


def test_entry_table_matches_golden():
    assert tuple(e.name for e in ENTRIES) == tuple(GOLDEN)
    for ent in ENTRIES:
        k, states, opacity, complexity, classification, wl = GOLDEN[ent.name]
        assert ent.opacity == opacity, ent.name
        assert ent.states == states, ent.name
        assert build(ent.name).k == k, ent.name
        assert ent.note  # a human hint, not a citation
        # the entry stores only the opacity; the rest comes from the analysis
        report = evaluate_entry(ent).report
        assert report.complexity == complexity, ent.name
        assert report.classification is classification, ent.name
        assert report.opacity.witness_length == wl, ent.name
        assert (report.witness is None) == (wl is None), ent.name


def test_entry_lookup():
    assert entry("thue_morse").name == "thue_morse"
    with pytest.raises(UnknownCorpusName):
        entry("nope")
    with pytest.raises(UnknownCorpusName):
        build("nope")
    with pytest.raises(UnknownCorpusName):
        sequence_checks("nope", 10)


def test_builder_spot_checks():
    tm = build("thue_morse")
    assert tm.states == ("A", "B")
    assert tm.automaton.transition == ((0, 1), (1, 0))
    assert tm.output == ("0", "1")

    bs = build("baum_sweet")
    assert bs.output == ("1", "1", "0", "0")
    assert bs.automaton.transition == ((0, 1), (2, 1), (1, 3), (3, 3))

    hn = build("hanoi")
    assert hn.states == ("A", "B", "C", "D", "E", "F")
    assert hn.output == ("a", "a_bar", "c", "c_bar", "b", "b_bar")
    assert hn.automaton.transition[0] == (0, 3)  # A: 0->A, 1->D

    tern = build("ternary_digit_sum")
    assert tern.k == 3
    assert tern.automaton.transition == ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def test_one_state_radix_parameter():
    for k in (2, 3, 4, 5):
        d = one_state(k)
        assert d.k == k
        assert len(d.states) == 1
        assert d.generate(10) == ("0",) * 10
    assert build("one_state").k == 2


def test_first_terms_frozen():
    for name, expected in FIRST_TERMS.items():
        assert " ".join(build(name).generate(16)) == expected, name


def test_sequence_checks_pass_for_recurrence_backed_entries():
    for name in FIRST_TERMS:
        assert sequence_checks(name, 1000), name


# The evaluators' earlier per-term forms: a str() per term, and the ternary
# digit sum by repeated division.  The reference for the one-pass forms.
def _old_thue_morse_terms(n_terms):
    # u(0) = 0, u(2n) = u(n), u(2n+1) = 1 - u(n)
    u = [0] * max(n_terms, 1)
    for n in range(1, n_terms):
        u[n] = u[n // 2] if n % 2 == 0 else 1 - u[n // 2]
    return [str(u[n]) for n in range(n_terms)]


def _old_period_doubling_terms(n_terms):
    # u(n) = (exponent of 2 in n + 1) mod 2
    out = []
    for n in range(n_terms):
        m = n + 1
        val = (m & -m).bit_length() - 1
        out.append(str(val % 2))
    return out


def _old_golay_shapiro_terms(n_terms):
    # u(0) = 1, u(2n) = u(n), u(4n+1) = u(n), u(4n+3) = -u(2n+1)
    u = [0] * max(n_terms, 1)
    u[0] = 1
    for n in range(1, n_terms):
        if n % 2 == 0:
            u[n] = u[n // 2]
        elif n % 4 == 1:
            u[n] = u[n // 4]
        else:
            u[n] = -u[(n - 1) // 2]
    return [str(u[n]) for n in range(n_terms)]


def _old_paperfolding_terms(n_terms):
    # u(2**a * (2m+1)) = (-1)**m; term 0 is pinned to 1
    out = ["1"]
    for n in range(1, n_terms):
        a = (n & -n).bit_length() - 1
        m = (n >> a) >> 1
        out.append("1" if m % 2 == 0 else "-1")
    return out[:n_terms]


def _old_baum_sweet_terms(n_terms):
    # u(0) = 1, u(2n+1) = u(n), u(4n) = u(n), u(4n+2) = 0
    u = [0] * max(n_terms, 1)
    u[0] = 1
    for n in range(1, n_terms):
        if n % 2 == 1:
            u[n] = u[(n - 1) // 2]
        elif n % 4 == 0:
            u[n] = u[n // 4]
        else:
            u[n] = 0
    return [str(u[n]) for n in range(n_terms)]


def _old_ternary_digit_sum_terms(n_terms):
    out = []
    for n in range(n_terms):
        total = 0
        while n:
            n, r = divmod(n, 3)
            total += r
        out.append(str(total % 3))
    return out


EARLIER_FORMS = {
    "thue_morse": _old_thue_morse_terms,
    "period_doubling": _old_period_doubling_terms,
    "golay_shapiro": _old_golay_shapiro_terms,
    "paperfolding": _old_paperfolding_terms,
    "baum_sweet": _old_baum_sweet_terms,
    "ternary_digit_sum": _old_ternary_digit_sum_terms,
}


def test_evaluators_match_their_earlier_forms():
    """Every term for 3**8 ternary and 2**13 binary terms, and the edge
    counts 0, 1 and 2, where a fixed first term could show."""
    assert [e.name for e in ENTRIES if e.reference] == list(EARLIER_FORMS)
    for ent in ENTRIES:
        if ent.reference is not None:
            old = EARLIER_FORMS[ent.name]
            for n_terms in (0, 1, 2, 3**8 if ent.machine.k == 3 else 2**13):
                assert ent.reference(n_terms) == old(n_terms), (ent.name, n_terms)


def test_sequence_checks_raise_without_recurrence():
    for name in ("one_state", "identity2", "hanoi"):
        with pytest.raises(NoRecurrence):
            sequence_checks(name, 10)


def test_evaluate_entry_bundles_everything():
    r = evaluate_entry(entry("period_doubling"))
    assert r.analysis_ok
    assert r.oracle_ok
    assert r.sequence_ok is True
    assert r.passed
    assert r.oracle_length == 6
    assert r.oracle_value == pow2inv(2)

    r = evaluate_entry(entry("hanoi"))
    assert r.sequence_ok is None
    assert r.passed


def test_evaluate_all_passes():
    results = evaluate_all()
    assert len(results) == len(ENTRIES)
    assert all(r.passed for r in results)


def test_shipped_files_match_builders():
    for ent in ENTRIES:
        path = CORPUS_DIR / f"{ent.name}.aut"
        text = path.read_text()
        assert parse(text) == build(ent.name), ent.name
        assert serialize(build(ent.name)) == text, ent.name
