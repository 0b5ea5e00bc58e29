"""Bundled example machines with known opacity values and sequences.

Each entry holds its machine, built once at import, and one golden
answer, the opacity of its sequence as a `DyadicDistance`, next to the
state count of its intrinsic machine; the classification, complexity and
witness length a report shows all follow from the opacity.
The whole pipeline is checked against them in one sweep: structural
analysis, the brute-force oracle, and, where the entry holds an
independent evaluator of its terms, the generated sequence itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .automaton import Dfao, make_dfao
from .dyadic import ZERO, DyadicDistance, pow2inv
from .errors import NoRecurrence, UnknownCorpusName
from .opacity import AnalysisReport, analyze_sequence
from .oracle import brute_force_opacity, oracle_bound


def one_state(k: int = 2) -> Dfao:
    """Single state absorbing every digit: the constant sequence machine.

    Maximally opaque for every radix: after any first digit the machine
    sits in a state that loops on all the others.
    """
    return make_dfao(k, {"A": ("A",) * k}, "A", {"A": "0"})


# Independent term evaluators.  Each one computes the sequence from its
# own recurrence or closed form, never through a machine, so agreement
# with Dfao.generate is a real check.  Each spends O(1) per term and
# spells a term by indexing a tuple of the sequence's tokens.
_BITS = ("0", "1")
_SIGNS = ("1", "-1")


def _thue_morse_terms(n_terms: int) -> list[str]:
    # u(n) = parity of the number of 1s in n written in binary
    return [_BITS[n.bit_count() & 1] for n in range(n_terms)]


def _period_doubling_terms(n_terms: int) -> list[str]:
    # u(n) = (exponent of 2 in n + 1) mod 2: u(2n) = 0, u(2n+1) = 1 - u(n)
    u = [0] * n_terms
    for n in range(1, n_terms, 2):
        u[n] = 1 - u[n // 2]
    return [_BITS[v] for v in u]


def _golay_shapiro_terms(n_terms: int) -> list[str]:
    # u(n) = (-1)**(adjacent 11 pairs in n written in binary); each pair
    # is a 1 bit of n & (n >> 1)
    return [_SIGNS[(n & n >> 1).bit_count() & 1] for n in range(n_terms)]


def _paperfolding_terms(n_terms: int) -> list[str]:
    # u(2**a * (2m+1)) = (-1)**m, and m = n >> (a + 1).  That covers every
    # n >= 1; at n = 0 it reads m = 0, which is the machine's initial 1.
    return [_SIGNS[n >> (n & -n).bit_length() & 1] for n in range(n_terms)]


def _baum_sweet_terms(n_terms: int) -> list[str]:
    # u(0) = 1, u(2n+1) = u(n), u(4n) = u(n), u(4n+2) = 0
    u = [1] * n_terms
    for n in range(1, n_terms):
        if n % 2:
            u[n] = u[n // 2]
        elif n % 4:
            u[n] = 0
        else:
            u[n] = u[n // 4]
    return [_BITS[v] for v in u]


def _ternary_digit_sum_terms(n_terms: int) -> list[str]:
    # s(0) = 0, s(n) = s(n // 3) + n % 3, taken mod 3
    s = [0] * n_terms
    for n in range(1, n_terms):
        s[n] = (s[n // 3] + n % 3) % 3
    return [("0", "1", "2")[v] for v in s]


@dataclass(frozen=True)
class CorpusEntry:
    """One bundled machine with its golden answer, the opacity of its
    sequence, the state count of its intrinsic machine and, where one
    exists, an independent evaluator of its first terms."""

    name: str
    machine: Dfao
    opacity: DyadicDistance
    states: int
    note: str
    reference: Callable[[int], list[str]] | None = None


ENTRIES: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        "one_state",
        one_state(),
        pow2inv(1),
        1,
        "constant sequence; the smallest machine there is",
    ),
    CorpusEntry(
        "identity2",
        make_dfao(
            2,
            {"A": ("A", "B"), "B": ("A", "B")},
            "A",
            {"A": "0", "B": "1"},
        ),
        ZERO,
        2,
        "echoes its input bit; output is purely 2-periodic",
    ),
    CorpusEntry(
        "thue_morse",
        make_dfao(
            2,
            {"A": ("A", "B"), "B": ("B", "A")},
            "A",
            {"A": "0", "B": "1"},
        ),
        pow2inv(1),
        2,
        "binary digit-sum parity",
        _thue_morse_terms,
    ),
    CorpusEntry(
        "period_doubling",
        make_dfao(
            2,
            {"A": ("A", "B"), "B": ("A", "A")},
            "A",
            {"A": "0", "B": "1"},
        ),
        pow2inv(2),
        2,
        "parity of the 2-adic valuation of n + 1",
        _period_doubling_terms,
    ),
    CorpusEntry(
        "golay_shapiro",
        make_dfao(
            2,
            {"A": ("A", "B"), "B": ("A", "C"), "C": ("D", "B"), "D": ("D", "C")},
            "A",
            {"A": "1", "B": "1", "C": "-1", "D": "-1"},
        ),
        ZERO,
        4,
        "counts adjacent 11 pairs in binary, as a sign",
        _golay_shapiro_terms,
    ),
    CorpusEntry(
        "paperfolding",
        make_dfao(
            2,
            {"A": ("A", "B"), "B": ("A", "C"), "C": ("D", "C"), "D": ("D", "B")},
            "A",
            {"A": "1", "B": "1", "C": "-1", "D": "-1"},
        ),
        ZERO,
        4,
        "crease directions of repeatedly folded paper",
        _paperfolding_terms,
    ),
    CorpusEntry(
        "baum_sweet",
        make_dfao(
            2,
            {"A": ("A", "B"), "B": ("C", "B"), "C": ("B", "D"), "D": ("D", "D")},
            "A",
            {"A": "1", "B": "1", "C": "0", "D": "0"},
        ),
        pow2inv(2),
        4,
        "zero-block structure of the binary expansion",
        _baum_sweet_terms,
    ),
    CorpusEntry(
        "hanoi",
        make_dfao(
            2,
            {
                "A": ("A", "D"),
                "B": ("A", "C"),
                "C": ("E", "B"),
                "D": ("E", "A"),
                "E": ("C", "F"),
                "F": ("C", "E"),
            },
            "A",
            {
                "A": "a",
                "B": "a_bar",
                "C": "c",
                "D": "c_bar",
                "E": "b",
                "F": "b_bar",
            },
        ),
        pow2inv(2),
        6,
        "optimal tower-transfer move sequence",
    ),
    CorpusEntry(
        "ternary_digit_sum",
        make_dfao(
            3,
            {"A": ("A", "B", "C"), "B": ("B", "C", "A"), "C": ("C", "A", "B")},
            "A",
            {"A": "0", "B": "1", "C": "2"},
        ),
        pow2inv(1),
        3,
        "ternary digit sum mod 3",
        _ternary_digit_sum_terms,
    ),
)

_BY_NAME = {entry.name: entry for entry in ENTRIES}


def entry(name: str) -> CorpusEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownCorpusName(
            f"no bundled machine named {name!r}; have: {', '.join(_BY_NAME)}"
        ) from None


def build(name: str) -> Dfao:
    """The bundled machine of that name, built once at import."""
    return entry(name).machine


def sequence_checks(name: str, n_terms: int) -> bool:
    """Compare the machine's first n_terms against the bundled independent
    evaluator.  Raises NoRecurrence for entries without one (one_state,
    identity2, hanoi)."""
    ent = entry(name)
    if ent.reference is None:
        raise NoRecurrence(f"no independent evaluator bundled for {name!r}")
    return list(ent.machine.generate(n_terms)) == ent.reference(n_terms)


@dataclass(frozen=True)
class RowResult:
    """Outcome of checking one corpus entry against its golden values."""

    entry: CorpusEntry
    report: AnalysisReport
    oracle_length: int
    oracle_value: DyadicDistance
    sequence_ok: bool | None  # None when no independent evaluator exists

    @property
    def analysis_ok(self) -> bool:
        e, r = self.entry, self.report
        return r.opacity == e.opacity and r.states_count == e.states

    @property
    def oracle_ok(self) -> bool:
        return self.oracle_value == self.entry.opacity

    @property
    def passed(self) -> bool:
        return self.analysis_ok and self.oracle_ok and self.sequence_ok is not False


# Terms `evaluate_entry` compares against the independent evaluator.
SEQUENCE_TERMS = 1000


def evaluate_entry(ent: CorpusEntry) -> RowResult:
    """Run analysis, oracle and sequence comparison for one entry.

    Cost: one `analyze_sequence` of the entry's machine; one oracle sweep
    of its intrinsic machine, through the lengths up to the first clashing
    one or up to 2n for n states when none clashes (two short of
    `oracle_bound`, which is recorded), each length costing what
    `brute_force_opacity` says; and, when the entry holds an evaluator,
    `SEQUENCE_TERMS` terms generated by the machine and as many by the
    evaluator, O(1) each on both sides.
    """
    report = analyze_sequence(ent.machine)
    bound = oracle_bound(report.intrinsic.automaton)
    value = brute_force_opacity(report.intrinsic.automaton, bound)
    if ent.reference is None:
        seq_ok: bool | None = None
    else:
        seq_ok = sequence_checks(ent.name, SEQUENCE_TERMS)
    return RowResult(ent, report, bound, value, seq_ok)


def evaluate_all() -> tuple[RowResult, ...]:
    """`evaluate_entry` for every bundled entry, in `ENTRIES` order: the sum
    of their costs, so one analysis, one oracle sweep and up to
    `SEQUENCE_TERMS` generated terms per entry."""
    return tuple(evaluate_entry(ent) for ent in ENTRIES)
