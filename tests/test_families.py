"""The paper's application families, pinned only where the homogeneity
argument in `dfao.opacity`'s docstring proves the value."""

from fractions import Fraction

from dfao.dyadic import ZERO, pow2inv
from dfao.opacity import Classification, analyze_sequence, is_homogeneous_automaton
from dfao.oracle import brute_force_opacity, oracle_bound
from helpers import digit_sum_machine, residue_machine


def _digit_sum(n: int, k: int) -> int:
    total = 0
    while n:
        n, d = divmod(n, k)
        total += d
    return total


def test_digit_sum_machine_matches_closed_form():
    for k in (2, 3, 4):
        for m in range(2, 6):
            expected = tuple(str(_digit_sum(n, k) % m) for n in range(1000))
            assert digit_sum_machine(k, m).generate(1000) == expected, (k, m)


def test_digit_sum_is_opaque():
    """Digit 1 enters s1 and digit 0 then loops on s1: a clash of length 2."""
    for k in (2, 3, 4):
        for m in range(2, 6):
            d = digit_sum_machine(k, m)
            report = analyze_sequence(d)
            assert report.classification is Classification.OPAQUE, (k, m)
            assert report.opacity.as_fraction() == Fraction(1, 2)
            a = d.automaton
            assert brute_force_opacity(a, oracle_bound(a)) == pow2inv(1), (k, m)


def test_residue_machine_is_transparent_when_k_divides_p():
    """State r of the n mod p machine is entered only on digit r mod k when
    k divides p, so every state is homogeneous.  Its outputs are distinct
    and its initial state loops on 0, so it is its own intrinsic machine."""
    for k in (2, 3, 4):
        for p in range(k, 13, k):
            d = residue_machine(k, p)
            assert is_homogeneous_automaton(d.automaton), (k, p)
            report = analyze_sequence(d)
            assert report.classification is Classification.TRANSPARENT, (k, p)
            assert report.states_count == p
    # the cells whose sweep to the bound fits the oracle's table cap
    for k, p in ((2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (4, 4)):
        a = residue_machine(k, p).automaton
        assert brute_force_opacity(a, oracle_bound(a)) == ZERO, (k, p)
