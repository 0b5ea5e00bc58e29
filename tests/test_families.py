"""The paper's application families, pinned only where the homogeneity
argument in `dfao.opacity`'s docstring proves the value or the oracle
has checked it."""

import math
import random
from fractions import Fraction

import pytest

from dfao.automaton import are_equivalent
from dfao.corpus import build
from dfao.dyadic import ZERO, pow2inv
from dfao.errors import InstanceTooLarge
from dfao.opacity import Classification, analyze_sequence, is_homogeneous_automaton
from dfao.oracle import brute_force_opacity, oracle_bound
from helpers import block_parity_machine, digit_sum_machine, periodic_machine, residue_machine


def _digits(n: int, k: int) -> tuple[int, ...]:
    """Base-k digits of n, most significant first; () for 0."""
    out = []
    while n:
        n, d = divmod(n, k)
        out.append(d)
    return tuple(reversed(out))


def _digit_sum(n: int, k: int) -> int:
    return sum(_digits(n, k))


def _block_count(n: int, k: int, block: tuple[int, ...]) -> int:
    ds, size = _digits(n, k), len(block)
    return sum(ds[i:i + size] == block for i in range(len(ds) - size + 1))


def _analysed_and_oracle(d):
    """analyze_sequence's opacity and the oracle's on the intrinsic machine;
    lets InstanceTooLarge through when the oracle refuses."""
    report = analyze_sequence(d)
    a = report.intrinsic.automaton
    return report.opacity.as_dyadic(), brute_force_opacity(a, oracle_bound(a))


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


def _closed_form_length(k: int, p: int) -> int:
    """J + 1, where J is the largest j with k**j <= p + k - 1."""
    j = 0
    while k ** (j + 1) <= p + k - 1:
        j += 1
    return j + 1


def test_residue_machine_closed_form_when_k_does_not_divide_p():
    """When k does not divide p, the n mod p machine has p states and its
    shortest clashing word has length J + 1, where J is the largest j with
    k**j <= p + k - 1; its opacity is 2**-J.

    The machine is its own intrinsic machine: its outputs are distinct and
    its initial state loops on 0.  After a word w it is at v(w) mod p,
    where v(w) is the base-k value of w.  Write v_i for the value of the
    first i digits of a word of length m, and w_i for its i-th digit.

    Lower bound.  Suppose a word of length m clashes: v_i = v_m (mod p)
    for some 1 <= i < m, with last digits w_i != w_m.  The last digits
    differ, so v_i != v_m, and v_m = v_i k**(m-i) + u > v_i, where u is the
    value of the last m - i digits.  Hence
    p <= v_m - v_i <= (k**i - 1)(k**(m-i) - 1) + k**(m-i) - 1 = k**m - k**i
    <= k**m - k.  So k**m >= p + k, and m >= J + 1.

    Upper bound.  Let m = J + 1, so k**m >= p + k.  The differences
    v_m - v_1 = w_1 (k**(m-1) - 1) + u, over digits w_1 and values u of
    m - 1 digits, cover every integer in [0, k**m - k].  So some word has
    v_m - v_1 = p.  Mod k that gives w_m - w_1 = p != 0, so w_m != w_1, and
    the word clashes at state v_1 mod p.
    """
    cells = [(k, p) for k in range(2, 9) for p in range(1, 121) if p % k]
    cells += [(2, 2045), (2, 2047), (3, 2186), (7, 2400), (2, 3001)]
    for k, p in cells:
        report = analyze_sequence(residue_machine(k, p))
        assert report.states_count == p, (k, p)
        assert report.opacity.witness_length == _closed_form_length(k, p), (k, p)


def test_periodic_machine_closed_form_when_gcd_is_one():
    """A pattern c of least period q with gcd(k, q) = 1 generates the same
    sequence as the n mod q machine with outputs c, and no two of its
    residues have equal futures: pick t with k**t = 1 (mod q) and
    k**t >= q; reading t more digits adds any v(x) to the residue, so
    residues r != r' with equal futures would give c the period r' - r.
    So the intrinsic machine has q states and the residue closed form
    holds with p = q."""
    rng = random.Random(1111)
    checked = 0
    while checked < 400:
        k, size = rng.randint(2, 5), rng.randint(1, 40)
        if math.gcd(k, size) != 1:
            continue
        pattern = tuple(rng.choice("ab") for _ in range(size))
        q = min(q for q in range(1, size + 1)
                if size % q == 0 and pattern == pattern[:q] * (size // q))
        d = periodic_machine(k, pattern)
        assert d.generate(3 * size) == pattern * 3, pattern
        report = analyze_sequence(d)
        assert report.states_count == q, (k, pattern)
        assert report.opacity.witness_length == _closed_form_length(k, q), (k, pattern)
        checked += 1


# The n mod p cells whose sweep to the bound the oracle refuses: the table
# caps or the relabeling budget.  A change to either shows up here.
RESIDUE_REFUSED = {
    (2, 10), (2, 12), (3, 6), (3, 9), (3, 12), (4, 8), (4, 10), (4, 11), (4, 12),
}


def test_residue_machine_matches_oracle():
    """Every n mod p cell the oracle answers agrees with the structural
    analysis; no value is pinned for k not dividing p."""
    for k in (2, 3, 4):
        for p in range(1, 13):
            d = residue_machine(k, p)
            if (k, p) in RESIDUE_REFUSED:
                with pytest.raises(InstanceTooLarge):
                    _analysed_and_oracle(d)
            else:
                analysed, oracle = _analysed_and_oracle(d)
                assert analysed == oracle, (k, p)


# (k, block) -> opacity of the block-count parity sequence, each checked
# against the oracle in test_block_parity_matches_oracle.
BLOCK_PARITY = {
    (2, (1,)): pow2inv(1),
    (2, (1, 0)): ZERO,
    (2, (1, 1)): ZERO,
    (2, (1, 0, 1)): ZERO,
    (2, (1, 1, 0)): ZERO,
    (2, (1, 1, 1)): ZERO,
    (2, (1, 0, 1, 1)): ZERO,
    (3, (1,)): pow2inv(1),
    (3, (2, 0)): pow2inv(1),
    (3, (1, 1)): pow2inv(1),
    (4, (3, 2)): pow2inv(1),
}


def test_block_parity_machine_matches_closed_form():
    for k, block in BLOCK_PARITY:
        expected = tuple(str(_block_count(n, k, block) % 2) for n in range(1000))
        assert block_parity_machine(k, block, ("0", "1")).generate(1000) == expected, (k, block)


def test_block_parity_of_11_is_golay_shapiro():
    golay_shapiro = build("golay_shapiro")
    assert are_equivalent(block_parity_machine(2, (1, 1), ("1", "-1")), golay_shapiro)


def test_block_parity_matches_oracle():
    for (k, block), opacity in BLOCK_PARITY.items():
        analysed, oracle = _analysed_and_oracle(block_parity_machine(k, block, ("0", "1")))
        assert analysed == oracle == opacity, (k, block)
