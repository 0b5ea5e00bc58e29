"""Brute-force enumeration: distances, per-word floors, opacity sweeps."""

import itertools
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given

from dfao.automaton import Automaton, make_dfao
from dfao.corpus import ENTRIES, build
from dfao.dyadic import ZERO, pow2inv
from dfao.errors import DigitOutOfRange, InstanceTooLarge
from dfao.opacity import analyze_sequence, compute_opacity
from dfao.oracle import (
    _TABLE_LIMIT,
    _masks,
    _spare,
    brute_force_opacity,
    oracle_bound,
    per_word_infs,
)
from helpers import (
    cycle_chain,
    prefix_distance,
    pure_python_inf,
    random_dfao,
    readback_brute_force_opacity,
    readback_per_word_infs,
    readout,
    residue_machine,
    small_automata,
)


def test_prefix_distance_basics():
    assert prefix_distance((), ()) == ZERO
    assert prefix_distance((0, 1), (0, 1)) == ZERO
    assert prefix_distance((1,), (0,)) == pow2inv(0)
    assert prefix_distance((0, 1), (0, 0)) == pow2inv(1)
    assert prefix_distance((0, 1, 1, 0), (0, 1, 0, 0)) == pow2inv(2)


def test_prefix_distance_proper_prefix():
    assert prefix_distance((0, 1), (0, 1, 1, 0)) == pow2inv(2)
    assert prefix_distance((), (0,)) == pow2inv(0)
    assert prefix_distance((7,), (7, 7, 7)) == pow2inv(1)


def test_prefix_distance_symmetry_and_ultrametric():
    rng = random.Random(3)
    words = [tuple(rng.randrange(3) for _ in range(rng.randrange(6))) for _ in range(40)]
    for w in words:
        assert prefix_distance(w, w) == ZERO
        for v in words:
            d = prefix_distance(w, v)
            assert d == prefix_distance(v, w)
            for u in words:
                lhs = prefix_distance(w, u).as_fraction()
                rhs = max(d.as_fraction(), prefix_distance(v, u).as_fraction())
                assert lhs <= rhs


def test_readout():
    tm = build("thue_morse").automaton
    assert readout(tm, (1, 0), (7, 9)) == (9, 9)
    assert readout(tm, (), (7, 9)) == ()
    assert readout(tm, (0, 1, 1), (0, 1)) == (0, 1, 0)
    with pytest.raises(DigitOutOfRange, match=r"^digit 2 out of range for k=2$"):
        readout(tm, (0, 2), (0, 1))


def test_per_word_infs_known_values():
    tm = dict(per_word_infs(build("thue_morse").automaton, 2))
    assert tm[(0,)] == ZERO
    assert tm[(1, 0)] == pow2inv(1)

    pd = dict(per_word_infs(build("period_doubling").automaton, 3))
    assert pd[(0, 1, 1)] == pow2inv(2)

    gs = list(per_word_infs(build("golay_shapiro").automaton, 6))
    assert len(gs) == sum(2**m for m in range(1, 7))
    assert all(value == ZERO for _word, value in gs)


def test_per_word_infs_matches_single_calls():
    machines = [build("period_doubling").automaton]
    rng = random.Random(101)
    machines += [random_dfao(rng, max_states=4).automaton for _ in range(15)]
    for a in machines:
        table = dict(per_word_infs(a, 4))
        assert len(table) == sum(a.k**m for m in range(1, 5))
        for word, value in table.items():
            assert value == pure_python_inf(a, word), (a, word)


def test_brute_force_on_corpus():
    expectations = {
        "one_state": pow2inv(1),
        "identity2": ZERO,
        "thue_morse": pow2inv(1),
        "period_doubling": pow2inv(2),
        "golay_shapiro": ZERO,
        "paperfolding": ZERO,
        "baum_sweet": pow2inv(2),
        "hanoi": pow2inv(2),
        "ternary_digit_sum": pow2inv(1),
    }
    for name, expected in expectations.items():
        a = build(name).automaton
        assert brute_force_opacity(a, oracle_bound(a)) == expected, name


def test_brute_force_monotone_and_stable():
    for name in ("one_state", "identity2", "thue_morse", "period_doubling", "baum_sweet"):
        a = build(name).automaton
        bound = oracle_bound(a)
        values = [brute_force_opacity(a, m) for m in range(0, bound + 3)]
        for earlier, later in zip(values, values[1:]):
            assert earlier <= later
        assert values[bound] == values[bound + 1] == values[bound + 2]


def test_brute_force_zero_length():
    a = build("thue_morse").automaton
    assert brute_force_opacity(a, 0) == ZERO


def test_oracle_bound_values():
    assert oracle_bound(build("one_state").automaton) == 4
    assert oracle_bound(build("thue_morse").automaton) == 6
    assert oracle_bound(build("golay_shapiro").automaton) == 10
    assert oracle_bound(build("hanoi").automaton) == 14


def test_assignment_budget_guard():
    """The relabeling budget comes before the table caps, with the same
    message on every call."""
    n = 21  # 2**21 relabelings exceed the 10**6 budget
    rows = {f"q{i}": (f"q{(i + 1) % n}", f"q{(i + 1) % n}") for i in range(n)}
    a = make_dfao(2, rows, "q0", {f"q{i}": "x" for i in range(n)}).automaton
    relabelings = r"^2\*\*21 relabelings exceed the budget of 1000000$"
    for _ in range(2):  # nothing about the refusal is cached
        for max_len in (4, 24):  # at 24 the length-9 table would pass its cap too
            with pytest.raises(InstanceTooLarge, match=relabelings):
                brute_force_opacity(a, max_len)
            with pytest.raises(InstanceTooLarge, match=relabelings):
                list(per_word_infs(a, max_len))


def test_sweep_stops_at_first_clash_whatever_the_bound():
    """No budget is put on the bound itself: Thue-Morse first clashes at
    length 2, so every bound from 2 on gives 1/2 without building a longer
    length, and `per_word_infs` builds a length only when it is reached."""
    a = build("thue_morse").automaton
    for max_len in (2, 23, 24, 10**6):
        assert brute_force_opacity(a, max_len) == pow2inv(1)
    assert next(per_word_infs(a, 24)) == ((0,), ZERO)


def test_relabeling_refusal_builds_no_table():
    """The relabeling budget is checked before the per-(k, n) table is
    built, so a refused instance neither builds nor caches one."""
    a = cycle_chain(20, 2).automaton  # its 5 MiB mask table would pass the cap
    relabelings = r"^2\*\*20 relabelings exceed the budget of 1000000$"
    before = _masks.cache_info()
    with pytest.raises(InstanceTooLarge, match=relabelings):
        brute_force_opacity(a, oracle_bound(a))
    with pytest.raises(InstanceTooLarge, match=relabelings):
        list(per_word_infs(a, oracle_bound(a)))
    after = _masks.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_table_budget_guard():
    """The transparent 10-state binary de Bruijn machine passes the
    relabeling budget and the mask-table cap, but its alive table would
    need 2**20 rows of 16 uint64 words at length 20.  Machines that clash
    before their table outgrows the cap are answered at their bound."""
    a = residue_machine(2, 10).automaton
    table = (
        r"^length 20 needs a 134217728-byte table of 2\*\*20 words "
        r"x 2\*\*10 relabelings, over the budget of 67108864 bytes$"
    )
    with pytest.raises(InstanceTooLarge, match=table):
        brute_force_opacity(a, oracle_bound(a))
    assert brute_force_opacity(a, 19) == ZERO  # the last length that fits
    # first clash at length 14, in a 16 MiB table of 2**14 words x 2**13
    chain = cycle_chain(13, 2).automaton
    assert brute_force_opacity(chain, oracle_bound(chain)) == pow2inv(13)
    # transparent, 2**9 relabelings: the length-20 table of 2**20 rows of
    # 8 uint64 words fills the cap exactly, so the sweep reaches bound 20
    rows = {f"s{s}": (f"s{(s + 1) % 5}", f"s{5 + s % 4}") for s in range(9)}
    a = make_dfao(2, rows, "s0").automaton
    assert oracle_bound(a) == 20 and compute_opacity(a).as_dyadic() == ZERO
    assert brute_force_opacity(a, oracle_bound(a)) == ZERO


def test_mask_table_budget_guard():
    """A large radix keeps the relabelings within budget but not their
    mask table: 1000**2 relabelings need 2 * 1000 masks of 15625 words."""
    k = 1000
    a = make_dfao(k, {"a": ("b",) * k, "b": ("a",) * k}, "a").automaton
    table = (
        r"^1000\*\*2 relabelings need a 250000000-byte mask table, "
        r"over the budget of 67108864 bytes$"
    )
    for _ in range(2):  # nothing about the refusal is cached
        for max_len in (2, oracle_bound(a)):
            with pytest.raises(InstanceTooLarge, match=table):
                brute_force_opacity(a, max_len)


def test_assignment_matrix_cache_is_bounded():
    """The per-(k, n) relabeling table is the bounded cache: in a
    one-state machine, relabeling d alone shows digit d."""
    cap = _masks.cache_info().maxsize
    # the corpus and the verify-oracle benchmark sweep 15 distinct (k, n)
    assert cap is not None and cap >= 15
    for k in range(2, cap + 4):
        assert _masks(k, 1).tolist() == [[[1 << d for d in range(k)]]]
    assert _masks.cache_info().currsize == cap


def _both_readers_population():
    """Machines small enough for `per_word_infs` to spell every word up to
    the bound: seeded random machines drawn with up to 8, 4 and 3 states
    for k = 2, 3 and 4 (pruning may leave fewer), the nine corpus machines,
    and the n mod p cells whose k**bound is at most 2**18 (all of them
    answered by the oracle)."""
    rng = random.Random(113)
    for k, n_max in ((2, 8), (3, 4), (4, 3)):
        for _ in range(6):
            yield random_dfao(rng, k=k, max_states=n_max, min_states=n_max - 2).automaton
    for ent in ENTRIES:
        yield ent.machine.automaton
    for k in (2, 3, 4):
        for p in range(1, 13):
            a = analyze_sequence(residue_machine(k, p)).intrinsic.automaton
            if k ** oracle_bound(a) <= 2**18:
                yield a


def test_brute_force_is_the_largest_per_word_floor():
    """The two readers of the sweep agree at every length bound: the
    opacity stops on the first length some word clashes at, and the
    floors are rebuilt word by word, yet the first is the largest of the
    second."""
    machines = list(_both_readers_population())
    assert len(machines) == 18 + len(ENTRIES) + 15
    for a in machines:
        for max_len in range(oracle_bound(a) + 1):
            floors = [value for _word, value in per_word_infs(a, max_len)]
            assert brute_force_opacity(a, max_len) == max(floors, default=ZERO), (a, max_len)


def _differential_population():
    """Machines whose k**n relabelings fill less than one uint64 word,
    exactly one, and several, with and without padding bits in the last:
    seeded random machines (mostly opaque, so sweeps stop early), cycle
    chains (first clash at length n + 1) and transparent residue machines
    (swept to the bound)."""
    rng = random.Random(109)
    for k, n_min, n_max in ((2, 1, 8), (3, 1, 6), (4, 1, 4)):
        for i in range(40):
            a = random_dfao(rng, k=k, max_states=n_max, min_states=n_min).automaton
            if i % 2:  # the same machine with its initial state at index 1
                n = len(a.states)
                up = [(s + 1) % n for s in range(n)]
                rows = [None] * n
                for s, row in enumerate(a.transition):
                    rows[up[s]] = tuple(up[t] for t in row)
                names = tuple(a.states[-1:] + a.states[:-1])
                a = Automaton(k, names, up[a.initial], tuple(rows))
            yield a
    for k, n in ((2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4)):
        yield cycle_chain(n, k).automaton
    for k, p in ((2, 4), (2, 6), (3, 3)):
        yield residue_machine(k, p).automaton
    # transparent, 81 relabelings: each state is entered on one digit only
    rows = {"a": ("a", "b", "c"), "b": ("a", "b", "c"), "c": ("a", "b", "d"), "d": ("a", "b", "c")}
    yield make_dfao(3, rows, "a").automaton


def test_sweep_matches_readback_reference():
    widths = set()
    for a in _differential_population():
        k, n = a.k, len(a.states)
        widths.add((k**n < 64, k**n == 64, k**n % 64 != 0))
        for m in range(oracle_bound(a) + 1):
            assert brute_force_opacity(a, m) == readback_brute_force_opacity(a, m), (a, m)
        assert list(per_word_infs(a, 6)) == list(readback_per_word_infs(a, 6)), a
    # below one word, exactly one, several with padding, several without
    assert widths == {(True, False, True), (False, True, False),
                      (False, False, True), (False, False, False)}


@given(small_automata())
def test_sweep_matches_readback_reference_property(a):
    bound = oracle_bound(a)
    assert brute_force_opacity(a, bound) == readback_brute_force_opacity(a, bound)
    assert list(per_word_infs(a, 4)) == list(readback_per_word_infs(a, 4))


def test_brute_force_agrees_with_analysis_on_randoms():
    rng = random.Random(107)
    machines = [random_dfao(rng).automaton for _ in range(60)]
    # 11 to 16 binary states before pruning, as the verify-oracle benchmark
    # draws its x cells; those left with 11 or more have bounds of 24 or
    # more and are swept only up to their first clash
    wide = [random_dfao(rng, k=2, max_states=16, min_states=11).automaton for _ in range(12)]
    assert sum(len(a.states) >= 11 for a in wide) >= 6
    machines += wide
    for a in machines:
        assert brute_force_opacity(a, oracle_bound(a)) == compute_opacity(a).as_dyadic()


@given(small_automata())
def test_brute_force_agrees_with_analysis_property(a):
    assert brute_force_opacity(a, oracle_bound(a)) == compute_opacity(a).as_dyadic()


def test_a_repeated_sweep_takes_no_fresh_memory():
    """A finished sweep leaves its buffers to the next, so sweeping the
    transparent residue_machine(2, 8) to its bound 18 again, whose last
    table is 2**18 rows of 4 uint64 words (8 MiB), allocates next to
    nothing.  It is swept twice first: a set left by an earlier sweep may
    grow past the cap here and be dropped, but the second sweep's is kept."""
    a = residue_machine(2, 8).automaton
    bound = oracle_bound(a)
    table = a.k**bound * -(-(a.k ** len(a.states)) // 64) * 8
    assert table == 8 * 2**20
    for _ in range(2):
        assert brute_force_opacity(a, bound) == ZERO
    tracemalloc.start()
    try:
        assert brute_force_opacity(a, bound) == ZERO
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table / 8, peak


def test_interleaved_sweeps_match_sweeps_one_after_the_other():
    """Two live sweeps never share buffers: `per_word_infs` generators over
    machines of different k and table width, advanced in turn, give the
    lists they give when run one after the other."""
    runs = [(residue_machine(2, 6).automaton, 8), (cycle_chain(5, 3).automaton, 6)]
    assert [-(-(a.k ** len(a.states)) // 64) for a, _ in runs] == [1, 4]
    alone = [list(per_word_infs(a, max_len)) for a, max_len in runs]
    together = [[], []]
    for items in itertools.zip_longest(*(per_word_infs(a, max_len) for a, max_len in runs)):
        for out, item in zip(together, items):
            if item is not None:
                out.append(item)
    assert together == alone


def test_sweeps_after_a_clash_or_a_refusal_are_exact():
    """A sweep that `brute_force_opacity` leaves at its first clash, and
    sweeps refused mid-way, give their buffers back in a state the next
    sweep, of another shape, reads correctly.  The de Bruijn refusal
    holds more than the cap, so its buffers are dropped; the base-4 one
    (residue_machine(4, 8), refused at length 7 after a 32 MiB table)
    keeps them."""
    after = [
        residue_machine(3, 3).automaton,
        random_dfao(random.Random(127), k=2, max_states=7).automaton,
    ]
    chain = cycle_chain(8, 2).automaton
    refused = [(residue_machine(2, 10).automaton, 20, False), (residue_machine(4, 8).automaton, 7, True)]

    def check(a):
        bound = oracle_bound(a)
        assert brute_force_opacity(a, bound) == readback_brute_force_opacity(a, bound), a
        assert list(per_word_infs(a, 5)) == list(readback_per_word_infs(a, 5)), a

    assert brute_force_opacity(chain, oracle_bound(chain)) == pow2inv(8)
    check(after[0])
    for a, length, kept in refused:
        with pytest.raises(InstanceTooLarge, match=rf"^length {length} needs "):
            brute_force_opacity(a, oracle_bound(a))
        assert len(_spare) == kept
        for b in after:
            check(b)


def test_sweep_buffers_kept_stay_within_the_cap():
    """The transparent 9-state machine whose length-20 table fills the
    cap leaves buffers over it, which are not kept; a small sweep's are."""
    rows = {f"s{s}": (f"s{(s + 1) % 5}", f"s{5 + s % 4}") for s in range(9)}
    a = make_dfao(2, rows, "s0").automaton
    small = build("golay_shapiro").automaton
    assert brute_force_opacity(small, oracle_bound(small)) == ZERO
    assert len(_spare) == 1
    assert brute_force_opacity(a, oracle_bound(a)) == ZERO
    assert sum(b.nbytes for bufs in _spare for b in bufs) <= _TABLE_LIMIT


def test_concurrent_sweeps_match_sequential_ones():
    """Four threads sweep seeded small machines at once, with a short
    switch interval; each sweep takes the spare set of buffers or builds
    its own, so every answer equals the one computed alone."""
    rng = random.Random(137)
    work = [
        [random_dfao(rng, k=k, max_states=6).automaton for k in (2, 3, 4, 2, 3)]
        + [residue_machine(*(2, 6) if i % 2 else (3, 3)).automaton]
        for i in range(4)
    ]

    def answers(machines):
        return [(brute_force_opacity(a, oracle_bound(a)), list(per_word_infs(a, 4)))
                for a in machines]

    expected = [answers(machines) for machines in work]
    got = [None] * len(work)
    start = threading.Barrier(len(work), timeout=60)

    def run(i):
        start.wait()
        got[i] = [answers(work[i]) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[e] * 3 for e in expected]
