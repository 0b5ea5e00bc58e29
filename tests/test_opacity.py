"""Structural opacity analysis: homogeneity, witnesses, classification."""

import random
from fractions import Fraction

from hypothesis import given, settings

from dfao import opacity
from dfao.automaton import Automaton, RawDfao, _bfs, _preimages, make_dfao, validate
from dfao.corpus import build
from dfao.dyadic import ZERO, pow2inv
from dfao.minimize import intrinsic_automaton
from dfao.opacity import (
    MAX_OPACITY,
    Classification,
    StateHomogeneity,
    analyze_sequence,
    compute_opacity,
    is_homogeneous_automaton,
    is_opaque_quick,
    longest_homogeneous_prefix,
    shortest_inhomogeneous_path,
    state_homogeneity,
)
from helpers import (
    all_words,
    alternating_cycle,
    cycle_chain,
    entry_distance,
    exhaustive_shortest_clash,
    index,
    random_dfao,
    residue_machine,
    return_distance,
    small_automata,
    split_state,
    step,
    tree_cycle,
    word_search_shortest_clash,
)


def transparent_but_inhomogeneous():
    """Every path is homogeneous, yet state X has in-labels {0, 1}.

    X is never re-entered once left (its successors Y, Z only lead to each
    other), so no path can witness the state-level inhomogeneity.  The
    machine is not strictly accessible, which is exactly why the converse
    of the homogeneity criterion does not apply.
    """
    return make_dfao(
        2,
        {"A": ("B", "C"), "B": ("X", "A"), "C": ("X", "X"),
         "X": ("Y", "Z"), "Y": ("Y", "Z"), "Z": ("Y", "Z")},
        "A",
        {name: "0" for name in "ABCXYZ"},
    )


def test_opacity_value_object():
    """Opacity is a dyadic distance: its exponent is the witness length
    minus one, and the report derives classification and complexity."""
    assert ZERO.is_transparent and not ZERO.is_opaque
    assert ZERO.witness_length is None and str(ZERO) == "0"
    assert pow2inv(1).is_opaque and not pow2inv(1).is_transparent
    assert pow2inv(1).witness_length == 2 and str(pow2inv(1)) == "1/2"
    assert not pow2inv(3).is_opaque and not pow2inv(3).is_transparent
    assert pow2inv(3).witness_length == 4 and str(pow2inv(3)) == "1/8"
    assert MAX_OPACITY == Fraction(1, 2)
    for d, wl, classification, complexity in (
        (build("golay_shapiro"), None, Classification.TRANSPARENT, Fraction(0)),
        (build("thue_morse"), 2, Classification.OPAQUE, Fraction(1)),
        (build("period_doubling"), 3, Classification.INTERMEDIATE, Fraction(1, 2)),
        (residue_machine(2, 15), 5, Classification.INTERMEDIATE, Fraction(1, 8)),
    ):
        report = analyze_sequence(d)
        assert report.opacity.witness_length == wl
        assert report.classification is classification, wl
        assert report.complexity == complexity, wl


def test_state_homogeneity_golay_shapiro():
    gs = build("golay_shapiro")
    verdicts = state_homogeneity(gs.automaton)
    assert all(v.homogeneous for v in verdicts)
    assert tuple(v.label for v in verdicts) == (0, 1, 1, 0)


def test_state_homogeneity_thue_morse():
    tm = build("thue_morse")
    verdicts = state_homogeneity(tm.automaton)
    assert not any(v.homogeneous for v in verdicts)


def test_state_homogeneity_period_doubling():
    pd = build("period_doubling")
    verdicts = state_homogeneity(pd.automaton)
    assert verdicts[0].homogeneous is False
    assert verdicts[1].homogeneous is True and verdicts[1].label == 1


def test_state_with_no_in_edges_counts_homogeneous():
    d = make_dfao(2, {"A": ("B", "B"), "B": ("B", "B")}, "A", {"A": "0", "B": "1"})
    verdicts = state_homogeneity(d.automaton)
    assert verdicts[0] == type(verdicts[0])(True, None)


def _raw_automaton(rng, k, n, fed_initial=True):
    """Directly built, unpruned machine with its initial state at a random
    index; with fed_initial False (and n > 1) no edge enters that state."""
    initial = rng.randrange(n)
    targets = [t for t in range(n) if fed_initial or n == 1 or t != initial]
    rows = tuple(tuple(rng.choice(targets) for _ in range(k)) for _ in range(n))
    return Automaton(k, tuple(f"q{i}" for i in range(n)), initial, rows)


def test_state_homogeneity_shares_one_verdict_per_value():
    """Against a per-state reference from the definition, on pruned
    machines and on directly built ones with unreachable states or an
    initial state that no edge enters: the verdicts are equal, and each
    distinct verdict is one object, so at most k + 2 objects in all."""
    rng = random.Random(37)
    unreachable = unfed_initial = 0
    for i in range(600):
        k, n = rng.choice((2, 3, 4)), rng.randint(1, 12)
        if i % 3 == 0:
            a = random_dfao(rng, k=k, max_states=n).automaton
        else:
            a = _raw_automaton(rng, k, n, fed_initial=i % 3 == 1)
        expected = []
        for t in range(len(a.states)):
            digits = {d for row in a.transition for d, u in enumerate(row) if u == t}
            if len(digits) > 1:
                expected.append(StateHomogeneity(False, None))
            else:
                expected.append(StateHomogeneity(True, next(iter(digits), None)))
        got = state_homogeneity(a)
        assert got == tuple(expected)
        assert len({id(v) for v in got}) == len(set(got)) <= a.k + 2
        unreachable += len(_bfs(a.transition, a.initial)[0]) < len(a.states)
        unfed_initial += expected[a.initial] == StateHomogeneity(True, None)
    assert unreachable >= 80 and unfed_initial >= 150


def test_breadth_first_preimages_give_shortest_entries():
    """Unpruned machines with a random initial index, so index order is not
    breadth-first order.  Preimage lists built along the breadth-first
    order hold exactly the reached feeders, in that order, and the first
    one listed gives the shortest entry on its digit; the witness search,
    which reads its entries there, returns the exhaustive lexmin."""
    rng = random.Random(41)
    out_of_order = 0
    for _ in range(400):
        a = _raw_automaton(rng, rng.choice((2, 3)), rng.randint(2, 7))
        n, rows = len(a.states), a.transition
        order0, dist0, _ = _bfs(rows, a.initial)
        out_of_order += order0 != sorted(order0)
        preimages = _preimages(rows, a.k, order0)
        for d, preimage in enumerate(preimages):
            for t in range(n):
                assert preimage[t] == [r for r in order0 if rows[r][d] == t]
                if dist0[t] is not None:
                    first = dist0[preimage[t][0]] + 1 if preimage[t] else None
                    assert first == entry_distance(a, t, d)
        got = shortest_inhomogeneous_path(a)
        if got is not None:
            _assert_witness_is_exhaustive_lexmin(a, got, len(got.word))
    assert out_of_order >= 200


def test_is_homogeneous_automaton_on_corpus():
    expectations = {
        "one_state": False,
        "identity2": True,
        "thue_morse": False,
        "period_doubling": False,
        "golay_shapiro": True,
        "paperfolding": True,
        "baum_sweet": False,
        "hanoi": False,
        "ternary_digit_sum": False,
    }
    for name, expected in expectations.items():
        assert is_homogeneous_automaton(build(name).automaton) == expected, name


def test_entry_and_return_distances_thue_morse():
    a = build("thue_morse").automaton
    B = 1
    assert entry_distance(a, B, 1) == 1
    assert entry_distance(a, B, 0) == 2
    assert return_distance(a, B, 0) == 1
    assert return_distance(a, B, 1) == 2


def test_entry_and_return_distances_baum_sweet():
    a = build("baum_sweet").automaton
    B, D = 1, 3
    assert entry_distance(a, B, 1) == 1  # A -1-> B
    assert entry_distance(a, B, 0) == 3  # only C feeds B on 0, and C is 2 away
    assert return_distance(a, B, 0) == 2  # B -0-> C -0-> B
    assert return_distance(a, B, 1) == 1  # B -1-> B
    assert entry_distance(a, D, 0) == 4  # D's only 0-source is D itself, 3 away
    assert entry_distance(a, D, 1) == 3  # A -1-> B -0-> C -1-> D
    # no state feeds A on digit 1 at all
    assert entry_distance(a, 0, 1) is None


def test_distances_match_exhaustive_search():
    rng = random.Random(13)
    machines = [build(n).automaton for n in ("thue_morse", "period_doubling", "baum_sweet", "hanoi")]
    machines += [random_dfao(rng, max_states=4).automaton for _ in range(25)]
    for a in machines:
        bound = 2 * len(a.states) + 2
        for s in range(len(a.states)):
            for dig in range(a.k):
                expected_entry = _shortest_word_into(a, a.initial, s, dig, bound)
                assert entry_distance(a, s, dig) == expected_entry
                expected_return = _shortest_word_into(a, s, s, dig, bound)
                assert return_distance(a, s, dig) == expected_return


def _shortest_word_into(a, start, target, digit, bound):
    """Length of the shortest nonempty word from `start` whose last edge
    enters `target` carrying `digit`; brute force over all words."""
    for m in range(1, bound + 1):
        for word in all_words(a.k, m):
            if word[-1] != digit:
                continue
            if step(a, start, word) == target:
                return m
    return None


def test_witnesses_on_corpus():
    cases = {
        "one_state": ((0, 1), "A", 0, 1),
        "thue_morse": ((1, 0), "B", 0, 1),
        "period_doubling": ((0, 1, 1), "A", 0, 2),
        "baum_sweet": ((1, 0, 0), "B", 0, 2),
        "hanoi": ((0, 1, 1), "A", 0, 2),
        "ternary_digit_sum": ((1, 0), "B", 0, 1),
    }
    for name, (word, state, pos_a, pos_b) in cases.items():
        d = build(name)
        w = shortest_inhomogeneous_path(d.automaton)
        assert w is not None, name
        assert w.word == word, name
        assert d.states[w.collide_state] == state, name
        assert (w.position_a, w.position_b) == (pos_a, pos_b), name


def test_no_witness_on_transparent_corpus():
    for name in ("identity2", "golay_shapiro", "paperfolding"):
        assert shortest_inhomogeneous_path(build(name).automaton) is None


def test_witness_fields_are_consistent():
    rng = random.Random(17)
    machines = [build(n) for n in ("thue_morse", "period_doubling", "baum_sweet", "hanoi", "ternary_digit_sum")]
    machines += [random_dfao(rng) for _ in range(60)]
    for d in machines:
        a = d.automaton
        w = shortest_inhomogeneous_path(a)
        if w is None:
            continue
        vertices = a.run_path(w.word)
        assert w.position_b == len(w.word) - 1
        assert 0 <= w.position_a < w.position_b
        assert w.word[w.position_a] != w.word[w.position_b]
        assert vertices[w.position_a + 1] == w.collide_state
        assert vertices[w.position_b + 1] == w.collide_state


def test_witness_matches_exhaustive_lexmin():
    rng = random.Random(19)
    machines = [build(n).automaton for n in
                ("one_state", "identity2", "thue_morse", "period_doubling",
                 "golay_shapiro", "paperfolding", "baum_sweet", "ternary_digit_sum")]
    machines += [random_dfao(rng, max_states=4).automaton for _ in range(60)]
    machines.append(transparent_but_inhomogeneous().automaton)
    # the two shapes where the cycle bound alone used to leave the search quadratic
    machines += [alternating_cycle(n) for n in range(2, 15, 2)]
    machines += [tree_cycle(h) for h in range(4)]
    for a in machines:
        _assert_witness_is_exhaustive_lexmin(a, shortest_inhomogeneous_path(a), 2 * len(a.states) + 2)


def _assert_witness_is_exhaustive_lexmin(a, got, max_len):
    expected = exhaustive_shortest_clash(a, max_len)
    # Callers pass 2n + 2, past every shortest clash, or the witness's own
    # length, so the exhaustive search answers in full.
    assert word_search_shortest_clash(a) == expected
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert (got.word, got.collide_state, got.position_a, got.position_b) == expected
        # both halves are shortest words (the lemma in opacity's docstring)
        word, collide, pos_a = got.word, got.collide_state, got.position_a
        assert pos_a + 1 == entry_distance(a, collide, word[pos_a])
        assert len(word) - pos_a - 1 == return_distance(a, collide, word[-1])


def test_witness_matches_exhaustive_lexmin_on_larger_machines():
    """5-7 drawn states, k 2 and 3: enough states for several candidates to
    tie at the minimal length and for the bounded loop searches to cut
    off.  A found witness is checked up to its own length (no shorter
    clash, and the same lexicographically smallest word); a transparent
    verdict up to 2n+2 where that sweep stays within 10**5 words."""
    rng = random.Random(23)
    checked = transparent = 0
    for _ in range(120):
        a = random_dfao(rng, k=rng.choice((2, 3)), min_states=5, max_states=7).automaton
        got = shortest_inhomogeneous_path(a)
        if got is not None:
            _assert_witness_is_exhaustive_lexmin(a, got, len(got.word))
            checked += 1
        elif a.k ** (2 * len(a.states) + 2) <= 10**5:
            _assert_witness_is_exhaustive_lexmin(a, got, 2 * len(a.states) + 2)
            transparent += 1
    assert checked >= 80 and transparent >= 1


def test_witness_tie_goes_to_the_smaller_word_not_the_earlier_state():
    """Two states attain the minimal length, and the lexicographically
    smallest word decides between them: in the first machine it clashes
    at the larger index, in the second at the state the breadth-first
    loop search visits second."""
    # Both clash at length 2 with entry 1: P on "10", Q on "01".
    same_entry = make_dfao(
        2, {"I": ("Q", "P"), "P": ("P", "I"), "Q": ("I", "Q")}, "I"
    )
    # P clashes on "100" (entry 1, loop 2), Q on "001" (entry 2, loop 1).
    later_entry = make_dfao(
        2,
        {"I": ("A", "P"), "P": ("B", "I"), "A": ("Q", "B"),
         "Q": ("I", "Q"), "B": ("P", "I")},
        "I",
    )
    for d, word in ((same_entry, (0, 1)), (later_entry, (0, 0, 1))):
        a = d.automaton
        P, Q = index(a, "P"), index(a, "Q")
        assert P < Q
        for s, d1, d2 in ((P, 1, 0), (Q, 0, 1)):
            assert entry_distance(a, s, d1) + return_distance(a, s, d2) == len(word)
        got = shortest_inhomogeneous_path(a)
        assert got.word == word and got.collide_state == Q
        _assert_witness_is_exhaustive_lexmin(a, got, len(word))


def test_cycle_chain_witness_is_one_then_n_zeros():
    """The zero-normalized chain is entered on 1 at c1 and returns there
    only after a full lap of n edges, so the witness is as long as the
    machine, a one-edge head followed by a shortest loop of n edges."""
    for k in (2, 3):
        for n in range(2, 256):
            rep = analyze_sequence(cycle_chain(n, k))
            assert rep.witness.word == (1,) + (0,) * n, (n, k)
            assert (rep.witness.position_a, rep.witness.position_b) == (0, n)


def _witness_and_searches(monkeypatch, a):
    """The witness of `a`, and the number of states that each breadth-first
    search of the witness search reached, in call order."""
    reached = []

    def counted(*args):
        result = _bfs(*args)
        reached.append(len(result[0]))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(opacity, "_bfs", counted)
        return shortest_inhomogeneous_path(a), reached


def test_witness_search_is_linear_on_cycle_chains(monkeypatch):
    """After the first full loop search every later chain state is ruled
    out by its in-neighbour's cycle bound, so there are exactly two
    breadth-first searches, visiting at most 2(n + 1) states in all: the
    search from the initial state and one full loop search from the tied
    state, whose order also gives the tail."""
    for n in (64, 128, 255):
        for k in (2, 3):
            a = intrinsic_automaton(cycle_chain(n, k)).target.automaton
            got, reached = _witness_and_searches(monkeypatch, a)
            assert got.word == (1,) + (0,) * n
            assert len(reached) == 2, (n, k, reached)
            assert sum(reached) <= 2 * (n + 1), (n, k, sum(reached))


def test_witness_search_is_linear_on_alternating_cycles(monkeypatch):
    """The odd states are entered on one digit only, so they are never
    searched; each inherits its in-neighbour's cycle bound, and through it
    every even state after the first few is ruled out.  The searches reach
    at most 6n states in all, O(nk), not the O(n^2 k) of a trivial bound."""
    for n in (64, 128, 256, 512, 1024):
        got, reached = _witness_and_searches(monkeypatch, alternating_cycle(n))
        assert got.word == (0, 0) + (1,) * (n // 2)
        assert (got.collide_state, got.position_a) == (2, 1)
        assert sum(reached) <= 6 * n, (n, sum(reached))


def test_witness_search_on_tree_cycles_runs_no_tail_search(monkeypatch):
    """Every leaf is a candidate whose cycle in-neighbour is visited after
    it, so each leaf gets a loop search (the quadratic case that remains),
    and all 2^h leaves tie.  Their heads all have length h, so only the
    smallest is completed, with a tail read off its leaf's loop search:
    2^h + 1 searches in all, none after the loop."""
    for h in (4, 6, 8):
        got, reached = _witness_and_searches(monkeypatch, tree_cycle(h))
        assert got.word == (0,) * (h + 2**h - 1) + (1,)
        assert (got.collide_state, got.position_a) == (2**h - 1, h - 1)
        assert len(reached) == 2**h + 1, (h, len(reached))


def _stem_tree(stem, h, back_to_start):
    """A binary machine: `stem` states in a row on digit 0 from state 0 into
    a complete binary tree of depth h (internal j steps to 2j+1 and 2j+2).
    Each leaf loops to itself on the digit it is not entered on, or, with
    `back_to_start`, returns to state 1 on digit 1, and state 0 enters
    state 1 on digit 0.  Every other edge goes to a sink entered on its own
    digit only, so the leaves, or state 1, are the only clash states."""
    first, leaves = stem, 2**h
    sink = (first + 2 * leaves - 1, first + 2 * leaves)
    rows = [(i + 1, sink[1]) for i in range(stem)]
    rows += [(first + 2 * j + 1, first + 2 * j + 2) for j in range(leaves - 1)]
    for j in range(leaves - 1, 2 * leaves - 1):
        if back_to_start:
            rows.append((sink[0], 1))
        else:  # a left child, of odd index, is entered on 0 and loops on 1
            rows.append((first + j, sink[1]) if j % 2 == 0 else (sink[0], first + j))
    rows += [sink, sink]
    return Automaton(2, tuple(f"q{s}" for s in range(len(rows))), 0, tuple(rows))


def test_ties_read_only_the_words_they_complete(monkeypatch):
    """Tied heads, and the tails that end one loop, are compared by rank
    and not read: with 2^h leaves tying after a long stem, or 2^h leaves
    feeding the clash state a tail long, the search reads one head and one
    tail, not 2^h words as long as the machine."""
    for h in (3, 6):
        for back_to_start in (False, True):
            a = _stem_tree(40, h, back_to_start)
            reads = []

            def read(rows, parent, t, original=opacity._read_word):
                reads.append(t)
                return original(rows, parent, t)

            with monkeypatch.context() as patch:
                patch.setattr(opacity, "_read_word", read)
                got = shortest_inhomogeneous_path(a)
            if back_to_start:  # 0 enters 1 on 0; 1 runs the stem and the tree back to itself
                assert (got.word, got.collide_state, got.position_a) == ((0,) * (40 + h) + (1,), 1, 0)
            else:  # the leftmost leaf, entered on 0 after 40 + h edges, loops on 1
                assert (got.word, got.collide_state) == ((0,) * (40 + h) + (1,), 40 + 2**h - 1)
            assert len(reads) == 2, (h, back_to_start, len(reads))


def test_loop_searches_that_find_no_loop_stop_at_once(monkeypatch):
    """Random machines of the benchmark's shape, k 2 and 4 and 64 to 1024
    states: most loop searches reach none of their state's in-neighbours
    within their limit, and those end as soon as the search returns, with
    no arrival computed.  So the arrivals are at most k per loop search
    that found a loop.  Where the exhaustive sweep is small the witness is
    its lexmin."""
    rng = random.Random(61)
    searches = found = arrivals = 0

    def searched(rows, start, limit=None, *lists):
        nonlocal searches, found
        result = _bfs(rows, start, limit, *lists)
        if limit is not None:  # a loop search, not the one from the initial state
            searches += 1
            found += any(start in rows[r] for r in result[0])
        return result

    def arrival(dist, feeders, original=opacity._arrival):
        nonlocal arrivals
        arrivals += 1
        return original(dist, feeders)

    exhaustive = 0
    for i in range(24):
        k, n = (2, 4)[i % 2], int(2 ** rng.uniform(6, 10))
        names = tuple(f"q{s}" for s in range(n))
        rows = tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n))
        a = Automaton(k, names, 0, rows)
        before = (found, arrivals)
        with monkeypatch.context() as patch:
            patch.setattr(opacity, "_bfs", searched)
            patch.setattr(opacity, "_arrival", arrival)
            got = shortest_inhomogeneous_path(a)
        assert arrivals - before[1] <= k * (found - before[0]), (i, k, n)
        if got is not None and k ** len(got.word) <= 3 * 10**4:
            _assert_witness_is_exhaustive_lexmin(a, got, len(got.word))
            exhaustive += 1
    assert searches >= 5 * found and exhaustive >= 20, (searches, found, exhaustive)


def test_loop_searches_share_two_lists_that_each_finds_cleared(monkeypatch):
    """Every loop search of one witness search gets the same distance and
    parent lists and finds them None at every entry: each search clears
    only what the one before it reached, and that is all it left, so no
    entry leaks from one search into the next."""
    rng = random.Random(28)
    machines = [
        Automaton(k, tuple(f"q{s}" for s in range(n)), 0,
                  tuple(tuple(rng.randrange(n) for _ in range(k)) for _ in range(n)))
        for k, n in ((rng.choice((2, 3, 4)), rng.randint(8, 300)) for _ in range(40))
    ]
    machines += [intrinsic_automaton(cycle_chain(n, k)).target.automaton
                 for n in (5, 33, 100) for k in (2, 3)]
    machines += [tree_cycle(h) for h in range(1, 8)]
    machines += [alternating_cycle(n) for n in (4, 10, 64, 200)]
    shared_by_many = 0
    for a in machines:
        shared = []

        def searched(rows, start, limit=None, *lists):
            if limit is not None:  # a loop search, not the one from the initial state
                assert len(lists) == 2 and len(lists[0]) == len(lists[1]) == len(rows)
                assert all(v is None for lst in lists for v in lst)
                assert all(x is y for x, y in zip(lists, shared[0] if shared else lists))
                shared.append(lists)
            return _bfs(rows, start, limit, *lists)

        with monkeypatch.context() as patch:
            patch.setattr(opacity, "_bfs", searched)
            shortest_inhomogeneous_path(a)
        shared_by_many += len(shared) >= 2
    assert shared_by_many >= 30, shared_by_many


def _visited_candidates(a):
    """(state, shortest entry, shortest clash through it) for each state
    entered on two digits, in the search's breadth-first visiting order."""
    found = []
    for s in _bfs(a.transition, a.initial)[0]:
        entries = [entry_distance(a, s, d) for d in range(a.k)]
        if sum(e is not None for e in entries) < 2:
            continue
        loops = [return_distance(a, s, d) for d in range(a.k)]
        total = min(
            (e + lp for d1, e in enumerate(entries) if e is not None
             for d2, lp in enumerate(loops) if d2 != d1 and lp is not None),
            default=None,
        )
        found.append((s, min(e for e in entries if e is not None), total))
    return found


def test_witness_on_machines_listed_out_of_breadth_first_order():
    """Raw machines with a random initial index, so index order is not
    breadth-first order.  Among them are machines whose initial state is
    a candidate with a shortest entry (a loop) longer than a later
    candidate's depth, and machines where the running best improves after
    two or more states tied it; the witness is the exhaustive lexmin on
    all of them."""
    rng = random.Random(29)
    long_initial = improved_after_tie = 0
    for _ in range(400):
        k, n = rng.choice((2, 3)), rng.randint(2, 7)
        names = tuple(f"q{i}" for i in range(n))
        edges = tuple((names[s], d, names[rng.randrange(n)]) for s in range(n) for d in range(k))
        a = validate(RawDfao(k, names, names[rng.randrange(n)], edges, None))[0].automaton
        visited = _visited_candidates(a)
        if visited and visited[0][0] == a.initial:
            long_initial += any(e < visited[0][1] for _, e, _ in visited[1:])
        best, ties = None, 0
        for _, _, total in visited:
            if total is None or (best is not None and total > best):
                continue
            if best is None or total < best:
                improved_after_tie += ties >= 2
                best, ties = total, 0
            ties += 1
        got = shortest_inhomogeneous_path(a)
        if got is not None:
            _assert_witness_is_exhaustive_lexmin(a, got, len(got.word))
        elif a.k ** (2 * len(a.states) + 2) <= 10**5:
            _assert_witness_is_exhaustive_lexmin(a, got, 2 * len(a.states) + 2)
    assert long_initial >= 20 and improved_after_tie >= 3


def _chorded_cycle(rng, n, k, chords):
    """A cycle of n states stepped by every digit, with a few edges sent to
    random states (self-loops included), and a random initial index."""
    rows = [[(i + 1) % n] * k for i in range(n)]
    for _ in range(chords):
        rows[rng.randrange(n)][rng.randrange(k)] = rng.randrange(n)
    return Automaton(k, tuple(f"q{i}" for i in range(n)), rng.randrange(n), tuple(map(tuple, rows)))


def test_witness_where_the_cycle_bound_skips_loop_searches(monkeypatch):
    """Cycles with a few chords and chains with shuffled outputs, where
    many candidates are ruled out by an in-neighbour's cycle bound without
    a loop search.  The witness is the exhaustive lexmin where that sweep
    is small, and elsewhere as long as the shortest exact clash through
    any candidate.  A skip shows as a candidate that the search reaches
    (before the entry bound stops it) but runs no loop search for."""
    rng = random.Random(43)
    machines = []
    for _ in range(300):
        n = rng.randint(3, 40)
        machines.append(_chorded_cycle(rng, n, rng.choice((2, 3)), rng.randint(1, 3)))
    for _ in range(40):
        n, k = rng.randint(3, 60), rng.choice((2, 3))
        ones = rng.randint(1, n - 1)
        outputs = ["1"] * ones + ["0"] * (n - ones)
        rng.shuffle(outputs)
        rows = {f"c{i}": (f"c{(i + 1) % n}",) * k for i in range(n)}
        d = make_dfao(k, rows, "c0", {f"c{i}": outputs[i] for i in range(n)})
        machines.append(intrinsic_automaton(d).target.automaton)
    skipped = exhaustive = 0
    for a in machines:
        got, searches = _witness_and_searches(monkeypatch, a)
        visited = _visited_candidates(a)
        totals = [total for _, _, total in visited if total is not None]
        best = min(totals, default=None)
        assert (None if got is None else len(got.word)) == best
        if got is not None and a.k ** len(got.word) <= 3 * 10**4:
            _assert_witness_is_exhaustive_lexmin(a, got, len(got.word))
            exhaustive += 1
        reached, running = 0, None
        for _, entry_min, total in visited:
            if running is not None and entry_min + 1 > running:
                break
            reached += 1
            if total is not None and (running is None or total < running):
                running = total
        skipped += reached - (len(searches) - 1)
    assert exhaustive >= 150 and skipped >= 4000, (exhaustive, skipped)


def test_word_search_reference_meets_the_witness_at_bench_sizes():
    """The lemma-free reference gives the witness search's answer on
    machines far past the exhaustive search: intrinsic forms of uniform
    random machines, cycles with random chords, whose witnesses run to
    dozens of digits, and the adversarial families."""
    rng = random.Random(83)
    machines = [transparent_but_inhomogeneous().automaton]
    for _ in range(150):
        k, n = rng.choice((2, 3, 4)), rng.randint(20, 200)
        d = random_dfao(rng, k=k, min_states=n, max_states=n)
        machines.append(intrinsic_automaton(d).target.automaton)
        chord = rng.choice((0.02, 0.05, 0.2))
        rows = tuple(
            tuple(rng.randrange(n) if rng.random() < chord else (s + 1) % n for _ in range(k))
            for s in range(n)
        )
        machines.append(Automaton(k, tuple(f"q{s}" for s in range(n)), 0, rows))
    machines += [alternating_cycle(n) for n in range(2, 201, 6)]
    machines += [tree_cycle(h) for h in range(7)]
    for n in (2, 17, 64, 150):
        for k in (2, 3):
            d = cycle_chain(n, k)
            machines += [d.automaton, intrinsic_automaton(d).target.automaton]
    lengths = set()
    for a in machines:
        w = shortest_inhomogeneous_path(a)
        expected = w and (w.word, w.collide_state, w.position_a, w.position_b)
        assert word_search_shortest_clash(a) == expected
        lengths.add(expected and len(expected[0]))
    assert None in lengths and max(lengths - {None}) > 40, lengths


def test_intrinsic_breadth_first_order_is_index_order():
    """The intrinsic machine is canonical, so the witness search visits
    its states in index order."""
    rng = random.Random(31)
    machines = [random_dfao(rng, k=rng.choice((2, 4)), min_states=20, max_states=60) for _ in range(40)]
    machines += [cycle_chain(n, k) for n in (2, 17, 64) for k in (2, 3)]
    for d in machines:
        a = intrinsic_automaton(d).target.automaton
        assert _bfs(a.transition, a.initial)[0] == list(range(len(a.states)))


@settings(max_examples=300)
@given(small_automata())
def test_witness_equals_exhaustive_shortest_clash(a):
    _assert_witness_is_exhaustive_lexmin(a, shortest_inhomogeneous_path(a), 2 * len(a.states) + 2)


def test_compute_opacity_on_corpus():
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
        assert compute_opacity(build(name).automaton).as_dyadic() == expected, name


def test_is_opaque_quick_on_corpus():
    expectations = {
        "one_state": True,
        "identity2": False,
        "thue_morse": True,
        "period_doubling": False,
        "golay_shapiro": False,
        "paperfolding": False,
        "baum_sweet": False,
        "hanoi": False,
        "ternary_digit_sum": True,
    }
    for name, expected in expectations.items():
        assert is_opaque_quick(build(name).automaton) == expected, name


def test_is_opaque_quick_agrees_with_full_computation():
    rng = random.Random(29)
    for _ in range(200):
        a = random_dfao(rng).automaton
        assert is_opaque_quick(a) == compute_opacity(a).is_opaque


def test_longest_homogeneous_prefix():
    tm = build("thue_morse").automaton
    assert longest_homogeneous_prefix(tm, (1, 0)) == 1
    assert longest_homogeneous_prefix(tm, (0, 0, 0, 0)) == 4
    assert longest_homogeneous_prefix(tm, ()) == 0

    pd = build("period_doubling").automaton
    assert longest_homogeneous_prefix(pd, (0, 1, 1)) == 2

    bs = build("baum_sweet").automaton
    assert longest_homogeneous_prefix(bs, (1, 0, 0)) == 2

    gs = build("golay_shapiro").automaton
    for m in range(0, 7):
        for word in all_words(2, m):
            assert longest_homogeneous_prefix(gs, word) == m


def test_witness_has_homogeneous_proper_prefix():
    rng = random.Random(31)
    for _ in range(80):
        a = random_dfao(rng).automaton
        w = shortest_inhomogeneous_path(a)
        if w is None:
            continue
        assert longest_homogeneous_prefix(a, w.word) == len(w.word) - 1


def test_homogeneous_machines_are_transparent():
    for name in ("identity2", "golay_shapiro", "paperfolding"):
        a = build(name).automaton
        assert is_homogeneous_automaton(a)
        assert compute_opacity(a).is_transparent


def test_transparent_needs_no_state_homogeneity_without_strict_access():
    d = transparent_but_inhomogeneous()
    a = d.automaton
    assert not is_homogeneous_automaton(a)
    assert compute_opacity(a).is_transparent
    assert not a.is_strictly_accessible()
    verdicts = state_homogeneity(a)
    bad = [d.states[s] for s, v in enumerate(verdicts) if not v.homogeneous]
    assert bad == ["X"]


def test_transparent_and_strictly_accessible_implies_homogeneous():
    rng = random.Random(43)
    seen = 0
    machines = [build(n).automaton for n in ("identity2", "golay_shapiro", "paperfolding", "hanoi")]
    machines += [random_dfao(rng).automaton for _ in range(300)]
    for a in machines:
        if not a.is_strictly_accessible():
            continue
        seen += 1
        if compute_opacity(a).is_transparent:
            assert is_homogeneous_automaton(a)
    assert seen >= 20  # the sample actually exercised the implication


def test_analyze_sequence_reports():
    rep = analyze_sequence(build("baum_sweet"))
    assert rep.classification is Classification.INTERMEDIATE
    assert rep.opacity.as_fraction() == Fraction(1, 4)
    assert rep.complexity == Fraction(1, 2)
    assert rep.states_count == 4
    assert rep.k == 2
    assert not rep.strictly_accessible
    assert rep.witness is not None and rep.witness.word == (1, 0, 0)
    assert len(rep.state_homogeneity) == 4

    rep = analyze_sequence(build("thue_morse"))
    assert rep.classification is Classification.OPAQUE
    assert rep.complexity == Fraction(1)
    assert rep.strictly_accessible

    rep = analyze_sequence(build("golay_shapiro"))
    assert rep.classification is Classification.TRANSPARENT
    assert rep.opacity.is_transparent
    assert rep.complexity == Fraction(0)
    assert rep.witness is None


def test_analyze_sequence_is_invariant_under_state_splits():
    rng = random.Random(47)
    for _ in range(25):
        d = random_dfao(rng)
        split = d
        for _ in range(2):
            split = split_state(rng, split)
        assert analyze_sequence(split) == analyze_sequence(d)


def test_analyze_sequence_normalizes_first():
    # without the zero-loop fix-up this machine would look opaque
    d = make_dfao(2, {"A": ("B", "A"), "B": ("A", "B")}, "A", {"A": "0", "B": "1"})
    rep = analyze_sequence(d)
    intrinsic = rep.intrinsic
    assert intrinsic.automaton.transition[intrinsic.initial][0] == intrinsic.initial
    assert rep.states_count == 3
    assert compute_opacity(intrinsic.automaton).as_dyadic() == rep.opacity.as_dyadic()
