"""Graphviz export: structure, merging, witness highlighting."""

from dfao.automaton import make_dfao
from dfao.corpus import build
from dfao.dot import to_dot
from dfao.opacity import shortest_inhomogeneous_path


def test_basic_structure():
    tm = build("thue_morse")
    text = to_dot(tm)
    assert text.startswith("digraph dfao {")
    assert text.endswith("}\n")
    assert '  s0 [shape=circle, label="A/0"];' in text
    assert '  s1 [shape=circle, label="B/1"];' in text
    assert "  start [shape=point];" in text
    assert "  start -> s0;" in text
    assert '  s0 -> s0 [label="0"];' in text
    assert '  s0 -> s1 [label="1"];' in text


def test_parallel_edges_merge():
    pd = build("period_doubling")
    text = to_dot(pd)
    assert '  s1 -> s0 [label="0,1"];' in text
    assert text.count("->") == 1 + 3  # start arrow + A's two edges + B's merged pair


def test_witness_edges_drawn_in_red():
    pd = build("period_doubling")
    witness = shortest_inhomogeneous_path(pd.automaton)
    text = to_dot(pd, witness)
    red = [line for line in text.splitlines() if "color=red" in line]
    assert len(red) == 3  # A-0->A, A-1->B, B-1->A
    assert '  s0 -> s0 [label="0", color=red, penwidth=2];' in text
    assert '  s0 -> s1 [label="1", color=red, penwidth=2];' in text
    # the witness splits B's merged pair: plain 0 stays, red 1 separates
    assert '  s1 -> s0 [label="0"];' in text
    assert '  s1 -> s0 [label="1", color=red, penwidth=2];' in text
    for line in red:
        assert "penwidth=2" in line


def test_without_witness_no_red():
    text = to_dot(build("period_doubling"))
    assert "color=red" not in text


def test_deterministic():
    hn = build("hanoi")
    w = shortest_inhomogeneous_path(hn.automaton)
    assert to_dot(hn, w) == to_dot(hn, w)


def test_label_escaping():
    d = make_dfao(2, {"A": ("A", "A")}, "A", {"A": 'say"hi"'})
    text = to_dot(d)
    assert 'label="A/say\\"hi\\""' in text


def test_node_count():
    gs = build("golay_shapiro")
    text = to_dot(gs)
    assert text.count("shape=circle") == 4


def test_edge_order_follows_targets_not_digits():
    """A's digits go to C, B, C, A: edges come out by target index, each
    target's digits merged in digit order, a witness's red edge right after
    the plain edge to the same target."""
    d = make_dfao(4, {"A": ("C", "B", "C", "A"), "B": ("A",) * 4, "C": ("C", "A", "B", "C")}, "A")
    witness = shortest_inhomogeneous_path(d.automaton)
    assert witness.word == (0, 3)

    def edges(text):
        return text.splitlines()[text.splitlines().index("  start -> s0;") + 1 : -1]

    assert edges(to_dot(d)) == [
        '  s0 -> s0 [label="3"];',
        '  s0 -> s1 [label="1"];',
        '  s0 -> s2 [label="0,2"];',
        '  s1 -> s0 [label="0,1,2,3"];',
        '  s2 -> s0 [label="1"];',
        '  s2 -> s1 [label="2"];',
        '  s2 -> s2 [label="0,3"];',
    ]
    assert edges(to_dot(d, witness)) == [
        '  s0 -> s0 [label="3"];',
        '  s0 -> s1 [label="1"];',
        '  s0 -> s2 [label="2"];',
        '  s0 -> s2 [label="0", color=red, penwidth=2];',
        '  s1 -> s0 [label="0,1,2,3"];',
        '  s2 -> s0 [label="1"];',
        '  s2 -> s1 [label="2"];',
        '  s2 -> s2 [label="0"];',
        '  s2 -> s2 [label="3", color=red, penwidth=2];',
    ]
