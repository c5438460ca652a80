"""Core digraph type: construction, queries, derived digraphs, text format."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclocal import (
    Digraph,
    EdgeListError,
    RandomModel,
    UndirectedGraph,
    enumerate_digraphs,
    format_edge_list,
    parse_edge_list,
    random_class_member,
    random_digraph,
    set_relation,
    verify_clique_cut,
)
from arclocal.digraph import MAX_VERTICES, _parse_canonical, bits, two_colouring
from arclocal.generators import directed_cycle

from oracles import brute_two_colorable, reference_parse_edge_list


def test_build_rejects_loops_and_bad_range():
    with pytest.raises(ValueError, match="loop"):
        Digraph(3, [(1, 1)])
    with pytest.raises(ValueError, match="range"):
        Digraph(3, [(0, 3)])
    with pytest.raises(ValueError, match="range"):
        Digraph(2, [(-1, 0)])
    with pytest.raises(ValueError):
        Digraph(-1)


def test_duplicate_arcs_collapse():
    d = Digraph(2, [(0, 1), (0, 1), (0, 1)])
    assert d.arc_count == 1
    assert list(d.arcs()) == [(0, 1)]


def test_dominates_and_adjacent():
    d = Digraph(3, [(0, 1)])
    assert d.dominates(0, 1) and not d.dominates(1, 0)
    assert d.adjacent(0, 1) and d.adjacent(1, 0)
    assert not d.adjacent(0, 2)
    with pytest.raises(ValueError):
        d.dominates(1, 1)
    with pytest.raises(ValueError):
        d.adjacent(2, 2)
    with pytest.raises(ValueError):
        d.dominates(0, 5)


def test_digon_is_two_arcs():
    d = Digraph(2, [(0, 1), (1, 0)])
    assert d.dominates(0, 1) and d.dominates(1, 0)
    assert d.arc_count == 2


def test_inverse_is_involution_exhaustive_small():
    for n in range(5):
        for d in enumerate_digraphs(n):
            assert d.inverse().inverse() == d
            assert d.inverse().underlying_graph() == d.underlying_graph()


def test_induced_identity_and_relabeling():
    d = Digraph(4, [(0, 1), (1, 2), (3, 2)])
    whole, labels = d.induced(range(4))
    assert whole == d and labels == (0, 1, 2, 3)
    sub, labels = d.induced([1, 2, 3])
    assert labels == (1, 2, 3)
    assert sorted(sub.arcs()) == [(0, 1), (2, 1)]  # 1->2 and 3->2 relabelled
    empty, labels = d.induced([])
    assert empty.n == 0 and labels == ()


def test_set_relation_flags():
    d = Digraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    rel = set_relation(d, [0, 1], [2, 3])
    assert rel.dominates_all and rel.no_back_arc and rel.strictly_dominates
    d2 = Digraph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0)])
    rel2 = set_relation(d2, [0, 1], [2, 3])
    assert rel2.dominates_all and not rel2.no_back_arc
    d3 = Digraph(4, [(0, 2)])
    rel3 = set_relation(d3, [0, 1], [2, 3])
    assert not rel3.dominates_all and rel3.no_back_arc
    with pytest.raises(ValueError, match="disjoint"):
        set_relation(d, [0, 1], [1, 2])


def test_set_relation_empty_sides_are_vacuous():
    d = Digraph(3, [(0, 1)])
    assert set_relation(d, [], [0, 1]).strictly_dominates
    assert set_relation(d, [0], []).strictly_dominates


def test_connectivity_conventions():
    assert Digraph(0).is_connected()
    assert Digraph(1).is_connected()
    assert not Digraph(2).is_connected()
    assert Digraph(2, [(1, 0)]).is_connected()
    assert not Digraph(4, [(0, 1), (2, 3)]).is_connected()


def test_semicomplete_predicates():
    assert Digraph(0).is_semicomplete()
    assert Digraph(1).is_semicomplete()
    assert Digraph(3, [(0, 1), (1, 2), (0, 2)]).is_semicomplete()
    assert Digraph(3, [(0, 1), (1, 0), (1, 2), (0, 2)]).is_semicomplete()
    assert not Digraph(3, [(0, 1), (1, 2)]).is_semicomplete()


def test_bipartition_directed_four_cycle():
    c4 = directed_cycle(4)
    colours = c4.bipartition()
    assert colours is not None
    assert colours[0] == colours[2] != colours[1] == colours[3]
    assert c4.is_semicomplete_bipartite()


def test_bipartition_odd_cycle_is_none():
    assert directed_cycle(5).bipartition() is None
    assert not directed_cycle(5).is_semicomplete_bipartite()


def test_bipartition_against_brute_two_coloring():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(0, 7)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.3
        ]
        d = Digraph(n, arcs)
        colours = d.bipartition()
        two_colorable = brute_two_colorable(d.underlying_graph())
        assert (colours is not None) == two_colorable
        if colours is not None:
            for u, v in d.arcs():
                assert colours[u] != colours[v]


def test_semicomplete_bipartite_conventions():
    # Arcless digraphs take one empty side.
    assert Digraph(0).is_semicomplete_bipartite()
    assert Digraph(1).is_semicomplete_bipartite()
    assert Digraph(3).is_semicomplete_bipartite()
    # A disconnected digraph with an arc cannot have all cross pairs adjacent.
    assert not Digraph(3, [(0, 1)]).is_semicomplete_bipartite()
    # One cross pair missing.
    assert not Digraph(4, [(0, 1), (0, 3), (2, 3)]).is_semicomplete_bipartite()
    # Complete bipartite with mixed orientations and a digon.
    d = Digraph(4, [(0, 1), (1, 2), (2, 1), (0, 3), (3, 2), (1, 0)])
    assert d.is_semicomplete_bipartite()


def _colouring_on_copy(d, mask):
    """Colour-0 mask of ``bipartition`` on the induced copy d[mask], mapped
    back to d's labels, or None."""
    sub, labels = d.induced(bits(mask))
    colours = sub.bipartition()
    if colours is None:
        return None
    return sum(1 << labels[v] for v in range(sub.n) if colours[v] == 0)


def _check_two_colouring(d, mask):
    zero = two_colouring(d.adj_masks, mask)
    assert zero == _colouring_on_copy(d, mask), (list(d.arcs()), mask)
    sub, _ = d.induced(bits(mask))
    assert (zero is not None) == brute_two_colorable(sub.underlying_graph())
    if zero is not None:
        assert zero & ~mask == 0
        one = mask & ~zero
        assert all(d.adj_masks[v] & zero == 0 for v in bits(zero))
        assert all(d.adj_masks[v] & one == 0 for v in bits(one))


def test_two_colouring_matches_induced_copy_exhaustive_n4():
    for n in range(5):
        for d in enumerate_digraphs(n):
            for mask in range(1 << n):
                _check_two_colouring(d, mask)


@st.composite
def sparse_masked_digraphs(draw, max_n=12):
    """A digraph on at most max_n vertices with at most 2n arcs, so that
    both bipartite and non-bipartite masks are common, and a vertex mask."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return Digraph(n), draw(st.integers(0, (1 << n) - 1))
    count = draw(st.integers(0, 2 * n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    arcs = {(u, v) for u, v in draw(st.lists(pairs, min_size=count, max_size=count)) if u != v}
    return Digraph(n, arcs), draw(st.integers(0, (1 << n) - 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sparse_masked_digraphs())
def test_two_colouring_matches_induced_copy_hypothesis(drawn):
    d, mask = drawn
    _check_two_colouring(d, mask)
    assert two_colouring(d.adj_masks, d.full_mask) == _colouring_on_copy(d, d.full_mask)


def test_underlying_graph_and_complement():
    d = Digraph(3, [(0, 1), (1, 0), (1, 2)])
    g = d.underlying_graph()
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    gc = g.complement()
    assert sorted(gc.edges()) == [(0, 2)]
    assert gc.complement() == g


def test_edge_list_round_trip_exhaustive_small():
    for n in range(4):
        for d in enumerate_digraphs(n):
            assert parse_edge_list(format_edge_list(d)) == d


def test_edge_list_round_trip_txt_shape():
    d = Digraph(3, [(2, 0), (0, 1)])
    assert format_edge_list(d) == "n 3\n0 1\n2 0\n"


def test_parse_accepts_comments_and_blanks():
    text = "# a digraph\n\nn 3\n0 1\n# middle comment\n2 0\n"
    assert parse_edge_list(text) == Digraph(3, [(0, 1), (2, 0)])


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "missing header"),
        ("0 1\n", 1, "expected header"),
        ("n x\n", 1, "not an integer"),
        ("n -2\n", 1, "non-negative"),
        ("n 3\n0\n", 2, "expected arc"),
        ("n 3\n0 1 2\n", 2, "expected arc"),
        ("n 3\n0 a\n", 2, "not integers"),
        ("n 3\n0 3\n", 2, "range"),
        ("n 3\n# ok\n\n1 1\n", 4, "loop"),
        ("n 3\n0 1\n3 0\n", 3, r"arc \(3, 0\) outside vertex range 0\.\.2"),
        ("n 3\n-1 0\n", 2, "range"),
        ("n 3\n1.0 2\n", 2, "not integers"),
        ("n 12\n007 7\n", 2, r"loop arc \(7, 7\)"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(EdgeListError, match=fragment) as info:
        parse_edge_list(text)
    assert info.value.line == line


def test_parse_reads_non_canonical_integers():
    text = "n 12\n007 +1\n1_0\t\u0663\r\n# x\n"
    assert parse_edge_list(text) == Digraph(12, [(7, 1), (10, 3)])


def test_empty_vertex_range_is_named():
    with pytest.raises(ValueError) as info:
        Digraph(0, [(0, 1)])
    assert str(info.value) == "arc (0, 1) given, but the digraph has no vertices"
    with pytest.raises(ValueError) as info:
        UndirectedGraph(0, [(0, 1)])
    assert str(info.value) == "edge (0, 1) given, but the graph has no vertices"
    with pytest.raises(EdgeListError) as info:
        parse_edge_list("n 0\n0 1\n")
    assert str(info.value) == "line 2: arc (0, 1) given, but the digraph has no vertices"
    with pytest.raises(ValueError) as info:
        verify_clique_cut(Digraph(0), [0])
    assert str(info.value) == "vertex 0 given, but the digraph has no vertices"
    with pytest.raises(ValueError) as info:
        verify_clique_cut(Digraph(3), [5])
    assert str(info.value) == "vertex 5 outside vertex range 0..2"


# Arc-line tokens: canonical names in and out of range for n <= 12, and
# tokens that int() reads differently from their text or rejects.
_EDGE_TOKENS = [str(v) for v in range(14)] + [
    "-1", "-12", "007", "+1", "1_0", "\u0663", "1.0", "x", "#", "# c",
]


@st.composite
def edge_list_texts(draw):
    """A header (sometimes left out) and up to 8 lines, with space, tab or
    NBSP separators and any line end str.splitlines() knows.  Most lines
    name two vertices below n, so that many texts are accepted with arcs;
    the rest hold 0-3 tokens of any kind."""
    n = draw(st.integers(0, 12))
    lines = [f"n {n}"] if draw(st.integers(0, 9)) else []
    for _ in range(draw(st.integers(0, 8))):
        if n and draw(st.integers(0, 4)):
            fields = [str(draw(st.integers(0, n - 1))) for _ in range(2)]
        else:
            fields = [draw(st.sampled_from(_EDGE_TOKENS)) for _ in range(draw(st.integers(0, 3)))]
        lines.append("".join(draw(st.sampled_from([" ", "\t", "\xa0", " \t"])) + f for f in fields))
    ends = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x1c"])
    return "".join(line + draw(ends) for line in lines)


def _parse_result(parse, text):
    try:
        return parse(text)
    except EdgeListError as exc:
        return exc.line, str(exc)


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(edge_list_texts())
def test_parse_matches_reference_on_fuzzed_text(text):
    assert _parse_result(parse_edge_list, text) == _parse_result(reference_parse_edge_list, text)


# Texts next to the one-pass decision of canonical text, and whether each is
# exactly what format_edge_list writes (so that the decision takes it).
_NEAR_CANONICAL = [
    # an even token count, but lines of 3 and 1 tokens
    ("n 5\n1 2 3\n4\n", False),
    ("n 5\n0 1\n1 2 3\n4\n", False),
    # one token on the first body line and on the last, which has no newline:
    # the body is only digits and k copies of " \n", with 2k tokens
    ("n 5\n 1\n2 3\n4", False),
    ("n 3\n0 1\n1 2", False),
    ("n 3", False),
    ("n 3\r\n0 1\r\n1 2\r\n", False),
    ("n 3\n0 1\r\n", False),
    ("n 3\r\n0 1\n", False),
    ("n 3\n0\t1\n", False),
    ("n 3\n0  1\n", False),
    ("n 3\n 0 1\n", False),
    ("n 3\n0 1 \n", False),
    ("n 3\n0 1\n\n", False),
    ("n 12\n007 1\n", False),
    ("n 12\n007 7\n", False),
    ("n 12\n+1 2\n", False),
    ("n 12\n\u0663 1\n", False),
    ("n 12\n1 \u0661\n", False),
    ("n 3\n1 1\n", False),
    ("n 3\n0 1\n2 2\n", False),
    ("n 3\n0 3\n", False),
    ("n 3\n3 0\n", False),
    ("n 3\n0 1\n# c\n1 2\n", False),
    ("n 3\n0 1\n\n1 2\n", False),
    ("n 007\n0 1\n", False),
    ("n 07\n", False),
    ("n -2\n", False),
    ("n +3\n0 1\n", False),
    ("n \u0663\n0 1\n", False),
    ("n  3\n0 1\n", False),
    ("n\t3\n0 1\n", False),
    ("nx3\n0 1\n", False),
    ("n 3 \n0 1\n", False),
    (f"n {MAX_VERTICES + 1}\n0 1\n", False),
    ("n 100000000000\n0 1\n", False),
    pytest.param("n " + "9" * 5000 + "\n0 1\n", False, id="5000-digit count"),
    ("# c\nn 3\n0 1\n", False),
    ("\nn 3\n0 1\n", False),
    ("n 0\n0 1\n", False),
    ("", False),
    ("\n", False),
    # canonical, or accepted by the decision with the reference's result
    ("n 0\n", True),
    ("n 3\n", True),
    ("n 3\n0 1\n0 1\n", True),
    ("n 3\n2 0\n0 1\n", True),
    (f"n {MAX_VERTICES}\n{MAX_VERTICES - 1} 0\n", True),
]


@pytest.mark.parametrize("text,taken", _NEAR_CANONICAL)
def test_canonical_decision_matches_reference(text, taken):
    expected = _parse_result(reference_parse_edge_list, text)
    assert _parse_result(parse_edge_list, text) == expected
    decided = _parse_canonical(text)
    assert (decided is not None) == taken
    if taken:
        assert decided == expected


def test_canonical_decision_takes_formatted_text():
    members = [random_class_member(RandomModel(250, seed=s), "in") for s in range(3)]
    members.append(random_digraph(RandomModel(250, 0.25, 0.1, 7)))
    members.extend(d for n in range(5) for d in enumerate_digraphs(n))
    for d in members:
        text = format_edge_list(d)
        assert _parse_canonical(text) == d
        crlf = text.replace("\n", "\r\n")
        assert _parse_canonical(crlf) is None and parse_edge_list(crlf) == d


@pytest.mark.parametrize("count", [MAX_VERTICES + 1, 65537, 100_000_000_000])
def test_parse_rejects_oversized_header_without_allocating(count):
    tracemalloc.start()
    try:
        with pytest.raises(EdgeListError, match="exceeds the limit") as info:
            parse_edge_list(f"# big\nn {count}\n0 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.line == 2
    assert peak < 64 * 1024


def test_parse_accepts_header_at_limit():
    d = parse_edge_list(f"n {MAX_VERTICES}\n0 1\n")
    assert d.n == MAX_VERTICES and d.arc_count == 1


def test_equality_and_hash():
    a = Digraph(3, [(0, 1), (1, 2)])
    b = Digraph(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Digraph(3, [(0, 1)])
    assert a != Digraph(4, [(0, 1), (1, 2)])
