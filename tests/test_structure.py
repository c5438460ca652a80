"""Strong components, extended cycles, clique cuts and cycle searches."""

import inspect
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arclocal import (
    CapExceeded,
    Digraph,
    ExtendedCycleCertificate,
    check_extended_cycle_certificate,
    enumerate_digraphs,
    find_induced_nonoriented_odd_cycle_ge5,
    find_induced_odd_directed_cycle_ge5,
    make_extended_cycle,
    recognize_extended_cycle,
    recognize_odd_extended_cycle,
    strong_components,
    verify_clique_cut,
)
from arclocal.decompose import (
    decompose_in_semicomplete,
    is_diperfect_in_class,
    verify_decomposition,
)
from arclocal.digraph import MAX_VERTICES, bits, mask_of, parse_edge_list
from arclocal.generators import directed_cycle, directed_path, digraph_from_index
from arclocal.structure import (
    chordless_cycle_order,
    directed_cycle_order,
    may_have_odd_extended_cycle_component,
    odd_extended_cycle_components,
)
from arclocal.sweeps import lemma_failures

from oracles import (
    brute_is_clique_cut,
    brute_is_extended_cycle,
    brute_strong_components,
    counting_guard,
)


def random_digraph(rng, n, p=0.3):
    return Digraph(
        n,
        [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p],
    )


# ----------------------------------------------------------------------
# strong components
# ----------------------------------------------------------------------


def test_strong_components_examples():
    d = Digraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 3), (4, 5)])
    sd = strong_components(d)
    assert set(map(frozenset, sd.components)) == {
        frozenset({0, 1, 2}),
        frozenset({3, 4}),
        frozenset({5}),
    }
    assert [sd.component_of[v] for v in range(6)] == [0, 0, 0, 1, 1, 2]


def test_strong_components_match_brute_force():
    rng = random.Random(3)
    for n in range(4):
        for d in enumerate_digraphs(n):
            sd = strong_components(d)
            assert set(map(frozenset, sd.components)) == brute_strong_components(d)
    for _ in range(500):
        d = random_digraph(rng, rng.randint(1, 9))
        sd = strong_components(d)
        assert set(map(frozenset, sd.components)) == brute_strong_components(d)


def test_condensation_is_acyclic_and_topological():
    rng = random.Random(11)
    for _ in range(500):
        d = random_digraph(rng, rng.randint(1, 9))
        sd = strong_components(d)
        # Arcs between components must go from lower to higher index: that
        # is both a topological order and a proof of acyclicity.
        for u, v in d.arcs():
            assert sd.component_of[u] <= sd.component_of[v]


@st.composite
def small_digraphs(draw, max_n=12):
    """Digraphs on at most max_n vertices, one out-mask per vertex; shrinks
    toward fewer vertices and fewer arcs."""
    n = draw(st.integers(0, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    return Digraph(
        n, [(u, v) for u, row in enumerate(rows) for v in range(n) if u != v and row >> v & 1]
    )


@settings(derandomize=True, max_examples=400, deadline=None)
@given(small_digraphs())
def test_strong_components_match_oracle_hypothesis(d):
    sd = strong_components(d)
    assert set(map(frozenset, sd.components)) == brute_strong_components(d)
    for i, comp in enumerate(sd.components):
        assert comp == tuple(sorted(comp))
        assert sd.masks[i] == mask_of(comp)
        assert all(sd.component_of[v] == i for v in comp)
    assert all(sd.component_of[u] <= sd.component_of[v] for u, v in d.arcs())


def test_strong_component_order_pins():
    # Roots in increasing order, lowest neighbour first, components numbered
    # in reverse finishing order.
    assert strong_components(Digraph(3)).components == ((2,), (1,), (0,))
    assert strong_components(Digraph(3, [(0, 1), (0, 2)])).components == ((0,), (2,), (1,))
    sd = strong_components(Digraph(4, [(0, 1), (2, 3)]))
    assert sd.components == ((2,), (3,), (0,), (1,))
    assert sd.component_of == (2, 3, 0, 1)
    sd = strong_components(Digraph(5, [(0, 2), (2, 0), (1, 3), (3, 4), (4, 1), (4, 2)]))
    assert sd.components == ((1, 3, 4), (0, 2))


def test_decompose_and_verify_allocate_less_than_the_digraph():
    # A directed path is diperfect and has one component per vertex, so the
    # condensation, which neither call reads, would be as large as d itself.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = directed_path(4096)
        size = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dec = decompose_in_semicomplete(d)
        verdict = verify_decomposition(d, dec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert dec.kind == "diperfect" and verdict == (True, None)
    assert peak <= size


def test_longest_accepted_path_fits_a_memory_bound():
    # The largest input parse_edge_list accepts, on its sparsest connected
    # shape.  Each of its three mask tuples holds about n**2 / 16 bytes, and
    # the strong components' masks add as much again.  Measured: 76 MB peak
    # for parse, decompose and verify together (CPython 3.11); pinned at
    # 96 MiB, a margin of about 30 %.
    n = MAX_VERTICES
    text = f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        d = parse_edge_list(text)
        dec = decompose_in_semicomplete(d)
        verdict = verify_decomposition(d, dec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert d.n == 16_384
    assert dec.kind == "diperfect" and verdict == (True, None)
    assert peak < 96 * 2**20


@pytest.mark.parametrize(
    "shape, expected",
    [("path", 20_000), ("reversed path", 20_000), ("cycle", 1)],
)
def test_strong_components_deep_inputs(shape, expected):
    n = 20_000
    arcs = {
        "path": [(i, i + 1) for i in range(n - 1)],
        "reversed path": [(i + 1, i) for i in range(n - 1)],
        "cycle": [(i, (i + 1) % n) for i in range(n)],
    }[shape]
    d = Digraph(n, arcs)
    limit = sys.getrecursionlimit()
    # Any recursion deeper than a few frames would now raise RecursionError.
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        start = time.perf_counter()
        sd = strong_components(d)
        elapsed = time.perf_counter() - start
    finally:
        sys.setrecursionlimit(limit)
    assert len(sd.components) == expected
    comp_of = sd.component_of
    assert len({(comp_of[u], comp_of[v]) for u, v in arcs if comp_of[u] != comp_of[v]}) == (
        expected - 1
    )
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# extended cycles
# ----------------------------------------------------------------------


def test_recognize_directed_cycles():
    for k in (3, 4, 5, 6, 7):
        cert = recognize_extended_cycle(directed_cycle(k))
        assert cert is not None
        assert cert.parts == tuple((i,) for i in range(k))
    assert recognize_extended_cycle(directed_cycle(2)) is None  # digon: k < 3


def test_recognize_nine_vertex_example():
    d, cert = make_extended_cycle((2, 1, 3, 2, 1))
    assert recognize_extended_cycle(d) == cert
    assert recognize_odd_extended_cycle(d) == cert
    assert cert.part_sizes == (2, 1, 3, 2, 1)
    assert cert.k == 5
    assert cert.vertices() == tuple(range(9))


def test_recognize_rejects_near_misses():
    d, cert = make_extended_cycle((2, 1, 3, 2, 1))
    arcs = set(d.arcs())
    # Remove one cross arc: part no longer fully dominates its successor.
    broken = Digraph(d.n, arcs - {(0, 2)})
    assert recognize_extended_cycle(broken) is None
    # Add a chord between non-consecutive parts.
    chorded = Digraph(d.n, arcs | {(0, 3)})
    assert recognize_extended_cycle(chorded) is None
    # Add an arc inside a part (parts must be stable).
    unstable = Digraph(d.n, arcs | {(3, 4)})
    assert recognize_extended_cycle(unstable) is None
    # Reversing one arc breaks the cyclic structure.
    reversed_arc = Digraph(d.n, (arcs - {(2, 3)}) | {(3, 2)})
    assert recognize_extended_cycle(reversed_arc) is None


def test_odd_filter():
    even, _ = make_extended_cycle((1, 2, 1, 1))
    assert recognize_extended_cycle(even) is not None
    assert recognize_odd_extended_cycle(even) is None
    tri, _ = make_extended_cycle((2, 2, 2))
    assert recognize_odd_extended_cycle(tri) is None
    odd, _ = make_extended_cycle((1, 1, 1, 1, 1, 1, 1))
    assert recognize_odd_extended_cycle(odd) is not None


def test_recognize_matches_brute_force_exhaustive_n4():
    for n in range(5):
        for d in enumerate_digraphs(n):
            got = recognize_extended_cycle(d)
            expected = brute_is_extended_cycle(d)
            assert (got is not None) == expected, list(d.arcs())
            if got is not None:
                ok, reason = check_extended_cycle_certificate(d, got.parts)
                assert ok, reason
                assert got.vertices() == tuple(range(n))


def test_recognize_matches_brute_force_sampled_n5():
    rng = random.Random(29)
    total = 4**10
    for _ in range(3_000):
        d = digraph_from_index(5, rng.randrange(total))
        got = recognize_extended_cycle(d)
        assert (got is not None) == brute_is_extended_cycle(d)


def test_certificate_round_trip():
    rng = random.Random(31)
    for _ in range(100):
        k = rng.choice((3, 4, 5, 6, 7))
        sizes = tuple(rng.randint(1, 3) for _ in range(k))
        d, cert = make_extended_cycle(sizes)
        rebuilt_arcs = set()
        for i, part in enumerate(cert.parts):
            nxt = cert.parts[(i + 1) % cert.k]
            for u in part:
                for v in nxt:
                    rebuilt_arcs.add((u, v))
        assert rebuilt_arcs == set(d.arcs())


def test_certificate_canonical_start_and_direction():
    d, cert = make_extended_cycle((2, 1, 2))
    # Part 0 holds vertex 0 and each part dominates the next.
    assert 0 in cert.parts[0]
    out_of_part0 = set()
    for u in cert.parts[0]:
        out_of_part0.update(v for v in range(d.n) if v != u and d.dominates(u, v))
    assert out_of_part0 == set(cert.parts[1])


def test_check_certificate_rejects_malformed():
    d, cert = make_extended_cycle((2, 1, 3, 2, 1))
    ok, _ = check_extended_cycle_certificate(d, cert.parts)
    assert ok
    bad_overlap = (cert.parts[0], cert.parts[0], cert.parts[2])
    assert not check_extended_cycle_certificate(d, bad_overlap)[0]
    bad_empty = (cert.parts[0], (), cert.parts[2])
    assert not check_extended_cycle_certificate(d, bad_empty)[0]
    bad_range = ((0, 99), cert.parts[1], cert.parts[2])
    assert not check_extended_cycle_certificate(d, bad_range)[0]
    too_few = (cert.parts[0], cert.parts[1])
    assert not check_extended_cycle_certificate(d, too_few)[0]
    rotated_wrong = (cert.parts[0], cert.parts[2], cert.parts[1], cert.parts[3], cert.parts[4])
    assert not check_extended_cycle_certificate(d, rotated_wrong)[0]


def test_check_certificate_on_subset_of_digraph():
    # Vertex 5 dominates into the cycle on 0..4; the certificate restricted
    # to the cycle must still verify.
    c5 = directed_cycle(5)
    arcs = list(c5.arcs()) + [(5, 0), (5, 1), (5, 2), (5, 3), (5, 4)]
    d = Digraph(6, arcs)
    parts = tuple((i,) for i in range(5))
    ok, reason = check_extended_cycle_certificate(d, parts)
    assert ok, reason


def _recognized_on_copy(d, mask, recognize):
    """Recognition of the induced copy d[mask], mapped back to d's labels."""
    sub, labels = d.induced(bits(mask))
    cert = recognize(sub)
    if cert is None:
        return None
    return ExtendedCycleCertificate(tuple(tuple(labels[v] for v in part) for part in cert.parts))


def test_recognize_on_mask_matches_induced_copy_exhaustive_n4():
    for n in range(5):
        for d in enumerate_digraphs(n):
            for mask in range(1 << n):
                for recognize in (recognize_extended_cycle, recognize_odd_extended_cycle):
                    assert recognize(d, mask) == _recognized_on_copy(d, mask, recognize), (
                        list(d.arcs()),
                        mask,
                    )


@st.composite
def masked_digraphs(draw, max_n=12):
    """A digraph on at most max_n vertices and a vertex mask.  Half the
    draws plant an extended cycle with random part sizes and labels; its
    vertex set, possibly with one vertex toggled, is then the mask.  Returns
    (digraph, mask, whether the mask is exactly the planted cycle)."""
    plant = draw(st.booleans())
    n = draw(st.integers(3 if plant else 0, max_n))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    arcs = {(u, v) for u, row in enumerate(rows) for v in range(n) if u != v and row >> v & 1}
    if not plant:
        return Digraph(n, arcs), draw(st.integers(0, (1 << n) - 1)), False
    k = draw(st.integers(3, n))
    used = draw(st.integers(k, n))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.permutations(range(1, used)))[: k - 1])
    parts = [order[a:b] for a, b in zip([0, *cuts], [*cuts, used])]
    members = set(order[:used])
    arcs = {(u, v) for u, v in arcs if u not in members or v not in members}
    arcs |= {(u, v) for i, part in enumerate(parts) for u in part for v in parts[(i + 1) % k]}
    toggle = draw(st.sampled_from([1 << v for v in range(n)])) if draw(st.booleans()) else 0
    return Digraph(n, arcs), mask_of(members) ^ toggle, toggle == 0


@settings(derandomize=True, max_examples=400, deadline=None)
@given(masked_digraphs())
def test_recognize_on_mask_matches_induced_copy_hypothesis(drawn):
    d, mask, planted = drawn
    for recognize in (recognize_extended_cycle, recognize_odd_extended_cycle):
        assert recognize(d, mask) == _recognized_on_copy(d, mask, recognize)
        assert recognize(d, d.full_mask) == recognize(d)
    if planted:
        assert recognize_extended_cycle(d, mask) is not None
    expected = []
    for comp in strong_components(d).components:
        if len(comp) >= 5:
            cert = _recognized_on_copy(d, mask_of(comp), recognize_odd_extended_cycle)
            if cert is not None:
                expected.append((mask_of(comp), cert))
    assert odd_extended_cycle_components(d) == expected


def _assert_guard_sound(d):
    # The guard stops at the first vertex that leaves fewer than 5
    # candidates; it must still agree with counting every vertex.
    may_have = may_have_odd_extended_cycle_component(d)
    assert may_have == counting_guard(d), list(d.arcs())
    if not may_have:
        # Decided on every component directly: odd_extended_cycle_components
        # runs this guard itself and would return [] unseen.
        masks = strong_components(d).masks
        assert all(recognize_odd_extended_cycle(d, m) is None for m in masks)


def test_guard_rules_out_odd_components_exhaustive(n5_in_member_indices):
    for n in range(5):
        for d in enumerate_digraphs(n):
            _assert_guard_sound(d)
    # The inverses of the n=5 in-members are exactly the n=5 out-members.
    for index in n5_in_member_indices:
        d = digraph_from_index(5, index)
        _assert_guard_sound(d)
        _assert_guard_sound(d.inverse())


@settings(derandomize=True, max_examples=400, deadline=None)
@given(masked_digraphs())
def test_guard_rules_out_odd_components_hypothesis(drawn):
    _assert_guard_sound(drawn[0])


def test_guard_passes_the_directed_five_cycle():
    d, cert = make_extended_cycle((1,) * 5)
    assert may_have_odd_extended_cycle_component(d)
    dec = decompose_in_semicomplete(d)
    assert dec.kind == "tripartition" and dec.cert == cert
    assert verify_decomposition(d, dec) == (True, None)


def test_odd_component_selection_rules_on_two_five_cycles():
    # Two directed 5-cycles, on the even and on the odd vertices 0..9, both
    # dominated by vertex 10.  Component order puts the odd cycle first.
    evens, odds = (0, 2, 4, 6, 8), (1, 3, 5, 7, 9)
    arcs = [(c[i], c[(i + 1) % 5]) for c in (evens, odds) for i in range(5)]
    d = Digraph(11, arcs + [(10, v) for v in range(10)])
    sd = strong_components(d)
    assert [m for m, _ in odd_extended_cycle_components(d)] == [sd.masks[1], sd.masks[2]]
    assert sd.components[1] == odds
    # The decomposer takes the component holding the smallest vertex; the
    # cycle search takes the first component in component order.
    assert is_diperfect_in_class(d) == (False, evens)
    assert find_induced_odd_directed_cycle_ge5(d) == odds
    assert lemma_failures(d) == []
    # Without vertex 10 the digraph is disconnected; both rules still apply,
    # and both cycles are initial, so fact 4 checks neither.
    two = Digraph(10, arcs)
    assert is_diperfect_in_class(two) == (False, evens)
    assert find_induced_odd_directed_cycle_ge5(two) == odds
    assert lemma_failures(two) == []
    # Fact 4 checks every non-initial odd component, in component order.
    partial = Digraph(11, arcs + [(10, 0), (10, 1)])
    assert lemma_failures(partial) == [
        "vertex 10 dominates into non-bipartite component (1, 3, 5, 7, 9) "
        "without strictly dominating it",
        "vertex 10 dominates into non-bipartite component (0, 2, 4, 6, 8) "
        "without strictly dominating it",
        "components reaching odd extended cycle (1, 3, 5, 7, 9) do not strictly dominate it",
        "components reaching odd extended cycle (0, 2, 4, 6, 8) do not strictly dominate it",
    ]


# ----------------------------------------------------------------------
# clique cuts
# ----------------------------------------------------------------------


def test_verify_clique_cut():
    path = directed_path(3)
    assert verify_clique_cut(path, [1])
    assert not verify_clique_cut(path, [0])
    assert not verify_clique_cut(path, [])
    # Cut set must induce a semicomplete subdigraph.
    d = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert not verify_clique_cut(d, [1, 3])  # 1 and 3 non-adjacent
    # Removing everything is not a cut.
    assert not verify_clique_cut(directed_cycle(3), [0, 1, 2])


def test_verify_clique_cut_matches_oracle_exhaustive_n4():
    for n in range(5):
        for d in enumerate_digraphs(n):
            for mask in range(1 << n):
                cut = list(bits(mask))
                assert verify_clique_cut(d, cut) == brute_is_clique_cut(d, cut), (
                    list(d.arcs()),
                    cut,
                )
    for bad in ([3], [-1], [0, 4]):
        with pytest.raises(ValueError):
            verify_clique_cut(directed_path(3), bad)


# ----------------------------------------------------------------------
# cycle searches
# ----------------------------------------------------------------------


def test_directed_cycle_order():
    c5 = directed_cycle(5)
    assert directed_cycle_order(c5, range(5)) == (0, 1, 2, 3, 4)
    assert directed_cycle_order(c5, [0, 1, 2]) is None
    digon = Digraph(2, [(0, 1), (1, 0)])
    assert directed_cycle_order(digon, [0, 1]) == (0, 1)
    with_chord = Digraph(5, list(c5.arcs()) + [(0, 2)])
    assert directed_cycle_order(with_chord, range(5)) is None
    two_triangles = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert directed_cycle_order(two_triangles, range(6)) is None


def test_chordless_cycle_order():
    c5 = directed_cycle(5).underlying_graph()
    assert chordless_cycle_order(c5, range(5)) == (0, 1, 2, 3, 4)
    assert chordless_cycle_order(c5, [0, 1, 2]) is None
    k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u < v]).underlying_graph()
    assert chordless_cycle_order(k4, range(4)) is None


def test_find_induced_odd_directed_cycle_ge5():
    assert find_induced_odd_directed_cycle_ge5(directed_cycle(5)) == (0, 1, 2, 3, 4)
    assert find_induced_odd_directed_cycle_ge5(directed_cycle(4)) is None
    assert find_induced_odd_directed_cycle_ge5(directed_cycle(7)) == tuple(range(7))
    # In-class fast path has no cap: an extended 5-cycle on 15 vertices.
    big, cert = make_extended_cycle((3, 3, 3, 3, 3))
    cycle = find_induced_odd_directed_cycle_ge5(big, cap=5)
    assert cycle is not None and len(cycle) == 5
    assert directed_cycle_order(big, cycle) is not None


def test_find_induced_odd_directed_cycle_ge5_subset_path():
    # Out-of-class digraph: a directed 5-cycle plus a pattern violation away
    # from it.  The subset search must still find the cycle.
    c5 = directed_cycle(5)
    arcs = list(c5.arcs()) + [(5, 6), (6, 7), (8, 7)]
    d = Digraph(9, arcs)
    assert find_induced_odd_directed_cycle_ge5(d) == (0, 1, 2, 3, 4)
    with pytest.raises(CapExceeded):
        find_induced_odd_directed_cycle_ge5(d, cap=8)


def test_find_induced_nonoriented_odd_cycle_ge5():
    # A 5-cycle with one arc reversed: chordless odd in the underlying
    # graph but not a directed cycle.
    reversed_one = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert find_induced_nonoriented_odd_cycle_ge5(reversed_one) == (0, 1, 2, 3, 4)
    # The directed 5-cycle itself does not qualify.
    assert find_induced_nonoriented_odd_cycle_ge5(directed_cycle(5)) is None
    # A digon on one edge of the cycle also disqualifies "directed".
    digon_edge = Digraph(5, list(directed_cycle(5).arcs()) + [(1, 0)])
    assert find_induced_nonoriented_odd_cycle_ge5(digon_edge) == (0, 1, 2, 3, 4)
    assert find_induced_nonoriented_odd_cycle_ge5(directed_cycle(4)) is None
    with pytest.raises(CapExceeded):
        find_induced_nonoriented_odd_cycle_ge5(Digraph(13), cap=12)
    assert find_induced_nonoriented_odd_cycle_ge5(Digraph(13), cap=13) is None
