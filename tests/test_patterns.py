"""Pattern recognizers versus the naive 4-tuple oracle, plus duality."""

import random

from arclocal import (
    Digraph,
    classify,
    enumerate_digraphs,
    find_anti_circulant_violation,
    find_pattern_violation,
    is_3_anti_circulant,
    is_3_anti_quasi_transitive,
    is_3_quasi_transitive,
    is_arc_locally_in_semicomplete,
    is_arc_locally_out_semicomplete,
    is_arc_locally_semicomplete,
)
from arclocal.generators import directed_cycle
from arclocal.patterns import PATH_PATTERNS, PATTERN_ARCS

from oracles import (
    brute_anti_circulant_violation,
    brute_least_pattern_violation,
    brute_pattern_violation,
    witness_is_valid,
)

PATTERN_DIGRAPHS = {
    name: Digraph(4, [(a, b) for a, b in PATTERN_ARCS[name]])
    for name in PATH_PATTERNS
}


def test_each_pattern_digraph_violates_itself():
    for name, d in PATTERN_DIGRAPHS.items():
        w = find_pattern_violation(d, name)
        assert w is not None
        assert w.vertices == (0, 1, 2, 3)
        assert witness_is_valid(d, w)


def test_pattern_digraph_class_flags():
    # The out_out digraph has every in-degree <= 1, so it cannot contain an
    # in_in occurrence; symmetrically for the others.
    d_out = PATTERN_DIGRAPHS["out_out"]
    assert is_arc_locally_in_semicomplete(d_out)
    assert not is_arc_locally_out_semicomplete(d_out)
    d_in = PATTERN_DIGRAPHS["in_in"]
    assert not is_arc_locally_in_semicomplete(d_in)
    assert is_arc_locally_out_semicomplete(d_in)


def test_pattern_with_ends_joined_is_clean():
    d = Digraph(4, [(0, 1), (1, 2), (3, 2), (0, 3)])
    assert find_pattern_violation(d, "in_in") is None


def test_directed_five_cycle_flags():
    c5 = directed_cycle(5)
    assert is_arc_locally_in_semicomplete(c5)
    assert is_arc_locally_out_semicomplete(c5)
    assert is_arc_locally_semicomplete(c5)
    assert not is_3_quasi_transitive(c5)
    report = classify(c5)
    assert report.arc_locally_semicomplete
    assert not report.bipartite
    assert not report.three_quasi_transitive


def test_witness_is_deterministic_least_in_scan_order():
    # Two in_in violations exist around arc (1, 2) of this digraph; the
    # scan must pick v1 = 0 before v1 = 4.
    d = Digraph(5, [(0, 1), (4, 1), (1, 2), (3, 2)])
    w = find_pattern_violation(d, "in_in")
    assert w is not None and w.vertices == (0, 1, 2, 3)


def test_matches_brute_force_exhaustively_n4():
    for n in range(5):
        for d in enumerate_digraphs(n):
            for name in PATH_PATTERNS:
                fast = find_pattern_violation(d, name)
                slow = brute_pattern_violation(d, name)
                assert (fast is None) == (slow is None), (name, list(d.arcs()))
                if fast is not None:
                    assert witness_is_valid(d, fast)


def test_matches_brute_force_random_upto_n8():
    rng = random.Random(99)
    for trial in range(10_000):
        n = rng.randint(4, 8)
        p = rng.choice((0.15, 0.3, 0.5))
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < p
        ]
        d = Digraph(n, arcs)
        name = PATH_PATTERNS[trial % 4]
        fast = find_pattern_violation(d, name)
        slow = brute_pattern_violation(d, name)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert witness_is_valid(d, fast)


def _witness_tuple(d, name):
    w = find_pattern_violation(d, name)
    return None if w is None else w.vertices


def test_witness_is_least_violating_tuple():
    # The scan's witness is pinned to the least violating tuple in
    # (v2, v3, v1, v4) order: exhaustively for n <= 4, on random digraphs
    # up to the dense regime, and on semicomplete digraphs missing one pair,
    # where nearly every arc passes the v4 pool test.
    for n in range(5):
        for d in enumerate_digraphs(n):
            for name in PATH_PATTERNS:
                assert _witness_tuple(d, name) == brute_least_pattern_violation(
                    d, name
                ), (name, list(d.arcs()))
    rng = random.Random(2024)
    for trial in range(240):
        n = 5 + trial % 5
        p = (0.3, 0.6, 0.8, 0.95)[trial // 5 % 4]
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        d = Digraph(n, arcs)
        name = PATH_PATTERNS[trial // 20 % 4]
        assert _witness_tuple(d, name) == brute_least_pattern_violation(d, name), (
            name,
            arcs,
        )
    for n in range(8, 13):
        for _ in range(2):
            gone = tuple(rng.sample(range(n), 2))
            arcs = []
            for u in range(n):
                for v in range(u + 1, n):
                    if {u, v} == set(gone):
                        continue
                    r = rng.random()
                    if r < 0.5:
                        arcs.append((u, v))
                    if r >= 0.25:
                        arcs.append((v, u))
            d = Digraph(n, arcs)
            for name in PATH_PATTERNS:
                assert _witness_tuple(d, name) == brute_least_pattern_violation(
                    d, name
                ), (name, arcs)


def _core_with_attachments(rng, core, extra):
    """A semicomplete core (a quarter of its pairs digons) on 0..core-1 and
    ``extra`` further vertices, each joined by one arc to vertex 0 and to a
    few random earlier vertices.  Vertex 0 and the core vertices that every
    extra misses are adjacent to all other vertices."""
    n = core + extra
    arcs = []
    for u in range(core):
        for v in range(u + 1, core):
            r = rng.random()
            arcs += [(u, v), (v, u)] if r < 0.25 else [(u, v) if r < 0.625 else (v, u)]
    for x in range(core, n):
        for y in {0, *rng.sample(range(1, x), rng.randint(0, 2))}:
            arcs.append((x, y) if rng.random() < 0.5 else (y, x))
    order = list(range(n))
    rng.shuffle(order)
    return Digraph(n, [(order[u], order[v]) for u, v in arcs])


def test_witness_is_least_with_universal_vertices():
    # Vertices adjacent to all others are left out of the scan's prefilter
    # union; the witness must still be the least violating tuple.
    rng = random.Random(77)
    universal_seen = witnesses_seen = 0
    for trial in range(48):
        d = _core_with_attachments(rng, 4 + trial % 4, 1 + trial % 3)
        universal_seen += any(a | 1 << v == d.full_mask for v, a in enumerate(d.adj_masks))
        for name in PATH_PATTERNS:
            expected = brute_least_pattern_violation(d, name)
            witnesses_seen += expected is not None
            assert _witness_tuple(d, name) == expected, (name, list(d.arcs()))
    assert universal_seen == 48 and witnesses_seen > 100


def test_duality_exhaustive_n4():
    for n in range(5):
        for d in enumerate_digraphs(n):
            inv = d.inverse()
            assert is_arc_locally_in_semicomplete(d) == is_arc_locally_out_semicomplete(inv)
            assert is_arc_locally_out_semicomplete(d) == is_arc_locally_in_semicomplete(inv)


def test_duality_random():
    rng = random.Random(5)
    for _ in range(10_000):
        n = rng.randint(0, 8)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.3
        ]
        d = Digraph(n, arcs)
        assert is_arc_locally_in_semicomplete(d) == is_arc_locally_out_semicomplete(d.inverse())


def test_duality_maps_witness_tuples():
    # An out_out occurrence of d corresponds to the reversed in_in tuple of
    # the inverse digraph.
    rng = random.Random(17)
    for _ in range(2_000):
        n = rng.randint(4, 7)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.3
        ]
        d = Digraph(n, arcs)
        w = find_pattern_violation(d, "out_out")
        if w is None:
            continue
        v1, v2, v3, v4 = w.vertices
        from arclocal.patterns import PatternWitness

        mirrored = PatternWitness("in_in", (v4, v3, v2, v1))
        assert witness_is_valid(d.inverse(), mirrored)


def test_anti_circulant_examples():
    # Directed cycles have all in-degrees 1, so no instance exists at all.
    assert is_3_anti_circulant(directed_cycle(4))
    assert is_3_anti_circulant(directed_cycle(5))
    # The defining three arcs without the closing arc.
    open_instance = Digraph(4, [(0, 1), (2, 1), (2, 3)])
    assert not is_3_anti_circulant(open_instance)
    w = find_anti_circulant_violation(open_instance)
    assert w is not None and w.vertices == (0, 1, 2, 3)
    assert witness_is_valid(open_instance, w)
    closed_instance = Digraph(4, [(0, 1), (2, 1), (2, 3), (3, 0)])
    assert is_3_anti_circulant(closed_instance)
    # Semicomplete with a digon on every pair: the closing arc always exists.
    n = 4
    every = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])
    assert is_3_anti_circulant(every)


def test_anti_circulant_matches_brute_force():
    for n in range(5):
        for d in enumerate_digraphs(n):
            fast = find_anti_circulant_violation(d)
            slow = brute_anti_circulant_violation(d)
            assert (fast is None) == (slow is None), list(d.arcs())
            if fast is not None:
                assert witness_is_valid(d, fast)


def test_classify_single_vertex_all_flags_true():
    report = classify(Digraph(1))
    for name in report.FLAG_NAMES:
        assert report.flag(name), name
    assert report.witnesses == {}


def test_classify_report_coherence_exhaustive_n4():
    for d in enumerate_digraphs(4):
        report = classify(d)
        assert report.arc_locally_semicomplete == (
            report.arc_locally_in_semicomplete and report.arc_locally_out_semicomplete
        )
        assert report.three_quasi_transitive == is_3_quasi_transitive(d)
        assert report.three_anti_quasi_transitive == is_3_anti_quasi_transitive(d)
        assert is_arc_locally_semicomplete(d) == report.arc_locally_semicomplete
        for name, w in report.witnesses.items():
            assert not report.flag(name)
            assert witness_is_valid(d, w)
        for name in (
            "arc_locally_in_semicomplete",
            "arc_locally_out_semicomplete",
            "arc_locally_semicomplete",
            "three_quasi_transitive",
            "three_anti_quasi_transitive",
            "three_anti_circulant",
        ):
            if not report.flag(name):
                assert name in report.witnesses
