"""Pattern recognizers versus the naive 4-tuple oracle, plus duality."""

import random
import tracemalloc
from itertools import permutations

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
    make_extended_cycle,
    make_extension,
    parse_edge_list,
)
from arclocal.digraph import MAX_VERTICES
from arclocal.generators import (
    _random_cycle_with_tail,
    _random_front_with_spill,
    directed_cycle,
)
from arclocal.patterns import PATH_PATTERNS, PATTERN_ARCS

from oracles import (
    brute_anti_circulant_violation,
    brute_least_pattern_violation,
    brute_pattern_violation,
    reference_find_pattern_violation,
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


def _relabel(rng, d, extra=0):
    """d with its labels shuffled and ``extra`` random arcs added."""
    order = list(range(d.n))
    rng.shuffle(order)
    arcs = {(order[u], order[v]) for u, v in d.arcs()}
    while extra:
        arc = tuple(rng.sample(range(d.n), 2))
        if arc not in arcs:
            arcs.add(arc)
            extra -= 1
    return Digraph(d.n, sorted(arcs))


def _scans_agree(d):
    """Number of patterns d violates; every witness equals the reference's."""
    found = 0
    for name in PATH_PATTERNS:
        w = find_pattern_violation(d, name)
        assert w == reference_find_pattern_violation(d, name), (name, list(d.arcs()))
        found += w is not None
    return found


def test_grouped_scan_matches_reference_on_twin_parts():
    # Extended cycles and extensions have parts of twins, which the scan
    # groups under one prefilter union; a few random arcs make them violate.
    rng = random.Random(25)
    accepted = rejected = 0
    for trial in range(160):
        k = rng.choice((3, 4, 5, 7))
        sizes = [rng.randint(1, 3) for _ in range(k)]
        if trial % 2:
            d = make_extended_cycle(sizes)[0]
        else:
            template = Digraph(k, [(u, v) for u in range(k) for v in range(k)
                                   if u != v and rng.random() < 0.4])
            d = make_extension(template, sizes)
        accepted += 4 - _scans_agree(_relabel(rng, d))
        rejected += _scans_agree(_relabel(rng, d, 1 + trial % 3))
    assert accepted > 100 and rejected > 300


def _in_twin_digraph(rng, n, classes):
    """Each vertex joins one of ``classes`` classes, and all vertices of a
    class share one random in-neighbourhood drawn from outside the class."""
    cls = [rng.randrange(classes) for _ in range(n)]
    ins = [[u for u in range(n) if cls[u] != c and rng.random() < 0.4] for c in range(classes)]
    return Digraph(n, [(u, v) for v in range(n) for u in ins[cls[v]]])


def _suspect_group_shapes(d):
    """(a, b) for in_in: a says the least suspect v2 (the least v2 of a
    violating tuple) lies in a group of in-twins whose least member comes
    after that of another group holding a suspect; b says some group with a
    member below the least suspect also holds a suspect above it, either
    the least suspect's own group or one whose least member lies between."""
    suspects = {
        t[1] for t in permutations(range(d.n), 4)
        if all(d.dominates(t[i], t[j]) for i, j in PATTERN_ARCS["in_in"])
        and not d.adjacent(t[0], t[3])
    }
    if not suspects:
        return False, False
    groups = {}
    for v in range(d.n):
        if d.out_masks[v] and d.in_masks[v]:
            groups.setdefault(d.in_masks[v], []).append(v)
    least = min(suspects)
    home = next(g for g in groups.values() if least in g)
    a = any(g[0] < home[0] and suspects & set(g) for g in groups.values())
    b = any(home[0] <= g[0] < least or g is home for g in groups.values()
            if any(v > least for v in suspects & set(g)))
    return a, b


def test_grouped_scan_keeps_the_least_suspect():
    # The least suspect must win even when a group that starts earlier holds
    # a larger suspect (shape a), and a group's members must be skipped from
    # the least suspect found so far on, even when one is a suspect (shape b).
    rng = random.Random(2025)
    shapes = [0, 0]
    for trial in range(300):
        d = _in_twin_digraph(rng, 6 + trial % 4, 3 + trial % 3)
        a, b = _suspect_group_shapes(d)
        shapes[0] += a
        shapes[1] += b
        _scans_agree(d)
    assert min(shapes) >= 10, shapes


def test_grouped_scan_matches_reference_on_250_vertex_members():
    # The accept path on two 250-vertex in-members and, with random arcs
    # added, the reject path on the same shapes.
    rng = random.Random(250)
    rejected = 0
    for build in (_random_cycle_with_tail, _random_front_with_spill):
        for _ in range(2):
            d = build(rng, 250)
            assert find_pattern_violation(d, "in_in") is None
            _scans_agree(_relabel(rng, d))
            e = _relabel(rng, d, rng.randint(1, 3))
            _scans_agree(e)
            rejected += find_pattern_violation(e, "in_in") is not None
    assert rejected >= 2


def test_scan_holds_one_prefilter_union_at_a_time():
    # The longest path parse_edge_list accepts has a distinct pool at every
    # vertex, and each prefilter union is a 2 KB int; keeping one per pool
    # would take over 30 MB.  Measured: 0.8 MB (CPython 3.11), the sorted
    # vertex order.
    n = MAX_VERTICES
    d = parse_edge_list(f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        w = find_pattern_violation(d, "in_in")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert w is None
    assert peak < 4 * 2**20
