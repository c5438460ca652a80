"""Enumeration, constructors, random models and brute-force oracles."""

import random
from collections import Counter
from itertools import chain, combinations, product

import pytest

from arclocal import (
    CapExceeded,
    Digraph,
    RandomModel,
    UndirectedGraph,
    brute_force_has_clique_cut,
    brute_force_is_perfect,
    digraph_count,
    digraph_from_index,
    enumerate_digraphs,
    make_extended_cycle,
    make_extension,
    random_class_member,
    random_digraph,
)
from arclocal.digraph import format_edge_list
from arclocal.generators import (
    _class_table,
    _in_class,
    _mask_table,
    _pair_masks,
    _row_keys,
    compose,
    directed_cycle,
    directed_path,
    enumerate_members,
    enumeration_rows,
    vertex_pairs,
)
from arclocal.patterns import find_pattern_violation

from oracles import (
    brute_is_perfect_by_coloring,
    brute_pattern_violation,
    digraph_index,
    reference_digit_gather,
)


# ----------------------------------------------------------------------
# exhaustive enumeration
# ----------------------------------------------------------------------


def test_enumeration_counts():
    assert digraph_count(0) == 1
    assert digraph_count(1) == 1
    assert digraph_count(2) == 4
    assert digraph_count(3) == 64
    assert digraph_count(4) == 4096
    assert digraph_count(5) == 1_048_576
    for n in range(5):
        assert sum(1 for _ in enumerate_digraphs(n)) == digraph_count(n)


def test_enumeration_has_no_duplicates():
    for n in range(5):
        seen = set()
        for d in enumerate_digraphs(n):
            assert d not in seen
            seen.add(d)


def test_enumeration_order_matches_indices():
    for n in range(4):
        for i, d in enumerate(enumerate_digraphs(n)):
            assert digraph_index(d) == i
            assert digraph_from_index(n, i) == d


def _same_masks(a, b):
    return (a.n, a.out_masks, a.in_masks, a.adj_masks) == (
        b.n,
        b.out_masks,
        b.in_masks,
        b.adj_masks,
    )


def test_enumeration_replays_through_index():
    # Every mask of every enumerated digraph, not just equality on out-masks.
    for n in range(5):
        for i, d in enumerate(enumerate_digraphs(n)):
            assert _same_masks(d, digraph_from_index(n, i)), (n, i)
    total = digraph_count(5)
    rng = random.Random(17)
    wanted = {0, total - 1, *(rng.randrange(total) for _ in range(1_000))}
    checked = 0
    for i, d in enumerate(enumerate_digraphs(5)):
        if i in wanted:
            assert _same_masks(d, digraph_from_index(5, i)), i
            checked += 1
    assert checked == len(wanted) and i == total - 1


def test_index_round_trip_sampled_n5():
    rng = random.Random(7)
    for _ in range(2_000):
        i = rng.randrange(digraph_count(5))
        assert digraph_index(digraph_from_index(5, i)) == i


def test_index_extremes():
    assert digraph_from_index(3, 0) == Digraph(3)
    last = digraph_from_index(3, 63)
    assert all(last.adjacent(u, v) for u in range(3) for v in range(u + 1, 3))
    assert len(list(last.arcs())) == 6  # all digons
    with pytest.raises(ValueError):
        digraph_from_index(3, 64)
    with pytest.raises(ValueError):
        digraph_from_index(3, -1)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        next(enumerate_digraphs(6))
    with pytest.raises(ValueError):
        next(enumerate_digraphs(-1))


def test_member_walk_matches_brute_force_filter():
    for n in range(5):
        expected = {"in": [], "out": [], "als": []}
        for i, d in enumerate(enumerate_digraphs(n)):
            if not d.is_connected():
                continue
            in_free = brute_pattern_violation(d, "in_in") is None
            out_free = brute_pattern_violation(d, "out_out") is None
            for cls, member in (("in", in_free), ("out", out_free), ("als", in_free and out_free)):
                if member:
                    expected[cls].append(i)
        for cls, indices in expected.items():
            walked = [(i, digraph_index(d)) for i, d in enumerate_members(n, cls)]
            assert walked == [(i, i) for i in indices], (n, cls)


def test_member_walk_matches_filter_on_n5_rows():
    low, high = enumeration_rows(5)
    rng = random.Random(5)
    for h in sorted(rng.sample(range(high), 64)):
        rows = range(h, h + 1)
        digraphs = list(enumerate(enumerate_digraphs(5, rows=rows), h * low))
        connected = [(i, d) for i, d in digraphs if d.is_connected()]
        for cls in ("in", "out", "als"):
            expected = [i for i, d in connected if _in_class(d, cls)]
            walked = list(enumerate_members(5, cls, rows))
            assert [i for i, _ in walked] == expected, (h, cls)
            assert all(digraph_index(d) == i for i, d in walked)


@pytest.mark.parametrize("n", range(6))
def test_row_keys_match_digit_gathering(n):
    # Every row of both halves: the digits of each 4-subset, and every digit
    # at its place in the whole enumeration index.
    pairs = vertex_pairs(n)
    half = len(pairs) // 2
    shifts = [
        {pair: 2 * j for j, pair in enumerate(combinations(subset, 2))}
        for subset in combinations(range(n), 4)
    ]
    shifts.append({pair: 2 * i for i, pair in enumerate(pairs)})
    for part in (pairs[:half], pairs[half:]):
        for shift in shifts:
            keys = _row_keys(part, lambda p, state: state << shift[p] if p in shift else 0)
            gather = reference_digit_gather([(i, shift[p]) for i, p in enumerate(part) if p in shift])
            assert keys == [gather(r) for r in range(4 ** len(part))], (n, shift)


@pytest.mark.parametrize("n", range(7))
def test_mask_tables_match_per_row_pair_masks(n):
    # The tables built pair by pair against each row decoded from its
    # base-4 digits: both halves for n <= 5, the low half (4,096 rows) at 6.
    pairs = vertex_pairs(n)
    half = len(pairs) // 2
    for part in (pairs[:half], pairs[half:]) if n <= 5 else (pairs[:half],):
        rows = [tuple(map(tuple, _pair_masks(n, part, r))) for r in range(4 ** len(part))]
        assert _mask_table(n, part) == rows, n


def test_member_walk_cap_and_class():
    with pytest.raises(CapExceeded):
        next(enumerate_members(6, "in"))
    with pytest.raises(ValueError):
        next(enumerate_members(3, "everything"))


# ----------------------------------------------------------------------
# member orientations of holes and antiholes
# ----------------------------------------------------------------------

_CLASS_PATTERNS = {"in": "in_in", "out": "out_out"}


def _orientations(n, edges):
    """Every orientation of the graph with these edges (u < v): each edge
    becomes u -> v, v -> u or a digon, in that order, the first edge
    varying slowest."""
    choices = [(((u, v),), ((v, u),), ((u, v), (v, u))) for u, v in edges]
    for arcs in product(*choices):
        yield Digraph(n, chain.from_iterable(arcs))


def _members_by_scan(n, edges):
    """Member orientations per class: each orientation is built once and
    scanned with find_pattern_violation for every class."""
    found = {cls: set() for cls in _CLASS_PATTERNS}
    for d in _orientations(n, edges):
        for cls, pattern in _CLASS_PATTERNS.items():
            if find_pattern_violation(d, pattern) is None:
                found[cls].add(d)
    return found


def _members_by_table(n, edges, cls):
    """Member orientations whose every 4-subset is a member by _class_table.

    Backtracks over the edges: a 4-subset is looked up once all its edges
    have states, and a failed lookup prunes every extension.  The subset's
    enumeration index has one base-4 digit per pair in order, the pair's
    state, 0 for a non-edge; a subset without edges is always a member.
    """
    table = _class_table(cls)
    slot = {e: i for i, e in enumerate(edges)}
    due = [[] for _ in edges]  # digits of the subsets complete at edge i
    for quad in combinations(range(n), 4):
        digits = [(slot[p], 2 * t) for t, p in enumerate(combinations(quad, 2)) if p in slot]
        if digits:
            due[max(i for i, _ in digits)].append(digits)
    found = set()
    states = [0] * len(edges)

    def extend(i):
        if i == len(edges):
            arcs = [(u, v) for (u, v), s in zip(edges, states) if s & 1]
            found.add(Digraph(n, arcs + [(v, u) for (u, v), s in zip(edges, states) if s & 2]))
            return
        for states[i] in (1, 2, 3):
            if all(table[sum(states[j] << shift for j, shift in digits)] for digits in due[i]):
                extend(i + 1)

    extend(0)
    return found


def test_no_orientation_of_the_p6_complement_is_a_member():
    # Every odd antihole on >= 7 vertices induces the complement of P6, and
    # the classes are hereditary, so no member has an odd antihole above C5.
    edges = [(u, v) for u, v in combinations(range(6), 2) if v - u > 1]
    assert len(edges) == 10  # 3**10 = 59,049 orientations
    assert _members_by_scan(6, edges) == {"in": set(), "out": set()}
    for cls in _CLASS_PATTERNS:
        assert _members_by_table(6, edges, cls) == set()


@pytest.mark.parametrize("k", range(5, 10))
def test_member_orientations_of_holes(k):
    # The only odd member orientations of C_k are the two directed cycles.
    edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    by_scan = _members_by_scan(k, edges)
    for cls in _CLASS_PATTERNS:
        assert _members_by_table(k, edges, cls) == by_scan[cls]
        assert len(by_scan[cls]) == (2 if k % 2 else 4)
        cycles = {directed_cycle(k), directed_cycle(k).inverse()}
        assert cycles <= by_scan[cls]
        if k % 2:
            assert by_scan[cls] == cycles


# States of a pair (u, v), u < v, as base-4 digits of enumeration indices.
_FORWARD, _BACKWARD, _DIGON = 1, 2, 3
_STATES = (_FORWARD, _BACKWARD, _DIGON)


def _window_graph(cls):
    """Arcs of the window graph: (a, b) -> (b, c) when the path 0-1-2-3 with
    edge states a, b, c is a member.  Its pairs (0, 1), (1, 2) and (2, 3)
    are digits 0, 3 and 5 of the index; the other three are non-edges."""
    table = _class_table(cls)
    return {
        ((a, b), (b, c))
        for a, b, c in product(_STATES, repeat=3)
        if table[a + b * 4**3 + c * 4**5]
    }


@pytest.mark.parametrize("cls", ["in", "out"])
def test_hole_window_graph(cls):
    # In a hole C_k with k >= 5, only four consecutive vertices induce a P4.
    # Every other 4-subset induces P3 + K1, 2K2, K2 + 2K1 or no edge, and
    # every orientation of those is a member (membership ignores labels, so
    # one labelling of each is checked).  So an orientation of C_k is a
    # member iff each window is, and the member orientations are the closed
    # k-walks of the window graph, read from any vertex along the cycle.
    table = _class_table(cls)
    for edges in ([(0, 1), (1, 2)], [(0, 1), (2, 3)], [(0, 1)], []):
        assert all(table[digraph_index(d)] for d in _orientations(4, edges))
    arcs = _window_graph(cls)
    nodes = list(product(_STATES, repeat=2))
    succ = {u: {v for w, v in arcs if w == u} for u in nodes}
    reach = succ  # nodes at the end of a walk of >= 1 step
    for _ in nodes:
        reach = {u: vs.union(*(succ[v] for v in vs)) for u, vs in reach.items()}
    cyclic = {frozenset(v for v in reach[u] if u in reach[v]) for u in nodes if u in reach[u]}
    loops = {u for u in nodes if u in succ[u]}
    # Two loops, all arcs forward or all backward, and one 2-cycle, the
    # alternating orientation; every other node lies on no cycle.
    assert cyclic == {
        frozenset({(_FORWARD, _FORWARD)}),
        frozenset({(_BACKWARD, _BACKWARD)}),
        frozenset({(_FORWARD, _BACKWARD), (_BACKWARD, _FORWARD)}),
    }
    assert loops == {(_FORWARD, _FORWARD), (_BACKWARD, _BACKWARD)}
    # Hence C_k has 2 member orientations for odd k and 4 for even k, for
    # every k >= 5: the closed k-walks, counted here as the trace of A^k.
    walks = {u: Counter({u: 1}) for u in nodes}  # walks[u][v]: k-step walks u -> v
    for k in range(1, 41):
        for u, ends in walks.items():
            longer = walks[u] = Counter()
            for v, count in ends.items():
                for w in succ[v]:
                    longer[w] += count
        if k >= 5:
            assert sum(walks[u][u] for u in nodes) == (2 if k % 2 else 4)


def test_vertex_pairs_order():
    assert vertex_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def test_make_extended_cycle_validation():
    with pytest.raises(ValueError):
        make_extended_cycle((1, 1))
    with pytest.raises(ValueError):
        make_extended_cycle((2, 0, 1))
    d, cert = make_extended_cycle((1, 1, 1))
    assert d == directed_cycle(3)
    assert cert.parts == ((0,), (1,), (2,))


def test_compose_identity_and_shapes():
    single = Digraph(1)
    inner = Digraph(3, [(0, 1), (1, 2)])
    assert compose(single, [inner]) == inner
    with pytest.raises(ValueError):
        compose(directed_path(2), [inner])
    # Composing an arc template duplicates the cross arcs completely.
    left = Digraph(2, [(0, 1)])
    right = Digraph(1)
    d = compose(directed_path(2), [left, right])
    assert set(d.arcs()) == {(0, 1), (0, 2), (1, 2)}


def test_extension_of_cycle_equals_extended_cycle():
    rng = random.Random(17)
    for _ in range(200):
        k = rng.randint(3, 9)
        sizes = tuple(rng.randint(1, 4) for _ in range(k))
        via_extension = make_extension(directed_cycle(k), sizes)
        via_constructor, _ = make_extended_cycle(sizes)
        assert via_extension == via_constructor
    with pytest.raises(ValueError):
        make_extension(directed_cycle(3), (1, 1))
    with pytest.raises(ValueError):
        make_extension(directed_cycle(3), (1, 0, 1))


def test_path_and_cycle_validation():
    with pytest.raises(ValueError):
        directed_cycle(1)
    with pytest.raises(ValueError):
        directed_path(0)
    assert directed_path(1) == Digraph(1)
    assert directed_cycle(2) == Digraph(2, [(0, 1), (1, 0)])


# ----------------------------------------------------------------------
# random models
# ----------------------------------------------------------------------


def test_random_model_validation():
    with pytest.raises(ValueError):
        RandomModel(-1)
    with pytest.raises(ValueError):
        RandomModel(3, p_arc=1.5)
    with pytest.raises(ValueError):
        RandomModel(3, p_digon=-0.1)


def test_random_digraph_is_seed_deterministic():
    a = random_digraph(RandomModel(9, seed=42))
    b = random_digraph(RandomModel(9, seed=42))
    assert format_edge_list(a) == format_edge_list(b)
    c = random_digraph(RandomModel(9, seed=43))
    assert a != c  # overwhelmingly likely, and fixed by the seeds above


def test_random_digraph_extremes():
    empty = random_digraph(RandomModel(6, p_arc=0.0, p_digon=0.0, seed=1))
    assert list(empty.arcs()) == []
    full = random_digraph(RandomModel(6, p_arc=1.0, p_digon=0.0, seed=1))
    assert all(full.adjacent(u, v) for u in range(6) for v in range(u + 1, 6))


def test_random_class_member_is_verified_member():
    for i in range(200):
        cls = ("in", "out", "als")[i % 3]
        n = 6 + i % 5
        d = random_class_member(RandomModel(n, seed=900_000 + i), cls)
        assert d is not None
        assert d.n == n
        assert d.is_connected()
        if cls in ("in", "als"):
            assert find_pattern_violation(d, "in_in") is None
        if cls in ("out", "als"):
            assert find_pattern_violation(d, "out_out") is None


def test_random_class_member_determinism_and_validation():
    model = RandomModel(8, seed=5)
    a = random_class_member(model, "in")
    b = random_class_member(model, "in")
    assert a == b
    with pytest.raises(ValueError):
        random_class_member(model, "both")


# ----------------------------------------------------------------------
# brute-force oracles
# ----------------------------------------------------------------------


def test_perfection_oracle_known_graphs():
    c5 = directed_cycle(5).underlying_graph()
    perfect, witness = brute_force_is_perfect(c5)
    assert not perfect and witness == ("hole", (0, 1, 2, 3, 4))
    c7c = directed_cycle(7).underlying_graph().complement()
    perfect, witness = brute_force_is_perfect(c7c)
    assert not perfect and witness[0] == "antihole"
    k5 = Digraph(5, [(u, v) for u in range(5) for v in range(5) if u < v])
    assert brute_force_is_perfect(k5.underlying_graph()) == (True, None)
    bip, _ = make_extended_cycle((2, 3, 1, 2))
    assert brute_force_is_perfect(bip.underlying_graph()) == (True, None)
    with pytest.raises(CapExceeded):
        brute_force_is_perfect(Digraph(13).underlying_graph(), cap=12)


def test_perfection_oracle_matches_definitional_coloring():
    # Cross-check the forbidden-subgraph characterization against the
    # definition (clique number equals chromatic number on every induced
    # subgraph) on random graphs small enough for both.
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 7)
        d = Digraph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        g = d.underlying_graph()
        assert brute_force_is_perfect(g)[0] == brute_is_perfect_by_coloring(g)


def test_perfection_memo_equals_uncached_search():
    from arclocal.generators import _perfection_search, _small_perfection

    _small_perfection.cache_clear()
    for n in range(6):
        pairs = vertex_pairs(n)
        for sel in range(1 << len(pairs)):
            g = UndirectedGraph(n, [p for i, p in enumerate(pairs) if sel >> i & 1])
            expected = _perfection_search(g)
            assert brute_force_is_perfect(g) == expected  # first call: searched
            assert brute_force_is_perfect(g) == expected  # second call: memoized
    assert _small_perfection.cache_info().currsize == 1_100
    # The cap is checked before the memo is read.
    with pytest.raises(CapExceeded):
        brute_force_is_perfect(directed_cycle(5).underlying_graph(), cap=4)
    # Graphs above five vertices are searched every time and never stored.
    rng = random.Random(29)
    for n in range(6, 13):
        for p_arc in (0.15, 0.3, 0.45):
            model = RandomModel(n=n, p_arc=p_arc, seed=rng.randrange(10**6))
            g = random_digraph(model).underlying_graph()
            assert brute_force_is_perfect(g) == _perfection_search(g)
    assert _small_perfection.cache_info().currsize == 1_100


def test_clique_cut_oracle():
    assert brute_force_has_clique_cut(directed_path(3)) == (1,)
    assert brute_force_has_clique_cut(directed_cycle(4)) is None
    k4 = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
    assert brute_force_has_clique_cut(k4) is None
    # Already disconnected: the empty set is a cut.
    assert brute_force_has_clique_cut(Digraph(2)) == ()
    with pytest.raises(CapExceeded):
        brute_force_has_clique_cut(Digraph(13), cap=12)
