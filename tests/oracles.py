"""Naive reference implementations used only by the tests.

Everything here is written to be obviously correct rather than fast, and
shares no logic with the package: pattern search tries every ordered
4-tuple, extended-cycle recognition tries every ordered partition,
reachability is a transitive closure, two-colourability tries every
colour assignment, and perfection checks omega == chi on every induced
subgraph.  The last section holds helpers only the tests call: witness
replay, enumeration indices, the member indices read off the sweep's row
masks without building a digraph, and the out-direction decomposition
computed the long way, by the in-direction decomposer on the inverse,
the exhaustive sweep with every member built and checked one by one,
the row keys and the row guard computed row by row, the edge-list
parse with every arc line taking the checks that name it, and the class
scan with its prefilter union rebuilt for every v2.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations, product

from arclocal import (
    ArcLocalError,
    Decomposition,
    Digraph,
    EdgeListError,
    ExtendedCycleCertificate,
    UndirectedGraph,
)
from arclocal.decompose import DIPERFECT, _decompose
from arclocal.digraph import MAX_VERTICES, bits
from arclocal.generators import (
    _member_rows,
    enumerate_digraphs,
    enumerate_members,
    enumeration_rows,
)
from arclocal.patterns import _SIDES, PATTERN_ARCS, PatternWitness
from arclocal.sweeps import _PROPERTIES


def brute_pattern_violation(d: Digraph, pattern: str):
    """First ordered 4-tuple realising the pattern with v1, v4 non-adjacent."""
    arcs = PATTERN_ARCS[pattern]
    for tup in permutations(range(d.n), 4):
        if all(d.dominates(tup[i], tup[j]) for i, j in arcs):
            if not d.adjacent(tup[0], tup[3]):
                return tup
    return None


def brute_least_pattern_violation(d: Digraph, pattern: str):
    """Least violating 4-tuple by the key (v2, v3, v1, v4), or None.

    Checks every ordered 4-tuple and takes the minimum, so it fixes the
    exact witness a deterministic scan must return, not just its existence.
    """
    arcs = PATTERN_ARCS[pattern]
    violating = (
        tup
        for tup in permutations(range(d.n), 4)
        if all(d.dominates(tup[i], tup[j]) for i, j in arcs)
        and not d.adjacent(tup[0], tup[3])
    )
    return min(violating, key=lambda t: (t[1], t[2], t[0], t[3]), default=None)


def brute_anti_circulant_violation(d: Digraph):
    for tup in permutations(range(d.n), 4):
        x1, x2, x3, x4 = tup
        if (
            d.dominates(x1, x2)
            and d.dominates(x3, x2)
            and d.dominates(x3, x4)
            and not d.dominates(x4, x1)
        ):
            return tup
    return None


def brute_is_extended_cycle(d: Digraph) -> bool:
    """Try every assignment of vertices to k cyclically ordered parts.

    Vertex 0 is pinned to part 0 (rotating the parts does not change the
    digraph).  An assignment works iff parts are all non-empty and an arc
    (u, v) exists exactly when v's part follows u's part.
    """
    n = d.n
    if n < 3:
        return False
    for k in range(3, n + 1):
        for rest in product(range(k), repeat=n - 1):
            part = (0,) + rest
            if len(set(part)) != k:
                continue
            ok = True
            for u in range(n):
                for v in range(n):
                    if u == v:
                        continue
                    expected = part[v] == (part[u] + 1) % k
                    if d.dominates(u, v) != expected:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
    return False


def brute_reachability(d: Digraph) -> list[list[bool]]:
    """Transitive closure including reach[v][v] = True."""
    n = d.n
    reach = [[u == v or d.dominates(u, v) for v in range(n)] for u in range(n)]
    for w in range(n):
        for u in range(n):
            if reach[u][w]:
                row_w = reach[w]
                row_u = reach[u]
                for v in range(n):
                    if row_w[v]:
                        row_u[v] = True
    return reach


def brute_reach(d: Digraph, vertices, forward: bool) -> set[int]:
    """Vertices outside ``vertices`` joined to them by a directed path: from
    them when ``forward``, into them otherwise.  A plain BFS over d.arcs()."""
    step = {v: [] for v in range(d.n)}
    for u, v in d.arcs():
        if forward:
            step[u].append(v)
        else:
            step[v].append(u)
    start = set(vertices)
    seen = set(start)
    queue = list(start)
    for u in queue:
        for v in step[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen - start


def brute_strong_components(d: Digraph) -> set[frozenset[int]]:
    reach = brute_reachability(d)
    comps = set()
    for v in range(d.n):
        comps.add(
            frozenset(u for u in range(d.n) if reach[v][u] and reach[u][v])
        )
    return comps


def brute_is_clique_cut(d: Digraph, cut) -> bool:
    """Pairwise ``adjacent`` on the cut, then a plain BFS over the rest."""
    cut = set(cut)
    if any(not d.adjacent(u, v) for u, v in combinations(sorted(cut), 2)):
        return False
    rest = [v for v in range(d.n) if v not in cut]
    if not rest:
        return False
    seen = {rest[0]}
    queue = [rest[0]]
    for u in queue:
        for v in rest:
            if v not in seen and d.adjacent(u, v):
                seen.add(v)
                queue.append(v)
    return len(seen) < len(rest)


def brute_two_colorable(g: UndirectedGraph) -> bool:
    """Try all 2^n colour assignments."""
    edges = list(g.edges())
    for colours in product((0, 1), repeat=g.n):
        if all(colours[u] != colours[v] for u, v in edges):
            return True
    return False


def _chromatic_number(g: UndirectedGraph, vertices: tuple[int, ...]) -> int:
    if not vertices:
        return 0
    edges = [
        (u, v) for u, v in g.edges() if u in set(vertices) and v in set(vertices)
    ]
    for k in range(1, len(vertices) + 1):
        for colours in product(range(k), repeat=len(vertices)):
            if len(set(colours)) != k:
                continue
            lookup = dict(zip(vertices, colours))
            if all(lookup[u] != lookup[v] for u, v in edges):
                return k
    return len(vertices)


def _clique_number(g: UndirectedGraph, vertices: tuple[int, ...]) -> int:
    best = 0
    for size in range(len(vertices), 0, -1):
        for subset in combinations(vertices, size):
            if all(g.adj_masks[u] >> v & 1 for u, v in combinations(subset, 2)):
                return size
    return best


def brute_is_perfect_by_coloring(g: UndirectedGraph) -> bool:
    """Definitional perfection: omega == chi on every induced subgraph.

    Exponential twice over; keep n small (<= 7).
    """
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            if _clique_number(g, subset) != _chromatic_number(g, subset):
                return False
    return True


def counting_guard(d: Digraph) -> bool:
    """``may_have_odd_extended_cycle_component`` by its counting definition:
    at least 5 vertices have an in-neighbour, an out-neighbour and no digon."""
    return sum(1 for o, i in zip(d.out_masks, d.in_masks) if o and i and not o & i) >= 5


# ----------------------------------------------------------------------
# test-only helpers
# ----------------------------------------------------------------------


def witness_is_valid(d: Digraph, w: PatternWitness) -> bool:
    """Replay a witness against its digraph."""
    v = w.vertices
    if len(set(v)) != 4 or not all(0 <= x < d.n for x in v):
        return False
    if w.pattern not in PATTERN_ARCS:
        return False
    arcs_ok = all(d.dominates(v[a], v[b]) for a, b in PATTERN_ARCS[w.pattern])
    if w.pattern == "anti_circulant":  # the closing arc v4 -> v1 is missing
        return arcs_ok and not d.dominates(v[3], v[0])
    return arcs_ok and not d.adjacent(v[0], v[3])


def digraph_index(d: Digraph) -> int:
    """Enumeration index of d, the inverse of ``digraph_from_index``: base-4
    digit i is the state of the i-th pair (u, v) in lexicographic order,
    0 for none, 1 for u -> v only, 2 for v -> u only and 3 for a digon."""
    return sum(
        (d.dominates(u, v) + 2 * d.dominates(v, u)) * 4**i
        for i, (u, v) in enumerate(combinations(range(d.n), 2))
    )


def collect_member_indices(n: int, cls: str) -> list[int]:
    """Enumeration indices of every connected class member on n vertices,
    read off ``_member_rows`` without building a digraph."""
    width, _ = enumeration_rows(n)
    return [h * width + r for h, allowed in _member_rows(n, cls) for r in bits(allowed)]


def reference_sweep(n: int, cls: str, prop: str) -> tuple[int, Counter, list]:
    """(members, outcomes, failures) of ``run_sweep(n, cls, prop)`` with
    nothing tallied in bulk: every member from ``enumerate_members`` (every
    digraph, for a property over all digraphs) is built and given the
    property's own per-member check, in ascending index."""
    check, _, all_digraphs, _ = _PROPERTIES[prop]
    walk = enumerate(enumerate_digraphs(n)) if all_digraphs else enumerate_members(n, cls)
    members, outcomes, failures = 0, Counter(), []
    for index, d in walk:
        members += 1
        try:
            outcome, problem = check(d, cls)
        except ArcLocalError as exc:
            failures.append((index, f"{type(exc).__name__}: {exc}"))
            continue
        outcomes[outcome] += 1
        if problem is not None:
            failures.append((index, problem))
    return members, outcomes, failures


def reference_digit_gather(moves):
    """Key of a row: for each (src, shift), base-4 digit src of the row
    placed at ``shift``."""
    return lambda row: sum((row >> 2 * src & 3) << shift for src, shift in moves)


def reference_ruled_out_rows(n: int, tables):
    """Per high row h, the low rows whose digraph the guard
    ``may_have_odd_extended_cycle_component`` rules out, decided per (low
    group, high key).  Each half of ``tables`` (``_split_tables``'s pair)
    keys a row by three n-bit masks, computed from the row's own masks: its
    vertices with a digon, an out-arc and an in-arc.  Each ORs across the
    halves, since a digon lies on one pair, and a combination is ruled out
    when fewer than 5 vertices lie in ``out & in & ~digon``."""
    low, high = tables

    def key(out, inn):
        return sum(
            (bool(o & i) | bool(o) << n | bool(i) << 2 * n) << v
            for v, (o, i) in enumerate(zip(out, inn))
        )

    groups: dict[int, int] = {}
    for r, row in enumerate(low):
        groups[key(*row)] = groups.get(key(*row), 0) | 1 << r
    masks: dict[int, int] = {}

    def rows_for(h: int) -> int:
        hi = key(*high[h])
        if hi not in masks:
            masks[hi] = 0
            for lo, group in groups.items():
                k = lo | hi
                if (k >> n & k >> 2 * n & ~k).bit_count() < 5:
                    masks[hi] |= group
        return masks[hi]

    return rows_for


def reverse_certificate(cert: ExtendedCycleCertificate) -> ExtendedCycleCertificate:
    """Certificate of the inverse digraph: same start part, reversed order."""
    parts = cert.parts
    return ExtendedCycleCertificate((parts[0],) + tuple(reversed(parts[1:])))


def decompose_out_via_inverse(d: Digraph) -> Decomposition:
    """The out-direction decomposition of a connected arc-locally
    out-semicomplete digraph, read off the in-direction decomposition of its
    inverse: vertex sets unchanged, the certificate reversed."""
    mirror = _decompose(d.inverse(), "in")
    if mirror.kind == DIPERFECT:
        return Decomposition(DIPERFECT, "out")
    cert = reverse_certificate(mirror.cert) if mirror.cert is not None else None
    return Decomposition(mirror.kind, "out", mirror.v1, cert, mirror.v3, mirror.cut)


def reference_parse_edge_list(text: str) -> Digraph:
    """``parse_edge_list`` with no lookup for canonical arc lines: every line
    is stripped, split and read with ``int()``, and errors carry their line."""
    lines = enumerate(text.splitlines(), start=1)
    lineno, n = 0, None
    for lineno, raw in lines:  # up to the header
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split()
        if len(fields) != 2 or fields[0] != "n":
            raise EdgeListError(lineno, f"expected header 'n <count>', got {line!r}")
        try:
            n = int(fields[1])
        except ValueError:
            raise EdgeListError(lineno, f"vertex count {fields[1]!r} is not an integer") from None
        if n < 0:
            raise EdgeListError(lineno, f"vertex count must be non-negative, got {n}")
        if n > MAX_VERTICES:
            raise EdgeListError(lineno, f"vertex count {n} exceeds the limit {MAX_VERTICES}")
        break
    if n is None:
        raise EdgeListError(lineno + 1, "missing header 'n <count>'")
    out = [0] * n
    inn = [0] * n
    for lineno, raw in lines:  # the arcs
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListError(lineno, f"expected arc 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(lineno, f"arc endpoints {line!r} are not integers") from None
        if not (0 <= u < n and 0 <= v < n):
            if n:
                raise EdgeListError(lineno, f"arc ({u}, {v}) outside vertex range 0..{n - 1}")
            raise EdgeListError(lineno, f"arc ({u}, {v}) given, but the digraph has no vertices")
        if u == v:
            raise EdgeListError(lineno, f"loop arc ({u}, {v}) not allowed")
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return Digraph._from_masks(n, out, inn)


def reference_find_pattern_violation(d: Digraph, pattern: str) -> PatternWitness | None:
    """``find_pattern_violation`` with one prefilter union per v2 and every
    v2 scanned arc by arc; kept verbatim as the reference of the grouped scan.

    First violation of a path pattern in deterministic scan order.

    Scans arcs (v2, v3) lexicographically, then v1 ascending, then v4
    ascending, so the returned witness is the least violating tuple in
    (v2, v3, v1, v4) order.  Returns None when the digraph is free of the
    pattern.

    A prefilter keeps a full scan at O(sum of degrees) mask operations.
    Once per v2, ``reach`` collects, over every candidate v1, the vertices
    other than v1 that are not adjacent to v1.  An arc (v2, v3) is searched
    only when its v4 pool meets ``reach``.  The test is exact: the v4 pool
    lies inside N(v3) and excludes v2, so v1 = v3 adds nothing that could
    meet it, and a v4 in the meet completes a witness with some v1 != v3.
    A v1 adjacent to every other vertex adds nothing to ``reach``, so the
    union skips the mask ``universal`` of such vertices, found once per
    call.  The scan order is unchanged, so the witness is the same as
    without the prefilter.
    """
    try:
        v1_out, v4_out = _SIDES[pattern]
    except KeyError:
        raise ValueError(f"unknown path pattern {pattern!r}") from None
    out = d.out_masks
    side1 = out if v1_out else d.in_masks
    side4 = out if v4_out else d.in_masks
    adj = d.adj_masks
    full = d.full_mask
    universal = 0
    for v, a in enumerate(adj):
        if a | 1 << v == full:
            universal |= 1 << v
    for v2 in range(d.n):
        m = out[v2]
        pool1 = side1[v2]
        if not (m and pool1):
            continue
        reach = 0
        mm = pool1 & ~universal
        while mm:
            bb = mm & -mm
            reach |= full ^ adj[bb.bit_length() - 1] ^ bb
            mm ^= bb
        if not reach:
            continue
        not_v2 = ~(1 << v2)
        while m:
            b = m & -m
            v3 = b.bit_length() - 1
            m ^= b
            pool4 = side4[v3] & not_v2
            if not pool4 & reach:
                continue
            mm = pool1 & ~b
            while mm:
                bb = mm & -mm
                v1 = bb.bit_length() - 1
                mm ^= bb
                cand = pool4 & ~adj[v1] & ~bb
                if cand:
                    v4 = (cand & -cand).bit_length() - 1
                    return PatternWitness(pattern, (v1, v2, v3, v4))
    return None
