"""Structural primitives: strong components, extended cycles, cycle searches.

Length conventions: a cycle's length is its number of vertices, a path's
length is its number of arcs.  "Odd cycle of length at least five" therefore
means at least five vertices.

An extended cycle is a digraph whose vertex set splits into k >= 3 disjoint
non-empty stable parts X1, .., Xk such that the arc set is exactly the union
of the complete arc sets Xi x Xi+1 (indices mod k).  Certificates list the
parts starting from the part containing the smallest vertex and proceed in
domination direction, so equal extended cycles yield equal certificates.

The subset searches near the bottom are exponential and refuse to run above
a configurable cap (default 12 vertices) by raising CapExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .digraph import Digraph, UndirectedGraph, bits, closure, mask_of
from .errors import CapExceeded
from .patterns import find_pattern_violation

DEFAULT_ORACLE_CAP = 12


def require_cap(n: int, cap: int, what: str) -> None:
    """Refuse a subset search (named by ``what``) on more than ``cap`` vertices."""
    if n > cap:
        raise CapExceeded(f"{what} not computed: {n} vertices exceeds cap {cap}")


# ----------------------------------------------------------------------
# strong components
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StrongDecomposition:
    """Strong components in topological order.

    ``components[i]`` is a sorted vertex tuple; every arc between components
    goes from a lower to a higher index.  ``component_of[v]`` is the index
    of the component containing v, and ``masks[i]`` is the bitmask of
    ``components[i]``; equality, hash and repr ignore the masks.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    masks: tuple[int, ...] = field(compare=False, repr=False)


def strong_components(d: Digraph) -> StrongDecomposition:
    """Strong components by Gabow's path-based depth-first search on masks.

    H. N. Gabow, Inform. Process. Lett. 74 (2000).  Visited vertices not yet
    in a component, in visiting order, form blocks known to be strongly
    connected, one mask each.  A step descends from the path's end v to its
    lowest unvisited out-neighbour (one ``&``) or finishes v: the blocks
    down to the deepest one ``out[v] & pending`` hits merge by OR, and if v
    starts the top block, it pops as a component.  So a call costs O(n)
    mask operations, not Tarjan's O(n + m) arc steps, and never recurses.
    Each root is the lowest unvisited vertex and steps take the lowest
    neighbour, so the search tree is Tarjan's with arcs scanned in
    increasing order; both pop a component when its first vertex finishes,
    so the numbering (reverse finishing order) is Tarjan's.
    """
    out = d.out_masks
    unvisited = d.full_mask
    pending = d.full_mask  # not yet in a component
    open_order: list[int] = []
    comps: list[tuple[int, ...]] = []
    masks: list[int] = []
    path: list[int] = []
    starts: list[int] = []  # index in open_order of each block's first vertex
    blocks: list[int] = []
    while unvisited:
        step = unvisited & -unvisited  # the next root; the path is empty
        while True:
            if step:  # descend to the lowest vertex of step
                b = step & -step
                unvisited ^= b
                path.append(b.bit_length() - 1)
                starts.append(len(open_order))
                open_order.append(path[-1])
                blocks.append(0)  # 0 stands for a one-vertex block: no mask per path vertex
            else:  # finish the end of the path
                v = path.pop()
                hit = out[v] & pending  # all visited: v has no unvisited out-neighbour
                block = blocks.pop() or 1 << v
                start = starts.pop()
                while hit & block != hit:
                    start = starts.pop()
                    block |= blocks.pop() or 1 << open_order[start]
                if open_order[start] == v:
                    pending ^= block
                    comps.append(tuple(sorted(open_order[start:])))
                    masks.append(block)
                    del open_order[start:]
                else:
                    blocks.append(block)
                    starts.append(start)
                if not path:
                    break
            step = out[path[-1]] & unvisited
    comps.reverse()
    masks.reverse()
    comp_of = [0] * d.n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    return StrongDecomposition(tuple(comps), tuple(comp_of), tuple(masks))


# ----------------------------------------------------------------------
# extended cycles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedCycleCertificate:
    """Parts of an extended cycle, in cyclic domination order.

    Each part is a sorted vertex tuple; ``parts[0]`` contains the smallest
    vertex of the union.
    """

    parts: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def part_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(v for part in self.parts for v in part))


def recognize_extended_cycle(
    d: Digraph, within: int | None = None
) -> ExtendedCycleCertificate | None:
    """Certificate iff d, or d[within] for a vertex mask ``within``, is an
    extended cycle (k >= 3); it lists vertices of d, not of a copy.

    Vertices of a common part share their exact out- and in-neighbour sets
    in the mask, so grouping by that signature recovers the only possible
    parts; a single cyclic walk then checks that arcs are exactly the
    consecutive complete sets.  Any digraph passing the walk satisfies the
    definition verbatim.
    """
    full = d.full_mask
    m = full if within is None else within
    if m.bit_count() < 3:
        return None
    out = d.out_masks
    inn = d.in_masks
    groups: dict[tuple[int, int], int] = {}
    for v in range(d.n) if m == full else bits(m):
        o = out[v] & m
        i = inn[v] & m
        if not o or not i or o & i:  # a digon: no extended cycle has one
            return None
        key = (o, i)
        groups[key] = groups.get(key, 0) | (1 << v)
    if len(groups) < 3:
        return None
    by_mask: dict[int, tuple[int, int]] = {}
    for (o, i), members in groups.items():
        if o & members or i & members:
            return None
        by_mask[members] = (o, i)
    low = m & -m
    start = next(part for part in by_mask if part & low)
    k = len(by_mask)
    order: list[int] = []
    cur = start
    for _ in range(k):
        order.append(cur)
        o, _i = by_mask[cur]
        entry = by_mask.get(o)
        if entry is None or entry[1] != cur:
            return None
        cur = o
        if cur == start:
            break
    if len(order) != k or cur != start:
        return None
    return ExtendedCycleCertificate(tuple(tuple(bits(part)) for part in order))


def recognize_odd_extended_cycle(
    d: Digraph, within: int | None = None
) -> ExtendedCycleCertificate | None:
    """Certificate iff d (or d[within]) is an extended cycle with an odd
    number of parts, k >= 5."""
    cert = recognize_extended_cycle(d, within)
    if cert is not None and cert.k >= 5 and cert.k % 2 == 1:
        return cert
    return None


def may_have_odd_extended_cycle_component(d: Digraph) -> bool:
    """False when no strong component of d can be an odd extended cycle with
    k >= 5 parts, decided without computing components.

    True iff at least 5 vertices have an in-neighbour, an out-neighbour and
    no digon.  Every vertex of such a component qualifies: it has an in- and
    an out-neighbour inside it, a digon partner would lie in the same
    component, and an extended cycle has no digon.  This holds for every
    digraph, member of a class or not.  The scan stops at the first vertex
    that leaves fewer than 5 candidates, so at n=5 one failing vertex ends it.
    """
    spare = d.n - 5  # failing vertices still allowed
    for o, i in zip(d.out_masks, d.in_masks):
        if not o or not i or o & i:
            spare -= 1
            if spare < 0:
                return False
    return spare >= 0


def odd_extended_cycle_components(d: Digraph) -> list[tuple[int, ExtendedCycleCertificate]]:
    """(vertex mask, certificate) of every strong component of d that is an
    odd extended cycle with k >= 5 parts, in component order.  The guard
    runs first; components are computed only when it lets d through."""
    if not may_have_odd_extended_cycle_component(d):
        return []
    found = []
    for m in strong_components(d).masks:
        if m.bit_count() >= 5:
            cert = recognize_odd_extended_cycle(d, m)
            if cert is not None:
                found.append((m, cert))
    return found


def check_extended_cycle_certificate(
    d: Digraph, parts: tuple[tuple[int, ...], ...]
) -> tuple[bool, str | None]:
    """Re-check a certificate against the definition, from scratch.

    The parts may cover a subset of d; arcs leaving the union are ignored,
    mirroring the induced subdigraph.  Returns (ok, reason).
    """
    k = len(parts)
    if k < 3:
        return False, f"certificate needs at least 3 parts, got {k}"
    masks = []
    union = 0
    for idx, part in enumerate(parts):
        if not part:
            return False, f"part {idx} is empty"
        pmask = 0
        for v in part:
            if not (0 <= v < d.n):
                return False, f"part {idx} vertex {v} out of range"
            pmask |= 1 << v
        if pmask & union:
            return False, f"part {idx} overlaps an earlier part"
        masks.append(pmask)
        union |= pmask
    for idx in range(k):
        nxt = masks[(idx + 1) % k]
        prv = masks[idx - 1]
        for v in parts[idx]:
            if d.out_masks[v] & union != nxt:
                return False, f"vertex {v} must dominate exactly part {(idx + 1) % k}"
            if d.in_masks[v] & union != prv:
                return False, f"vertex {v} must be dominated by exactly part {(idx - 1) % k}"
    return True, None


# ----------------------------------------------------------------------
# clique cuts
# ----------------------------------------------------------------------


def verify_clique_cut(d: Digraph, cut) -> bool:
    """True iff d[cut] is semicomplete and removing cut disconnects d,
    decided on vertex masks of d.  Raises ValueError for a vertex outside d."""
    cutset = sorted(set(cut))
    for v in cutset:
        d._check_vertex(v)
    cmask = mask_of(cutset)
    if not d.is_semicomplete(cmask):
        return False
    rest = d.full_mask & ~cmask
    if not rest:
        return False
    return closure(d.adj_masks, rest & -rest, rest) != rest


# ----------------------------------------------------------------------
# cycle searches
# ----------------------------------------------------------------------


def directed_cycle_order(d: Digraph, vertices) -> tuple[int, ...] | None:
    """Cyclic order iff the induced subdigraph is exactly a directed cycle.

    Exactly one arc in and one arc out per vertex inside the set, and the
    arcs close into a single cycle; digons are 2-cycles under this reading.
    Returns the order starting from the smallest vertex, else None.
    """
    vs = sorted(set(vertices))
    if len(vs) < 2:
        return None
    smask = mask_of(vs)
    for v in vs:
        if (d.out_masks[v] & smask).bit_count() != 1:
            return None
        if (d.in_masks[v] & smask).bit_count() != 1:
            return None
    start = vs[0]
    order = [start]
    cur = start
    for _ in range(len(vs) - 1):
        cur = (d.out_masks[cur] & smask).bit_length() - 1
        if cur == start:
            return None
        order.append(cur)
    if (d.out_masks[cur] & smask) != 1 << start:
        return None
    return tuple(order)


def chordless_cycle_order(g: UndirectedGraph, vertices) -> tuple[int, ...] | None:
    """Cyclic order iff the induced subgraph is exactly one chordless cycle.

    Each vertex must have exactly two neighbours inside the set and a single
    walk must visit everything.  Returns the order starting at the smallest
    vertex toward its smaller neighbour, else None.
    """
    vs = sorted(set(vertices))
    if len(vs) < 3:
        return None
    smask = mask_of(vs)
    for v in vs:
        if (g.adj_masks[v] & smask).bit_count() != 2:
            return None
    start = vs[0]
    here = g.adj_masks[start] & smask
    first = (here & -here).bit_length() - 1
    order = [start, first]
    prev, cur = start, first
    for _ in range(len(vs) - 2):
        step = g.adj_masks[cur] & smask & ~(1 << prev)
        prev, cur = cur, step.bit_length() - 1
        if cur == start:
            return None
        order.append(cur)
    return tuple(order) if g.adj_masks[order[-1]] & (1 << start) else None


def find_induced_odd_directed_cycle_ge5(
    d: Digraph, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[int, ...] | None:
    """An induced directed cycle with an odd vertex count >= 5, or None.

    For arc-locally in-semicomplete digraphs the search is structural and
    has no size limit: a strong component containing such a cycle is itself
    an odd extended cycle, and one vertex per part realises the cycle.  When
    several components qualify, the first in component order is taken.
    Other digraphs fall back to subset search, refused above the cap.
    """
    if find_pattern_violation(d, "in_in") is None:
        found = odd_extended_cycle_components(d)
        return tuple(part[0] for part in found[0][1].parts) if found else None
    require_cap(d.n, cap, "induced odd cycle search")
    for size in range(5, d.n + 1, 2):
        for subset in combinations(range(d.n), size):
            order = directed_cycle_order(d, subset)
            if order is not None:
                return order
    return None


def find_induced_nonoriented_odd_cycle_ge5(
    d: Digraph, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[int, ...] | None:
    """A vertex set inducing an odd chordless cycle that is not directed.

    Looks for S, |S| odd and >= 5, such that the underlying graph induced on
    S is a chordless cycle while d[S] is not a directed cycle (some edge is
    a digon or some orientation goes against the rest).  Subset search only;
    refused above the cap.  Returns the cycle order in the underlying graph.
    """
    require_cap(d.n, cap, "non-oriented odd cycle search")
    g = d.underlying_graph()
    for size in range(5, d.n + 1, 2):
        for subset in combinations(range(d.n), size):
            order = chordless_cycle_order(g, subset)
            if order is None:
                continue
            if directed_cycle_order(d, subset) is None:
                return order
    return None
