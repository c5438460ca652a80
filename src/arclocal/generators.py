"""Digraph generators and brute-force oracles.

Exhaustive enumeration walks every labelled digraph on n vertices by giving
each unordered vertex pair one of four states (none, forward, backward,
digon), 4**(n*(n-1)/2) digraphs in total.  The enumeration index of a
digraph is the base-4 number whose i-th least significant digit is the state
of the i-th pair in lexicographic pair order, so failures found during a
sweep can be replayed from their index alone.

The brute-force oracles at the bottom are deliberately naive subset
searches.  They exist to check the clever implementations, so they must not
share code with them; both refuse inputs above the configurable cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from operator import or_
from typing import Callable, Iterator

from .digraph import Digraph, UndirectedGraph, closure
from .errors import CapExceeded
from .patterns import find_pattern_violation
from .structure import (
    DEFAULT_ORACLE_CAP,
    ExtendedCycleCertificate,
    chordless_cycle_order,
    require_cap,
    verify_clique_cut,
)

EXHAUSTIVE_CAP = 5

_STATE_NONE, _STATE_FWD, _STATE_BWD, _STATE_DIGON = range(4)


def vertex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Unordered vertex pairs in the lexicographic order used for indexing."""
    return tuple(combinations(range(n), 2))


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def digraph_count(n: int) -> int:
    return 4 ** pair_count(n)


def _require_enumerable(n: int) -> None:
    """Reject a vertex count outside 0..EXHAUSTIVE_CAP."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if n > EXHAUSTIVE_CAP:
        raise CapExceeded(
            f"exhaustive enumeration not computed: n={n} exceeds cap {EXHAUSTIVE_CAP}"
        )


def enumeration_rows(n: int) -> tuple[int, int]:
    """Low and high row counts of the split enumeration on n vertices.

    The pairs split into a low and a high half; a digraph is one row of
    each, and its index is ``low_row + low_count * high_row``.
    """
    half = pair_count(n) // 2
    return 4**half, 4 ** (pair_count(n) - half)


def _split_tables(n: int, pairs):
    """(out, in) mask tables of the low and the high half of ``pairs``."""
    half = len(pairs) // 2
    return _mask_table(n, pairs[:half]), _mask_table(n, pairs[half:])


def enumerate_digraphs(n: int, rows: range | None = None) -> Iterator[Digraph]:
    """Every labelled digraph on n vertices, in enumeration-index order.

    A digraph ORs one row of each half's mask table, walking the low rows
    fastest, which gives ascending index.  ``rows`` restricts the walk to a
    range of high rows (default all of them).
    """
    _require_enumerable(n)
    low, high = _split_tables(n, vertex_pairs(n))
    from_masks = Digraph._from_masks
    for h in range(len(high)) if rows is None else rows:
        high_out, high_in = high[h]
        for low_out, low_in in low:
            yield from_masks(n, map(or_, high_out, low_out), map(or_, high_in, low_in))


def enumerate_members(
    n: int, cls: str, rows: range | None = None
) -> Iterator[tuple[int, Digraph]]:
    """(index, digraph) for every connected member of ``cls`` on n vertices.

    Yields in ascending enumeration index, from the high rows in ``rows``
    (default all).  ``_member_rows`` decides membership for whole rows; a
    digraph is built only for the members.
    """
    _require_enumerable(n)
    yield from _build_rows(n, _split_tables(n, vertex_pairs(n)), _member_rows(n, cls, rows))


def _build_rows(n: int, tables, row_masks) -> Iterator[tuple[int, Digraph]]:
    """(index, digraph) for every low row r set in the mask of each (h, mask)
    of ``row_masks``, in that order; ``tables`` is ``_split_tables``'s pair."""
    low, high = tables
    width = len(low)
    from_masks = Digraph._from_masks
    for h, allowed in row_masks:
        high_out, high_in = high[h]
        base = h * width
        r = -1
        while allowed:  # r steps through the set bits of allowed, lowest first
            step = (allowed & -allowed).bit_length()
            allowed >>= step
            r += step
            low_out, low_in = low[r]
            yield base + r, from_masks(
                n, map(or_, high_out, low_out), map(or_, high_in, low_in)
            )


def _member_rows(n: int, cls: str, rows: range | None = None) -> Iterator[tuple[int, int]]:
    """(h, mask of the low rows r with ``r + width * h`` a connected member).

    Walks the high rows in ``rows`` (default all) upward; skips memberless rows.

    Each class forbids a configuration on four vertices that depends only
    on the arcs among them, so the class is hereditary: a digraph is a
    member exactly when each of its 4-vertex induced subdigraphs is.  An
    induced 4-subset keeps the lexicographic pair order, so its six pair
    states are the base-4 digits of its index in ``enumerate_digraphs(4)``,
    whose membership is tabulated once per class.  ``_row_keys`` gives every
    row of each half the digits it contributes to each 4-subset, and the
    rows allowed under a high row are the union of the low key groups that
    complete a member index.  Connectivity depends only on which pairs are
    present, so it is decided the same way, on the adjacency of each (low
    group, high row) combination.
    """
    _require_enumerable(n)
    table = _class_table(cls)
    pairs = vertex_pairs(n)
    half = len(pairs) // 2
    width, count = enumeration_rows(n)

    def by_part(part, accept):  # ``_row_filter`` with both halves keyed by part
        return _row_filter(_row_keys(pairs[:half], part), _row_keys(pairs[half:], part), accept)

    filters = [  # connectivity, keyed by adjacency
        by_part(
            lambda p, s: s and 1 << n * p[0] + p[1] | 1 << n * p[1] + p[0],
            lambda lo, hi: n <= 1 or closure(_adjacency(n, lo | hi), 1) == (1 << n) - 1,
        )
    ]
    for subset in combinations(range(n), 4):
        shift = {pair: 2 * j for j, pair in enumerate(combinations(subset, 2))}
        filters.append(
            by_part(lambda p, s: s << shift[p] if p in shift else 0, lambda lo, hi: table[lo | hi])
        )
    for h in range(count) if rows is None else rows:
        allowed = (1 << width) - 1
        for rows_for in filters:
            allowed &= rows_for(h)
            if not allowed:
                break
        else:
            yield h, allowed


@cache
def _class_table(cls: str) -> bytes:
    """Membership of every digraph on 4 vertices in ``cls``, by index."""
    if cls not in ("in", "out", "als"):
        raise ValueError(f"unknown class {cls!r}")
    return bytes(_in_class(d, cls) for d in enumerate_digraphs(4))


def _row_keys(pairs, part) -> list[int]:
    """Key of every row of a half whose pairs are ``pairs``, by row index: the
    OR of ``part(p, state)`` over the pairs p, each in its state in the row."""
    keys = [0]
    for p in pairs:
        keys = [k | a for a in [part(p, state) for state in range(4)] for k in keys]
    return keys


def _adjacency(n: int, key: int) -> tuple[int, ...]:
    """Adjacency masks of an adjacency key, in which bit ``n * u + v`` is set
    when u and v are adjacent."""
    return tuple(key >> n * v & (1 << n) - 1 for v in range(n))


def _row_filter(low_keys, high_keys, accept) -> Callable[[int], int]:
    """Mask of the low rows r that ``accept(low_keys[r], high_keys[h])``, per h.
    Low rows are grouped by key once; a mask is the union (the sum, as groups
    are disjoint) of the accepted groups and is cached by the high key."""
    groups: dict[int, int] = {}
    for r, key in enumerate(low_keys):
        groups[key] = groups.get(key, 0) | 1 << r
    masks = cache(lambda key: sum(g for low, g in groups.items() if accept(low, key)))
    return lambda h: masks(high_keys[h])


def _mask_table(n: int, pairs) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(out, in) masks for every state assignment of ``pairs``, by index:
    ``_row_keys``'s recurrence over each pair's four ``_pair_masks``."""
    rows = [((0,) * n, (0,) * n)]
    for p in pairs:
        parts = [_pair_masks(n, (p,), state) for state in range(4)]
        rows = [(tuple(map(or_, o, po)), tuple(map(or_, i, pi))) for po, pi in parts for o, i in rows]
    return rows


def _pair_masks(n: int, pairs, index: int) -> tuple[list[int], list[int]]:
    """Out- and in-masks from the base-4 digits of ``index``, one per pair."""
    out = [0] * n
    inn = [0] * n
    for u, v in pairs:
        index, state = divmod(index, 4)
        if state == _STATE_NONE:
            continue
        if state != _STATE_BWD:  # forward or digon
            out[u] |= 1 << v
            inn[v] |= 1 << u
        if state >= _STATE_BWD:  # backward or digon
            out[v] |= 1 << u
            inn[u] |= 1 << v
    return out, inn


def digraph_from_index(n: int, index: int) -> Digraph:
    """Rebuild the digraph with the given enumeration index."""
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    # index < 4**pairs, tested by bit length so no n-sized power is built.
    pairs = pair_count(n)
    if index < 0 or index.bit_length() > 2 * pairs:
        raise ValueError(f"index {index} outside 0..4**{pairs} - 1 for n={n}")
    return Digraph._from_masks(n, *_pair_masks(n, vertex_pairs(n), index))


# ----------------------------------------------------------------------
# constructors
# ----------------------------------------------------------------------


def make_extended_cycle(sizes) -> tuple[Digraph, ExtendedCycleCertificate]:
    """Extended cycle with the given part sizes, parts labelled consecutively.

    Needs at least three parts, each of positive size.  Vertex 0 lands in
    the first part, so the certificate is already canonical.
    """
    sizes = tuple(sizes)
    if len(sizes) < 3:
        raise ValueError(f"an extended cycle needs at least 3 parts, got {len(sizes)}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be positive, got {sizes}")
    parts = []
    start = 0
    for s in sizes:
        parts.append(tuple(range(start, start + s)))
        start += s
    arcs = []
    k = len(sizes)
    for i in range(k):
        for u in parts[i]:
            for v in parts[(i + 1) % k]:
                arcs.append((u, v))
    return Digraph(start, arcs), ExtendedCycleCertificate(tuple(parts))


def compose(template: Digraph, slots) -> Digraph:
    """Substitute a digraph into every vertex of a template.

    Vertex i of the template is replaced by ``slots[i]``; arcs inside each
    slot are kept and every template arc (i, j) becomes the complete arc set
    from slot i to slot j.  Substituting into a single vertex returns the
    slot unchanged.
    """
    slots = list(slots)
    if len(slots) != template.n:
        raise ValueError(
            f"template has {template.n} vertices but {len(slots)} slots were given"
        )
    offsets = []
    total = 0
    for s in slots:
        offsets.append(total)
        total += s.n
    arcs = []
    for i, s in enumerate(slots):
        base = offsets[i]
        arcs.extend((base + u, base + v) for u, v in s.arcs())
    for i, j in template.arcs():
        for u in range(slots[i].n):
            for v in range(slots[j].n):
                arcs.append((offsets[i] + u, offsets[j] + v))
    return Digraph(total, arcs)


def make_extension(template: Digraph, sizes) -> Digraph:
    """Compose with arcless slots of the given sizes (an "extension")."""
    sizes = tuple(sizes)
    if len(sizes) != template.n:
        raise ValueError(
            f"template has {template.n} vertices but {len(sizes)} sizes were given"
        )
    if any(s < 1 for s in sizes):
        raise ValueError(f"slot sizes must be positive, got {sizes}")
    return compose(template, [Digraph(s) for s in sizes])


def directed_cycle(k: int) -> Digraph:
    """The directed cycle on k >= 2 vertices."""
    if k < 2:
        raise ValueError(f"a directed cycle needs at least 2 vertices, got {k}")
    return Digraph(k, [(i, (i + 1) % k) for i in range(k)])


def directed_path(k: int) -> Digraph:
    """The directed path on k >= 1 vertices."""
    if k < 1:
        raise ValueError(f"a directed path needs at least 1 vertex, got {k}")
    return Digraph(k, [(i, i + 1) for i in range(k - 1)])


# ----------------------------------------------------------------------
# random models
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RandomModel:
    """Seeded random digraph model.

    Per unordered pair: with probability ``p_digon`` both arcs are placed;
    otherwise each direction independently appears with probability
    ``p_arc``.  Identical seeds reproduce identical digraphs.
    """

    n: int
    p_arc: float = 0.25
    p_digon: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        for name in ("p_arc", "p_digon"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")


def random_digraph(model: RandomModel) -> Digraph:
    rng = random.Random(model.seed)
    return _sample(rng, model.n, model.p_arc, model.p_digon)


def _sample(rng: random.Random, n: int, p_arc: float, p_digon: float) -> Digraph:
    arcs = []
    for u, v in combinations(range(n), 2):
        if rng.random() < p_digon:
            arcs.append((u, v))
            arcs.append((v, u))
            continue
        if rng.random() < p_arc:
            arcs.append((u, v))
        if rng.random() < p_arc:
            arcs.append((v, u))
    return Digraph(n, arcs)


def _in_class(d: Digraph, cls: str) -> bool:
    if cls in ("in", "als") and find_pattern_violation(d, "in_in") is not None:
        return False
    if cls in ("out", "als") and find_pattern_violation(d, "out_out") is not None:
        return False
    return True


def _orient(rng: random.Random, pairs) -> list[tuple[int, int]]:
    """Arcs joining every pair: a digon with probability 1/4, else one
    direction chosen by a fair coin."""
    arcs = []
    for u, v in pairs:
        if rng.random() < 0.25:
            arcs += [(u, v), (v, u)]
        elif rng.random() < 0.5:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return arcs


def _random_semicomplete(rng: random.Random, n: int) -> Digraph:
    return Digraph(n, _orient(rng, combinations(range(n), 2)))


def _random_semicomplete_bipartite(rng: random.Random, n: int) -> Digraph:
    left = rng.randint(1, n - 1)
    return Digraph(n, _orient(rng, product(range(left), range(left, n))))


def _random_composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` positive summands, uniformly at random."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _random_extended_cycle(
    rng: random.Random, n: int, odd_ge5: bool
) -> tuple[Digraph, ExtendedCycleCertificate]:
    k = rng.choice(range(5, n + 1, 2) if odd_ge5 else range(3, n + 1))
    sizes = _random_composition(rng, n, k)
    return make_extended_cycle(sizes)


def _random_path_extension(rng: random.Random, n: int) -> Digraph:
    layers = rng.randint(2, n)
    sizes = _random_composition(rng, n, layers)
    return make_extension(directed_path(layers), sizes)


def _front_over_cycle(rng: random.Random, front: int, body: int) -> list[tuple[int, int]]:
    """Arcs of a semicomplete front on ``0..front-1`` strictly dominating an
    odd extended cycle on the next ``body`` vertices."""
    cycle, _ = _random_extended_cycle(rng, body, odd_ge5=True)
    arcs = list(_random_semicomplete(rng, front).arcs())
    arcs.extend((front + u, front + v) for u, v in cycle.arcs())
    arcs.extend(product(range(front), range(front, front + body)))
    return arcs


def _random_dominating_front(rng: random.Random, n: int) -> Digraph:
    """A semicomplete front strictly dominating an odd extended cycle."""
    front = rng.randint(1, max(1, n - 5))
    return Digraph(n, _front_over_cycle(rng, front, n - front))


def _random_cycle_with_tail(rng: random.Random, n: int) -> Digraph:
    """An odd extended cycle feeding a directed path out of one part."""
    tail = rng.randint(1, max(1, n - 5))
    body = n - tail
    cycle, cert = _random_extended_cycle(rng, body, odd_ge5=True)
    part = list(rng.choice(cert.parts))
    arcs = list(cycle.arcs())
    for u in part:
        arcs.append((u, body))
    for i in range(body, n - 1):
        arcs.append((i, i + 1))
    return Digraph(n, arcs)


def _random_front_with_spill(rng: random.Random, n: int) -> Digraph:
    """Semicomplete front dominating a cycle and some extra isolated targets.

    The extra targets hang off the front only, so the front is a clique cut.
    """
    spill = rng.randint(1, max(1, n - 6))
    front = rng.randint(1, max(1, n - spill - 5))
    arcs = _front_over_cycle(rng, front, n - front - spill)
    for v in range(n - spill, n):
        feeders = rng.sample(range(front), rng.randint(1, front))
        arcs.extend((u, v) for u in feeders)
    return Digraph(n, arcs)


def random_class_member(
    model: RandomModel, cls: str, max_tries: int = 64
) -> Digraph | None:
    """A connected member of the requested class, or None after max_tries
    (at least 1).

    ``cls`` is "in", "out" or "als".  Candidates come from a mix of sparse
    rejection sampling and always-in-class constructions (semicomplete,
    semicomplete bipartite, extended cycles, layered path extensions, and
    for the one-sided classes the theorem-shaped assemblies); every
    candidate is re-checked with the recognizer before being returned.
    """
    if cls not in ("in", "out", "als"):
        raise ValueError(f"unknown class {cls!r}")
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    n = model.n
    rng = random.Random(model.seed)
    builders: list[Callable[[], Digraph]] = []
    if n >= 2:
        builders.append(lambda: _random_semicomplete(rng, n))
        builders.append(lambda: _random_semicomplete_bipartite(rng, n))
        builders.append(lambda: _random_path_extension(rng, n))
    if n >= 3:
        builders.append(lambda: _random_extended_cycle(rng, n, odd_ge5=False)[0])
    if n >= 5:
        builders.append(lambda: _random_extended_cycle(rng, n, odd_ge5=True)[0])
    if cls in ("in", "out") and n >= 6:
        builders.append(lambda: _random_dominating_front(rng, n))
        builders.append(lambda: _random_cycle_with_tail(rng, n))
    if cls in ("in", "out") and n >= 7:
        builders.append(lambda: _random_front_with_spill(rng, n))
    for attempt in range(max_tries):
        if builders and attempt % 3 != 0:
            candidate = rng.choice(builders)()
        else:
            candidate = _sample(rng, n, min(0.5, 1.5 / max(n, 1)), 0.05)
        if cls == "out":
            candidate = candidate.inverse()
        if candidate.is_connected() and _in_class(candidate, cls):
            return candidate
    return None


# ----------------------------------------------------------------------
# brute-force oracles
# ----------------------------------------------------------------------


def brute_force_is_perfect(
    g: UndirectedGraph, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[bool, tuple[str, tuple[int, ...]] | None]:
    """Perfection via the strong perfect graph theorem, by subset search.

    A graph is perfect iff neither it nor its complement contains an induced
    odd cycle on >= 5 vertices.  Returns (True, None) or (False, witness)
    where the witness is ("hole" | "antihole", cycle order).  Refuses graphs
    above the cap; verdicts on at most EXHAUSTIVE_CAP vertices are memoized.
    """
    return _perfection(g.n, g.adj_masks, cap)


def _perfection(n: int, adj_masks: tuple[int, ...], cap: int = DEFAULT_ORACLE_CAP):
    """``brute_force_is_perfect`` of the graph on n vertices with adjacency
    masks ``adj_masks``.  The diperfect checks pass a digraph's own
    ``adj_masks``, so no underlying graph is built for the verdict.

    The cap is checked first.  Verdicts on at most EXHAUSTIVE_CAP vertices
    are memoized, keyed by (n, adj_masks) alone; only 1,100 such graphs
    exist.  A larger graph is built and searched on every call.
    """
    require_cap(n, cap, "perfection oracle")
    if n <= EXHAUSTIVE_CAP:
        return _small_perfection(n, adj_masks)
    return _perfection_search(UndirectedGraph._from_masks(n, adj_masks))


@cache
def _small_perfection(n: int, adj_masks: tuple[int, ...]):
    return _perfection_search(UndirectedGraph._from_masks(n, adj_masks))


def _perfection_search(g: UndirectedGraph):
    gc = g.complement()
    for size in range(5, g.n + 1, 2):
        for subset in combinations(range(g.n), size):
            order = chordless_cycle_order(g, subset)
            if order is not None:
                return False, ("hole", order)
        for subset in combinations(range(g.n), size):
            order = chordless_cycle_order(gc, subset)
            if order is not None:
                return False, ("antihole", order)
    return True, None


def brute_force_has_clique_cut(
    d: Digraph, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[int, ...] | None:
    """First clique cut in subset-size order, or None.  Capped."""
    require_cap(d.n, cap, "clique cut search")
    for size in range(0, max(0, d.n - 1)):
        for subset in combinations(range(d.n), size):
            if verify_clique_cut(d, subset):
                return subset
    return None
