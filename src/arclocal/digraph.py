"""Loop-free digraph values and the basic vocabulary used everywhere else.

Vertices are the integers ``0..n-1``.  An arc is an ordered pair ``(u, v)``
with ``u != v``, read as "u dominates v".  Both ``(u, v)`` and ``(v, u)`` may
be present (a digon); loops and parallel arcs cannot be represented.

Neighbourhoods are stored as integer bitmasks: bit ``v`` of ``out_masks[u]``
is set iff the arc ``(u, v)`` exists.  That keeps membership tests O(1) and
makes exhaustive sweeps over all small digraphs cheap.

Degenerate-input conventions: the empty digraph (n = 0) counts as connected,
semicomplete and bipartite.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_
from typing import Iterable, Iterator

from .errors import EdgeListError

# Largest vertex count parse_edge_list accepts; a larger header is rejected
# before anything n-sized is allocated.
MAX_VERTICES = 1 << 14


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _outside(item: str, n: int, kind: str = "digraph") -> str:
    """Message for a vertex, arc or edge ``item`` outside ``0..n-1``."""
    if n:
        return f"{item} outside vertex range 0..{n - 1}"
    return f"{item} given, but the {kind} has no vertices"


def closure(masks, seed: int, within: int = -1) -> int:
    """Mask of the vertices reachable from ``seed`` (itself included) when
    ``masks[v]`` holds the neighbours of v, stepping only onto vertices of
    the mask ``within`` (all by default); breadth-first, one OR per vertex."""
    seen = frontier = seed
    while frontier:
        reach = 0
        while frontier:
            b = frontier & -frontier
            reach |= masks[b.bit_length() - 1]
            frontier ^= b
        frontier = reach & within & ~seen
        seen |= frontier
    return seen


def two_colouring(masks, within: int) -> int | None:
    """Colour-0 mask of a breadth-first 2-colouring of the vertex mask
    ``within``, stepping only inside it, or None when an edge joins two
    vertices of one level (an odd cycle).  ``masks[v]`` holds the
    neighbours of v; each component's smallest vertex gets colour 0."""
    zero = 0
    left = within
    while left:
        frontier = seen = left & -left
        even = True
        while frontier:
            if even:
                zero |= frontier
            reach = 0
            m = frontier
            while m:
                b = m & -m
                adj = masks[b.bit_length() - 1]
                if adj & frontier:
                    return None
                reach |= adj
                m ^= b
            frontier = reach & within & ~seen
            seen |= frontier
            even = not even
        left &= ~seen
    return zero


class Digraph:
    """An immutable loop-free digraph on vertices ``0..n-1``."""

    __slots__ = ("n", "out_masks", "in_masks", "adj_masks", "full_mask")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        out = [0] * n
        inn = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(_outside(f"arc ({u}, {v})", n))
            if u == v:
                raise ValueError(f"loop arc ({u}, {v}) not allowed")
            out[u] |= 1 << v
            inn[v] |= 1 << u
        self.n = n
        self.out_masks = tuple(out)
        self.in_masks = tuple(inn)
        self.adj_masks = tuple(o | i for o, i in zip(out, inn))
        self.full_mask = (1 << n) - 1

    @classmethod
    def _from_masks(cls, n: int, out_masks, in_masks) -> "Digraph":
        """Trusted constructor: masks must describe a valid loop-free digraph."""
        d = object.__new__(cls)
        d.n = n
        d.out_masks = tuple(out_masks)
        d.in_masks = tuple(in_masks)
        d.adj_masks = tuple(map(or_, d.out_masks, d.in_masks))
        d.full_mask = (1 << n) - 1
        return d

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(_outside(f"vertex {v}", self.n))

    def dominates(self, u: int, v: int) -> bool:
        """True iff the arc (u, v) is present.  Rejects u == v."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("dominates() requires two distinct vertices")
        return (self.out_masks[u] >> v) & 1 == 1

    def adjacent(self, u: int, v: int) -> bool:
        """True iff at least one of the arcs (u, v), (v, u) is present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("adjacent() requires two distinct vertices")
        return (self.adj_masks[u] >> v) & 1 == 1

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs in lexicographic order."""
        for u, m in enumerate(self.out_masks):
            for v in bits(m):
                yield (u, v)

    @property
    def arc_count(self) -> int:
        return sum(m.bit_count() for m in self.out_masks)

    # ------------------------------------------------------------------
    # derived digraphs
    # ------------------------------------------------------------------

    def inverse(self) -> "Digraph":
        """The digraph with every arc reversed."""
        return Digraph._from_masks(self.n, self.in_masks, self.out_masks)

    def induced(self, vertices: Iterable[int]) -> tuple["Digraph", tuple[int, ...]]:
        """Induced subdigraph on ``vertices`` plus the relabelling map.

        The subdigraph lives on ``0..k-1``; the returned tuple ``labels``
        satisfies ``labels[new] == old``, with labels in increasing order.
        """
        labels = tuple(sorted(set(vertices)))
        for v in labels:
            self._check_vertex(v)
        smask = mask_of(labels)
        index = {old: new for new, old in enumerate(labels)}
        out = [0] * len(labels)
        inn = [0] * len(labels)
        for new, old in enumerate(labels):
            for w in bits(self.out_masks[old] & smask):
                out[new] |= 1 << index[w]
            for w in bits(self.in_masks[old] & smask):
                inn[new] |= 1 << index[w]
        return Digraph._from_masks(len(labels), out, inn), labels

    def underlying_graph(self) -> "UndirectedGraph":
        """Undirected graph with an edge wherever some arc exists."""
        return UndirectedGraph._from_masks(self.n, self.adj_masks)

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        """True iff the underlying graph is connected (n = 0 counts)."""
        return self.n <= 1 or closure(self.adj_masks, 1) == self.full_mask

    # ------------------------------------------------------------------
    # shape predicates
    # ------------------------------------------------------------------

    def is_semicomplete(self, within: int | None = None) -> bool:
        """True iff every pair of distinct vertices is adjacent; only pairs
        inside the vertex mask ``within`` count when it is given."""
        m = self.full_mask if within is None else within
        adj = self.adj_masks
        return all(adj[v] & m == m ^ (1 << v) for v in bits(m))

    def bipartition(self) -> tuple[int, ...] | None:
        """A proper 2-colouring of the underlying graph, or None.

        Colouring is deterministic: components are rooted at their smallest
        vertex, which gets colour 0.
        """
        return self.underlying_graph().bipartition()

    def is_semicomplete_bipartite(self) -> bool:
        """True iff some bipartition has every cross pair adjacent.

        Arcless digraphs qualify with one empty side.  With at least one arc
        both sides are non-empty, so adjacent cross pairs make the digraph
        connected and its 2-colouring forced: testing the cross pairs of
        that colouring suffices.
        """
        zero = two_colouring(self.adj_masks, self.full_mask)
        if zero is None:
            return False
        one = self.full_mask ^ zero
        return all(self.adj_masks[v] & one == one for v in bits(zero))

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.out_masks == other.out_masks

    def __hash__(self) -> int:
        return hash((self.n, self.out_masks))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={list(self.arcs())!r})"


class UndirectedGraph:
    """An immutable simple graph on vertices ``0..n-1``, bitmask adjacency."""

    __slots__ = ("n", "adj_masks", "full_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(_outside(f"edge ({u}, {v})", n, "graph"))
            if u == v:
                raise ValueError(f"self-edge ({u}, {v}) not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj_masks = tuple(adj)
        self.full_mask = (1 << n) - 1

    @classmethod
    def _from_masks(cls, n: int, adj_masks) -> "UndirectedGraph":
        g = object.__new__(cls)
        g.n = n
        g.adj_masks = tuple(adj_masks)
        g.full_mask = (1 << n) - 1
        return g

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, m in enumerate(self.adj_masks):
            for v in bits(m >> (u + 1) << (u + 1)):
                yield (u, v)

    def complement(self) -> "UndirectedGraph":
        full = self.full_mask
        return UndirectedGraph._from_masks(
            self.n, tuple(full & ~self.adj_masks[v] & ~(1 << v) for v in range(self.n))
        )

    def bipartition(self) -> tuple[int, ...] | None:
        zero = two_colouring(self.adj_masks, self.full_mask)
        if zero is None:
            return None
        return tuple(0 if zero >> v & 1 else 1 for v in range(self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.n == other.n and self.adj_masks == other.adj_masks

    def __hash__(self) -> int:
        return hash((self.n, self.adj_masks))

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.n}, edges={list(self.edges())!r})"


@dataclass(frozen=True)
class SetRelation:
    """How a vertex set X relates to a disjoint vertex set Y.

    ``dominates_all``: every x in X dominates every y in Y (vacuously true
    when either side is empty).  ``no_back_arc``: no arc from Y to X.
    ``strictly_dominates`` is the conjunction of the two.
    """

    dominates_all: bool
    no_back_arc: bool

    @property
    def strictly_dominates(self) -> bool:
        return self.dominates_all and self.no_back_arc


def set_relation(d: Digraph, xs: Iterable[int], ys: Iterable[int]) -> SetRelation:
    """Compute the domination flags between two disjoint vertex sets."""
    xset = sorted(set(xs))
    yset = sorted(set(ys))
    for v in xset + yset:
        d._check_vertex(v)
    xmask = mask_of(xset)
    ymask = mask_of(yset)
    if xmask & ymask:
        raise ValueError("set_relation() requires disjoint vertex sets")
    dominates_all = all(d.out_masks[x] & ymask == ymask for x in xset)
    no_back = all(d.out_masks[y] & xmask == 0 for y in yset)
    return SetRelation(dominates_all, no_back)


# ----------------------------------------------------------------------
# edge-list text format
# ----------------------------------------------------------------------
#
# First data line: "n <count>", with count at most MAX_VERTICES.  Every
# further data line: "u v" for one arc, its endpoints integer literals as
# int() reads them ("007" is 7); a repeated arc is stored once.  Blank lines
# and lines starting with '#' are ignored.


def _parse_canonical(text: str) -> Digraph | None:
    """The digraph of ``text`` if every line is as format_edge_list writes it
    (arcs in any order, repeats allowed), else None.  The count's length is
    bounded before ``int()`` reads it.  If the text ends in a newline and
    deleting the body's digits leaves one ``" \\n"`` per two tokens, every
    body line is ``a b``: 2k separators leave 2k slots before them, one token
    to a slot."""
    head, _, body = text.partition("\n")
    count = head[2:]
    if not (text[-1:] == "\n" and head[:2] == "n " and count.isdecimal()
            and len(count) <= len(str(MAX_VERTICES)) and str(n := int(count)) == count
            and n <= MAX_VERTICES):
        return None
    tokens = body.split()
    if body.translate(dict.fromkeys(b"0123456789")) != " \n" * (len(tokens) // 2):
        return None
    vertex = {str(v): v for v in range(n)}
    out = [0] * n
    inn = [0] * n
    ends = map(vertex.__getitem__, tokens)
    try:
        for u, v in zip(ends, ends):
            out[u] |= 1 << v
            inn[v] |= 1 << u
    except KeyError:  # 007, +7, a non-ASCII digit or an out-of-range name
        return None
    if any(m >> u & 1 for u, m in enumerate(out)):  # a loop
        return None
    return Digraph._from_masks(n, out, inn)


def parse_edge_list(text: str) -> Digraph:
    """Parse the edge-list format; raises EdgeListError with a line number.

    Text exactly as format_edge_list writes it is decided in one pass.  Any
    other text is read from line 1 by the loop below, where an arc line of
    two distinct canonical names ``str(v)`` is read in one ``try`` through a
    token table and every other line (blank, comment, ``007``, a loop, an
    error) falls through to the checks, so results and messages are theirs.
    """
    if (d := _parse_canonical(text)) is not None:
        return d
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
    vertex = {str(v): v for v in range(n)}
    for lineno, raw in lines:  # the arcs
        try:
            a, b = raw.split()
            u, v = vertex[a], vertex[b]
        except (ValueError, KeyError):
            u = v = None
        if u != v:
            out[u] |= 1 << v
            inn[v] |= 1 << u
            continue
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
            raise EdgeListError(lineno, _outside(f"arc ({u}, {v})", n))
        if u == v:
            raise EdgeListError(lineno, f"loop arc ({u}, {v}) not allowed")
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return Digraph._from_masks(n, out, inn)


def format_edge_list(d: Digraph) -> str:
    """Serialize to the edge-list format; inverse of parse_edge_list."""
    lines = [f"n {d.n}"]
    lines.extend(f"{u} {v}" for u, v in d.arcs())
    return "\n".join(lines) + "\n"
