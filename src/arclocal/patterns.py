"""Recognition of digraph classes defined by forbidden path orientations.

Each pattern is an orientation of the four-vertex path v1 - v2 - v3 - v4
that always contains the central arc v2 -> v3.  The four orientations are
named by where the end vertices attach:

    in_in    v1 -> v2,  v2 -> v3,  v4 -> v3
    out_out  v2 -> v1,  v2 -> v3,  v3 -> v4
    in_out   v1 -> v2,  v2 -> v3,  v3 -> v4   (the directed path)
    out_in   v2 -> v1,  v2 -> v3,  v4 -> v3

A digraph is "free" of a pattern when every occurrence on four distinct
vertices has v1 and v4 adjacent.  Freeness of each orientation characterises
a class:

    in_in    arc-locally in-semicomplete
    out_out  arc-locally out-semicomplete
    in_out   3-quasi-transitive
    out_in   3-anti-quasi-transitive

The separate anti_circulant condition asks that whenever the arcs
x1 -> x2, x3 -> x2, x3 -> x4 exist on distinct vertices, the closing arc
x4 -> x1 exists too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .digraph import Digraph, bits
from .errors import InvariantViolation

PATH_PATTERNS = ("in_in", "out_out", "in_out", "out_in")

# Arcs of each pattern as index pairs into the witness tuple (v1, v2, v3, v4).
PATTERN_ARCS = {
    "in_in": ((0, 1), (1, 2), (3, 2)),
    "out_out": ((1, 0), (1, 2), (2, 3)),
    "in_out": ((0, 1), (1, 2), (2, 3)),
    "out_in": ((1, 0), (1, 2), (3, 2)),
    "anti_circulant": ((0, 1), (2, 1), (2, 3)),
}

# Whether v1 is an out-neighbour of v2 and v4 an out-neighbour of v3.
_SIDES = {
    "in_in": (False, False),
    "out_out": (True, True),
    "in_out": (False, True),
    "out_in": (True, False),
}


@dataclass(frozen=True)
class PatternWitness:
    """Four distinct vertices realising a pattern violation.

    For the path patterns the three pattern arcs are present and v1, v4 are
    non-adjacent.  For anti_circulant the three defining arcs are present
    and the closing arc v4 -> v1 is absent.
    """

    pattern: str
    vertices: tuple[int, int, int, int]

    def record(self) -> str:
        """Compact text form: pattern name followed by the four labels."""
        return " ".join([self.pattern, *map(str, self.vertices)])


def find_pattern_violation(d: Digraph, pattern: str) -> PatternWitness | None:
    """First violation of a path pattern in deterministic scan order.

    Returns the least violating tuple in (v2, v3, v1, v4) order, or None
    when the digraph is free of the pattern.

    Phase 1 finds the least suspect v2 and its least kept arc (v2, v3): one
    whose v4 pool ``side4[v3]`` meets ``reach``, the union over the v1 in
    v2's pool of the vertices other than v1 not adjacent to v1 (a v1
    adjacent to every other vertex adds nothing, so only the v1 in
    ``open1`` count).  The v2 are sorted by pool, so twins, such as the
    parts of an extended cycle, form runs that share one ``reach``.  It is
    built when a run's first (least) member is below the least suspect so
    far, and members at or above that are skipped.  When out(v2) outnumbers
    ``reach``, it is first cut to the union of ``co4[v4]`` (the v3 whose v4
    pool holds v4) over the v4 in ``reach``.

    Keeping is exact: a v4 in ``side4[v3]`` and in ``reach`` is adjacent to
    v3 and not to some v1 of the pool, so v1 != v3 and (v1, v2, v3, v4) is a
    witness (v4 != v2, as every v1 is adjacent to v2); the v4 of every
    witness lies in both sets.  So phase 2 takes that arc, v1 ascending
    until one has a non-adjacent v4 in the pool, and the least such v4.

    Memory: one ``reach`` at a time, and the sorted order of the v2.  Runs
    come from sorting, not hashing: an int's hash depends on its bit
    positions modulo 61 only, so a dict would put the one-vertex pools of a
    path into 61 buckets and crafted pools into one.
    """
    try:
        v1_out, v4_out = _SIDES[pattern]
    except KeyError:
        raise ValueError(f"unknown path pattern {pattern!r}") from None
    out, inn, adj, full = d.out_masks, d.in_masks, d.adj_masks, d.full_mask
    side1 = out if v1_out else inn
    side4, co4 = (out, inn) if v4_out else (inn, out)
    open1 = -1  # the v1 that add to ``reach``: not adjacent to every other vertex
    for v, a in enumerate(adj):
        if a | 1 << v == full:
            open1 ^= 1 << v
    least = d.n  # the least suspect v2 so far, and v3 its least arc kept
    last = None
    for v2 in sorted(range(d.n), key=side1.__getitem__):  # each run's least first
        pool1 = side1[v2]
        if pool1 != last:
            last, reach = pool1, 0
            if v2 < least:
                mm = pool1 & open1
                while mm:
                    bb = mm & -mm
                    reach |= full ^ adj[bb.bit_length() - 1] ^ bb
                    mm ^= bb
                size = reach.bit_count()
        m = out[v2]
        if not (reach and m) or v2 >= least:
            continue
        if m.bit_count() > size:  # keep only the v3 whose v4 pool meets reach
            kept, mm = 0, reach
            while mm:
                bb = mm & -mm
                kept |= co4[bb.bit_length() - 1]
                mm ^= bb
            m &= kept
        while m:
            b = m & -m
            if side4[b.bit_length() - 1] & reach:
                least, v3 = v2, b.bit_length() - 1
                break
            m ^= b
    if least == d.n:
        return None
    pool4, mm = side4[v3], side1[least] & ~(1 << v3)
    while mm:  # v1 ascending, then the least v4
        bb = mm & -mm
        cand = pool4 & ~adj[bb.bit_length() - 1] & ~bb
        if cand:
            v1, v4 = bb.bit_length() - 1, (cand & -cand).bit_length() - 1
            return PatternWitness(pattern, (v1, least, v3, v4))
        mm ^= bb
    raise InvariantViolation(f"kept arc ({least}, {v3}) completes no {pattern} witness")


def find_anti_circulant_violation(d: Digraph) -> PatternWitness | None:
    """First (x1, x2, x3, x4) with the closing arc x4 -> x1 missing, or None."""
    out = d.out_masks
    inn = d.in_masks
    for x1 in range(d.n):
        open4 = ~(1 << x1) & ~inn[x1]  # x4 other than x1, without the arc x4 -> x1
        for x2 in bits(out[x1]):
            for x3 in bits(inn[x2] & ~(1 << x1)):
                cand = out[x3] & open4 & ~(1 << x2)
                if cand:
                    x4 = (cand & -cand).bit_length() - 1
                    return PatternWitness("anti_circulant", (x1, x2, x3, x4))
    return None


def is_arc_locally_in_semicomplete(d: Digraph) -> bool:
    """In-neighbours of the ends of any arc are pairwise adjacent."""
    return find_pattern_violation(d, "in_in") is None


def is_arc_locally_out_semicomplete(d: Digraph) -> bool:
    """Out-neighbours of the ends of any arc are pairwise adjacent."""
    return find_pattern_violation(d, "out_out") is None


def is_arc_locally_semicomplete(d: Digraph) -> bool:
    """Both the in_in and the out_out condition hold."""
    return (
        find_pattern_violation(d, "in_in") is None
        and find_pattern_violation(d, "out_out") is None
    )


def is_3_quasi_transitive(d: Digraph) -> bool:
    """Ends of any directed path on four vertices are adjacent."""
    return find_pattern_violation(d, "in_out") is None


def is_3_anti_quasi_transitive(d: Digraph) -> bool:
    return find_pattern_violation(d, "out_in") is None


def is_3_anti_circulant(d: Digraph) -> bool:
    return find_anti_circulant_violation(d) is None


@dataclass(frozen=True)
class ClassReport:
    """Membership flags for one digraph, with witnesses for failed flags.

    ``witnesses`` is keyed by flag name and only holds entries for flags
    that are False and have a witness type (the pattern-defined classes).
    """

    arc_locally_in_semicomplete: bool
    arc_locally_out_semicomplete: bool
    arc_locally_semicomplete: bool
    three_quasi_transitive: bool
    three_anti_quasi_transitive: bool
    three_anti_circulant: bool
    semicomplete: bool
    semicomplete_bipartite: bool
    bipartite: bool
    witnesses: dict[str, PatternWitness]

    def flag(self, name: str) -> bool:
        if name not in self.FLAG_NAMES:
            raise ValueError(f"unknown class flag {name!r}")
        return getattr(self, name)


# Every field but the witnesses is a class flag, in declaration order.
ClassReport.FLAG_NAMES = tuple(f.name for f in fields(ClassReport) if f.name != "witnesses")

# The class flag each forbidden pattern decides.
_PATTERN_FLAGS = {
    "in_in": "arc_locally_in_semicomplete",
    "out_out": "arc_locally_out_semicomplete",
    "in_out": "three_quasi_transitive",
    "out_in": "three_anti_quasi_transitive",
    "anti_circulant": "three_anti_circulant",
}


def classify(d: Digraph) -> ClassReport:
    """Evaluate every class flag on one digraph."""
    found = {
        flag: find_pattern_violation(d, pattern)
        if pattern in _SIDES
        else find_anti_circulant_violation(d)
        for pattern, flag in _PATTERN_FLAGS.items()
    }
    found["arc_locally_semicomplete"] = (
        found["arc_locally_in_semicomplete"] or found["arc_locally_out_semicomplete"]
    )
    return ClassReport(
        **{flag: w is None for flag, w in found.items()},
        semicomplete=d.is_semicomplete(),
        semicomplete_bipartite=d.is_semicomplete_bipartite(),
        bipartite=d.bipartition() is not None,
        witnesses={
            name: found[name]
            for name in ClassReport.FLAG_NAMES
            if found.get(name) is not None
        },
    )
