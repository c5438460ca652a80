"""Exhaustive verification sweeps over all labelled digraphs of a given size.

Each sweep decides, for every digraph on n vertices, whether it is a
connected member of the class under test, runs the operation being checked
on the members and collects failures as (enumeration index, reason) pairs,
so any failure can be replayed with ``digraph_from_index``.

Membership is decided by ``_member_rows``: the classes are hereditary
(their forbidden configurations live on four vertices), so membership is
read off 4-vertex tables for a whole enumeration row at once.  ``scanned``
counts every digraph whose membership was decided; the duality property,
which ranges over all digraphs, builds each of them and checks the stated
class's pattern on it against the dual pattern on its inverse.  Since the
walk has already decided membership and connectivity, the checks call the
decomposer's private entries (``_decompose``, ``_is_diperfect``,
``_classify_als``), which re-check neither.

Most members are never built.  Two more row filters decide, per row, which
members ``may_have_odd_extended_cycle_component`` rules out (a count of
qualifying vertices, bit-parallel over the low rows) and which have a
perfect underlying graph by the perfection oracle, read on the adjacency
alone; every filter's row keys come from per-pair parts by ``_row_keys``.
For a ruled-out member every private entry returns its shared diperfect
record, and the verifier checks that record with the same oracle on the
same adjacency, so the ``main-theorem``, ``diperfect`` and ``dichotomy``
sweeps tally the members in both sets as "diperfect" by popcount;
``non-oriented`` tallies every perfect member, since a perfect graph has no
odd hole.  Every other member is built and checked one by one.
The per-member functions still run on every n=5 member in acceptance
criteria 4 and 5.

``run_sweep`` can shard the high enumeration rows across worker processes;
results do not depend on the sharding.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, reduce
from operator import or_

from .decompose import (
    _classify_als,
    _decompose,
    _is_diperfect,
    verify_als_outcome,
    verify_decomposition,
)
from .digraph import Digraph, bits, closure, set_relation, two_colouring
from .errors import ArcLocalError
from .generators import (
    _adjacency,
    _build_rows,
    _member_rows,
    _perfection,
    _require_enumerable,
    _row_filter,
    _row_keys,
    _split_tables,
    enumeration_rows,
    vertex_pairs,
)
from .patterns import find_pattern_violation
from .structure import (
    find_induced_nonoriented_odd_cycle_ge5,
    odd_extended_cycle_components,
    strong_components,
)

@dataclass
class SweepReport:
    """Tally of one sweep.  ``failures`` holds (index, reason) pairs."""

    n: int
    cls: str
    prop: str
    scanned: int = 0
    members: int = 0
    outcomes: Counter = field(default_factory=Counter)
    failures: list[tuple[int, str]] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "SweepReport") -> None:
        self.scanned += other.scanned
        self.members += other.members
        self.outcomes.update(other.outcomes)
        self.failures.extend(other.failures)

    def summary(self) -> str:
        status = "0 failures" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"{self.scanned} scanned, {self.members} members of class "
            f"'{self.cls}', {status} ({self.seconds:.1f}s)"
        )


def _check_main_theorem(d: Digraph, cls: str) -> tuple[str, str | None]:
    dec = _decompose(d, "in" if cls == "in" else "out")
    ok, reason = verify_decomposition(d, dec)
    if not ok:
        return dec.kind, f"verification failed: {reason}"
    return dec.kind, None


def _check_dichotomy(d: Digraph, cls: str) -> tuple[str, str | None]:
    outcome = _classify_als(d)
    _ok, reason = verify_als_outcome(d, outcome)
    return outcome.kind, reason


def _check_diperfect(d: Digraph, cls: str) -> tuple[str, str | None]:
    claimed, _cycle = _is_diperfect(d)
    actual, witness = _perfection(d.n, d.adj_masks)
    if claimed != actual:
        return (
            "diperfect" if claimed else "imperfect",
            f"diperfection claim {claimed} but oracle says {actual} ({witness})",
        )
    return "diperfect" if claimed else "imperfect", None


def _check_non_oriented(d: Digraph, cls: str) -> tuple[str, str | None]:
    cycle = find_induced_nonoriented_odd_cycle_ge5(d)
    if cycle is not None:
        return "member", f"non-oriented induced odd cycle {cycle} inside a member"
    return "member", None


def _check_duality(d: Digraph, cls: str) -> tuple[str, str | None]:
    inverse = d.inverse()
    for side, dual in (("in", "out"), ("out", "in")):
        # the stated class's own pattern on d against the dual one on the inverse
        if cls in (side, "als") and (find_pattern_violation(d, f"{side}_{side}") is None) != (
            find_pattern_violation(inverse, f"{dual}_{dual}") is None
        ):
            return "digraph", f"{side}-membership of d differs from {dual}-membership of inverse"
    return "digraph", None


# ----------------------------------------------------------------------
# structural facts about class members (checked, not assumed)
# ----------------------------------------------------------------------


def lemma_failures(d: Digraph) -> list[str]:
    """Check the structural facts every arc-locally in-semicomplete member obeys.

    Facts checked on the strong components of d:

    1. Every vertex with a directed path to a non-trivial strong component K
       dominates some vertex of K.
    2. If an arc joins non-trivial components K1 -> K2, then K1 strictly
       dominates K2 or d[K1 union K2] is bipartite.
    3. If a vertex v dominates into a non-trivial component Q with d[Q]
       non-bipartite, then v dominates all of Q and no arc returns to v.
    4. If a non-initial component Q induces an odd extended cycle with
       k >= 5 parts: everything reachable from Q is trivial; the union W of
       components reaching Q strictly dominates Q; d[W] is semicomplete;
       exactly one initial component reaches Q.
    5. If the digraph is connected with at least two initial components,
       every initial component is trivial.
    """
    problems: list[str] = []
    sd = strong_components(d)
    comps, masks = sd.components, sd.masks
    nontrivial = [i for i in range(len(comps)) if len(comps[i]) > 1]
    for q in nontrivial:
        qmask = masks[q]
        for v in bits(closure(d.in_masks, qmask) & ~qmask):
            if d.out_masks[v] & qmask == 0:
                problems.append(
                    f"vertex {v} reaches component {comps[q]} without dominating into it"
                )
    for q1 in nontrivial:
        for q2 in nontrivial:
            if q1 == q2:
                continue
            m2 = masks[q2]
            if not any(d.out_masks[v] & m2 for v in comps[q1]):
                continue
            rel = set_relation(d, comps[q1], comps[q2])
            if rel.strictly_dominates:
                continue
            if two_colouring(d.adj_masks, masks[q1] | m2) is None:
                problems.append(
                    f"components {comps[q1]} -> {comps[q2]}: neither strict "
                    "domination nor bipartite union"
                )
    for q in nontrivial:
        qmask = masks[q]
        if two_colouring(d.adj_masks, qmask) is not None:
            continue
        for v in range(d.n):
            if (qmask >> v) & 1 or d.out_masks[v] & qmask == 0:
                continue
            if d.out_masks[v] & qmask != qmask or d.in_masks[v] & qmask != 0:
                problems.append(
                    f"vertex {v} dominates into non-bipartite component {comps[q]} "
                    "without strictly dominating it"
                )
    # A component is initial iff no arc enters it from outside.
    initials = [i for i, c in enumerate(comps) if not any(d.in_masks[v] & ~masks[i] for v in c)]
    for qmask, cert in odd_extended_cycle_components(d):
        comp = cert.vertices()
        before = closure(d.in_masks, qmask) & ~qmask
        if not before:  # Q is initial
            continue
        after = closure(d.out_masks, qmask) & ~qmask
        for i in sorted({sd.component_of[v] for v in bits(after)}):
            if len(comps[i]) > 1:
                problems.append(
                    f"non-trivial component {comps[i]} reachable from odd "
                    f"extended cycle {comp}"
                )
        w = tuple(bits(before))
        if not set_relation(d, w, comp).strictly_dominates:
            problems.append(
                f"components reaching odd extended cycle {comp} do not "
                "strictly dominate it"
            )
        if not d.is_semicomplete(before):
            problems.append(
                f"union {w} of components reaching {comp} is not semicomplete"
            )
        reached_by = sum(1 for i in initials if masks[i] & before)
        if reached_by != 1:
            problems.append(
                f"odd extended cycle {comp} is reached by {reached_by} initial components"
            )
    if d.is_connected() and len(initials) >= 2:
        for i in initials:
            if len(comps[i]) > 1:
                problems.append(f"non-trivial initial component {comps[i]}")
    return problems


def _check_lemmas(d: Digraph, cls: str) -> tuple[str, str | None]:
    problems = lemma_failures(d)
    if problems:
        return "member", "; ".join(problems)
    return "member", None


_CLASSES = ("in", "out", "als")

# Each property: its check, the classes it is stated for, whether it ranges
# over every digraph rather than the class members, and the outcome its check
# gives each member that ``_settled_rows`` picks, tallied unbuilt (None: every
# member is built).
_PROPERTIES = {
    "main-theorem": (_check_main_theorem, _CLASSES, False, "diperfect"),
    "dichotomy": (_check_dichotomy, ("als",), False, "diperfect"),
    "diperfect": (_check_diperfect, ("in", "als"), False, "diperfect"),
    "lemmas": (_check_lemmas, ("in", "als"), False, None),
    "non-oriented": (_check_non_oriented, _CLASSES, False, "member"),
    "duality": (_check_duality, _CLASSES, True, None),
}

SWEEP_PROPERTIES = tuple(_PROPERTIES)


def _half_keys(tables, key) -> list[list[int]]:
    """``key(out_masks, in_masks)`` of every row of each half of
    ``_split_tables``'s pair, for a key that ORs across pairs: a row's key is
    the OR of the keys of the rows that set one of its pairs alone."""
    return [
        _row_keys(range(len(t).bit_length() // 2), lambda i, s: key(*t[s << 2 * i])) for t in tables
    ]


def _ruled_out_rows(n: int, tables):
    """Per high row h, the low rows whose digraph the guard
    ``may_have_odd_extended_cycle_component`` rules out: fewer than 5
    vertices have an out-arc, an in-arc and no digon.

    A row's key holds 3 bits per vertex (digon, out-arc, in-arc), which OR
    across the halves.  For each vertex v and each of its 8 high states, the
    low rows in which v counts once ORed with that state are read off the
    low keys once.  A high key then counts the vertices bit-parallel over
    all low rows, one mask per count below 5; masks are cached by high key.
    """
    low, high = _half_keys(
        tables,
        lambda out, inn: sum(
            (bool(o & i) | bool(o) << 1 | bool(i) << 2) << 3 * v
            for v, (o, i) in enumerate(zip(out, inn))
        ),
    )
    groups: dict[int, int] = {}
    for r, key in enumerate(low):
        groups[key] = groups.get(key, 0) | 1 << r
    counted = [  # counted[v][s]: low rows where v has out, in and no digon under state s
        [sum(g for key, g in groups.items() if key >> 3 * v & 7 | s == 6) for s in range(8)]
        for v in range(n)
    ]

    def ruled_out(key: int) -> int:
        exactly = [(1 << len(low)) - 1, 0, 0, 0, 0]  # low rows with k counted, k < 5
        for v, by_state in enumerate(counted):
            m = by_state[key >> 3 * v & 7]
            # the rows of m count v: each moves up one count, and a fifth drops it
            exactly = [e & ~m | below & m for below, e in zip([0, *exactly], exactly)]
        return reduce(or_, exactly)

    masks = cache(ruled_out)
    return lambda h: masks(high[h])


def _settled_rows(n: int, tables, kind: str):
    """Per high row h, the low rows whose underlying graph the perfection
    oracle finds perfect and, for a "diperfect" tally, that the guard rules
    out.  Such a member gets the shared diperfect record from ``_decompose``,
    ``_is_diperfect`` and ``_classify_als``, which the oracle then verifies
    on the same adjacency; and a perfect graph has no odd hole.  Rows are
    keyed by adjacency, as connectivity is in ``_member_rows``."""
    perfect = _row_filter(
        *_half_keys(
            tables, lambda out, inn: sum(a << n * v for v, a in enumerate(map(or_, out, inn)))
        ),
        lambda lo, hi: _perfection(n, _adjacency(n, lo | hi))[0],
    )
    if kind != "diperfect":
        return perfect
    ruled_out = _ruled_out_rows(n, tables)
    return lambda h: ruled_out(h) & perfect(h)


def _run_rows(n: int, cls: str, prop: str, lo: int, hi: int) -> SweepReport:
    """One shard: every digraph whose high enumeration row lies in [lo, hi)."""
    check, _, all_digraphs, kind = _PROPERTIES[prop]
    width, _ = enumeration_rows(n)
    rows = range(lo, hi)
    tables = _split_tables(n, vertex_pairs(n))
    if all_digraphs:
        row_masks = ((h, (1 << width) - 1) for h in rows)
    else:
        row_masks = _member_rows(n, cls, rows)
    settled = _settled_rows(n, tables, kind) if kind else lambda h: 0
    members = tallied = 0
    outcomes: Counter = Counter()
    failures: list[tuple[int, str]] = []
    for h, allowed in row_masks:
        bulk = allowed & settled(h)
        tallied += bulk.bit_count()
        for index, d in _build_rows(n, tables, ((h, allowed ^ bulk),)):
            members += 1
            try:
                outcome, problem = check(d, cls)
            except ArcLocalError as exc:
                failures.append((index, f"{type(exc).__name__}: {exc}"))
                continue
            outcomes[outcome] += 1
            if problem is not None:
                failures.append((index, problem))
    if tallied:
        outcomes[kind] += tallied
    return SweepReport(
        n=n, cls=cls, prop=prop, scanned=len(rows) * width,
        members=members + tallied, outcomes=outcomes, failures=failures,
    )


def run_sweep(n: int, cls: str, prop: str, jobs: int = 1) -> SweepReport:
    """Run one verification property over every digraph on n vertices.

    ``jobs`` worker processes share the high enumeration rows; more than the
    CPUs this process may run on are never started.  A property run on a
    class it is not stated for raises ValueError before any work starts.
    """
    if prop not in _PROPERTIES:
        raise ValueError(f"unknown sweep property {prop!r}")
    if cls not in _CLASSES:
        raise ValueError(f"unknown class {cls!r}")
    stated_for = _PROPERTIES[prop][1]
    if cls not in stated_for:
        raise ValueError(
            f"property {prop!r} is stated for class {' and '.join(stated_for)} only, not {cls!r}"
        )
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    _require_enumerable(n)
    jobs = min(jobs, os.cpu_count() or 1)
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        jobs = min(jobs, len(os.sched_getaffinity(0)))
    _, total = enumeration_rows(n)
    started = time.perf_counter()
    if jobs == 1:
        report = _run_rows(n, cls, prop, 0, total)
    else:
        from multiprocessing import Pool

        step = (total + jobs - 1) // jobs
        shards = [
            (n, cls, prop, lo, min(lo + step, total)) for lo in range(0, total, step)
        ]
        report = SweepReport(n=n, cls=cls, prop=prop)
        with Pool(processes=jobs) as pool:
            for part in pool.starmap(_run_rows, shards):
                report.merge(part)
    report.seconds = time.perf_counter() - started
    return report
