"""Certified decomposition of arc-locally (in/out) semicomplete digraphs.

``decompose_in_semicomplete`` maps every connected arc-locally
in-semicomplete digraph to exactly one of three outcomes:

  diperfect      no induced directed odd cycle on >= 5 vertices exists
                 (by the lemma below, the underlying graph is perfect);
  tripartition   a partition (V1, V2, V3): d[V1] semicomplete, V1 strictly
                 dominates V2, no arc from V3 to V1, d[V2] an odd extended
                 cycle with k >= 5 parts, no arc from V3 to V2, and d[V3]
                 bipartite.  V1 and V3 may be empty;
  clique_cut     a vertex set whose removal disconnects the digraph and
                 which induces a semicomplete subdigraph.

``decompose_out_semicomplete`` is the mirror image (arc directions reversed:
V2 strictly dominates V1, no arc from V1 to V3, no arc from V2 to V3).  Both
directions run one routine on d itself, which reads V1 and V3 through d's
in- and out-masks for "in" and through the swapped pair for "out".

Lemma.  A member of either class has an induced directed odd cycle on >= 5
vertices iff its underlying graph G is imperfect.  Such a cycle is an odd
hole of G.  Conversely, by the strong perfect graph theorem (Chudnovsky,
Robertson, Seymour and Thomas, Ann. Math. 164 (2006)) an imperfect G has an
odd hole or an odd antihole on >= 7 vertices; the classes are hereditary.
That antihole induces the complement of P6, which no member orientation has.
In a hole C_k, k >= 5, only four consecutive vertices induce a P4, and every
orientation of a smaller linear forest on four vertices is a member, so the
member orientations of C_k are the closed k-walks of the window graph on
the states of two consecutive edges.  Its only cycles are two loops (all
arcs forward, all backward) and a 2-cycle (alternating), so an odd hole of
a member is a directed cycle.  The tests pin both facts.

Diperfect outcomes carry no data: each entry returns one shared frozen record
(one per direction, one for the dichotomy), compared and hashed by value.

``verify_decomposition`` re-checks an outcome using only the primitive
operations, never the decomposer's intermediate state.  At or below the
oracle cap the brute-force perfection oracle, which reads the digraph's own
adjacency masks and nothing else, is the sole check of a diperfect claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, bits, closure, mask_of, set_relation, two_colouring
from .errors import ClassViolation, DisconnectedError, InvariantViolation
from .generators import _perfection
from .patterns import find_pattern_violation
from .structure import (
    DEFAULT_ORACLE_CAP,
    ExtendedCycleCertificate,
    check_extended_cycle_certificate,
    directed_cycle_order,
    odd_extended_cycle_components,
    verify_clique_cut,
)

DIPERFECT = "diperfect"
TRIPARTITION = "tripartition"
CLIQUE_CUT = "clique_cut"
ODD_EXTENDED_CYCLE = "odd_extended_cycle"


@dataclass(frozen=True)
class Decomposition:
    """Outcome of decomposing one digraph.

    ``kind`` is one of diperfect / tripartition / clique_cut; ``direction``
    records which class the decomposition speaks about ("in" or "out").
    ``cert`` covers V2 for tripartitions; ``cut`` is the clique cut.
    """

    kind: str
    direction: str
    v1: tuple[int, ...] = ()
    cert: ExtendedCycleCertificate | None = None
    v3: tuple[int, ...] = ()
    cut: tuple[int, ...] = ()

    @property
    def v2(self) -> tuple[int, ...]:
        return self.cert.vertices() if self.cert is not None else ()


@dataclass(frozen=True)
class ALSOutcome:
    """Dichotomy outcome for connected arc-locally semicomplete digraphs."""

    kind: str  # diperfect | odd_extended_cycle
    cert: ExtendedCycleCertificate | None = None


_DIPERFECT_IN = Decomposition(DIPERFECT, "in")
_DIPERFECT_OUT = Decomposition(DIPERFECT, "out")
_ALS_DIPERFECT = ALSOutcome(DIPERFECT)


def _require_class(d: Digraph, pattern: str, class_name: str) -> None:
    w = find_pattern_violation(d, pattern)
    if w is not None:
        raise ClassViolation(w, f"not {class_name}: witness {w.record()}")


def _require_connected(d: Digraph) -> None:
    if not d.is_connected():
        raise DisconnectedError("decomposition requires a connected digraph")


def _odd_component(d: Digraph) -> tuple[int, ExtendedCycleCertificate] | None:
    """(vertex mask, certificate) of the strong component that is an odd
    extended cycle with k >= 5 parts, or None.

    When several components qualify, the one containing the smallest vertex
    (``cert.parts[0][0]``) is chosen, which makes downstream outcomes
    deterministic.
    """
    found = odd_extended_cycle_components(d)
    return min(found, key=lambda pair: pair[1].parts[0][0]) if found else None


def is_diperfect_in_class(d: Digraph) -> tuple[bool, tuple[int, ...] | None]:
    """Diperfection test for arc-locally in-semicomplete digraphs.

    Membership is a checked precondition.  Within the class, an induced
    directed odd cycle on >= 5 vertices exists iff some strong component is
    an odd extended cycle with k >= 5 parts, so no subset search is needed.
    Returns (True, None) or (False, cycle) where the cycle takes one vertex
    per part of the offending component.
    """
    _require_class(d, "in_in", "arc-locally in-semicomplete")
    return _is_diperfect(d)


def _is_diperfect(d: Digraph) -> tuple[bool, tuple[int, ...] | None]:
    """``is_diperfect_in_class`` for a digraph already known to be an
    arc-locally in-semicomplete digraph; nothing is re-checked."""
    found = _odd_component(d)
    if not found:
        return True, None
    return False, tuple(part[0] for part in found[1].parts)


def decompose_in_semicomplete(d: Digraph) -> Decomposition:
    """Decompose a connected arc-locally in-semicomplete digraph.

    Outline: if no strong component is an odd extended cycle with k >= 5
    parts, the digraph is diperfect.  Otherwise let Q be such a component.
    If Q is initial, (empty, V(Q), rest) already satisfies the tripartition
    conditions.  Otherwise the vertices with a path into Q form V1, those
    reached from Q form V3; when V1, V(Q) and V3 exhaust the digraph they are
    the tripartition, and otherwise V1 is a clique cut separating the rest.
    """
    _require_class(d, "in_in", "arc-locally in-semicomplete")
    _require_connected(d)
    return _decompose(d, "in")


def decompose_out_semicomplete(d: Digraph) -> Decomposition:
    """Decompose a connected arc-locally out-semicomplete digraph.

    The in-direction outline on d itself with its in- and out-masks swapped:
    V1 is reached from Q and V3 has a path into Q, so V2 strictly dominates
    V1, and no arc goes V1 -> V3 or V2 -> V3.  The certificate is Q's own.
    """
    _require_class(d, "out_out", "arc-locally out-semicomplete")
    _require_connected(d)
    return _decompose(d, "out")


def _decompose(d: Digraph, direction: str) -> Decomposition:
    """The decomposition in ``direction`` ("in" or "out") of a digraph
    already known to be a connected member of that class; nothing is
    re-checked.  "out" reads d's in- and out-masks swapped."""
    found = _odd_component(d)
    if not found:
        return _DIPERFECT_IN if direction == "in" else _DIPERFECT_OUT
    qmask, cert = found
    into, outof = (d.in_masks, d.out_masks) if direction == "in" else (d.out_masks, d.in_masks)
    # Vertices with a path into Q, and those reached from Q: unions of whole
    # components, disjoint since a common vertex would lie on a cycle through Q.
    # An initial Q (nothing before it) takes every other vertex as V3.
    before = closure(into, qmask) & ~qmask
    after = closure(outof, qmask) & ~qmask if before else d.full_mask ^ qmask
    if before | qmask | after == d.full_mask:
        return Decomposition(TRIPARTITION, direction, tuple(bits(before)), cert, tuple(bits(after)))
    return Decomposition(CLIQUE_CUT, direction, cut=tuple(bits(before)))


def classify_arc_locally_semicomplete(d: Digraph) -> ALSOutcome:
    """Dichotomy for connected arc-locally semicomplete digraphs.

    Either the digraph is diperfect, or it *is* an odd extended cycle with
    k >= 5 parts.  The second branch carries a runtime check: if an odd
    extended-cycle component fails to exhaust the vertex set the structural
    guarantee itself is violated, which indicates a bug, not a bad input.
    """
    _require_class(d, "in_in", "arc-locally in-semicomplete")
    _require_class(d, "out_out", "arc-locally out-semicomplete")
    _require_connected(d)
    return _classify_als(d)


def _classify_als(d: Digraph) -> ALSOutcome:
    """``classify_arc_locally_semicomplete`` for a digraph already known to
    be a connected member of both classes; nothing is re-checked."""
    found = _odd_component(d)
    if not found:
        return _ALS_DIPERFECT
    qmask, cert = found
    if qmask != d.full_mask:
        raise InvariantViolation(
            "odd extended-cycle component does not span the digraph: "
            f"component {cert.vertices()} inside {d.n} vertices"
        )
    return ALSOutcome(ODD_EXTENDED_CYCLE, cert)


# ----------------------------------------------------------------------
# independent verification
# ----------------------------------------------------------------------


def _verify_diperfect(d: Digraph, cap: int) -> tuple[bool, str | None]:
    """Check a diperfect claim from d and the cap alone.

    At or below the cap the perfection oracle alone decides: an induced
    directed odd cycle on >= 5 vertices is an odd hole, and a hole that d
    orients as a directed cycle is named as one.  The oracle reads
    ``d.adj_masks``; up to EXHAUSTIVE_CAP vertices that is a memo lookup,
    and no underlying graph is built.
    """
    if d.n <= cap:
        perfect, witness = _perfection(d.n, d.adj_masks, cap)
        if perfect:
            return True, None
        kind, order = witness
        cycle = directed_cycle_order(d, order) if kind == "hole" else None
        if cycle is not None:
            return False, f"induced directed odd cycle {cycle} present"
        return False, f"underlying graph imperfect: {kind} {order}"
    # Above the cap the subset searches are unavailable; recompute the
    # structural criterion from d alone instead of trusting the decomposer.
    found = _odd_component(d)
    if found:
        return False, f"odd extended-cycle component {found[1].parts}"
    return True, None


def verify_decomposition(
    d: Digraph, dec: Decomposition, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[bool, str | None]:
    """Re-check a decomposition against its digraph.

    Only primitive operations are used; for diperfect outcomes at or below
    the oracle cap the brute-force perfection oracle is the sole check of
    the claim.  Returns (True, None) or (False, reason).
    """
    if dec.direction not in ("in", "out"):
        return False, f"unknown direction {dec.direction!r}"
    if dec.kind == DIPERFECT:
        return _verify_diperfect(d, cap)
    if dec.kind == TRIPARTITION:
        return _verify_tripartition(d, dec)
    if dec.kind == CLIQUE_CUT:
        if not all(0 <= v < d.n for v in dec.cut):
            return False, "cut contains out-of-range vertices"
        if verify_clique_cut(d, dec.cut):
            return True, None
        # Only a rejected cut is checked again, to name the failed condition.
        if not d.is_semicomplete(mask_of(dec.cut)):
            return False, "cut does not induce a semicomplete subdigraph"
        return False, "removing the cut leaves the digraph connected"
    return False, f"unknown decomposition kind {dec.kind!r}"


def verify_als_outcome(
    d: Digraph, outcome: ALSOutcome, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[bool, str | None]:
    """Re-check a dichotomy outcome against its digraph.

    A diperfect outcome is checked as a diperfect decomposition is; an odd
    extended cycle must be certified on the whole vertex set.  Returns
    (True, None) or (False, reason).
    """
    if outcome.kind == DIPERFECT:
        return _verify_diperfect(d, cap)
    if outcome.kind != ODD_EXTENDED_CYCLE:
        return False, f"unknown dichotomy outcome {outcome.kind!r}"
    cert = outcome.cert
    if cert is None:
        return False, "odd extended cycle outcome without certificate"
    if len(cert.vertices()) != d.n:
        return False, "certificate does not cover the vertex set"
    ok, reason = check_extended_cycle_certificate(d, cert.parts)
    if not ok:
        return False, f"certificate invalid: {reason}"
    if cert.k < 5 or cert.k % 2 == 0:
        return False, f"certificate has inadmissible part count {cert.k}"
    return True, None


def _verify_tripartition(d: Digraph, dec: Decomposition) -> tuple[bool, str | None]:
    if dec.cert is None:
        return False, "tripartition without extended-cycle certificate"
    v1 = dec.v1
    v2 = dec.cert.vertices()
    v3 = dec.v3
    if any(not (0 <= v < d.n) for v in (*v1, *v2, *v3)):
        return False, "partition contains out-of-range vertices"
    m1, m2, m3 = mask_of(v1), mask_of(v2), mask_of(v3)
    if m1 & m2 or m1 & m3 or m2 & m3:
        return False, "V1, V2, V3 overlap"
    if m1 | m2 | m3 != d.full_mask:
        return False, "V1, V2, V3 do not cover the vertex set"
    ok, reason = check_extended_cycle_certificate(d, dec.cert.parts)
    if not ok:
        return False, f"V2 certificate invalid: {reason}"
    k = dec.cert.k
    if k < 5 or k % 2 == 0:
        return False, f"V2 cycle must have an odd number of parts >= 5, got {k}"
    if not d.is_semicomplete(m1):
        return False, "d[V1] not semicomplete"
    if two_colouring(d.adj_masks, m3) is None:
        return False, "d[V3] not bipartite"
    sets = {"V1": v1, "V2": v2, "V3": v3}
    # (X, Y, X must strictly dominate Y) for the in class; out reverses each pair.
    for x, y, strict in (("V1", "V2", True), ("V1", "V3", False), ("V2", "V3", False)):
        if dec.direction == "out":
            x, y = y, x
        rel = set_relation(d, sets[x], sets[y])
        if strict and not rel.strictly_dominates:
            return False, f"{x} -> {y} domination violated"
        if not rel.no_back_arc:
            return False, f"{x} => {y} violated (arc from {y} to {x})"
    return True, None
