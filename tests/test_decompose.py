"""Decomposition outcomes, their mirrors, and independent verification."""

from collections import Counter

import pytest

from arclocal import (
    ALSOutcome,
    ClassViolation,
    Decomposition,
    Digraph,
    DisconnectedError,
    RandomModel,
    classify_arc_locally_semicomplete,
    decompose_in_semicomplete,
    decompose_out_semicomplete,
    find_induced_odd_directed_cycle_ge5,
    is_diperfect_in_class,
    make_extended_cycle,
    random_class_member,
    recognize_odd_extended_cycle,
    verify_decomposition,
)
from arclocal.decompose import (
    _ALS_DIPERFECT,
    _DIPERFECT_IN,
    _DIPERFECT_OUT,
    _classify_als,
    _decompose,
    _is_diperfect,
    _odd_component,
    verify_als_outcome,
)
from arclocal.digraph import format_edge_list
from arclocal.generators import (
    directed_cycle,
    directed_path,
    enumerate_digraphs,
    enumerate_members,
)
from arclocal.patterns import is_arc_locally_in_semicomplete, is_arc_locally_out_semicomplete
from arclocal.structure import ExtendedCycleCertificate, may_have_odd_extended_cycle_component
from arclocal.sweeps import run_sweep

from oracles import brute_reach, decompose_out_via_inverse, reverse_certificate

OUT_DRAWS = 10_000
OUT_DRAW_KINDS = {"diperfect": 4_503, "tripartition": 4_307, "clique_cut": 1_190}


def dominated_cycle():
    """Vertex 5 strictly dominates a directed 5-cycle on 0..4."""
    arcs = list(directed_cycle(5).arcs()) + [(5, i) for i in range(5)]
    return Digraph(6, arcs)


def dominated_cycle_with_tail():
    """As above plus a private out-neighbour 6 of the dominating vertex."""
    arcs = list(directed_cycle(5).arcs()) + [(5, i) for i in range(5)] + [(5, 6)]
    return Digraph(7, arcs)


# ----------------------------------------------------------------------
# worked examples, in direction
# ----------------------------------------------------------------------


def test_directed_odd_cycle_is_its_own_tripartition():
    dec = decompose_in_semicomplete(directed_cycle(5))
    assert dec.kind == "tripartition"
    assert dec.direction == "in"
    assert dec.v1 == () and dec.v3 == ()
    assert dec.cert.parts == ((0,), (1,), (2,), (3,), (4,))
    assert dec.v2 == (0, 1, 2, 3, 4)
    assert verify_decomposition(directed_cycle(5), dec) == (True, None)


def test_path_is_diperfect():
    d = directed_path(6)
    dec = decompose_in_semicomplete(d)
    assert dec.kind == "diperfect"
    assert dec.v1 == dec.v2 == dec.v3 == dec.cut == ()
    assert verify_decomposition(d, dec) == (True, None)


def test_even_cycle_is_diperfect():
    d = directed_cycle(6)
    dec = decompose_in_semicomplete(d)
    assert dec.kind == "diperfect"
    assert verify_decomposition(d, dec) == (True, None)


def test_dominated_cycle_yields_tripartition():
    d = dominated_cycle()
    dec = decompose_in_semicomplete(d)
    assert dec.kind == "tripartition"
    assert dec.v1 == (5,)
    assert dec.v2 == (0, 1, 2, 3, 4)
    assert dec.v3 == ()
    assert verify_decomposition(d, dec) == (True, None)


def test_private_neighbour_forces_clique_cut():
    d = dominated_cycle_with_tail()
    dec = decompose_in_semicomplete(d)
    assert dec.kind == "clique_cut"
    assert dec.cut == (5,)
    assert verify_decomposition(d, dec) == (True, None)


def test_nine_vertex_cycle_decomposes_as_itself():
    d, cert = make_extended_cycle((2, 1, 3, 2, 1))
    dec = decompose_in_semicomplete(d)
    assert dec.kind == "tripartition"
    assert dec.v1 == () and dec.v3 == ()
    assert dec.cert == cert
    assert verify_decomposition(d, dec) == (True, None)


def test_tripartition_with_nonempty_v3():
    # The odd cycle feeds a sink: V1 empty, V3 = {5}.
    arcs = list(directed_cycle(5).arcs()) + [(0, 5)]
    d = Digraph(6, arcs)
    dec = decompose_in_semicomplete(d)
    assert dec.kind == "tripartition"
    assert dec.v1 == ()
    assert dec.v2 == (0, 1, 2, 3, 4)
    assert dec.v3 == (5,)
    assert verify_decomposition(d, dec) == (True, None)


# ----------------------------------------------------------------------
# preconditions
# ----------------------------------------------------------------------


def test_rejects_class_violation():
    # The forbidden orientation itself.
    d = Digraph(4, [(0, 1), (1, 2), (3, 2)])
    with pytest.raises(ClassViolation) as exc:
        decompose_in_semicomplete(d)
    assert exc.value.witness.pattern == "in_in"
    assert exc.value.witness.vertices == (0, 1, 2, 3)


def test_rejects_disconnected():
    d = Digraph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError):
        decompose_in_semicomplete(d)
    with pytest.raises(DisconnectedError):
        decompose_out_semicomplete(d)


def test_out_direction_rejects_its_own_pattern():
    d = Digraph(4, [(1, 0), (1, 2), (2, 3)])
    with pytest.raises(ClassViolation) as exc:
        decompose_out_semicomplete(d)
    assert exc.value.witness.pattern == "out_out"
    # The dominated 5-cycle is in-class only: 5 -> 0, 5 -> 1, 1 -> 2 with
    # 0 and 2 non-adjacent realizes the out pattern.
    with pytest.raises(ClassViolation):
        decompose_out_semicomplete(dominated_cycle())


# ----------------------------------------------------------------------
# out direction mirrors the in direction
# ----------------------------------------------------------------------


def test_out_decomposition_of_mirrored_examples():
    for build, kind in (
        (dominated_cycle, "tripartition"),
        (dominated_cycle_with_tail, "clique_cut"),
        (lambda: directed_path(6), "diperfect"),
    ):
        d = build().inverse()
        dec = decompose_out_semicomplete(d)
        assert dec.kind == kind
        assert dec.direction == "out"
        assert verify_decomposition(d, dec) == (True, None)
    dec = decompose_out_semicomplete(dominated_cycle().inverse())
    assert dec.v1 == (5,) and dec.v3 == ()


def test_reversed_certificate_matches_re_recognition():
    for sizes in ((2, 1, 3, 2, 1), (1, 1, 1, 1, 1), (3, 1, 2, 1, 1, 2, 1)):
        d, cert = make_extended_cycle(sizes)
        again = recognize_odd_extended_cycle(d.inverse())
        assert again == reverse_certificate(cert)
        # Reversal is an involution.
        assert reverse_certificate(again) == cert


def test_out_tripartition_relations():
    d = dominated_cycle().inverse()
    dec = decompose_out_semicomplete(d)
    assert dec.kind == "tripartition"
    # V2 strictly dominates V1 in the out direction: each cycle vertex has
    # an arc to 5 and 5 has none back.
    for v in dec.v2:
        assert d.dominates(v, 5)
        assert not d.dominates(5, v)


@pytest.mark.parametrize(
    "entry, digraph, expected",
    [
        (decompose_in_semicomplete, dominated_cycle, "tripartition"),
        (decompose_out_semicomplete, lambda: dominated_cycle().inverse(), "tripartition"),
        (is_diperfect_in_class, dominated_cycle, (False, (0, 1, 2, 3, 4))),
        (
            classify_arc_locally_semicomplete,
            lambda: make_extended_cycle((1,) * 5)[0],
            "odd_extended_cycle",
        ),
        (find_induced_odd_directed_cycle_ge5, dominated_cycle, (0, 1, 2, 3, 4)),
        (
            lambda d: verify_decomposition(d, Decomposition("diperfect", "in"), cap=4),
            dominated_cycle,
            (False, "odd extended-cycle component ((0,), (1,), (2,), (3,), (4,))"),
        ),
    ],
    ids=[
        "decompose_in_semicomplete",
        "decompose_out_semicomplete",
        "is_diperfect_in_class",
        "classify_arc_locally_semicomplete",
        "find_induced_odd_directed_cycle_ge5",
        "verify_decomposition_above_cap",
    ],
)
def test_each_entry_runs_the_guard_once(monkeypatch, entry, digraph, expected):
    # The guard lives in structure.odd_extended_cycle_components alone, and
    # every entry reaches it through that one search.
    from arclocal import structure

    guard = structure.may_have_odd_extended_cycle_component
    seen = []
    monkeypatch.setattr(
        structure, "may_have_odd_extended_cycle_component", lambda d: seen.append(d) or guard(d)
    )
    d = digraph()
    result = entry(d)
    assert getattr(result, "kind", result) == expected
    assert seen == [d]


# ----------------------------------------------------------------------
# the out direction against its inverse-digraph reference
# ----------------------------------------------------------------------


def _assert_out_matches_reference(members):
    """Tally of ``_decompose(d, "out")`` outcomes, each equal to the reference."""
    kinds = Counter()
    for d in members:
        dec = _decompose(d, "out")
        assert dec == decompose_out_via_inverse(d), format_edge_list(d)
        kinds[dec.kind] += 1
    return kinds


def test_out_decomposition_matches_reference_on_n5_members():
    kinds = _assert_out_matches_reference(d for _, d in enumerate_members(5, "out"))
    assert kinds == {"diperfect": 155_364, "tripartition": 24}


def test_out_decomposition_matches_reference_on_random_members():
    # n = 6..20; the theorem-shaped builders reach both non-diperfect
    # branches, the clique cut over 1,000 times.
    draws = (
        random_class_member(RandomModel(6 + i % 15, seed=14_000_000 + i), "out")
        for i in range(OUT_DRAWS)
    )
    assert _assert_out_matches_reference(draws) == OUT_DRAW_KINDS


def test_out_decomposition_matches_reference_at_250_vertices():
    # The members that CI pipes from `generate member` into `decompose`.
    members = [random_class_member(RandomModel(250, seed=s), "out") for s in range(5)]
    kinds = [_decompose(d, "out").kind for d in members]
    assert kinds == ["clique_cut", "clique_cut", "diperfect", "diperfect", "tripartition"]
    _assert_out_matches_reference(members)


# ----------------------------------------------------------------------
# diperfection within the class
# ----------------------------------------------------------------------


def test_is_diperfect_in_class():
    ok, cycle = is_diperfect_in_class(directed_path(5))
    assert ok and cycle is None
    ok, cycle = is_diperfect_in_class(directed_cycle(4))
    assert ok and cycle is None
    ok, cycle = is_diperfect_in_class(directed_cycle(5))
    assert not ok and cycle == (0, 1, 2, 3, 4)
    ok, cycle = is_diperfect_in_class(dominated_cycle())
    assert not ok and len(cycle) == 5
    big, _ = make_extended_cycle((2, 2, 2, 2, 2))
    ok, cycle = is_diperfect_in_class(big)
    assert not ok and len(cycle) == 5
    with pytest.raises(ClassViolation):
        is_diperfect_in_class(Digraph(4, [(0, 1), (1, 2), (3, 2)]))
    # Works on disconnected inputs: membership is the only precondition.
    two_paths = Digraph(4, [(0, 1), (2, 3)])
    assert is_diperfect_in_class(two_paths) == (True, None)


# ----------------------------------------------------------------------
# arc-locally semicomplete dichotomy
# ----------------------------------------------------------------------


def test_als_dichotomy_examples():
    out = classify_arc_locally_semicomplete(directed_cycle(5))
    assert out.kind == "odd_extended_cycle"
    assert out.cert.parts == ((0,), (1,), (2,), (3,), (4,))
    d, cert = make_extended_cycle((2, 1, 3, 2, 1))
    out = classify_arc_locally_semicomplete(d)
    assert out == ALSOutcome("odd_extended_cycle", cert)
    assert classify_arc_locally_semicomplete(directed_path(4)).kind == "diperfect"
    assert classify_arc_locally_semicomplete(directed_cycle(7)).kind == "odd_extended_cycle"
    assert classify_arc_locally_semicomplete(directed_cycle(6)).kind == "diperfect"
    with pytest.raises(ClassViolation):
        classify_arc_locally_semicomplete(dominated_cycle())
    with pytest.raises(DisconnectedError):
        classify_arc_locally_semicomplete(Digraph(2, []))


# ----------------------------------------------------------------------
# the verifier rejects doctored outcomes
# ----------------------------------------------------------------------


def test_verifier_rejects_false_diperfect_claim():
    ok, reason = verify_decomposition(
        directed_cycle(5), Decomposition("diperfect", "in")
    )
    assert not ok
    assert "induced directed odd cycle" in reason


def test_verifier_names_a_non_directed_hole_as_imperfection():
    # A 5-cycle with one arc reversed: its underlying graph is a hole, but
    # no induced directed odd cycle exists.
    d = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    ok, reason = verify_decomposition(d, Decomposition("diperfect", "in"))
    assert not ok
    assert reason == "underlying graph imperfect: hole (0, 1, 2, 3, 4)"


def test_shared_diperfect_records_are_values():
    from dataclasses import FrozenInstanceError

    fresh = (
        Decomposition("diperfect", "in"),
        Decomposition("diperfect", "out"),
        ALSOutcome("diperfect"),
    )
    for shared, built in zip((_DIPERFECT_IN, _DIPERFECT_OUT, _ALS_DIPERFECT), fresh):
        assert shared == built and shared is not built
        assert hash(shared) == hash(built)
        with pytest.raises(FrozenInstanceError):
            shared.kind = "tripartition"
    assert _DIPERFECT_IN != _DIPERFECT_OUT
    # Every diperfect outcome is the shared record itself, also when the
    # guard lets the even 6-cycle through to the component search.
    for d in (directed_path(5), directed_cycle(6)):
        assert _decompose(d, "in") is _DIPERFECT_IN
        assert _decompose(d, "out") is _DIPERFECT_OUT
        assert classify_arc_locally_semicomplete(d) is _ALS_DIPERFECT


def test_private_entries_match_public_decomposers(random_in_small_population):
    members = [d for d in enumerate_digraphs(4) if d.is_connected()]
    members += random_in_small_population
    seen = 0
    for d in members:
        in_member = is_arc_locally_in_semicomplete(d)
        out_member = is_arc_locally_out_semicomplete(d)
        if in_member:
            assert _decompose(d, "in") == decompose_in_semicomplete(d)
            assert _is_diperfect(d) == is_diperfect_in_class(d)
            seen += 1
        if out_member:
            assert _decompose(d, "out") == decompose_out_semicomplete(d)
            seen += 1
        if in_member and out_member:
            assert _classify_als(d) == classify_arc_locally_semicomplete(d)
        # The inverses of the random in-members reach the out-direction
        # tripartition and clique-cut branches, which n=4 never produces.
        mirror = d.inverse()
        if is_arc_locally_out_semicomplete(mirror):
            assert _decompose(mirror, "out") == decompose_out_semicomplete(mirror)
            seen += 1
    assert seen >= 3 * 2034 + 2 * len(random_in_small_population)


def test_v1_v3_and_cut_match_brute_reach(random_in_population):
    # Every non-diperfect outcome of the seed-0 population and of the n=5
    # in-members.  Q is the certified odd extended-cycle component.
    n5 = [d for _, d in enumerate_members(5, "in") if may_have_odd_extended_cycle_component(d)]
    kinds = {"tripartition": 0, "clique_cut": 0}
    for d in random_in_population + n5:
        dec = decompose_in_semicomplete(d)
        if dec.kind == "diperfect":
            continue
        kinds[dec.kind] += 1
        q = dec.v2 if dec.kind == "tripartition" else _odd_component(d)[1].vertices()
        into_q = sorted(brute_reach(d, q, forward=False))
        if dec.kind == "clique_cut":
            assert list(dec.cut) == into_q
            continue
        assert list(dec.v1) == into_q
        if dec.v1:
            assert list(dec.v3) == sorted(brute_reach(d, q, forward=True))
    assert kinds == {"tripartition": 4124 + 24, "clique_cut": 1021}


def test_als_outcome_verification():
    d, cert = make_extended_cycle((2, 1, 1, 2, 1))
    assert verify_als_outcome(d, classify_arc_locally_semicomplete(d)) == (True, None)
    path = directed_path(5)
    assert verify_als_outcome(path, ALSOutcome("diperfect")) == (True, None)
    ok, reason = verify_als_outcome(directed_cycle(5), ALSOutcome("diperfect"))
    assert not ok and "induced directed odd cycle" in reason
    ok, reason = verify_als_outcome(d, ALSOutcome("odd_extended_cycle"))
    assert (ok, reason) == (False, "odd extended cycle outcome without certificate")
    bigger, big_cert = make_extended_cycle((2, 1, 1, 2, 2))
    partial = ExtendedCycleCertificate(big_cert.parts[:4] + (big_cert.parts[4][:1],))
    ok, reason = verify_als_outcome(bigger, ALSOutcome("odd_extended_cycle", partial))
    assert (ok, reason) == (False, "certificate does not cover the vertex set")
    p = cert.parts
    shuffled = ExtendedCycleCertificate((p[0], p[2], p[1], *p[3:]))
    ok, reason = verify_als_outcome(d, ALSOutcome("odd_extended_cycle", shuffled))
    assert not ok and reason.startswith("certificate invalid:")
    c6, cert6 = make_extended_cycle((1, 1, 1, 1, 1, 1))
    ok, reason = verify_als_outcome(c6, ALSOutcome("odd_extended_cycle", cert6))
    assert (ok, reason) == (False, "certificate has inadmissible part count 6")
    ok, reason = verify_als_outcome(d, ALSOutcome("bogus"))
    assert (ok, reason) == (False, "unknown dichotomy outcome 'bogus'")


def test_verifier_rejects_swapped_sides():
    d = dominated_cycle()
    dec = decompose_in_semicomplete(d)
    swapped = Decomposition("tripartition", "in", v1=dec.v3, cert=dec.cert, v3=dec.v1)
    ok, reason = verify_decomposition(d, swapped)
    assert not ok
    # With 5 moved to V3, its arcs into the cycle violate V2 => V3.
    assert reason == "V2 => V3 violated (arc from V3 to V2)"


def test_verifier_rejects_wrong_direction():
    d = dominated_cycle()
    dec = decompose_in_semicomplete(d)
    flipped = Decomposition("tripartition", "out", v1=dec.v1, cert=dec.cert, v3=dec.v3)
    ok, reason = verify_decomposition(d, flipped)
    assert not ok
    assert reason == "V2 -> V1 domination violated"


def test_verifier_rejects_back_arcs_into_cycle():
    # 0 -> 5 makes V3 = {5}; claiming 5 belongs to V1 must fail on the
    # missing domination, and a fabricated V2 => V3 arc check must name it.
    arcs = list(directed_cycle(5).arcs()) + [(0, 5)]
    d = Digraph(6, arcs)
    dec = decompose_in_semicomplete(d)
    wrong = Decomposition("tripartition", "in", v1=(5,), cert=dec.cert, v3=())
    ok, reason = verify_decomposition(d, wrong)
    assert not ok
    assert reason == "V1 -> V2 domination violated"


def test_verifier_rejects_wrong_parity_and_size():
    c6 = directed_cycle(6)
    cert6 = Decomposition(
        "tripartition",
        "in",
        cert=ExtendedCycleCertificate(tuple((i,) for i in range(6))),
    )
    ok, reason = verify_decomposition(c6, cert6)
    assert not ok
    assert "odd number of parts >= 5, got 6" in reason
    c3 = directed_cycle(3)
    cert3 = Decomposition(
        "tripartition",
        "in",
        cert=ExtendedCycleCertificate(tuple((i,) for i in range(3))),
    )
    ok, reason = verify_decomposition(c3, cert3)
    assert not ok
    assert "got 3" in reason


def test_verifier_rejects_bad_partition_shape():
    d = dominated_cycle()
    dec = decompose_in_semicomplete(d)
    overlap = Decomposition("tripartition", "in", v1=(5, 0), cert=dec.cert, v3=())
    ok, reason = verify_decomposition(d, overlap)
    assert not ok and reason == "V1, V2, V3 overlap"
    missing = Decomposition("tripartition", "in", v1=(), cert=dec.cert, v3=())
    ok, reason = verify_decomposition(d, missing)
    assert not ok and reason == "V1, V2, V3 do not cover the vertex set"
    no_cert = Decomposition("tripartition", "in", v1=(5,), v3=())
    ok, reason = verify_decomposition(d, no_cert)
    assert not ok and "certificate" in reason
    out_of_range = Decomposition("tripartition", "in", v1=(17,), cert=dec.cert, v3=())
    ok, reason = verify_decomposition(d, out_of_range)
    assert not ok and "out-of-range" in reason


def _wide_tripartition():
    """Arcs of a tripartition with every part of size >= 2: V1 = {5, 6}
    (5 -> 6) strictly dominates the 5-cycle V2 on 0..4, and V3 = {7, 8, 9}
    is the path 7 -> 8 -> 9 fed by 0 and by 5; the (V1, certificate, V3)."""
    arcs = list(directed_cycle(5).arcs()) + [(x, v) for x in (5, 6) for v in range(5)]
    arcs += [(5, 6), (0, 7), (5, 7), (7, 8), (8, 9)]
    return arcs, (5, 6), ExtendedCycleCertificate(tuple((v,) for v in range(5))), (7, 8, 9)


@pytest.mark.parametrize(
    "removed, added, reason",
    [
        ((6, 2), None, "V1 -> V2 domination violated"),
        (None, (3, 5), "V1 -> V2 domination violated"),
        (None, (8, 6), "V1 => V3 violated (arc from V3 to V1)"),
        (None, (7, 1), "V2 => V3 violated (arc from V3 to V2)"),
        ((5, 6), None, "d[V1] not semicomplete"),
        (None, (9, 7), "d[V3] not bipartite"),
    ],
    ids=["missing-arc", "V2-to-V1", "V3-to-V1", "V3-to-V2", "V1-not-semicomplete",
         "V3-not-bipartite"],
)
@pytest.mark.parametrize("direction", ["in", "out"])
def test_verifier_names_each_violated_tripartition_condition(direction, removed, added, reason):
    # The out direction reads the inverse digraph with the reversed
    # certificate, where each relation's names swap sides.
    arcs, v1, cert, v3 = _wide_tripartition()
    dec = Decomposition("tripartition", direction, v1, cert, v3)
    if direction == "out":
        arcs = [(v, u) for u, v in arcs]
        removed, added = (e and e[::-1] for e in (removed, added))
        dec = Decomposition("tripartition", "out", v1, reverse_certificate(cert), v3)
        swap = {"V1 -> V2": "V2 -> V1", "V1 => V3": "V3 => V1", "V2 => V3": "V3 => V2",
                "V3 to V1": "V1 to V3", "V3 to V2": "V2 to V3"}
        for old, new in swap.items():
            reason = reason.replace(old, new)
    assert verify_decomposition(Digraph(10, arcs), dec) == (True, None)
    mutated = (set(arcs) - {removed}) | ({added} if added else set())
    assert verify_decomposition(Digraph(10, mutated), dec) == (False, reason)


def test_verifier_rejects_bad_cuts():
    d = dominated_cycle_with_tail()
    ok, reason = verify_decomposition(d, Decomposition("clique_cut", "in", cut=(0,)))
    assert not ok and "connected" in reason
    # A non-semicomplete candidate must be rejected even if it separates:
    # {1, 3} disconnects this digraph but 1 and 3 are non-adjacent.
    wide = Digraph(5, [(0, 1), (1, 2), (3, 2), (3, 4)])
    has_cut = Decomposition("clique_cut", "in", cut=(1, 3))
    ok, reason = verify_decomposition(wide, has_cut)
    assert not ok and "semicomplete" in reason
    ok, reason = verify_decomposition(d, Decomposition("clique_cut", "in", cut=(9,)))
    assert not ok and "out-of-range" in reason


def test_verifier_rejects_unknown_labels():
    d = directed_path(3)
    ok, reason = verify_decomposition(d, Decomposition("mystery", "in"))
    assert not ok and "unknown decomposition kind" in reason
    ok, reason = verify_decomposition(d, Decomposition("diperfect", "sideways"))
    assert not ok and "unknown direction" in reason


def test_verifier_above_cap_uses_structural_recomputation():
    # 15 vertices exceeds the default subset-search cap; the structural
    # fallback must still accept the true outcome and reject a false one.
    big, cert = make_extended_cycle((3, 3, 3, 3, 3))
    dec = decompose_in_semicomplete(big)
    assert dec.kind == "tripartition"
    assert verify_decomposition(big, dec) == (True, None)
    ok, reason = verify_decomposition(big, Decomposition("diperfect", "in"))
    assert not ok
    assert "odd extended-cycle component" in reason
    even_big, _ = make_extended_cycle((3, 3, 3, 3))
    assert verify_decomposition(even_big, Decomposition("diperfect", "in")) == (
        True,
        None,
    )


def test_diperfect_verification_reads_the_memo_only_within_the_cap():
    from arclocal.generators import _small_perfection

    c5 = directed_cycle(5)
    before = _small_perfection.cache_info()
    # Below the digraph's size the cap rules the oracle out before its memo
    # is read: the structural branch decides and the memo is left untouched.
    assert verify_decomposition(c5, _DIPERFECT_IN, cap=4) == (
        False,
        "odd extended-cycle component ((0,), (1,), (2,), (3,), (4,))",
    )
    assert _small_perfection.cache_info() == before
    # At the default cap the oracle decides, and its hole is named as the
    # induced directed odd cycle it is.
    assert verify_decomposition(c5, _DIPERFECT_IN) == (
        False,
        "induced directed odd cycle (0, 1, 2, 3, 4) present",
    )


# ----------------------------------------------------------------------
# where strong components are computed
# ----------------------------------------------------------------------


@pytest.fixture
def scc_calls(monkeypatch):
    """Every call of ``strong_components`` from the package, one entry each."""
    from arclocal import structure, sweeps

    calls = []
    real = structure.strong_components

    def counted(d):
        calls.append(d.n)
        return real(d)

    for module in (structure, sweeps):
        monkeypatch.setattr(module, "strong_components", counted)
    return calls


def test_n5_sweep_computes_components_only_where_the_guard_allows(scc_calls, monkeypatch):
    # 798 members get past the guard, and the odd-component search then
    # finds their components among the guard's candidates, with no
    # strong-component pass.
    from arclocal import structure

    guard = structure.may_have_odd_extended_cycle_component
    passed = []
    monkeypatch.setattr(
        structure, "may_have_odd_extended_cycle_component", lambda d: guard(d) and not passed.append(d)
    )
    report = run_sweep(5, "in", "main-theorem")
    assert report.ok and report.members == 155_388
    assert report.outcomes == {"diperfect": 155_364, "tripartition": 24}
    assert len(passed) == 798
    assert scc_calls == []


def test_n5_lemma_sweep_computes_components_once_per_member(scc_calls):
    # lemma_failures reads every member's strong components once; the
    # odd-component search it also runs adds no second pass.
    report = run_sweep(5, "in", "lemmas")
    assert report.ok and report.members == 155_388
    assert len(scc_calls) == 155_388


def test_semicomplete_member_with_digons_needs_no_components_above_cap(scc_calls):
    # Every pair adjacent, and the pairs (2j, 2j + 1) are digons.
    n = 40
    arcs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    d = Digraph(n, arcs + [(v + 1, v) for v in range(0, n, 2)])
    dec = decompose_in_semicomplete(d)
    assert dec == Decomposition("diperfect", "in")
    assert verify_decomposition(d, dec, cap=12) == (True, None)
    assert scc_calls == []
