"""Exhaustive sweep harness: frozen small counts, sharding, lemma checks."""

import random
from operator import or_

import pytest

from arclocal import CapExceeded, Digraph
from arclocal.generators import (
    _split_tables,
    directed_path,
    enumerate_digraphs,
    enumerate_members,
    enumeration_rows,
    vertex_pairs,
)
from arclocal.structure import may_have_odd_extended_cycle_component
from arclocal.sweeps import (
    _PROPERTIES,
    SWEEP_PROPERTIES,
    SweepReport,
    _half_keys,
    _ruled_out_rows,
    lemma_failures,
    run_sweep,
)

from oracles import collect_member_indices, reference_ruled_out_rows, reference_sweep

STATED = [(prop, cls) for prop, (_, classes, *_) in _PROPERTIES.items() for cls in classes]

# Frozen member counts for connected class members on n vertices.  These
# were computed once from the enumeration and act as regression anchors: a
# change in any of them means the recognizer or the enumeration changed.
MEMBER_COUNTS = {
    (3, "in"): 54,
    (3, "out"): 54,
    (3, "als"): 54,
    (4, "in"): 2034,
    (4, "out"): 2034,
    (4, "als"): 1224,
    (5, "in"): 155_388,
    (5, "out"): 155_388,
    (5, "als"): 69_078,
}


@pytest.mark.parametrize("prop", SWEEP_PROPERTIES)
def test_sweep_n3_all_properties(prop):
    cls = "als" if prop == "dichotomy" else "in"  # the dichotomy is stated for als only
    report = run_sweep(3, cls, prop)
    assert report.ok, report.failures[:5]
    assert report.scanned == 64
    if prop == "duality":
        assert report.members == 64  # duality ranges over every digraph
    else:
        assert report.members == MEMBER_COUNTS[(3, cls)]


@pytest.mark.parametrize("cls", ("in", "out", "als"))
def test_sweep_n4_main_property(cls):
    prop = "dichotomy" if cls == "als" else "main-theorem"
    report = run_sweep(4, cls, prop)
    assert report.ok, report.failures[:5]
    assert report.scanned == 4096
    assert report.members == MEMBER_COUNTS[(4, cls)]
    # No digraph on four vertices contains an odd cycle on five, so every
    # member is diperfect.
    assert set(report.outcomes) == {"diperfect"}


def test_sweep_n4_diperfect_and_lemmas():
    for prop in ("diperfect", "lemmas", "non-oriented"):
        report = run_sweep(4, "in", prop)
        assert report.ok, (prop, report.failures[:5])
        assert report.members == 2034


def test_n5_als_main_theorem_tallies():
    report = run_sweep(5, "als", "main-theorem")
    assert report.ok, report.failures[:5]
    assert report.members == MEMBER_COUNTS[(5, "als")]
    assert report.outcomes == {"diperfect": 69_054, "tripartition": 24}


def test_main_theorem_sweep_catches_a_false_diperfect_claim(monkeypatch):
    # Return the shared diperfect record for every in-member: the verifier
    # must still name an induced directed odd cycle in each of the 24
    # tripartitions.
    from arclocal import sweeps
    from arclocal.decompose import _DIPERFECT_IN

    monkeypatch.setattr(sweeps, "_decompose", lambda d, direction: _DIPERFECT_IN)
    report = run_sweep(5, "in", "main-theorem")
    assert report.members == MEMBER_COUNTS[(5, "in")]
    assert len(report.failures) == 24
    assert all(
        reason.startswith("verification failed: induced directed odd cycle (")
        and reason.endswith(") present")
        for _index, reason in report.failures
    )


def test_dichotomy_sweep_catches_a_false_diperfect_claim(monkeypatch):
    # Claim "diperfect" for every als-member: the sweep must verify the claim
    # and name an induced directed odd cycle in each odd extended 5-cycle.
    from arclocal import sweeps
    from arclocal.decompose import ALSOutcome

    monkeypatch.setattr(sweeps, "_classify_als", lambda d: ALSOutcome("diperfect"))
    report = run_sweep(5, "als", "dichotomy")
    assert report.members == MEMBER_COUNTS[(5, "als")]
    assert len(report.failures) == 24
    assert all(
        reason.startswith("induced directed odd cycle (") and reason.endswith(") present")
        for _index, reason in report.failures
    )


def test_diperfect_sweep_catches_a_false_diperfect_claim(monkeypatch):
    # Claim diperfection for every in-member: the perfection oracle must
    # contradict the claim on each of the 24 members with an odd hole.
    from arclocal import sweeps

    monkeypatch.setattr(sweeps, "_is_diperfect", lambda d: (True, None))
    report = run_sweep(5, "in", "diperfect")
    assert report.members == MEMBER_COUNTS[(5, "in")]
    assert len(report.failures) == 24
    assert all(
        reason.startswith("diperfection claim True but oracle says False (")
        for _index, reason in report.failures
    )


@pytest.mark.parametrize("prop", ("main-theorem", "diperfect"))
def test_sweeps_verify_diperfect_claims_without_building_a_graph(monkeypatch, prop):
    # The perfection memo is read on each member's own adjacency masks.  The
    # first sweep fills the memo; with it warm, building an UndirectedGraph
    # is refused and the sweep must still verify every member.
    from arclocal.digraph import UndirectedGraph

    run_sweep(4, "in", prop)

    def refuse(cls, n, adj_masks):
        raise AssertionError(f"an UndirectedGraph was built on {n} vertices")

    monkeypatch.setattr(UndirectedGraph, "_from_masks", classmethod(refuse))
    report = run_sweep(4, "in", prop)
    assert report.ok, report.failures[:5]
    assert report.members == MEMBER_COUNTS[(4, "in")]


def test_sharded_sweep_matches_single_process():
    solo = run_sweep(3, "in", "main-theorem", jobs=1)
    sharded = run_sweep(3, "in", "main-theorem", jobs=2)
    assert sharded.scanned == solo.scanned
    assert sharded.members == solo.members
    assert sharded.outcomes == solo.outcomes
    assert sharded.failures == solo.failures


def test_row_guard_matches_the_guard():
    # ``_ruled_out_rows`` is the guard decided a row at a time; it alone stands
    # behind the members a sweep tallies as diperfect without building them.
    for n in range(6):
        width, _ = enumeration_rows(n)
        ruled_out = _ruled_out_rows(n, _split_tables(n, vertex_pairs(n)))
        if n < 5:
            walks = [enumerate(enumerate_digraphs(n))]
        else:
            walks = [enumerate_members(5, cls) for cls in ("in", "out", "als")]
        for walk in walks:
            for index, d in walk:
                h, r = divmod(index, width)
                row_says = bool(ruled_out(h) >> r & 1)
                assert row_says == (not may_have_odd_extended_cycle_component(d)), (n, index)


@pytest.mark.parametrize("n", range(6))
def test_counting_guard_matches_the_reference_guard(n):
    # The guard counts vertices bit-parallel per high key; the reference
    # tests each low group against each high key, on every high row.
    tables = _split_tables(n, vertex_pairs(n))
    guard, reference = _ruled_out_rows(n, tables), reference_ruled_out_rows(n, tables)
    for h in range(len(tables[1])):
        assert guard(h) == reference(h), (n, h)


def test_counting_guard_matches_the_reference_guard_on_n6_rows():
    # At n=6 a vertex may fail and still leave 5 candidates, so the counts
    # below 5 all matter.  The split tables need no cap.
    tables = _split_tables(6, vertex_pairs(6))
    guard, reference = _ruled_out_rows(6, tables), reference_ruled_out_rows(6, tables)
    for h in random.Random(6).sample(range(len(tables[1])), 512):
        assert guard(h) == reference(h), h


def test_half_keys_match_keys_read_row_by_row():
    # A key that ORs across pairs (here the adjacency of each vertex, and the
    # out-mask of each vertex) is the OR of its values on single-pair rows.
    for n in range(6):
        tables = _split_tables(n, vertex_pairs(n))
        for key in (
            lambda out, inn: sum(a << n * v for v, a in enumerate(map(or_, out, inn))),
            lambda out, inn: sum(o << n * v for v, o in enumerate(out)),
        ):
            assert _half_keys(tables, key) == [[key(*row) for row in t] for t in tables], n


@pytest.mark.parametrize(
    "cls, calls",
    [
        ("in", [(False, "in_in"), (True, "out_out")]),
        ("out", [(False, "out_out"), (True, "in_in")]),
        ("als", [(False, "in_in"), (True, "out_out"), (False, "out_out"), (True, "in_in")]),
    ],
)
def test_duality_sweep_checks_the_stated_class(monkeypatch, cls, calls):
    # Each digraph d is scanned for the class's own pattern, and its inverse
    # for the dual pattern; the als class checks both pairs.
    from arclocal import sweeps

    seen = []
    real = sweeps.find_pattern_violation

    def recording(d, pattern):
        seen.append((d, pattern))
        return real(d, pattern)

    monkeypatch.setattr(sweeps, "find_pattern_violation", recording)
    report = run_sweep(3, cls, "duality")
    assert report.ok and report.members == 64 and report.outcomes == {"digraph": 64}
    assert seen == [
        (d.inverse() if on_inverse else d, pattern)
        for d in enumerate_digraphs(3)
        for on_inverse, pattern in calls
    ]


@pytest.mark.parametrize("n", range(5))
def test_sweeps_match_the_reference_walk_up_to_n4(n):
    for prop, cls in STATED:
        report = run_sweep(n, cls, prop)
        expected = reference_sweep(n, cls, prop)
        assert (report.members, report.outcomes, report.failures) == expected, (prop, cls)


@pytest.mark.parametrize(
    "prop, cls",
    [
        ("main-theorem", "in"),
        ("main-theorem", "out"),
        ("main-theorem", "als"),
        ("diperfect", "in"),
        ("diperfect", "als"),
        ("dichotomy", "als"),
        ("non-oriented", "in"),
        ("non-oriented", "out"),
        ("non-oriented", "als"),
    ],
)
def test_n5_sweep_matches_the_reference_walk(prop, cls):
    report = run_sweep(5, cls, prop)
    assert (report.members, report.outcomes, report.failures) == reference_sweep(5, cls, prop)


@pytest.mark.parametrize("cls", ("in", "als"))
def test_bulk_rows_report_an_imperfect_verdict_like_the_reference(monkeypatch, cls):
    # The perfection oracle is made to call the path P5 0-1-2-3-4 imperfect.
    # Its members pass no guard, so without the patch they would be tallied in
    # bulk; now each must be built and fail exactly as in the reference walk.
    from arclocal import decompose, sweeps

    real = sweeps._perfection
    p5 = directed_path(5).adj_masks

    def p5_imperfect(n, adj_masks, *cap):
        if n == 5 and tuple(adj_masks) == p5:
            return False, ("hole", (0, 1, 2, 3, 4))
        return real(n, adj_masks, *cap)

    monkeypatch.setattr(sweeps, "_perfection", p5_imperfect)
    monkeypatch.setattr(decompose, "_perfection", p5_imperfect)
    report = run_sweep(5, cls, "main-theorem")
    members, outcomes, failures = reference_sweep(5, cls, "main-theorem")
    assert (report.members, report.outcomes) == (members, outcomes)
    assert report.failures == failures
    assert failures and all(
        reason == "verification failed: underlying graph imperfect: hole (0, 1, 2, 3, 4)"
        for _index, reason in failures
    )


def test_n5_in_sweep_builds_only_the_members_the_guard_lets_through(monkeypatch):
    # 798 of the 155,388 n=5 in-members pass the guard; every other one has a
    # perfect underlying graph and is tallied without reaching the decomposer.
    from arclocal import sweeps

    calls = 0
    real = sweeps._decompose

    def counting(d, direction):
        nonlocal calls
        calls += 1
        return real(d, direction)

    monkeypatch.setattr(sweeps, "_decompose", counting)
    report = run_sweep(5, "in", "main-theorem")
    assert report.ok and report.members == MEMBER_COUNTS[(5, "in")]
    assert calls == 798


def test_n5_member_counts(n5_in_member_indices, n5_als_member_indices):
    assert len(n5_in_member_indices) == MEMBER_COUNTS[(5, "in")]
    assert len(n5_als_member_indices) == MEMBER_COUNTS[(5, "als")]
    assert len(collect_member_indices(5, "out")) == MEMBER_COUNTS[(5, "out")]


@pytest.mark.parametrize(
    "prop, cls", [("main-theorem", "in"), ("main-theorem", "als"), ("diperfect", "in")]
)
def test_sharded_n5_sweep_matches_single_process(prop, cls):
    # At n=5 the guard lets members through, so each shard mixes rows tallied
    # in bulk with members built and checked one by one.
    solo = run_sweep(5, cls, prop, jobs=1)
    sharded = run_sweep(5, cls, prop, jobs=2)
    assert (sharded.scanned, sharded.members) == (solo.scanned, solo.members)
    assert sharded.outcomes == solo.outcomes
    assert sharded.failures == solo.failures


@pytest.mark.parametrize("prop", ("main-theorem", "duality"))
def test_sharded_n4_sweep_matches_single_process(prop):
    solo = run_sweep(4, "in", prop, jobs=1)
    sharded = run_sweep(4, "in", prop, jobs=2)
    assert (sharded.scanned, sharded.members) == (solo.scanned, solo.members)
    assert sharded.outcomes == solo.outcomes
    assert sharded.failures == solo.failures


def test_run_sweep_checks_cap_before_starting_workers(monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    with pytest.raises(CapExceeded, match="n=6 exceeds cap 5"):
        run_sweep(6, "in", "main-theorem", jobs=2)


def test_run_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep(3, "in", "no-such-property")
    with pytest.raises(ValueError):
        run_sweep(3, "everything", "main-theorem")


@pytest.mark.parametrize(
    "cls, prop",
    [("in", "dichotomy"), ("out", "dichotomy"), ("out", "diperfect"), ("out", "lemmas")],
)
def test_run_sweep_rejects_properties_outside_their_class(monkeypatch, cls, prop):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    with pytest.raises(ValueError, match=f"property '{prop}' is stated for class .* not '{cls}'"):
        run_sweep(3, cls, prop, jobs=2)


def test_run_sweep_rejects_nonpositive_jobs():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_sweep(3, "in", "main-theorem", jobs=jobs)


def test_run_sweep_clamps_jobs_to_cpu_count(monkeypatch):
    import multiprocessing
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    report = run_sweep(3, "in", "main-theorem", jobs=8)
    assert report.ok
    assert (report.scanned, report.members) == (64, MEMBER_COUNTS[(3, "in")])


def test_run_sweep_clamps_jobs_to_cpu_affinity(monkeypatch):
    import multiprocessing
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    # A process pinned to one CPU of a large host.
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    report = run_sweep(3, "in", "main-theorem", jobs=2)
    assert report.ok
    assert (report.scanned, report.members) == (64, MEMBER_COUNTS[(3, "in")])


def test_collect_member_indices():
    indices = collect_member_indices(3, "in")
    assert len(indices) == MEMBER_COUNTS[(3, "in")]
    assert indices == sorted(indices)
    assert len(collect_member_indices(4, "als")) == MEMBER_COUNTS[(4, "als")]


def test_collect_member_indices_match_member_walk():
    for n in range(5):
        for cls in ("in", "out", "als"):
            walked = [index for index, _ in enumerate_members(n, cls)]
            assert collect_member_indices(n, cls) == walked, (n, cls)
    with pytest.raises(CapExceeded):
        collect_member_indices(6, "in")
    with pytest.raises(ValueError):
        collect_member_indices(3, "everything")


def test_report_merge_and_summary():
    a = SweepReport(n=3, cls="in", prop="main-theorem", scanned=10, members=4)
    a.outcomes["diperfect"] = 4
    b = SweepReport(n=3, cls="in", prop="main-theorem", scanned=6, members=2)
    b.outcomes["tripartition"] = 2
    b.failures.append((5, "boom"))
    a.merge(b)
    assert a.scanned == 16 and a.members == 6
    assert a.outcomes == {"diperfect": 4, "tripartition": 2}
    assert not a.ok
    assert "1 FAILURES" in a.summary()
    clean = SweepReport(n=3, cls="in", prop="main-theorem", scanned=64, members=54)
    assert clean.summary() == "64 scanned, 54 members of class 'in', 0 failures (0.0s)"


def test_lemma_failures_fire_outside_the_class():
    # 0 reaches the digon component {2, 3} through 1 but does not dominate
    # into it, violating the reaching-vertex fact (the digraph is not a
    # class member, so this is expected).
    d = Digraph(4, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 2)])
    problems = lemma_failures(d)
    assert any("without dominating into it" in p for p in problems)


def test_lemma_failures_empty_on_members():
    d = Digraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert lemma_failures(d) == []
