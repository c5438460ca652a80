"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
printed lines for passing criteria too).  Every criterion prints exactly one
``criterion NN: PASS/FAIL`` line and asserts it, so the pytest report and
the printed log agree.
"""

import random
from pathlib import Path

from arclocal import (
    Digraph,
    UndirectedGraph,
    brute_force_is_perfect,
    classify_arc_locally_semicomplete,
    decompose_in_semicomplete,
    enumerate_digraphs,
    find_induced_nonoriented_odd_cycle_ge5,
    is_arc_locally_in_semicomplete,
    is_arc_locally_out_semicomplete,
    is_diperfect_in_class,
    make_extended_cycle,
    recognize_odd_extended_cycle,
    verify_decomposition,
)
from arclocal.cli import main
from arclocal.generators import _in_class, digraph_from_index, directed_cycle
from arclocal.patterns import find_pattern_violation
from arclocal.structure import check_extended_cycle_certificate, recognize_extended_cycle
from arclocal.sweeps import run_sweep

from oracles import brute_is_extended_cycle

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parent / "data"


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _is_in_member(d: Digraph) -> bool:
    return d.is_connected() and _in_class(d, "in")


def _is_als_member(d: Digraph) -> bool:
    return d.is_connected() and _in_class(d, "als")


def test_criterion_01_exhaustive_main_theorem_n4():
    report = run_sweep(4, "in", "main-theorem")
    ok = report.ok and report.scanned == 4096 and report.seconds < 10.0
    _report(
        1,
        ok,
        f"n=4 main theorem: {report.summary()} "
        f"[{report.scanned} == 4096, {len(report.failures)} failures, "
        f"{report.seconds:.1f}s < 10s]",
    )


def test_criterion_02_exhaustive_main_theorem_n5_both_directions():
    fwd = run_sweep(5, "in", "main-theorem")
    bwd = run_sweep(5, "out", "main-theorem")
    total = fwd.seconds + bwd.seconds
    ok = (
        fwd.ok
        and bwd.ok
        and fwd.scanned == 1_048_576
        and bwd.scanned == 1_048_576
        and fwd.members == bwd.members  # inverse is a bijection on members
        and total < 600.0
    )
    _report(
        2,
        ok,
        f"n=5 main theorem, both directions: in {fwd.summary()}; "
        f"out {bwd.summary()}; total {total:.0f}s < 600s",
    )


def test_criterion_03_random_members_decompose_and_verify(random_in_population):
    failures = []
    outcomes = {}
    for i, d in enumerate(random_in_population):
        dec = decompose_in_semicomplete(d)
        ok, reason = verify_decomposition(d, dec)
        if not ok:
            failures.append((i, reason))
        outcomes[dec.kind] = outcomes.get(dec.kind, 0) + 1
    sizes = {d.n for d in random_in_population}
    ok = (
        len(random_in_population) >= 10_000
        and sizes == set(range(6, 11))
        and not failures
        and len(outcomes) == 3  # all three outcomes exercised
    )
    _report(
        3,
        ok,
        f"{len(random_in_population)} random members n in [6,10], "
        f"outcomes {dict(sorted(outcomes.items()))}, {len(failures)} failures",
    )


def test_criterion_04_diperfect_equivalence(
    n5_in_member_indices, random_in_small_population
):
    disagreements = 0
    checked = 0

    def check(d: Digraph) -> None:
        nonlocal disagreements, checked
        claimed, _ = is_diperfect_in_class(d)
        actual, _ = brute_force_is_perfect(d.underlying_graph())
        checked += 1
        if claimed != actual:
            disagreements += 1

    for n in range(1, 5):
        for d in enumerate_digraphs(n):
            if _is_in_member(d):
                check(d)
    for index in n5_in_member_indices:
        check(digraph_from_index(5, index))
    for d in random_in_small_population:
        check(d)
    ok = disagreements == 0 and checked > 155_388
    _report(
        4,
        ok,
        f"diperfection vs perfection oracle on {checked} members "
        f"(exhaustive n<=5 + {len(random_in_small_population)} random), "
        f"{disagreements} disagreements",
    )


def test_criterion_05_no_nonoriented_odd_cycle_in_members(
    n5_in_member_indices, random_in_population
):
    hits = []
    checked = 0
    for index in n5_in_member_indices:
        cycle = find_induced_nonoriented_odd_cycle_ge5(digraph_from_index(5, index))
        checked += 1
        if cycle is not None:
            hits.append((5, index, cycle))
    for d in random_in_population:
        cycle = find_induced_nonoriented_odd_cycle_ge5(d)
        checked += 1
        if cycle is not None:
            hits.append((d.n, None, cycle))
    # Sanity: the detector does fire on a non-member (odd cycle with one
    # arc reversed).
    non_member = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    fires = find_induced_nonoriented_odd_cycle_ge5(non_member) == (0, 1, 2, 3, 4)
    outside = find_pattern_violation(non_member, "in_in") is not None
    ok = not hits and fires and outside
    _report(
        5,
        ok,
        f"non-oriented odd cycle absent in all {checked} members (n>=5); "
        f"detector fires on a non-member: {fires}",
    )


def test_criterion_06_als_dichotomy(n5_als_member_indices, random_als_population):
    bad = []
    outcomes = {}
    checked = 0

    def check(d: Digraph) -> None:
        nonlocal checked
        checked += 1
        outcome = classify_arc_locally_semicomplete(d)  # InvariantViolation = bug
        outcomes[outcome.kind] = outcomes.get(outcome.kind, 0) + 1
        if outcome.kind == "diperfect":
            return
        cert = outcome.cert
        if cert is None or len(cert.vertices()) != d.n:
            bad.append("certificate does not cover the vertex set")
            return
        if cert.k < 5 or cert.k % 2 == 0:
            bad.append(f"inadmissible part count {cert.k}")
            return
        valid, reason = check_extended_cycle_certificate(d, cert.parts)
        if not valid:
            bad.append(f"invalid certificate: {reason}")

    for n in range(1, 5):
        for d in enumerate_digraphs(n):
            if _is_als_member(d):
                check(d)
    for index in n5_als_member_indices:
        check(digraph_from_index(5, index))
    for d in random_als_population:
        check(d)
    ok = not bad and set(outcomes) == {"diperfect", "odd_extended_cycle"}
    _report(
        6,
        ok,
        f"dichotomy on {checked} members (exhaustive n<=5 + "
        f"{len(random_als_population)} random): outcomes "
        f"{dict(sorted(outcomes.items()))}, {len(bad)} violations, "
        "spanning check never tripped",
    )


def test_criterion_07_golden_extended_cycle(capsys):
    d, cert = make_extended_cycle((2, 1, 3, 2, 1))
    recognized = recognize_odd_extended_cycle(d)
    same_cert = recognized == cert and recognized.part_sizes == (2, 1, 3, 2, 1)
    rc = main(["decompose", str(DATA / "sample_cycle.txt"), "--class", "als", "--format", "json"])
    out = capsys.readouterr().out
    golden = (GOLDEN / "sample_cycle_als.json").read_text()
    ok = same_cert and rc == 0 and out == golden
    _report(
        7,
        ok,
        f"(2,1,3,2,1) cycle: certificate identical {same_cert}, "
        f"CLI json byte-identical to golden {out == golden}",
    )


def test_criterion_08_structural_lemma_suite(
    n5_in_member_indices, random_in_population
):
    from arclocal.sweeps import lemma_failures

    counterexamples = 0
    checked = 0
    for index in n5_in_member_indices:
        if lemma_failures(digraph_from_index(5, index)):
            counterexamples += 1
        checked += 1
    for d in random_in_population:
        if lemma_failures(d):
            counterexamples += 1
        checked += 1
    ok = counterexamples == 0 and checked == len(n5_in_member_indices) + len(
        random_in_population
    )
    _report(
        8,
        ok,
        f"structural lemma suite over {checked} members "
        f"(exhaustive n=5 + random), {counterexamples} counterexamples",
    )


def test_criterion_09_duality_exhaustive_n4():
    disagreements = 0
    scanned = 0
    for n in range(5):
        for d in enumerate_digraphs(n):
            scanned += 1
            if is_arc_locally_in_semicomplete(d) != is_arc_locally_out_semicomplete(
                d.inverse()
            ):
                disagreements += 1
    ok = disagreements == 0 and scanned == 1 + 1 + 4 + 64 + 4096
    _report(
        9,
        ok,
        f"duality over all {scanned} digraphs with n<=4, "
        f"{disagreements} disagreements",
    )


def _random_chordal(rng: random.Random, n: int) -> UndirectedGraph:
    """Chordal by construction: each vertex joins a clique when added.

    Every vertex is simplicial at insertion time, so the reverse insertion
    order is a perfect elimination ordering.
    """
    edges = []
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        order = list(range(v))
        rng.shuffle(order)
        clique = []
        for w in order:
            if all(u in adj[w] for u in clique):
                clique.append(w)
        for w in clique[: rng.randint(0, len(clique))]:
            edges.append((v, w))
            adj[v].add(w)
            adj[w].add(v)
    return UndirectedGraph(n, edges)


def test_criterion_10_oracle_self_test():
    problems = []

    # Named graphs.
    c5 = directed_cycle(5).underlying_graph()
    perfect, witness = brute_force_is_perfect(c5)
    if perfect or witness != ("hole", (0, 1, 2, 3, 4)):
        problems.append("C5 not flagged as a hole")
    c7c = directed_cycle(7).underlying_graph().complement()
    perfect, witness = brute_force_is_perfect(c7c)
    if perfect or witness[0] != "antihole":
        problems.append("complement of C7 not flagged as an antihole")
    k5 = UndirectedGraph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    if brute_force_is_perfect(k5) != (True, None):
        problems.append("K5 not flagged perfect")

    # Every bipartite graph with n <= 6 is perfect.
    bipartite_checked = 0
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = UndirectedGraph(n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
            if g.bipartition() is None:
                continue
            bipartite_checked += 1
            if brute_force_is_perfect(g) != (True, None):
                problems.append(f"bipartite graph flagged imperfect (n={n}, mask={mask})")

    # Chordal samples are perfect.
    rng = random.Random(97)
    for i in range(40):
        g = _random_chordal(rng, rng.randint(5, 11))
        if brute_force_is_perfect(g) != (True, None):
            problems.append(f"chordal sample {i} flagged imperfect")

    # Recognizer agrees with the brute-force extended-cycle oracle on all
    # n <= 5 digraphs.  n <= 4 is checked with no shortcuts.  At n = 5 a
    # definitional prefilter (an extended cycle with >= 3 parts has no
    # digons, positive in- and out-degree everywhere, and is connected)
    # narrows the expensive brute oracle to the candidates; the recognizer
    # must return None on every digraph that fails the prefilter, and a
    # 1-in-64 deterministic subsample of those is brute-checked as well.
    agree_checked = 0
    for n in range(5):
        for d in enumerate_digraphs(n):
            agree_checked += 1
            if (recognize_extended_cycle(d) is not None) != brute_is_extended_cycle(d):
                problems.append(f"recognizer/brute disagreement at n={n}")
    for index, d in enumerate(enumerate_digraphs(5)):
        got = recognize_extended_cycle(d) is not None
        candidate = (
            all(d.out_masks[v] & d.in_masks[v] == 0 for v in range(5))
            and all(d.out_masks[v] and d.in_masks[v] for v in range(5))
            and d.is_connected()
        )
        agree_checked += 1
        if candidate or index % 64 == 0:
            if got != brute_is_extended_cycle(d):
                problems.append(f"recognizer/brute disagreement at n=5 index {index}")
        elif got:
            problems.append(f"recognizer accepted a non-candidate at n=5 index {index}")

    ok = not problems
    _report(
        10,
        ok,
        f"oracle self-test: named graphs, {bipartite_checked} bipartite graphs "
        f"n<=6, 40 chordal samples, recognizer agreement on {agree_checked} "
        f"digraphs n<=5; problems: {problems[:3] if problems else 'none'}",
    )
