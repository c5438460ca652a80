"""Benchmark for the arclocal package: three workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-n5-in --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  Each workload runs in this one process as a closed loop:
an input starts only after the previous one finished.  The unit of repeated
work is a pass over the workload's inputs; passes repeat while the last one
still fits in the remaining ``--seconds``, and at least one pass always runs.

Workloads (why each was chosen is in BENCHMARK.json and README.md):

  sweep-n5-in      ``run_sweep(5, "in", "main-theorem")`` over all 1,048,576
                   labelled digraphs on 5 vertices; one pass is one sweep.
                   Exhaustive, so the seed does not change its input.
  population-in    10^4 ``random_class_member`` in-members, n cycling 6..10,
                   model seeds 11,000,000 + 10^4 * seed + i; each input is
                   ``decompose_in_semicomplete`` then ``verify_decomposition``.
  decompose-large  in-process ``arclocal.cli.main(["decompose", FILE,
                   "--format", "json"])`` over three seeded in-members on
                   250 vertices, one per outcome, written as edge-list files
                   during set-up.

``--trace 0`` prints the end-to-end metrics: set-up time, throughput,
per-input latency (median and 99th percentile over inputs, nearest rank, of
each input's median time over the passes), and peak resident memory.  ``--trace 1`` runs set-up once, one pass untraced and one
pass traced, and prints per-layer call counts and self times (see
``spans.py``) plus the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it stamps the run with the interpreter,
platform, CPU count, source version and seed.  The exit code is 1 when a
correctness check fails and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
OUTCOMES = ("diperfect", "tripartition", "clique_cut")

# (scanned, members, outcome histogram) of the main-theorem sweep of class in.
SWEEP_PINS = {
    4: (4_096, 2_034, {"diperfect": 2_034}),
    5: (1_048_576, 155_388, {"diperfect": 155_364, "tripartition": 24}),
}
POPULATION_SEED_BASE = 11_000_000
# Outcome histogram of the full population at --seed 0 (the acceptance fixture).
POPULATION_PIN = {"diperfect": 4_855, "tripartition": 4_124, "clique_cut": 1_021}


@dataclass(frozen=True)
class Scale:
    sweep_n: int
    population: int
    large_n: int
    large_shapes: tuple[str, ...]


SCALES = {
    "full": Scale(5, 10_000, 250, ("semicomplete", "tail", "spill")),
    # Small enough for the self-tests to run every workload in seconds.
    "tiny": Scale(4, 300, 40, ("tail", "spill")),
}


@dataclass
class Tally:
    """What one or more passes did: inputs tried, inputs wrong, members decomposed."""

    attempted: int = 0
    failed: int = 0
    members: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.members += other.members


@dataclass
class Workload:
    """``prepare(seed, scale, workdir)`` builds the inputs and warms up;
    ``run_pass(inputs, samples)`` runs each input once, appends one latency
    sample in ms per input, and checks the outputs."""

    prepare: Callable
    run_pass: Callable[[object, list], Tally]


def _report_exception(context: str) -> None:
    sys.stderr.write(f"error in {context}:\n{traceback.format_exc()}")


# ----------------------------------------------------------------------
# sweep-n5-in
# ----------------------------------------------------------------------


def _sweep_prepare(seed: int, scale: Scale, workdir: Path) -> int:
    from arclocal import sweeps

    sweeps.run_sweep(scale.sweep_n - 1, "in", "main-theorem")  # warm-up
    return scale.sweep_n


def _sweep_pass(n: int, samples: list) -> Tally:
    from arclocal import sweeps

    scanned, members, outcomes = SWEEP_PINS[n]
    start = time.perf_counter_ns()
    report = sweeps.run_sweep(n, "in", "main-theorem", jobs=1)
    samples.append((time.perf_counter_ns() - start) / 1e6)
    failed = len(report.failures)
    if (report.scanned, report.members, dict(report.outcomes)) != (
        scanned,
        members,
        outcomes,
    ):
        sys.stderr.write(f"sweep counts differ from the pinned ones: {report.summary()}\n")
        failed = scanned  # the sweep as a whole is wrong
    return Tally(scanned, min(failed, scanned), report.members)


# ----------------------------------------------------------------------
# population-in
# ----------------------------------------------------------------------


@dataclass
class Population:
    seed: int
    members: list
    kinds: list = field(default_factory=list)  # outcome of each member, first pass


def _population_prepare(seed: int, scale: Scale, workdir: Path) -> Population:
    from arclocal import RandomModel, decompose, generators

    base = POPULATION_SEED_BASE + seed * 10_000
    members = []
    for i in range(scale.population):
        model = RandomModel(n=6 + i % 5, seed=base + i)
        d = generators.random_class_member(model, "in")
        if d is None:
            raise RuntimeError(f"no in-member for model seed {base + i}")
        members.append(d)
    for d in members[: len(members) // 10]:  # warm-up
        decompose.verify_decomposition(d, decompose.decompose_in_semicomplete(d))
    return Population(seed, members)


def _population_pass(pop: Population, samples: list) -> Tally:
    from arclocal import decompose

    decompose_in, verify = decompose.decompose_in_semicomplete, decompose.verify_decomposition
    clock = time.perf_counter_ns
    first = not pop.kinds
    failed = 0
    for i, d in enumerate(pop.members):
        start = clock()
        try:
            dec = decompose_in(d)
            ok, _reason = verify(d, dec)
            kind = dec.kind
        except Exception:
            _report_exception(f"population member {i}")
            ok, kind = False, None
        samples.append((clock() - start) / 1e6)
        if first:
            pop.kinds.append(kind)
        if not ok or kind != pop.kinds[i]:
            failed += 1
    attempted = len(pop.members)
    if first:
        histogram = Counter(pop.kinds)
        wrong = any(histogram[k] == 0 for k in OUTCOMES)
        if pop.seed == 0 and attempted == 10_000:
            wrong = wrong or dict(histogram) != POPULATION_PIN
        if wrong:
            sys.stderr.write(f"population outcomes wrong: {dict(histogram)}\n")
            failed = attempted  # the pass as a whole is wrong
    return Tally(attempted, failed, attempted)


# ----------------------------------------------------------------------
# decompose-large
# ----------------------------------------------------------------------


def _semicomplete_arcs(rng: random.Random, vertices) -> list[tuple[int, int]]:
    arcs = []
    for u, v in combinations(vertices, 2):
        r = rng.random()
        if r < 0.25:
            arcs += [(u, v), (v, u)]
        else:
            arcs.append((u, v) if r < 0.625 else (v, u))
    return arcs


def _large_member(rng: random.Random, n: int, shape: str):
    """An arc-locally in-semicomplete digraph on n vertices of a fixed shape.

    Shapes fix the vertex and arc counts, so the cost of a pass does not
    depend on the seed; the seed picks the front's orientations, the order
    of the cycle's part sizes, the part feeding the tail, the feeders of
    each spilled vertex and the vertex labels:

      semicomplete  every pair adjacent, a quarter of them digons (diperfect);
      tail          a semicomplete front strictly dominating an odd extended
                    cycle with near-equal parts, one part of which feeds a
                    directed path (tripartition with non-empty V1 and V3);
      spill         the same front and cycle, plus vertices each fed by half
                    of the front and nothing else (clique cut: the front).

    Vertex labels are shuffled so no shape reaches the scans in block order.
    """
    from arclocal import Digraph

    if shape == "semicomplete":
        arcs = _semicomplete_arcs(rng, range(n))
    else:
        front, extra = n * 6 // 25, n * 4 // 25
        body = n - front - extra
        k = 7 if body >= 35 else 5
        sizes = [body // k + (i < body % k) for i in range(k)]
        rng.shuffle(sizes)
        bounds = [front]
        for size in sizes:
            bounds.append(bounds[-1] + size)
        parts = [range(bounds[i], bounds[i + 1]) for i in range(k)]
        arcs = _semicomplete_arcs(rng, range(front))
        arcs += [(u, v) for u in range(front) for v in range(front, front + body)]
        for i in range(k):
            arcs += [(u, v) for u in parts[i] for v in parts[(i + 1) % k]]
        first_extra = front + body
        if shape == "tail":
            arcs += [(u, first_extra) for u in rng.choice(parts)]
            arcs += [(v, v + 1) for v in range(first_extra, n - 1)]
        else:
            for v in range(first_extra, n):
                arcs += [(u, v) for u in rng.sample(range(front), (front + 1) // 2)]
    labels = list(range(n))
    rng.shuffle(labels)
    return Digraph(n, [(labels[u], labels[v]) for u, v in arcs])


@dataclass
class LargeInputs:
    files: list[Path]
    kinds: list[str]


def _cli_decompose(path: Path) -> tuple[int, str]:
    from arclocal import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["decompose", str(path), "--format", "json"])
    return code, out.getvalue()


def _large_prepare(seed: int, scale: Scale, workdir: Path) -> LargeInputs:
    from arclocal import decompose, format_edge_list, make_extended_cycle

    rng = random.Random(seed)
    files, kinds = [], []
    for i, shape in enumerate(scale.large_shapes):
        d = _large_member(rng, scale.large_n, shape)
        path = workdir / f"member{i}-{shape}.txt"
        path.write_text(format_edge_list(d))
        files.append(path)
        kinds.append(decompose.decompose_in_semicomplete(d).kind)
    warm = workdir / "warm-up.txt"
    warm.write_text(format_edge_list(make_extended_cycle((2, 1, 3, 2, 1))[0]))
    _cli_decompose(warm)
    return LargeInputs(files, kinds)


def _large_pass(inputs: LargeInputs, samples: list) -> Tally:
    clock = time.perf_counter_ns
    failed = 0
    for path, kind in zip(inputs.files, inputs.kinds):
        start = clock()
        try:
            code, text = _cli_decompose(path)
        except Exception:
            _report_exception(f"decompose {path.name}")
            code, text = None, ""
        samples.append((clock() - start) / 1e6)
        try:
            outcome = json.loads(text).get("outcome")
        except ValueError:
            outcome = None
        if code != 0 or outcome != kind:
            failed += 1
    return Tally(len(inputs.files), failed, len(inputs.files))


WORKLOADS = {
    "sweep-n5-in": Workload(_sweep_prepare, _sweep_pass),
    "population-in": Workload(_population_prepare, _population_pass),
    "decompose-large": Workload(_large_prepare, _large_pass),
}


# ----------------------------------------------------------------------
# per-layer targets
# ----------------------------------------------------------------------


def _is_not_none(result) -> bool:
    return result is not None


# Counter reported under each metric suffix.
COUNTERS = {"calls": "calls", "yields": "calls", "rejects": "hits", "hits": "hits", "self_s": "self_s"}
# Layers that only run during set-up; they are counted over the traced set-up.
SETUP_LAYERS = {"generators.random_class_member"}


def _layer(name: str, counters: tuple[str, ...], spec: str | None = None, **results):
    """A traced layer and the counters it reports.  The function traced is
    ``arclocal.<module>:<function>`` for a layer named ``<module>.<function>``
    unless ``spec`` says otherwise."""
    from spans import Target

    module, _, function = name.partition(".")
    return Target(name, (spec or f"arclocal.{module}:{function}",), **results), counters


def _layers():
    return [
        _layer("generators.enumerate_digraphs", ("yields", "self_s")),
        _layer("generators.brute_force_is_perfect", ("calls", "self_s")),
        _layer("generators.random_class_member", ("calls", "self_s")),
        _layer("patterns.find_pattern_violation", ("calls", "self_s", "rejects"), hit=_is_not_none),
        _layer("digraph.is_connected", ("calls", "self_s"), "arclocal.digraph:Digraph.is_connected"),
        _layer("digraph.validated_builds", ("calls",), "arclocal.digraph:Digraph.__init__"),
        _layer("digraph.induced", ("calls", "self_s"), "arclocal.digraph:Digraph.induced"),
        _layer("digraph.parse_edge_list", ("self_s",)),
        _layer("structure.strong_components", ("calls", "self_s")),
        _layer("structure.recognize_odd_extended_cycle", ("calls", "self_s", "hits"), hit=_is_not_none),
        _layer("structure.find_induced_odd_directed_cycle_ge5", ("calls", "self_s")),
        _layer("structure.check_extended_cycle_certificate", ("calls", "self_s")),
        _layer("structure.verify_clique_cut", ("calls", "self_s")),
        _layer("decompose.decompose_in_semicomplete", ("calls", "self_s"), kind=lambda dec: dec.kind),
        _layer("decompose.verify_decomposition", ("calls", "self_s")),
        _layer("sweeps.run_sweep", ("self_s",)),
        _layer("render", ("self_s",), "arclocal.render:*"),
        _layer("cli.main", ("self_s",)),
    ]


def _layer_metrics(layers: dict, counters: dict, traced_pass: Tally) -> dict:
    """Per-layer metrics of the layers that exist; absent ones are left out."""
    metrics = {}
    for name, layer in layers.items():
        for counter in counters[name]:
            unit = "s" if counter == "self_s" else "count"
            metrics[f"{name}.{counter}"] = _metric(getattr(layer, COUNTERS[counter]), unit)
    if "patterns.find_pattern_violation" in layers:
        scans = layers["patterns.find_pattern_violation"].calls
        metrics["patterns.scans_per_input"] = _metric(scans / traced_pass.attempted, "calls/input")
    if "structure.strong_components" in layers:
        sccs = layers["structure.strong_components"].calls
        metrics["structure.scc_per_member"] = _metric(
            sccs / max(traced_pass.members, 1), "calls/member"
        )
    if "decompose.decompose_in_semicomplete" in layers:
        kinds = layers["decompose.decompose_in_semicomplete"].kinds
        for kind in OUTCOMES:
            metrics[f"decompose.outcome.{kind}"] = _metric(kinds.get(kind, 0), "count")
    return metrics


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q / 100)) - 1]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(workload: Workload, args, scale: Scale, workdir: Path, import_s: float):
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.prepare(args.seed, scale, workdir)
        setups.append(time.perf_counter() - start)
    gc.collect()
    passes: list[list[float]] = []
    pass_s: list[float] = []
    tally = Tally()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append([])
        tally.add(workload.run_pass(inputs, passes[-1]))
        now = time.perf_counter()
        pass_s.append(now - pass_start)
        if args.seconds - (now - start) < pass_s[-1]:
            break
    elapsed = now - start
    # An input's latency is the median of its times over the passes, which
    # keeps a slow second on a shared host from moving the percentiles.
    latencies = sorted(statistics.median(times) for times in zip(*passes))
    metrics = {
        "setup_s": _metric(import_s + statistics.median(setups), "s"),
        "throughput_per_s": _metric(tally.attempted / elapsed, "1/s"),
        "latency_p50_ms": _metric(_percentile(latencies, 50), "ms"),
        "latency_p99_ms": _metric(_percentile(latencies, 99), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "latency_inputs": len(latencies),
        "pass_s": pass_s,
        "measured_s": elapsed,
        "setup_runs_s": setups,
    }
    return tally, metrics, notes


def _traced(workload: Workload, args, scale: Scale, workdir: Path):
    from spans import Tracer

    layers = _layers()
    tracer = Tracer([target for target, _ in layers])
    with tracer:
        inputs = workload.prepare(args.seed, scale, workdir)
    setup_counts = {
        name: (tracer.layers[name].calls, tracer.layers[name].self_ns)
        for name in SETUP_LAYERS
        if name in tracer.layers
    }
    gc.collect()
    start = time.perf_counter()
    tally = workload.run_pass(inputs, [])
    untraced_s = time.perf_counter() - start
    tracer.reset()
    gc.collect()
    with tracer:
        start = time.perf_counter()
        traced_pass = workload.run_pass(inputs, [])
        traced_s = time.perf_counter() - start
    tally.add(traced_pass)
    for name, (calls, self_ns) in setup_counts.items():
        tracer.layers[name].calls, tracer.layers[name].self_ns = calls, self_ns
    counters = {target.name: names for target, names in layers}
    metrics = _layer_metrics(tracer.layers, counters, traced_pass)
    metrics["trace.overhead_ratio"] = _metric(traced_s / untraced_s, "ratio")
    notes = {"absent": tracer.absent, "untraced_pass_s": untraced_s, "traced_pass_s": traced_s}
    return tally, metrics, notes


def _commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stamp(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "arclocal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "arclocal" / "__init__.py").is_file():
        sys.stderr.write(f"error: package source not found under {SRC}\n")
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import arclocal
    import arclocal.cli  # noqa: F401  (loads every module the workloads use)

    import_s = time.perf_counter() - started
    if Path(arclocal.__file__).resolve().parent != SRC / "arclocal":
        sys.stderr.write(f"error: imported arclocal from {arclocal.__file__}, not {SRC}\n")
        return 2

    workload = WORKLOADS[args.workload]
    scale = SCALES[args.scale]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        if args.trace:
            tally, metrics, notes = _traced(workload, args, scale, workdir)
        else:
            tally, metrics, notes = _end_to_end(workload, args, scale, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes["failed_ratio"] = tally.failed / tally.attempted
    print(json.dumps({"stamp": _stamp(args), "notes": notes}))
    correct = tally.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
