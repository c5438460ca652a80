"""Alternating before/after benchmark pairs, written to a BENCH_*.json file.

Run from the repository root:

    python3 tools/bench_pairs.py --base HEAD --run sweep-n5-in:5 \
        --run population-in:5 --run decompose-large:3 --seconds 30 \
        --what "what the change does" --out BENCH_name.json

``--base`` names the commit to compare against; it is extracted with
``git archive`` into a temporary directory.  The other side is the working
tree as it stands, uncommitted edits included.  Each ``--run WORKLOAD:PAIRS``
runs ``perfbench/run.py --trace 0`` PAIRS times on each side, one run at a
time, with the side that goes first swapping from pair to pair; pair i of a
workload uses seed ``--seed + i`` on both sides.  Every run is written out
with its stamp and metrics, and each metric of each workload is summarised
per side (median, quartiles) together with the number of pairs the change
won and the bound from BENCHMARK.json.

perfbench traces none of the stages inside an exhaustive sweep, so the file
also holds per-stage process times of the n=5 ``in`` main-theorem sweep on
both sides (``--stage-repeats`` rounds, median reported):
the split mask tables, the member rows, the guard and perfection row filters
queried on every member row, the build-and-check loop over the members left
undecided, and the whole sweep.  It also holds per-stage wall times of the
``decompose-large`` inputs, the three 250-vertex members that each side's
own ``perfbench/run.py`` builds with ``_large_member`` at seed 0: reading
the file, ``parse_edge_list`` of the text and of its CRLF rewrite, the class
scan ``find_pattern_violation(d, "in_in")``, ``decompose_in_semicomplete``,
``verify_decomposition``, ``cli.build_parser``, and the whole in-process
``cli.main(["decompose", FILE, "--format", "json"])`` with its output
captured.  It holds per-stage process times on the seed-0 ``population-in``
members, built by each side's own ``perfbench/run.py``: the whole of
``decompose_in_semicomplete`` and of ``verify_decomposition`` over the
members of each outcome kind, ``odd_extended_cycle_components`` over every
member, and ``recognize_extended_cycle`` over every member's whole vertex
set and over each tripartition's V2.  Each stage script runs in one fresh
subprocess per side and round, one warm-up and one timed repeat each, and
the side that goes first swaps from round to round, so a burst of host load
moves both sides alike.  Last, it holds the ``tracemalloc`` peak of
``parse_edge_list`` on each member, on the longest path the parse accepts
and on the bare header ``n 16384``, on both sides.  A stage is timed only
through functions that exist with the same signature on both sides.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter with one side's src/ first on sys.path; prints
# one JSON object of stage -> process seconds per repeat.
STAGES = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from arclocal import generators as g, sweeps as s

def timed(f):
    start = time.process_time()
    value = f()
    return time.process_time() - start, value

n, cls, repeats = 5, "in", int(sys.argv[2])
check = s._PROPERTIES["main-theorem"][0]
times = {}
for rep in range(repeats + 1):  # the first round only warms the caches
    row = {}
    row["split_tables"], tables = timed(lambda: g._split_tables(n, g.vertex_pairs(n)))
    row["member_rows"], rows = timed(lambda: list(g._member_rows(n, cls)))

    def query(build):  # build a row filter, then ask it for every member row
        rows_for = build()
        return [rows_for(h) for h, _ in rows]

    row["ruled_out_rows"], _ = timed(lambda: query(lambda: s._ruled_out_rows(n, tables)))
    # kind "member" builds the perfection filter alone, without the guard
    row["settled_rows_perfect"], _ = timed(lambda: query(lambda: s._settled_rows(n, tables, "member")))
    settled = s._settled_rows(n, tables, "diperfect")
    left = [(h, allowed & ~settled(h)) for h, allowed in rows]
    row["build_and_check"], _ = timed(lambda: [check(d, cls) for _, d in g._build_rows(n, tables, left)])
    row["run_sweep"], _ = timed(lambda: s.run_sweep(n, cls, "main-theorem"))
    if rep:
        for stage, seconds in row.items():
            times.setdefault(stage, []).append(seconds)
print(json.dumps(times))
"""

# The same for the decompose-large inputs, in wall seconds per repeat, keyed
# "shape/stage"; the members come from the side's own perfbench/run.py.
LARGE_STAGES = r"""
import contextlib, io, json, random, sys, tempfile, time
from pathlib import Path
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from run import SCALES, _large_member
from arclocal import cli, format_edge_list, parse_edge_list
from arclocal.decompose import decompose_in_semicomplete, verify_decomposition
from arclocal.patterns import find_pattern_violation

def timed(f):
    start = time.perf_counter()
    value = f()
    return time.perf_counter() - start, value

scale, repeats = SCALES["full"], int(sys.argv[2])
rng = random.Random(0)
members = [(shape, _large_member(rng, scale.large_n, shape)) for shape in scale.large_shapes]
times = {}
with tempfile.TemporaryDirectory() as tmp:
    paths = []
    for shape, d in members:
        path = Path(tmp) / f"{shape}.txt"
        path.write_text(format_edge_list(d))
        paths.append((shape, path))
    for rep in range(repeats + 1):  # the first round only warms the caches
        for shape, path in paths:
            row = {}
            row["read_text"], text = timed(path.read_text)
            row["parse_edge_list"], d = timed(lambda: parse_edge_list(text))
            crlf = text.replace("\n", "\r\n")
            row["parse_edge_list_crlf"], _ = timed(lambda: parse_edge_list(crlf))
            row["find_pattern_violation"], _ = timed(lambda: find_pattern_violation(d, "in_in"))
            row["decompose_in_semicomplete"], dec = timed(lambda: decompose_in_semicomplete(d))
            row["verify_decomposition"], _ = timed(lambda: verify_decomposition(d, dec))
            row["build_parser"], _ = timed(cli.build_parser)
            with contextlib.redirect_stdout(io.StringIO()):
                row["cli_main"], code = timed(
                    lambda: cli.main(["decompose", str(path), "--format", "json"]))
            assert code == 0, (shape, code)
            if rep:
                for stage, seconds in row.items():
                    times.setdefault(f"{shape}/{stage}", []).append(seconds)
print(json.dumps(times))
"""

# The same for the seed-0 population-in members, in process seconds per
# repeat, keyed "stage/kind"; the members come from the side's own
# perfbench/run.py.
POPULATION_STAGES = r"""
import json, sys, time
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from run import SCALES, _population_prepare
from arclocal.decompose import decompose_in_semicomplete, verify_decomposition
from arclocal.digraph import mask_of
from arclocal.structure import odd_extended_cycle_components, recognize_extended_cycle

def timed(f):
    start = time.process_time()
    value = f()
    return time.process_time() - start, value

members, repeats = _population_prepare(0, SCALES["full"], None).members, int(sys.argv[2])
by_kind = {}
for d in members:
    dec = decompose_in_semicomplete(d)
    by_kind.setdefault(dec.kind, []).append((d, dec))
v2 = [(d, mask_of(dec.v2)) for d, dec in by_kind.get("tripartition", [])]
times = {}
for rep in range(repeats + 1):  # the first round only warms the caches
    row = {}
    for kind, pairs in by_kind.items():
        row[f"decompose_in_semicomplete/{kind}"], _ = timed(
            lambda: [decompose_in_semicomplete(d) for d, _ in pairs])
        row[f"verify_decomposition/{kind}"], _ = timed(
            lambda: [verify_decomposition(d, dec) for d, dec in pairs])
    row["odd_extended_cycle_components/all"], _ = timed(
        lambda: [odd_extended_cycle_components(d) for d in members])
    row["recognize_extended_cycle/whole"], _ = timed(
        lambda: [recognize_extended_cycle(d) for d in members])
    row["recognize_extended_cycle/v2"], _ = timed(
        lambda: [recognize_extended_cycle(d, m) for d, m in v2])
    if rep:
        for stage, seconds in row.items():
            times.setdefault(stage, []).append(seconds)
print(json.dumps(times))
"""

# The tracemalloc peak of parse_edge_list in MB, keyed by input: the same
# members, the longest path the side's parse accepts, and its bare header.
PARSE_PEAKS = r"""
import json, random, sys, tracemalloc
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from run import SCALES, _large_member
from arclocal import format_edge_list, parse_edge_list
from arclocal.digraph import MAX_VERTICES

scale, rng = SCALES["full"], random.Random(0)
texts = {shape: format_edge_list(_large_member(rng, scale.large_n, shape))
         for shape in scale.large_shapes}
n = MAX_VERTICES
texts["path"] = f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
texts["header"] = f"n {n}\n"
peaks = {}
for name, text in texts.items():
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    parse_edge_list(text)
    peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    tracemalloc.stop()
print(json.dumps(peaks))
"""


def extract(rev: str, into: Path) -> str:
    """Extract ``rev`` into ``into`` with git archive; returns the full hash."""
    commit = subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    data = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(data.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: exit code, stamp and result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    run = {"exit": proc.returncode}
    if len(lines) >= 2:
        head, result = json.loads(lines[-2]), json.loads(lines[-1])
        run["stamp"] = head["stamp"]
        run["pass_count"] = len(head["notes"].get("pass_s", []))
        run["correct"] = result["correct"]
        run["attempted"], run["failed"] = result["attempted"], result["failed"]
        run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    else:
        run["stderr"] = proc.stderr[-2000:]
    return run


def stages(script: str, tree: Path, repeats: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tree), str(repeats)],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), check=True,
        capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def quartiles(values: list[float]) -> dict:
    ordered = sorted(values)
    q = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else ordered * 3
    return {"median": statistics.median(ordered), "q1": q[0], "q3": q[2],
            "min": ordered[0], "max": ordered[-1]}


def summarise(runs: list[dict], metrics: dict) -> dict:
    """Per workload and metric: both sides' spread, the pairs the change won,
    and whether the change's median is worse than the parent's by more than
    the bound."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r.get("metrics") for r in mine}
        ok = [p for p in pairs if by.get((p, "parent")) and by.get((p, "change"))]
        table = {}
        for name, spec in metrics.items():
            parent = [by[p, "parent"][name] for p in ok]
            change = [by[p, "change"][name] for p in ok]
            if not ok:
                continue
            higher = spec["better"] == "higher"
            won = sum((c > b) if higher else (c < b) for b, c in zip(parent, change))
            ratio = statistics.median(change) / statistics.median(parent)
            worse_by = (1 - ratio) if higher else (ratio - 1)
            pq = quartiles(parent)
            table[name] = {
                "parent": pq, "change": quartiles(change), "change_better_pairs": won,
                "change_vs_parent": ratio, "worse_by": worse_by, "bound": spec["bound"],
                "within_bound": worse_by <= spec["bound"], "parent_iqr": pq["q3"] - pq["q1"],
            }
        failed = sum(1 for r in mine if r["exit"] != 0 or not r.get("correct"))
        summary[workload] = {"pairs": len(ok), "failed_runs": failed, "metrics": table}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:PAIRS")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--stage-repeats", type=int, default=5,
                        help="rounds of stage times per side; 0 skips them")
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    plan = []
    for item in args.run:
        workload, _, pairs = item.partition(":")
        plan.append((workload, int(pairs or 1)))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp)
        commit = extract(args.base, base)
        sides = {"parent": base, "change": ROOT}
        runs = []
        for workload, pairs in plan:
            for pair in range(pairs):
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for side in order:
                    run = bench(sides[side], workload, args.seed + pair, args.seconds)
                    run.update(workload=workload, seed=args.seed + pair, pair=pair,
                               side=side, first=order[0])
                    runs.append(run)
                    print(json.dumps({k: run.get(k) for k in
                                      ("workload", "pair", "side", "exit", "metrics")}),
                          file=sys.stderr)
        stage_times, large_times, population_times = {}, {}, {}
        parse_peaks = {side: stages(PARSE_PEAKS, tree, 0) for side, tree in sides.items()}
        for rep in range(args.stage_repeats):  # one repeat per subprocess, sides alternating
            for side in (["parent", "change"] if rep % 2 == 0 else ["change", "parent"]):
                for script, into in ((STAGES, stage_times), (LARGE_STAGES, large_times),
                                     (POPULATION_STAGES, population_times)):
                    for stage, values in stages(script, sides[side], 1).items():
                        into.setdefault(side, {}).setdefault(stage, []).extend(values)

    def spread(times):
        return {
            side: {stage: {"median": statistics.median(v), "min": min(v), "max": max(v),
                           "samples": len(v)} for stage, v in by_stage.items()}
            for side, by_stage in times.items()
        }

    report = {
        "what": args.what,
        "command": "python3 tools/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "host": {"python": platform.python_version(), "platform": platform.platform(),
                 "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count()},
        "checkouts": {"parent": f"git archive of {commit}",
                      "change": "the working tree, uncommitted edits included"},
        "summary": summarise(runs, metrics),
        "stages_process_s": spread(stage_times),
        "decompose_large_stages_wall_s": spread(large_times),
        "population_stages_process_s": spread(population_times),
        "parse_tracemalloc_peak_mb": parse_peaks,
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 and r.get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
