"""Command-line interface.

Subcommands: classify, decompose, generate, enumerate-verify, oracle.
Exit codes: 0 success; 1 domain rejection (input outside the required class,
disconnected input, or a failed verification), with the witness printed;
2 usage errors, malformed input files, unreadable paths and exceeded search
caps.

The subset-search cap defaults to 12 vertices and can be set with
``--oracle-cap``.  ``main`` builds the argparse tree on its first call and
reuses it for every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import render
from .decompose import (
    classify_arc_locally_semicomplete,
    decompose_in_semicomplete,
    decompose_out_semicomplete,
    verify_als_outcome,
    verify_decomposition,
)
from .digraph import Digraph, format_edge_list, parse_edge_list
from .errors import (
    CapExceeded,
    ClassViolation,
    DisconnectedError,
    EdgeListError,
    InvariantViolation,
)
from .generators import (
    RandomModel,
    brute_force_has_clique_cut,
    brute_force_is_perfect,
    digraph_from_index,
    make_extended_cycle,
    random_class_member,
    random_digraph,
)
from .patterns import classify
from .structure import (
    DEFAULT_ORACLE_CAP,
    find_induced_nonoriented_odd_cycle_ge5,
    find_induced_odd_directed_cycle_ge5,
)
from .sweeps import SWEEP_PROPERTIES, run_sweep

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# Largest vertex count ``generate`` builds.  The random models are O(n^2),
# so this is far below digraph.MAX_VERTICES; a larger request exits 2 before
# anything n-sized is built.
MAX_GENERATE_VERTICES = 2048


def _read_digraph(path: str) -> Digraph:
    if path == "-":
        return parse_edge_list(sys.stdin.read())
    return parse_edge_list(Path(path).read_text())


def cmd_classify(args) -> int:
    d = _read_digraph(args.input)
    report = classify(d)
    if args.format == "json":
        sys.stdout.write(render.dumps(render.class_report_dict(d, report)))
    elif args.format == "dot":
        sys.stdout.write(render.digraph_to_dot(d))
    else:
        sys.stdout.write(render.class_report_text(d, report))
    return EXIT_OK


def cmd_decompose(args) -> int:
    d = _read_digraph(args.input)
    cls = args.cls
    try:
        if cls == "als":
            outcome = classify_arc_locally_semicomplete(d)
        elif cls == "in":
            outcome = decompose_in_semicomplete(d)
        else:
            outcome = decompose_out_semicomplete(d)
    except (ClassViolation, DisconnectedError) as exc:
        if args.format == "json":
            witness = getattr(exc, "witness", None)  # a disconnected input has none
            sys.stdout.write(render.dumps(render.rejection_dict(cls, str(exc), witness)))
        else:
            sys.stdout.write(f"rejected: {exc}\n")
        return EXIT_DOMAIN
    verify = verify_als_outcome if cls == "als" else verify_decomposition
    ok, reason = verify(d, outcome, cap=args.oracle_cap)
    if not ok:
        what = "dichotomy outcome" if cls == "als" else "decomposition"
        raise InvariantViolation(f"{what} failed verification: {reason}")
    obj = render.outcome_dict(cls, outcome)
    if args.format == "json":
        sys.stdout.write(render.dumps(obj))
    elif args.format == "dot":
        sys.stdout.write(render.digraph_to_dot(d, render.outcome_groups(obj)))
    else:
        sys.stdout.write(render.outcome_text(obj))
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.kind == "extended-cycle":
        if args.sizes is None:
            raise UsageError("generate extended-cycle requires --sizes")
        sizes = _parse_sizes(args.sizes)
        _check_generate_size(sum(sizes), "--sizes total")
        d, _ = make_extended_cycle(sizes)
    elif args.kind in ("random", "member"):
        if args.n is None:
            raise UsageError(f"generate {args.kind} requires --n")
        _check_generate_size(args.n, "--n")
        if args.kind == "random":
            d = random_digraph(RandomModel(args.n, args.p_arc, args.p_digon, args.seed))
        else:
            d = random_class_member(RandomModel(args.n, seed=args.seed), args.cls, args.max_tries)
            if d is None:
                sys.stdout.write(
                    f"no connected member of class '{args.cls}' found in "
                    f"{args.max_tries} tries\n"
                )
                return EXIT_DOMAIN
    else:  # from-index
        if args.n is None or args.index is None:
            raise UsageError("generate from-index requires --n and --index")
        _check_generate_size(args.n, "--n")
        d = digraph_from_index(args.n, args.index)
    text = render.digraph_to_dot(d) if args.format == "dot" else format_edge_list(d)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return EXIT_OK


def cmd_enumerate_verify(args) -> int:
    report = run_sweep(args.n, args.cls, args.property, jobs=args.jobs)
    sys.stdout.write(report.summary() + "\n")
    for outcome in sorted(report.outcomes):
        sys.stdout.write(f"  {outcome}: {report.outcomes[outcome]}\n")
    if not report.ok:
        for index, reason in report.failures[:20]:
            sys.stdout.write(f"  failure at index {index}: {reason}\n")
        return EXIT_DOMAIN
    return EXIT_OK


# Label and search of each ``oracle --which`` choice that looks for a vertex tuple.
_TUPLE_SEARCHES = {
    "clique-cut": ("clique cut", brute_force_has_clique_cut),
    "odd-cycle": ("induced directed odd cycle (>= 5)", find_induced_odd_directed_cycle_ge5),
    "nonoriented-odd-cycle": (
        "induced non-oriented odd cycle (>= 5)",
        find_induced_nonoriented_odd_cycle_ge5,
    ),
}


def cmd_oracle(args) -> int:
    d = _read_digraph(args.input)
    if args.which == "perfect":
        ok, witness = brute_force_is_perfect(d.underlying_graph(), cap=args.oracle_cap)
        if ok:
            sys.stdout.write("perfect: yes\n")
        else:
            sys.stdout.write(f"perfect: no ({witness[0]} {list(witness[1])})\n")
        return EXIT_OK
    label, search = _TUPLE_SEARCHES[args.which]
    found = search(d, cap=args.oracle_cap)
    sys.stdout.write(f"{label}: {'none' if found is None else list(found)}\n")
    return EXIT_OK


class UsageError(Exception):
    pass


def _check_generate_size(n: int, what: str) -> None:
    if n > MAX_GENERATE_VERTICES:
        raise UsageError(
            f"{what} {n} exceeds the generate limit of {MAX_GENERATE_VERTICES} vertices"
        )


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise UsageError(f"--sizes must be a comma-separated list of integers, got {text!r}") from None


def _oracle_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arclocal",
        description=(
            "Recognition and certified structural decomposition of "
            "arc-locally semicomplete digraphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=True, cap=True):  # each subcommand gets the flags it reads
        p.add_argument("input", help="edge-list file, or '-' for stdin")
        if formats:
            p.add_argument(
                "--format", choices=("text", "json", "dot"), default="text",
                help="output format (default text)",
            )
        if cap:
            p.add_argument(
                "--oracle-cap", type=_oracle_cap, default=DEFAULT_ORACLE_CAP,
                help="max vertices for subset searches (default %(default)s)",
            )

    p = sub.add_parser("classify", help="report every class flag for a digraph")
    add_common(p, cap=False)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="structural decomposition with certificate")
    add_common(p)
    p.add_argument(
        "--class", dest="cls", choices=("in", "out", "als"), default="in",
        help="which class's decomposition to apply (default in)",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("generate", help="emit a digraph in edge-list form")
    kinds = p.add_subparsers(dest="kind", required=True)  # each kind gets the flags it reads
    cycle, rand, member, index = (
        kinds.add_parser(kind) for kind in ("extended-cycle", "random", "member", "from-index")
    )
    cycle.add_argument("--sizes", help="extended-cycle part sizes, e.g. '2,1,3,2,1'")
    for k in (rand, member, index):
        k.add_argument("--n", type=int, default=None, help="vertex count")
    for k in (rand, member):
        k.add_argument("--seed", type=int, default=0)
    rand.add_argument("--p-arc", type=float, default=0.25)
    rand.add_argument("--p-digon", type=float, default=0.1)
    member.add_argument("--class", dest="cls", choices=("in", "out", "als"), default="in")
    member.add_argument("--max-tries", type=int, default=64)
    index.add_argument("--index", type=int, default=None, help="enumeration index")
    for k in (cycle, rand, member, index):
        k.add_argument("--format", choices=("text", "dot"), default="text")
        k.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "enumerate-verify",
        help="check a property over every digraph on n vertices",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--class", dest="cls", choices=("in", "out", "als"), default="in")
    p.add_argument("--property", choices=SWEEP_PROPERTIES, default="main-theorem")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_enumerate_verify)

    p = sub.add_parser("oracle", help="run a brute-force oracle on a digraph")
    add_common(p, formats=False)
    p.add_argument(
        "--which",
        choices=("perfect", "clique-cut", "odd-cycle", "nonoriented-odd-cycle"),
        default="perfect",
    )
    p.set_defaults(func=cmd_oracle)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListError, CapExceeded, UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (ClassViolation, DisconnectedError, InvariantViolation) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
