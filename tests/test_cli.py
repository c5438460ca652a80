"""End-to-end CLI behaviour: exit codes, formats, golden outputs."""

import io
import tracemalloc
from pathlib import Path

import pytest

from arclocal import cli
from arclocal.cli import MAX_GENERATE_VERTICES, build_parser, main
from arclocal.digraph import format_edge_list, parse_edge_list
from arclocal.generators import directed_cycle

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
SAMPLE_CYCLE = str(DATA / "sample_cycle.txt")


def write_digraph(tmp_path, d, name="input.txt"):
    path = tmp_path / name
    path.write_text(format_edge_list(d))
    return str(path)


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------


def test_classify_text(capsys, tmp_path):
    path = write_digraph(tmp_path, directed_cycle(5))
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "vertices: 5  arcs: 5" in out
    assert "arc_locally_in_semicomplete" in out
    assert "yes" in out


def test_classify_json_flags_pattern(capsys, tmp_path):
    # The forbidden orientation for the in class.
    from arclocal import Digraph

    path = write_digraph(tmp_path, Digraph(4, [(0, 1), (1, 2), (3, 2)]))
    assert main(["classify", path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"arc_locally_in_semicomplete": false' in out
    assert '"in_in"' in out
    assert '"vertices": [0, 1, 2, 3]' in out


# ----------------------------------------------------------------------
# decompose
# ----------------------------------------------------------------------


def test_decompose_text_tripartition(capsys):
    assert main(["decompose", SAMPLE_CYCLE]) == 0
    out = capsys.readouterr().out
    assert "outcome: tripartition" in out
    assert "V2 parts: [[0, 1], [2], [3, 4, 5], [6, 7], [8]]" in out


def test_decompose_json_matches_golden(capsys):
    assert main(["decompose", SAMPLE_CYCLE, "--class", "als", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "sample_cycle_als.json").read_text()
    assert main(["decompose", SAMPLE_CYCLE, "--class", "in", "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "sample_cycle_in.json").read_text()


@pytest.mark.parametrize("fmt,suffix", [("text", "txt"), ("json", "json"), ("dot", "dot")])
@pytest.mark.parametrize("cls", ["in", "out", "als"])
@pytest.mark.parametrize("stem", ["sample_cycle", "front_tripartition", "front_clique_cut"])
def test_decompose_output_matches_golden(stem, cls, fmt, suffix, capsys):
    # front_tripartition has non-empty V1 and V3; front_clique_cut decomposes
    # to a clique cut.  Both are outside the out class, so their out and als
    # goldens pin the rejection output.
    golden = (GOLDEN / f"{stem}_{cls}.{suffix}").read_text()
    rc = main(["decompose", str(DATA / f"{stem}.txt"), "--class", cls, "--format", fmt])
    assert rc == (1 if "rejected" in golden else 0)
    assert capsys.readouterr().out == golden


def test_decompose_als_verifies_before_printing(capsys, monkeypatch, tmp_path):
    from arclocal import ALSOutcome, cli

    # A directed 5-cycle falsely reported as diperfect must not be printed.
    path = write_digraph(tmp_path, directed_cycle(5))
    monkeypatch.setattr(
        cli, "classify_arc_locally_semicomplete", lambda d: ALSOutcome("diperfect")
    )
    assert main(["decompose", path, "--class", "als", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dichotomy outcome failed verification: induced directed odd cycle" in captured.err


def test_decompose_rejection_exit_code(capsys, tmp_path):
    from arclocal import Digraph

    path = write_digraph(tmp_path, Digraph(4, [(0, 1), (1, 2), (3, 2)]))
    assert main(["decompose", path]) == 1
    out = capsys.readouterr().out
    assert out == (
        "rejected: not arc-locally in-semicomplete: witness in_in 0 1 2 3\n"
    )


def test_decompose_rejection_json(capsys, tmp_path):
    from arclocal import Digraph

    path = write_digraph(tmp_path, Digraph(4, [(0, 1), (1, 2), (3, 2)]))
    assert main(["decompose", path, "--format", "json"]) == 1
    out = capsys.readouterr().out
    assert '"outcome": "rejected"' in out
    assert '"pattern": "in_in"' in out


def test_decompose_disconnected(capsys, tmp_path):
    from arclocal import Digraph

    path = write_digraph(tmp_path, Digraph(4, [(0, 1), (2, 3)]))
    assert main(["decompose", path]) == 1
    assert "rejected:" in capsys.readouterr().out


def test_decompose_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_edge_list(directed_cycle(5))))
    assert main(["decompose", "-"]) == 0
    assert "outcome: tripartition" in capsys.readouterr().out


def test_decompose_dot_groups(capsys):
    assert main(["decompose", SAMPLE_CYCLE, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph D {\n")
    assert out.endswith("}\n")
    assert '  0 [fillcolor="#8dd3c7", xlabel="V2.0"];' in out
    assert "  0 -> 2;" in out


# ----------------------------------------------------------------------
# error handling
# ----------------------------------------------------------------------


def test_parse_error_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("bogus\n")
    assert main(["classify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: line 1: expected header 'n <count>', got 'bogus'\n"


def test_oversized_header_is_usage_error(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("n 100000000000\n0 1\n")
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: vertex count 100000000000 exceeds the limit 16384\n"


def test_path_above_the_vertex_limit_is_usage_error(capsys, tmp_path):
    path = tmp_path / "path.txt"
    n = 1 << 16
    path.write_text(f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    assert main(["decompose", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1: vertex count 65536 exceeds the limit 16384\n"


def test_missing_file_is_usage_error(capsys):
    assert main(["classify", "/no/such/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_directory_paths_are_usage_errors(capsys, tmp_path):
    assert main(["decompose", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert main(["generate", "extended-cycle", "--sizes", "1,1,1", "-o", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


def test_oracle_cap_flag_is_honoured(capsys, tmp_path):
    path = write_digraph(tmp_path, directed_cycle(13))
    assert main(["oracle", path, "--which", "perfect", "--oracle-cap", "4"]) == 2
    assert "exceeds cap 4" in capsys.readouterr().err
    assert main(["oracle", path, "--which", "perfect", "--oracle-cap", "13"]) == 0


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--oracle-cap", "-5"], "must be at least 0, got -5"),
        (["--oracle-cap=-1"], "must be at least 0, got -1"),
        (["--oracle-cap", "x"], "invalid int value: 'x'"),
    ],
)
@pytest.mark.parametrize("command", ["decompose", "oracle"])
def test_oracle_cap_below_zero_is_usage_error(capsys, tmp_path, command, flag, message):
    path = write_digraph(tmp_path, parse_edge_list("n 3\n0 1\n1 2\n"))
    with pytest.raises(SystemExit) as exc:
        main([command, path, *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"error: argument --oracle-cap: {message}\n" in captured.err


def test_parser_is_reused_without_leaking_values(capsys):
    # One process, one argparse tree: a json decompose, a usage error, a
    # default-format decompose and a classify must each read only their own
    # flags, as a freshly built tree would.
    calls = [
        ["decompose", SAMPLE_CYCLE, "--format", "json"],
        ["decompose", SAMPLE_CYCLE, "--format", "xml"],
        ["decompose", SAMPLE_CYCLE],
        ["classify", SAMPLE_CYCLE],
    ]
    outputs = []
    for argv in calls:
        try:
            outputs.append((main(argv), capsys.readouterr().out))
        except SystemExit as exc:
            outputs.append((exc.code, capsys.readouterr().out))
    assert cli._parser() is cli._parser()
    for argv in (calls[0], calls[2], calls[3]):
        assert vars(cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
    fresh = build_parser().parse_args(calls[3])
    assert fresh.func(fresh) == 0
    classify_out = capsys.readouterr().out
    assert outputs == [
        (0, (GOLDEN / "sample_cycle_in.json").read_text()),
        (2, ""),
        (0, (GOLDEN / "sample_cycle_in.txt").read_text()),
        (0, classify_out),
    ]


@pytest.mark.parametrize(
    "argv", [["classify", "--oracle-cap", "13"], ["oracle", "--format", "json"]]
)
def test_subcommands_refuse_flags_they_do_not_read(capsys, tmp_path, argv):
    path = write_digraph(tmp_path, directed_cycle(5))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path, *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------


def test_generate_extended_cycle_matches_data_file(capsys):
    assert main(["generate", "extended-cycle", "--sizes", "2,1,3,2,1"]) == 0
    assert capsys.readouterr().out == Path(SAMPLE_CYCLE).read_text()


def test_generate_requires_arguments(capsys):
    assert main(["generate", "extended-cycle"]) == 2
    assert main(["generate", "random"]) == 2
    assert main(["generate", "from-index", "--n", "4"]) == 2
    assert main(["generate", "extended-cycle", "--sizes", "two,three"]) == 2


@pytest.mark.parametrize(
    "request_args",
    [
        ["member", "--n", "100000000000"],
        ["random", "--n", "100000000000"],
        ["extended-cycle", "--sizes", "100000000000,1,1,1,1"],
        ["from-index", "--n", "100000", "--index", "0"],
        ["member", "--n", str(MAX_GENERATE_VERTICES + 1)],
        ["extended-cycle", "--sizes", f"{MAX_GENERATE_VERTICES - 3},1,1,1,1"],
    ],
)
def test_generate_rejects_oversized_requests_without_allocating(request_args, capsys):
    # Warm argparse's lazy imports first, so the peak is the request's own.
    assert main(["generate", "from-index", "--n", "1", "--index", "0"]) == 0
    tracemalloc.start()
    try:
        code = main(["generate", *request_args])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "exceeds the generate limit" in capsys.readouterr().err
    assert peak < 128 * 1024


@pytest.mark.parametrize(
    "kind, foreign",
    [
        ("extended-cycle", ["--n", "5"]),
        ("random", ["--class", "out"]),
        ("member", ["--p-arc", "0.9"]),
        ("from-index", ["--seed", "1"]),
    ],
)
def test_generate_kinds_refuse_flags_they_do_not_read(capsys, kind, foreign):
    with pytest.raises(SystemExit) as exc:
        main(["generate", kind, *foreign])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(foreign)}" in captured.err


def test_generate_accepts_sizes_at_limit(capsys):
    sizes = f"{MAX_GENERATE_VERTICES - 4},1,1,1,1"
    assert main(["generate", "extended-cycle", "--sizes", sizes]) == 0
    assert capsys.readouterr().out.startswith(f"n {MAX_GENERATE_VERTICES}\n")


def test_generate_from_index_rejects_index_beyond_its_digits(capsys):
    assert main(["generate", "from-index", "--n", "1", "--index", "0"]) == 0
    tracemalloc.start()
    try:
        code = main(["generate", "from-index", "--n", "4", "--index", str(4**6)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "outside 0..4**6 - 1" in capsys.readouterr().err
    assert peak < 128 * 1024


def test_generate_from_index_rejects_negative_vertex_count(capsys):
    assert main(["generate", "from-index", "--n", "-1", "--index", "0"]) == 2
    assert capsys.readouterr().err == "error: vertex count must be non-negative, got -1\n"


def test_generate_random_is_deterministic(capsys):
    assert main(["generate", "random", "--n", "8", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["generate", "random", "--n", "8", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_generate_from_index_round_trip(capsys):
    from arclocal.generators import digraph_from_index

    assert main(["generate", "from-index", "--n", "4", "--index", "2034"]) == 0
    out = capsys.readouterr().out
    assert parse_edge_list(out) == digraph_from_index(4, 2034)


def test_generate_member_decomposes_cleanly(capsys, tmp_path):
    target = tmp_path / "member.txt"
    assert (
        main(
            [
                "generate", "member", "--n", "9", "--seed", "27",
                "--class", "in", "-o", str(target),
            ]
        )
        == 0
    )
    assert main(["decompose", str(target), "--class", "in"]) == 0
    assert "outcome:" in capsys.readouterr().out


@pytest.mark.parametrize("tries", ["0", "-1"])
def test_generate_member_rejects_non_positive_max_tries(tries, capsys):
    assert main(["generate", "member", "--n", "6", "--max-tries", tries]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_tries must be at least 1, got {tries}\n"


def test_generate_dot_output(capsys):
    assert main(["generate", "extended-cycle", "--sizes", "1,1,1", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out == 'digraph D {\n  node [style=filled, fillcolor=white];\n  0;\n  1;\n  2;\n  0 -> 1;\n  1 -> 2;\n  2 -> 0;\n}\n'


# ----------------------------------------------------------------------
# enumerate-verify
# ----------------------------------------------------------------------


def test_enumerate_verify_n3(capsys):
    assert main(["enumerate-verify", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("64 scanned, 54 members of class 'in', 0 failures")
    assert "  diperfect: 54\n" in out


def test_enumerate_verify_rejects_zero_jobs(capsys):
    assert main(["enumerate-verify", "--n", "3", "--jobs", "0"]) == 2
    assert "jobs must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cls, prop",
    [("in", "dichotomy"), ("out", "dichotomy"), ("out", "diperfect"), ("out", "lemmas")],
)
def test_enumerate_verify_rejects_properties_outside_their_class(capsys, cls, prop):
    assert main(["enumerate-verify", "--n", "5", "--class", cls, "--property", prop]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: property '{prop}' is stated for class ")


def test_enumerate_verify_refuses_large_n(capsys):
    assert main(["enumerate-verify", "--n", "6"]) == 2
    assert "exceeds cap 5" in capsys.readouterr().err


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------


def test_oracle_outputs(capsys, tmp_path):
    c5 = write_digraph(tmp_path, directed_cycle(5))
    assert main(["oracle", c5, "--which", "perfect"]) == 0
    assert capsys.readouterr().out == "perfect: no (hole [0, 1, 2, 3, 4])\n"
    assert main(["oracle", c5, "--which", "odd-cycle"]) == 0
    assert capsys.readouterr().out == "induced directed odd cycle (>= 5): [0, 1, 2, 3, 4]\n"
    assert main(["oracle", c5, "--which", "nonoriented-odd-cycle"]) == 0
    assert capsys.readouterr().out == "induced non-oriented odd cycle (>= 5): none\n"
    c4 = write_digraph(tmp_path, directed_cycle(4), "c4.txt")
    assert main(["oracle", c4, "--which", "perfect"]) == 0
    assert capsys.readouterr().out == "perfect: yes\n"
    assert main(["oracle", c4, "--which", "clique-cut"]) == 0
    assert capsys.readouterr().out == "clique cut: none\n"
    path3 = write_digraph(tmp_path, parse_edge_list("n 3\n0 1\n1 2\n"), "p3.txt")
    assert main(["oracle", path3, "--which", "clique-cut"]) == 0
    assert capsys.readouterr().out == "clique cut: [1]\n"
