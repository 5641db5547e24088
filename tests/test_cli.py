"""End-to-end command line behavior: output format, exit codes, bench, gen."""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import tracemalloc

import pytest

from seqmine.cli import main
from seqmine.generate import generate_dataset, measured_sparsity

from conftest import SDB1_TEXT

MINE_THETA2_OUTPUT = """\
A B C #SUP: 2
A B #SUP: 3
A C #SUP: 2
A #SUP: 3
B B C #SUP: 2
B B #SUP: 2
B C #SUP: 3
B #SUP: 4
C #SUP: 3
"""


@pytest.fixture
def data(tmp_path):
    path = tmp_path / "sdb.txt"
    path.write_text(SDB1_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- mine


def test_mine_streams_patterns_in_search_order(capsys, data):
    code, out, err = run(capsys, "mine", data, "--minsup", "2")
    assert code == 0
    assert out == MINE_THETA2_OUTPUT
    assert err == ""


@pytest.mark.parametrize("variant", ["baseline", "ppic", "ppdc", "ppmixed"])
def test_mine_output_is_identical_across_propagators(capsys, data, variant):
    code, out, _ = run(capsys, "mine", data, "--minsup", "2", "--propagator", variant)
    assert code == 0
    assert out == MINE_THETA2_OUTPUT


def test_fractional_minsup_matches_absolute(capsys, data):
    # 4 input sequences: ceil(0.5 * 4) = 2
    code, out, _ = run(capsys, "mine", data, "--minsup", "0.5")
    assert code == 0
    assert out == MINE_THETA2_OUTPUT


def test_mine_stats_block(capsys, data):
    code, out, _ = run(capsys, "mine", data, "--minsup", "2", "--stats")
    assert code == 0
    lines = out.splitlines()
    patterns = [l for l in lines if not l.startswith("#")]
    stats = dict(
        l[2:].split("=", 1) for l in lines if l.startswith("# ") and "=" in l
    )
    assert len(patterns) == 9
    assert stats["solution_count"] == "9"
    assert int(stats["failures"]) + 9 <= int(stats["search_nodes"])
    # the default bitmap strategy scans no positions or entries
    assert stats["positions_visited"] == "0"
    assert stats["entries_examined"] == "0"
    assert int(stats["supports_counted"]) > 0
    assert float(stats["wall_time_ms"]) >= 0.0
    assert stats["peak_projection_depth"] == "3"
    code, out, _ = run(
        capsys, "mine", data, "--minsup", "2", "--stats", "--propagator", "baseline"
    )
    assert code == 0
    stats = dict(l[2:].split("=", 1) for l in out.splitlines() if l.startswith("# "))
    assert int(stats["positions_visited"]) > 0
    assert int(stats["entries_examined"]) > 0
    assert int(stats["supports_counted"]) > 0


def test_mine_writes_output_file(capsys, data, tmp_path):
    target = tmp_path / "out.txt"
    code, out, _ = run(capsys, "mine", data, "--minsup", "2", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == MINE_THETA2_OUTPUT


def test_mine_spmf_input(capsys, tmp_path):
    path = tmp_path / "sdb.spmf"
    path.write_text(
        "1 -1 2 -1 3 -1 2 -1 3 -1 -2\n"
        "2 -1 1 -1 2 -1 3 -1 -2\n"
        "1 -1 2 -1 -2\n"
        "2 -1 3 -1 4 -1 -2\n"
    )
    code, out, _ = run(
        capsys, "mine", str(path), "--format", "spmf", "--minsup", "2"
    )
    assert code == 0
    # same database as the plain fixture, tokens spelled as integers
    expected = (
        MINE_THETA2_OUTPUT.replace("A", "1")
        .replace("B", "2")
        .replace("C", "3")
    )
    assert out == expected


def test_mine_no_frequent_symbol_is_success_with_empty_output(capsys, data):
    code, out, _ = run(capsys, "mine", data, "--minsup", "5", "--stats")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("# ") for l in lines)
    assert "# solution_count=0" in lines


def test_mine_constraint_flags(capsys, data):
    code, out, _ = run(capsys, "mine", data, "--minsup", "2", "--contains", "B:2")
    assert code == 0
    assert out == "B B C #SUP: 2\nB B #SUP: 2\n"

    code, out, _ = run(capsys, "mine", data, "--minsup", "2", "--excludes", "A")
    assert code == 0
    assert out == "B B C #SUP: 2\nB B #SUP: 2\nB C #SUP: 3\nB #SUP: 4\nC #SUP: 3\n"

    code, out, _ = run(
        capsys, "mine", data, "--minsup", "2", "--min-size", "2", "--max-size", "2"
    )
    assert code == 0
    assert out == "A B #SUP: 3\nA C #SUP: 2\nB B #SUP: 2\nB C #SUP: 3\n"

    code, out, _ = run(capsys, "mine", data, "--minsup", "1", "--regex", "B C")
    assert code == 0
    assert out == "B C #SUP: 3\n"


def test_mine_unknown_contains_token_yields_nothing(capsys, data):
    code, out, _ = run(capsys, "mine", data, "--minsup", "2", "--contains", "zebra")
    assert code == 0
    assert out == ""


def test_mine_unknown_excludes_token_is_ignored(capsys, data):
    code, out, _ = run(capsys, "mine", data, "--minsup", "2", "--excludes", "zebra")
    assert code == 0
    assert out == MINE_THETA2_OUTPUT


def test_mine_min_size_beyond_longest_sequence_yields_nothing(capsys, data):
    code, out, _ = run(capsys, "mine", data, "--minsup", "2", "--min-size", "9")
    assert code == 0
    assert out == ""


def test_mine_timeout_zero_aborts(capsys, data):
    code, out, _ = run(capsys, "mine", data, "--minsup", "1", "--timeout", "0")
    assert code == 4
    assert out.splitlines()[-1] == "# TIMEOUT"
    assert "#SUP:" not in out


# ----------------------------------------------------------------- exit codes


def test_missing_file_is_a_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "mine", str(tmp_path / "nope.txt"), "--minsup", "1")
    assert code == 3
    assert "seqmine:" in err


def test_malformed_spmf_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "bad.spmf"
    path.write_text("1 2 -1 -2\n")
    code, _, err = run(
        capsys, "mine", str(path), "--format", "spmf", "--minsup", "1"
    )
    assert code == 3
    assert "line 1" in err


def test_invalid_utf8_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"A B\n\xff\xfe C\n")
    code, _, err = run(capsys, "mine", str(path), "--minsup", "1")
    assert code == 3
    assert "seqmine: cannot read" in err
    assert "Traceback" not in err


def test_empty_file_is_a_data_error(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("\n\n")
    code, _, err = run(capsys, "mine", str(path), "--minsup", "1")
    assert code == 3


def output_argv(command, data, output):
    """Arguments that make `command` write to `output`."""
    if command == "gen":
        return ["gen", output, "--sequences", "3", "--alphabet", "8", "--mean-length", "5"]
    return [command, data, "--minsup", "2", "--output", output]


@pytest.mark.parametrize("command", ["mine", "bench", "oracle", "gen"])
def test_output_in_a_missing_directory_is_an_output_error(
    capsys, data, tmp_path, command
):
    missing = str(tmp_path / "missing" / "out.txt")
    code, _, err = run(capsys, *output_argv(command, data, missing))
    assert code == 3
    assert err.startswith(f"seqmine: cannot write {missing}: ")
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_to_a_full_device_is_an_output_error(capsys, data):
    code, _, err = run(capsys, "mine", data, "--minsup", "2", "--output", "/dev/full")
    assert code == 3
    assert err.startswith("seqmine: cannot write /dev/full: ")
    assert "Traceback" not in err


class ClosedStream(io.StringIO):
    """A standard output with no descriptor whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_without_a_descriptor_is_an_output_error(
    capsys, data, monkeypatch
):
    monkeypatch.setattr(sys, "stdout", ClosedStream())
    code = main(["mine", data, "--minsup", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "seqmine: cannot write standard output: Broken pipe\n"


@pytest.mark.parametrize("bad", ["0", "-2", "abc", "1.5", "0.0"])
def test_bad_minsup_is_a_usage_error(capsys, data, bad):
    code, _, err = run(capsys, "mine", data, "--minsup", bad)
    assert code == 2


@pytest.mark.parametrize("bad", ["-1", "nan"])
def test_bad_timeout_is_a_usage_error(capsys, data, bad):
    code, out, err = run(capsys, "mine", data, "--minsup", "1", "--timeout", bad)
    assert code == 2
    assert "--timeout" in err
    assert out == ""


def test_min_size_above_max_size_is_a_usage_error(capsys, data):
    code, _, _ = run(
        capsys, "mine", data, "--minsup", "1", "--min-size", "3", "--max-size", "2"
    )
    assert code == 2


def test_bad_regex_is_a_usage_error(capsys, data):
    code, _, err = run(capsys, "mine", data, "--minsup", "1", "--regex", "A (")
    assert code == 2
    assert "--regex" in err
    code, _, _ = run(capsys, "mine", data, "--minsup", "1", "--regex", "Z")
    assert code == 2


def test_regex_may_name_a_token_below_the_threshold(capsys, data):
    # D occurs once: it is known, but no frequent pattern contains it
    code, out, err = run(capsys, "mine", data, "--minsup", "2", "--regex", "A (B|D)")
    assert code == 0
    assert out == "A B #SUP: 3\n"
    assert err == ""


@pytest.fixture
def ab_data(tmp_path):
    path = tmp_path / "ab.txt"
    path.write_text("A B\nA B\n")
    return str(path)


def test_long_regexes_mine_without_recursion(capsys, ab_data):
    many = "A" * 1200
    code, out, err = run(capsys, "mine", ab_data, "--minsup", "1", "--regex", many)
    assert (code, out, err) == (0, "", "")
    stars = "A" + "*" * 5000
    code, out, err = run(capsys, "mine", ab_data, "--minsup", "1", "--regex", stars)
    assert (code, out, err) == (0, "A #SUP: 2\n", "")
    assert run(capsys, "mine", ab_data, "--minsup", "1", "--regex", "A*")[1] == out


def test_regex_nested_too_deep_is_a_usage_error(capsys, ab_data):
    expr = "(" * 400 + "A" + ")" * 400
    code, out, err = run(capsys, "mine", ab_data, "--minsup", "1", "--regex", expr)
    assert (code, out) == (2, "")
    assert "bad --regex" in err


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_unknown_propagator_is_a_usage_error(capsys, data):
    code, _, _ = run(
        capsys, "mine", data, "--minsup", "1", "--propagator", "magic"
    )
    assert code == 2


# ---------------------------------------------------------------------- bench


def test_bench_csv_shape(capsys, data):
    code, out, err = run(
        capsys, "bench", data, "--minsup", "2", "--minsup", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "propagator,minsup,wall_time_ms,search_nodes,"
        "positions_visited,solution_count"
    )
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 8  # two thresholds x four propagators
    assert {r[0] for r in rows} == {"baseline", "ppic", "ppdc", "ppmixed"}
    theta2 = [r for r in rows if r[1] == "2"]
    assert {r[5] for r in theta2} == {"9"}
    for row in rows:
        assert float(row[2]) >= 0.0
        assert int(row[3]) >= 0


def test_bench_propagator_subset_and_fractional_minsup(capsys, data):
    code, out, _ = run(
        capsys,
        "bench",
        data,
        "--minsup",
        "0.5",
        "--propagators",
        "ppic,baseline",
    )
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["ppic", "baseline"]
    assert {r[1] for r in rows} == {"2"}


def test_bench_unknown_propagator_is_a_usage_error(capsys, data):
    code, _, _ = run(capsys, "bench", data, "--minsup", "1", "--propagators", "zzz")
    assert code == 2


# ------------------------------------------------------------------------ gen


def test_gen_is_deterministic_and_loadable(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            "gen",
            str(path),
            "--sequences",
            "30",
            "--alphabet",
            "10",
            "--mean-length",
            "8",
            "--seed",
            "7",
        )
        assert code == 0
    assert a.read_text() == b.read_text()
    lines = a.read_text().splitlines()
    assert len(lines) == 30
    assert all(line.split() for line in lines)


def test_gen_respects_sparsity_target(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, _, _ = run(
        capsys,
        "gen",
        str(path),
        "--sequences",
        "200",
        "--alphabet",
        "26",
        "--mean-length",
        "50",
        "--sparsity",
        "2.8",
        "--seed",
        "3",
    )
    assert code == 0
    dataset = [line.split() for line in path.read_text().splitlines()]
    got = measured_sparsity(dataset)
    assert abs(got - 2.8) / 2.8 < 0.1


# sha256 of the output, recorded before the generator stopped naming every
# symbol of the alphabet: letters up to 26 symbols, s1, s2, ... beyond
GEN_DIGESTS = [
    (
        "--sequences 30 --alphabet 10 --mean-length 8 --seed 7",
        "812b18d3302eed791b5ce11a75e99f7b5251ba61212adecc727ec89ad38b071b",
    ),
    (
        "--sequences 40 --alphabet 500 --mean-length 12 --sparsity 1.5 --seed 11",
        "bf3151dffb21fa13f57d68398ca2570caba706a7d4953a34a8859654e8534458",
    ),
]


@pytest.mark.parametrize("args, digest", GEN_DIGESTS, ids=["letters", "numbered"])
def test_gen_output_is_pinned(capsys, args, digest):
    code, out, _ = run(capsys, "gen", *args.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gen_names_only_the_drawn_symbols():
    # a one-sequence dataset over a million symbols names two of them
    tracemalloc.start()
    try:
        dataset = generate_dataset(1, 10**6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dataset == [["s794773", "s933489"]]
    assert peak < 5 * 2**20, peak / 2**20


def test_gen_defaults_to_stdout(capsys):
    code, out, _ = run(
        capsys, "gen", "--sequences", "3", "--alphabet", "8", "--mean-length", "5"
    )
    assert code == 0
    assert len(out.splitlines()) == 3


def test_gen_infeasible_parameters_are_usage_errors(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "gen",
        str(tmp_path / "x.txt"),
        "--sequences",
        "5",
        "--alphabet",
        "3",
        "--mean-length",
        "30",
    )
    assert code == 2
    assert "alphabet" in err


# --------------------------------------------------------------------- oracle


def test_oracle_subcommand_agrees_with_mine(capsys, data):
    code, mine_out, _ = run(capsys, "mine", data, "--minsup", "2")
    assert code == 0
    code, oracle_out, _ = run(capsys, "oracle", data, "--minsup", "2")
    assert code == 0
    assert sorted(mine_out.splitlines()) == sorted(oracle_out.splitlines())


# ----------------------------------------------------------------- subprocess


def test_module_invocation_matches_in_process_output(data):
    proc = subprocess.run(
        [sys.executable, "-m", "seqmine.cli", "mine", data, "--minsup", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == MINE_THETA2_OUTPUT


def test_mine_deep_pattern_exits_zero(tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text(("A " * 1500 + "\n") * 2)
    proc = subprocess.run(
        [sys.executable, "-m", "seqmine.cli", "mine", str(path), "--minsup", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 1500


def test_closed_pipe_is_an_output_error(tmp_path):
    # one sequence of 150 distinct tokens: its 11 325 patterns of length 1-2
    # outgrow the pipe buffer long before the search ends
    path = tmp_path / "wide.txt"
    path.write_text(" ".join(f"t{i}" for i in range(150)) + "\n")
    argv = ["mine", str(path), "--minsup", "1", "--max-size", "2"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "seqmine.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline().endswith("#SUP: 1\n")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert err.startswith("seqmine: cannot write standard output: ")
    assert err.count("\n") == 1 and "Traceback" not in err
