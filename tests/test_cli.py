from __future__ import annotations

import tracemalloc

import pytest

from conftest import GOLAY_FILE, HAMMING_FILE, HAMMING_ROWS, extended_golay
import lsext.cli as cli_module
import lsext.pipeline as pipeline_module
from lsext.code import LinearCode
from lsext.field import gf
from lsext.cli import EXIT_CODES, main
from lsext.pipeline import StopReason, serialize_code
from lsext.solver import SolveStatus


@pytest.fixture
def hamming_file(tmp_path):
    path = tmp_path / "hamming.code"
    path.write_text(HAMMING_FILE)
    return str(path)


@pytest.fixture
def golay_file(tmp_path):
    path = tmp_path / "golay.code"
    path.write_text(GOLAY_FILE)
    return str(path)


def test_analyze_output(hamming_file, capsys):
    assert main(["analyze", hamming_file]) == 0
    out = capsys.readouterr().out
    assert "code: [7,4,3]_2" in out
    assert "weight distribution: 0:1 3:7 4:7 7:1" in out
    assert "A_d: 7" in out
    assert "min-weight representatives: 7" in out
    assert "weight gap: 1" in out


def test_analyze_gap_undefined(tmp_path, capsys):
    path = tmp_path / "rep.code"
    path.write_text("2 1 3\n1 1 1\n")
    assert main(["analyze", str(path)]) == 0
    assert "weight gap: undefined" in capsys.readouterr().out


def test_extend_writes_out_file(hamming_file, tmp_path, capsys):
    out = tmp_path / "extended.code"
    assert main(["extend", hamming_file, "--l", "1", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "extended code: [8,4,4]_2" in stdout
    assert "solutions found: 1" in stdout
    assert "search: complete" in stdout
    assert out.read_text().startswith("2 4 8\n")


def test_extend_infeasible_exit_code(hamming_file, tmp_path, capsys):
    out = tmp_path / "extended.code"
    assert main(["extend", hamming_file, "--l", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["extend", str(out), "--l", "1"]) == 1
    assert "no (l=1, s=1)-extension exists" in capsys.readouterr().out


def test_extend_rejects_s_above_gap(hamming_file, capsys):
    assert main(["extend", hamming_file, "--l", "1", "--s", "2"]) == 3
    assert "weight gap" in capsys.readouterr().err


def test_extend_strategies_agree(hamming_file, capsys):
    outputs = []
    for strategy in ("exhaustive", "bnb"):
        assert main(["extend", hamming_file, "--l", "1", "--strategy", strategy]) == 0
        lines = capsys.readouterr().out.splitlines()
        outputs.append([ln for ln in lines if ln.startswith("chosen columns")])
    assert outputs[0] == outputs[1]


def test_extend_projective(hamming_file, capsys):
    assert main(["extend", hamming_file, "--l", "1", "--projective"]) == 0
    out = capsys.readouterr().out
    assert "masked: 7" in out
    assert "extended code: [8,4,4]_2" in out


def test_puncture_exit_codes(hamming_file, tmp_path, capsys):
    ext = tmp_path / "ext.code"
    main(["extend", hamming_file, "--l", "1", "--out", str(ext)])
    capsys.readouterr()
    assert main(["puncture", str(ext), "--l", "1", "--s", "1"]) == 1
    path = tmp_path / "pad.code"
    path.write_text("2 2 4\n1 1 1 0\n0 1 0 1\n")
    assert main(["puncture", str(path), "--l", "1", "--s", "1", "--out", str(tmp_path / "p.code")]) == 0
    out = capsys.readouterr().out
    assert "punctured code: [" in out
    # Removing more than n - k = 3 of the Hamming code's columns collapses its rank.
    assert main(["puncture", hamming_file, "--l", "4", "--s", "2"]) == 3
    assert capsys.readouterr().err == "error: need 1 <= l <= n - k = 3, got l=4\n"


def test_puncture_predicts_the_distance_the_weight_gap_allows(tmp_path, capsys):
    path = tmp_path / "c723.code"
    path.write_text("3 2 7\n0 1 1 0 2 0 0\n0 2 2 2 0 2 1\n")
    assert main(["puncture", str(path), "--l", "3", "--s", "3"]) == 0
    out = capsys.readouterr().out
    assert "predicted distance: >= 1 when the second-smallest weight allows\n" in out
    assert "punctured code: [4,2,2]_3\n" in out


def test_puncture_node_limit_is_inconclusive(tmp_path, capsys):
    # The extended Golay (10, 4) puncture finds its first solution after more
    # than 15 nodes: a budget of 15 stops the search with no verdict.
    path = tmp_path / "golay24.code"
    path.write_text(serialize_code(extended_golay()))
    assert main(["puncture", str(path), "--l", "10", "--s", "4", "--node-limit", "15"]) == 2
    out = capsys.readouterr().out
    assert "solver: status: budget_exhausted  nodes: 15\n" in out
    assert "inconclusive: node budget exhausted before a solution was found" in out
    assert main(["puncture", str(path), "--l", "10", "--s", "4"]) == 0


def test_extend_node_limit_is_inconclusive(hamming_file, capsys):
    # The l = 1 search tests 15 columns; a budget of 10 ends it before the covering column 13.
    assert main(["extend", hamming_file, "--l", "1", "--node-limit", "10"]) == 2
    out = capsys.readouterr().out
    assert "status: budget_exhausted  nodes: 10  search: stopped early" in out
    assert main(["extend", hamming_file, "--l", "1", "--node-limit", "0"]) == 3
    assert "node_limit must be >= 1" in capsys.readouterr().err


def test_chain_node_limit(hamming_file, capsys):
    assert main(["chain", hamming_file]) == 0
    default = capsys.readouterr().out
    assert main(["chain", hamming_file, "--node-limit", "1000000"]) == 0
    assert capsys.readouterr().out == default
    assert main(["chain", hamming_file, "--node-limit", "10"]) == 2
    assert "stop: solver budget exhausted before finding an extension (l <= 2)" in capsys.readouterr().out


def test_chain_writes_report(golay_file, tmp_path, capsys):
    report = tmp_path / "chain.txt"
    code = main(["chain", golay_file, "--max-l", "2", "--report", str(report)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert report.read_text() == stdout
    assert "step 1: extend (l=1, s=1) on [11,6,5] -> [12,6,6]" in stdout


def test_chain_exit_when_no_step_possible(hamming_file, tmp_path, capsys):
    ext = tmp_path / "ext.code"
    main(["extend", hamming_file, "--l", "1", "--out", str(ext)])
    capsys.readouterr()
    assert main(["chain", str(ext), "--max-l", "1"]) == 1


def test_chain_target_already_met(hamming_file, capsys):
    assert main(["chain", hamming_file, "--target-d", "3"]) == 0
    assert "target distance 3 reached" in capsys.readouterr().out


def test_chain_length_budget_exits_0(hamming_file, capsys):
    # Stopping at the user's own length limit claims nothing about feasibility.
    assert main(["chain", hamming_file, "--max-total", "0"]) == 0
    out = capsys.readouterr().out
    assert "no steps applied\nstop: total added length budget 0 reached\n" in out


def test_chain_rejects_impossible_budgets(hamming_file, capsys):
    # A negative length budget or a target distance below 1 can never be a stop reason.
    assert main(["chain", hamming_file, "--max-total", "-1"]) == 3
    assert "max_total_added must be >= 0" in capsys.readouterr().err
    assert main(["chain", hamming_file, "--target-d", "-5"]) == 3
    assert "target_distance must be >= 1" in capsys.readouterr().err
    assert main(["chain", hamming_file, "--target-d", "0"]) == 3


def test_every_verdict_has_an_exit_code():
    assert set(EXIT_CODES) == set(SolveStatus) | set(StopReason)


def test_incidence_fano(capsys):
    assert main(["incidence", "--q", "2", "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "7 7"
    assert all(row.count("1") == 3 for row in lines[1:])


def test_dump_d_header(hamming_file, capsys):
    assert main(["dump-d", hamming_file]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "7 15"
    assert len(lines) == 8
    assert all(ch in "01" for ch in lines[1])


def test_dump_d_writes_one_row_at_a_time(tmp_path, capsys):
    # The extended Golay dump is 759 rows of 4,095 letters.  Written as it is
    # formatted, it costs the (759, 4095) uint8 bits and one row at a time,
    # not a mask, a letter array and the joined text as well.
    path = tmp_path / "golay24.code"
    path.write_text(serialize_code(extended_golay()))
    out = tmp_path / "d.txt"
    cli_module.build_parser()
    tracemalloc.start()
    try:
        assert main(["dump-d", str(path), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 759 * 4095
    assert main(["dump-d", str(path)]) == 0
    assert capsys.readouterr().out == out.read_text()
    lines = out.read_text().splitlines()
    assert lines[0] == "759 4095" and len(lines) == 760 and all(len(row) == 4095 for row in lines[1:])


@pytest.mark.parametrize(
    "argv, build, built",
    [
        (["extend", "--l", "1"], "apply_extension", [row + [0] for row in HAMMING_ROWS]),
        (["puncture", "--l", "1", "--s", "1"], "remove_columns", [[1, 1, 0], [0, 1, 0]]),
    ],
    ids=["extend", "puncture"],
)
def test_a_built_code_below_the_floor_exits_3(argv, build, built, tmp_path, monkeypatch, capsys):
    # The Hamming code padded with a zero column stays at d = 3 under the
    # extension floor 4; the puncture of the [4,2,2] code has floor 2.
    path = tmp_path / "in.code"
    path.write_text(HAMMING_FILE if argv[0] == "extend" else "2 2 4\n1 1 1 0\n0 1 0 1\n")
    monkeypatch.setattr(pipeline_module, build, lambda code, columns: LinearCode(gf(2), built))
    assert main([argv[0], str(path), *argv[1:]]) == 3
    floor, d = (4, 3) if argv[0] == "extend" else (2, 1)
    assert capsys.readouterr().err == f"error: step claims minimum distance >= {floor} but recomputation finds {d}\n"


def test_input_errors_exit_3(tmp_path, capsys):
    missing = str(tmp_path / "missing.code")
    assert main(["analyze", missing]) == 3
    bad = tmp_path / "bad.code"
    bad.write_text("4 2 3\n1 0 2\n0 1 4\n")
    assert main(["analyze", str(bad)]) == 3
    assert "line 3" in capsys.readouterr().err


def test_usage_error_exits_3(hamming_file):
    with pytest.raises(SystemExit) as err:
        main(["extend", hamming_file])
    assert err.value.code == 3
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 3


def test_main_builds_its_parser_once_per_process(hamming_file, monkeypatch, capsys):
    # Building the parser costs more than parsing, so calls share one; it
    # still maps a usage error after a good call to exit 3.
    built = []

    class Counted(cli_module._Parser):
        def __init__(self, *args, **kwargs):
            if kwargs.get("prog") == "lsext":  # not the subcommands' parsers
                built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli_module, "_Parser", Counted)
    cli_module.build_parser.cache_clear()
    try:
        assert main(["analyze", hamming_file]) == 0
        assert main(["extend", hamming_file, "--l", "1"]) == 0
        assert len(built) == 1
        with pytest.raises(SystemExit) as err:
            main(["extend", hamming_file])
        assert err.value.code == 3
        assert len(built) == 1
    finally:
        cli_module.build_parser.cache_clear()


def test_enum_cap_env(hamming_file, capsys, monkeypatch):
    monkeypatch.setenv("LSEXT_ENUM_CAP", "5")
    assert main(["analyze", hamming_file]) == 3
    err = capsys.readouterr().err
    assert "cap 5" in err
    assert main(["chain", hamming_file]) == 3
    assert "cap 5" in capsys.readouterr().err
    monkeypatch.setenv("LSEXT_ENUM_CAP", "1000")
    assert main(["analyze", hamming_file]) == 0
    assert main(["chain", hamming_file]) == 0


def test_incidence_cap_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("LSEXT_ENUM_CAP", "5")
    assert main(["incidence", "--q", "2", "--k", "4"]) == 3


def test_outputs_are_deterministic(golay_file, capsys):
    runs = []
    for _ in range(2):
        assert main(["extend", golay_file, "--l", "1"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


EXTENDED_HAMMING_FILE = "2 4 8\n1 0 0 0 1 1 0 1\n0 1 0 0 1 0 1 1\n0 0 1 0 0 1 1 1\n0 0 0 1 1 1 1 0\n"
C723_FILE = "3 2 7\n0 1 1 0 2 0 0\n0 2 2 2 0 2 1\n"

# Each report pinned byte for byte, with its exit code.  The first is the
# README example session.
CLI_REPORTS = {
    "extend": (
        HAMMING_FILE, ["extend", "--l", "1", "--out", "extended.code"], 0,
        "code: [7,4,3]_2\n"
        "candidates: 15  masked: 0  usable: 15\n"
        "system: l=1 s=1 rows=7\n"
        "solver: bnb  status: feasible  nodes: 15  search: complete\n"
        "solutions found: 1\n"
        "chosen columns: 13 [1110]\n"
        "slacks: min=0 max=0 zero=7/7\n"
        "extended code: [8,4,4]_2\n"
        "minimum-weight words: 14 recomputed, 7 slack-predicted -> differ\n"
        "wrote: extended.code\n",
    ),
    "extend-projective": (
        HAMMING_FILE, ["extend", "--l", "1", "--projective"], 0,
        "code: [7,4,3]_2\n"
        "candidates: 15  masked: 7  usable: 8\n"
        "system: l=1 s=1 rows=7\n"
        "solver: bnb  status: feasible  nodes: 8  search: complete\n"
        "solutions found: 1\n"
        "chosen columns: 13 [1110]\n"
        "slacks: min=0 max=0 zero=7/7\n"
        "extended code: [8,4,4]_2\n"
        "minimum-weight words: 14 recomputed, 7 slack-predicted -> differ\n",
    ),
    "extend-greedy-projective": (
        HAMMING_FILE, ["extend", "--l", "1", "--strategy", "greedy", "--projective"], 0,
        "code: [7,4,3]_2\n"
        "candidates: 15  masked: 7  usable: 8\n"
        "system: l=1 s=1 rows=7\n"
        "solver: greedy  status: feasible  nodes: 8  search: stopped early\n"
        "solutions found: 1\n"
        "chosen columns: 13 [1110]\n"
        "slacks: min=0 max=0 zero=7/7\n"
        "extended code: [8,4,4]_2\n"
        "minimum-weight words: 14 recomputed, 7 slack-predicted -> differ\n",
    ),
    "extend-infeasible": (
        EXTENDED_HAMMING_FILE, ["extend", "--l", "1"], 1,
        "code: [8,4,4]_2\n"
        "candidates: 15  masked: 0  usable: 15\n"
        "system: l=1 s=1 rows=14\n"
        "solver: bnb  status: infeasible  nodes: 15  search: complete\n"
        "solutions found: 0\n"
        "no (l=1, s=1)-extension exists\n",
    ),
    "extend-budget": (
        HAMMING_FILE, ["extend", "--l", "1", "--node-limit", "10"], 2,
        "code: [7,4,3]_2\n"
        "candidates: 15  masked: 0  usable: 15\n"
        "system: l=1 s=1 rows=7\n"
        "solver: bnb  status: budget_exhausted  nodes: 10  search: stopped early\n"
        "solutions found: 0\n"
        "inconclusive: node budget exhausted before a solution was found\n",
    ),
    "puncture": (
        C723_FILE, ["puncture", "--l", "3", "--s", "3"], 0,
        "code: [7,2,3]_3\n"
        "system: l=3 s=3 over 7 positions\n"
        "solver: status: feasible  nodes: 35\n"
        "removed columns: 0 3 5\n"
        "predicted distance: >= 1 when the second-smallest weight allows\n"
        "punctured code: [4,2,2]_3\n",
    ),
    "extend-exhaustive": (
        HAMMING_FILE, ["extend", "--l", "2", "--strategy", "exhaustive"], 0,
        "code: [7,4,3]_2\n"
        "candidates: 15  masked: 0  usable: 15\n"
        "system: l=2 s=1 rows=7\n"
        "solver: exhaustive  status: feasible  nodes: 64  search: stopped early\n"
        "solutions found: 10\n"
        "chosen columns: 0 13 [0001 1110]\n"
        "slacks: min=0 max=1 zero=4/7\n"
        "extended code: [9,4,4]_2\n"
        "minimum-weight words: 7 recomputed, 4 slack-predicted -> differ\n",
    ),
    "extend-exhaustive-infeasible": (
        EXTENDED_HAMMING_FILE, ["extend", "--l", "3", "--strategy", "exhaustive"], 1,
        "code: [8,4,4]_2\n"
        "candidates: 15  masked: 0  usable: 15\n"
        "system: l=3 s=3 rows=14\n"
        "solver: exhaustive  status: infeasible  nodes: 680  search: complete\n"
        "solutions found: 0\n"
        "no (l=3, s=3)-extension exists\n",
    ),
    "chain": (
        HAMMING_FILE, ["chain", "--max-l", "2"], 0,
        "chain report for a [7,4,3]_2 code\n"
        "step 1: extend (l=1, s=1) on [7,4,3] -> [8,4,4] columns=[13] A_d=14 nodes=15\n"
        "stop: no feasible extension with l <= 2\n"
        "final: [8,4,4]_2\n",
    ),
    "dump-d": (
        HAMMING_FILE, ["dump-d"], 0,
        "7 15\n"
        "011001100110011\n"
        "110011001100110\n"
        "000111100001111\n"
        "101101001011010\n"
        "000000011111111\n"
        "101010110101010\n"
        "011110011000011\n",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_REPORTS))
def test_cli_reports_are_pinned(name, tmp_path, monkeypatch, capsys):
    text, argv, exit_code, expected = CLI_REPORTS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.code").write_text(text)
    assert main([argv[0], "in.code", *argv[1:]]) == exit_code
    assert capsys.readouterr().out == expected


def test_memory_error_is_an_input_error(monkeypatch, capsys):
    # A request too large for memory exits 3 with one error line, not 1
    # (infeasible) with a traceback.  Nothing is allocated here.
    def too_large(field, k):
        raise MemoryError("Unable to allocate 16.0 GiB")

    monkeypatch.setattr(cli_module, "incidence_matrix", too_large)
    assert main(["incidence", "--q", "2", "--k", "17"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: Unable to allocate 16.0 GiB\n"


def test_extend_refuses_l_below_1(hamming_file, capsys):
    assert main(["extend", hamming_file, "--l", "0"]) == 3
    assert "l must be >= 1, got 0" in capsys.readouterr().err
