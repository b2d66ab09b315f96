"""Acceptance suite: one criterion per test, one PASS line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Solutions and extensions produced while the suite runs are accumulated so the
slack-identity and round-trip criteria really cover everything found.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import GOLAY_FILE, HAMMING_FILE, random_codes, repetition
from lsext.cli import main
from lsext.code import LinearCode, weight
from lsext.extension import (
    apply_extension,
    cover_system,
    coverage_matrix,
    is_good_extension,
    solutions_for,
)
from lsext.field import canonical_count, canonical_representatives, gf, representatives_at
from lsext.geometry import incidence_matrix, geometric_extension_criterion
from lsext.pipeline import ChainPolicy, chain_search, extend_once, remove_columns
from lsext.solver import SolverConfig, SolveStatus, solve_branch_and_bound, solve_exhaustive
from oracles import oracle_weight_distribution

# (code, l, s, solution, extended_code) tuples accumulated across criteria so
# the slack-identity and round-trip checks cover every solution found here.
FOUND: list[tuple] = []


def _record(code, l, s, solution, extended):
    FOUND.append((code, l, s, solution, extended))


def _pass(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    hamming = root / "hamming.code"
    hamming.write_text(HAMMING_FILE)
    golay = root / "golay.code"
    golay.write_text(GOLAY_FILE)
    return {"hamming": str(hamming), "golay": str(golay), "root": root}


def test_criterion_1_parity_bit_reproduction(files, capsys):
    """Hamming [7,4,3]: exactly one feasible column among 15; [8,4,4], A_4=14."""
    start = time.perf_counter()
    exit_code = main(["extend", files["hamming"], "--l", "1"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "candidates: 15" in out
    assert "solutions found: 1" in out
    assert "search: complete" in out
    assert "extended code: [8,4,4]_2" in out
    assert "minimum-weight words: 14 recomputed" in out
    assert elapsed < 1.0, f"took {elapsed:.3f}s"

    hamming = LinearCode(gf(2), np.array([r.split() for r in HAMMING_FILE.splitlines()[1:]], dtype=int))
    cov = coverage_matrix(hamming)
    outcome = solve_exhaustive(cover_system(cov, 1, 1), SolverConfig(strategy="exhaustive", max_solutions=20))
    assert outcome.exhausted and len(outcome.solutions) == 1
    extended = apply_extension(hamming, outcome.solutions[0].columns)
    assert extended.params() == (8, 4, 4) and extended.min_weight_count == 14
    _record(hamming, 1, 1, outcome.solutions[0], extended)
    _pass(1, f"unique parity column among 15 -> [8,4,4]_2 with A_4=14 in {elapsed:.3f}s")


def test_criterion_2_ternary_golay_extension(files, capsys):
    """Golay [11,6,5]: A_5=132 found; extend over 364 candidates to [12,6,6]."""
    golay = LinearCode(gf(3), np.array([r.split() for r in GOLAY_FILE.splitlines()[1:]], dtype=int))
    dist = golay.weight_distribution()
    assert dist[5] == 132
    assert dist == oracle_weight_distribution(golay.field, golay.matrix)

    start = time.perf_counter()
    exit_code = main(["extend", files["golay"], "--l", "1"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert exit_code == 0
    assert "candidates: 364" in out
    assert "extended code: [12,6,6]_3" in out
    assert elapsed < 1.0, f"took {elapsed:.3f}s"

    rec = extend_once(golay, 1)
    assert rec.result.params() == (12, 6, 6)
    cov = coverage_matrix(golay)
    _record(golay, 1, 1, solutions_for(cover_system(cov, 1, 1), [rec.search.best.columns])[0], rec.result)
    _pass(2, f"[11,6,5]_3 with A_5=132 -> verified [12,6,6]_3 over h=364 in {elapsed:.3f}s")


STEP_LINE = re.compile(
    r"^step \d+: extend \(l=(\d+), s=(\d+)\) on \[\d+,\d+,\d+\] -> \[\d+,\d+,\d+\] "
    r"columns=\[[0-9,]*\] A_d=\d+ nodes=\d+$"
)


def test_criterion_3_chain_structure_and_candidate_count():
    """Chain reports carry (l,s)-tagged, re-verified steps; h(3,8) = 3280."""
    hamming = LinearCode(gf(2), np.array([r.split() for r in HAMMING_FILE.splitlines()[1:]], dtype=int))
    golay = LinearCode(gf(3), np.array([r.split() for r in GOLAY_FILE.splitlines()[1:]], dtype=int))
    for code in (hamming, golay):
        report = chain_search(code, ChainPolicy(max_l=2))
        assert len(report.steps) >= 1
        previous = report.start
        for step in report.steps:
            assert step.operation == "extend"
            assert step.l >= 1 and step.s >= 1
            assert step.params_before == previous.params()
            n0, _, d0 = step.params_before
            n1, _, d1 = step.result.params()
            assert n1 == n0 + step.l and d1 >= d0 + step.s
            previous = step.result
        assert report.final is previous
        text = report.to_text()
        step_lines = [ln for ln in text.splitlines() if ln.startswith("step ")]
        assert len(step_lines) == len(report.steps)
        assert all(STEP_LINE.match(ln) for ln in step_lines)
    # The report format expresses the alternating (2,1)/(1,1) pattern: the
    # rendered step line is parameterized over (l, s), nothing else changes.
    assert STEP_LINE.match(
        "step 1: extend (l=2, s=1) on [80,8,48] -> [82,8,49] columns=[1,2] A_d=10 nodes=5"
    )
    assert canonical_count(3, 8) == 3280
    assert len(canonical_representatives(gf(3), 8)) == 3280
    _pass(3, "chain reports are (l,s)-structured and re-verified; h(q=3,k=8) = 3280")


def test_criterion_4_solver_oracle_equivalence():
    """>= 200 random codes x all (l,s) with l<=2, s<=2: bnb == exhaustive."""
    start = time.perf_counter()
    codes = random_codes(200, seed=424242, qs=(2, 3), max_k=4, max_n=10)
    assert len(codes) == 200
    instances = 0
    for code in codes:
        cov = coverage_matrix(code)
        for l in (1, 2):
            for s in (1, 2):
                system = cover_system(cov, l, s)
                cfg = SolverConfig(strategy="exhaustive", max_solutions=4, node_limit=1_000_000)
                a = solve_exhaustive(system, cfg)
                b = solve_branch_and_bound(system, cfg)
                assert a.status == b.status, (code.params(), l, s)
                if a.solutions or b.solutions:
                    assert a.solutions[0] == b.solutions[0], (code.params(), l, s)
                instances += 1
                if a.status is SolveStatus.FEASIBLE:
                    sol = a.solutions[0]
                    extended = apply_extension(code, sol.columns)
                    _record(code, l, s, sol, extended)
    elapsed = time.perf_counter() - start
    assert instances == 800
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass(4, f"bnb == exhaustive on {instances} instances from 200 codes in {elapsed:.1f}s")


def test_criterion_5_slack_identity():
    """Every solution found so far: new weight of rep i is exactly d+s+y_i."""
    assert FOUND, "earlier criteria must have produced solutions"
    checked = 0
    for code, l, s, solution, extended in FOUND:
        reps = code.min_weight_representatives()
        for rep, y in zip(reps, solution.slacks):
            assert weight(extended.encode(rep)) == code.d + s + y
            checked += 1
    _pass(5, f"slack identity exact on {checked} rows across {len(FOUND)} solutions")


def test_criterion_6_geometry_cross_check():
    """Coverage matrix == incidence complement; geometric criterion == row coverage; row sums."""
    hamming = LinearCode(gf(2), np.array([r.split() for r in HAMMING_FILE.splitlines()[1:]], dtype=int))
    golay = LinearCode(gf(3), np.array([r.split() for r in GOLAY_FILE.splitlines()[1:]], dtype=int))
    codes = [hamming, golay, repetition(2, 4), repetition(3, 3)]
    codes += [c for c in random_codes(20, seed=99, qs=(2, 3), max_k=4, max_n=9) if not c.is_degenerate]
    codes = [c for c in codes if c.q**c.k <= 10_000]
    sampled = 0
    for code in codes:
        inc = incidence_matrix(code.field, code.k)
        expected = canonical_count(code.q, code.k - 1) if code.k > 1 else 0
        assert (inc.sum(axis=1) == expected).all()
        cov = coverage_matrix(code)
        index = {tuple(map(int, p)): i for i, p in enumerate(canonical_representatives(code.field, code.k))}
        for row_i, rep in enumerate(cov.representatives):
            assert np.array_equal(cov.bits[row_i], 1 - inc[index[tuple(map(int, rep))]])
        system = cover_system(cov, 1, 1)
        for j in range(cov.h):
            assert geometric_extension_criterion(code, representatives_at(code.field, code.k, [j])) == is_good_extension(system, [j])
            sampled += 1
    fano = incidence_matrix(gf(2), 3)
    assert fano.shape == (7, 7) and (fano.sum(axis=1) == 3).all()
    _pass(6, f"geometry agrees with coverage on {len(codes)} codes, {sampled} column choices")


def test_criterion_7_round_trip():
    """Puncturing the appended columns restores (n,k,d) and the distribution."""
    assert FOUND
    for code, l, s, solution, extended in FOUND:
        back = remove_columns(extended, range(code.n, extended.n))
        assert back.params() == code.params()
        assert back.weight_distribution() == code.weight_distribution()
        assert np.array_equal(back.matrix, code.matrix)
    _pass(7, f"extend/puncture round trip exact on {len(FOUND)} extensions")


def test_criterion_8_weight_distribution_oracle():
    """Canonical-representative counts == full q^k enumeration, exactly."""
    hamming = LinearCode(gf(2), np.array([r.split() for r in HAMMING_FILE.splitlines()[1:]], dtype=int))
    golay = LinearCode(gf(3), np.array([r.split() for r in GOLAY_FILE.splitlines()[1:]], dtype=int))
    codes = [hamming, golay, repetition(2, 3), repetition(3, 4), repetition(5, 2)]
    codes += random_codes(25, seed=7777, qs=(2, 3), max_k=4, max_n=10)
    codes.append(extend_once(golay, 1).result)
    for code in codes:
        assert code.q**code.k <= 100_000
        assert code.weight_distribution() == oracle_weight_distribution(code.field, code.matrix)
    _pass(8, f"weight distributions match full enumeration on {len(codes)} codes")


def _run_cli_session(workdir: Path) -> list[tuple]:
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("LSEXT_ENUM_CAP", None)
    hamming = workdir / "hamming.code"
    hamming.write_text(HAMMING_FILE)
    golay = workdir / "golay.code"
    golay.write_text(GOLAY_FILE)
    pad = workdir / "pad.code"
    pad.write_text("2 2 4\n1 1 1 0\n0 1 0 1\n")
    commands = [
        ["analyze", str(hamming)],
        ["analyze", str(golay)],
        ["extend", str(hamming), "--l", "1", "--out", str(workdir / "ham_ext.code")],
        ["extend", str(golay), "--l", "1", "--strategy", "exhaustive", "--out", str(workdir / "gol_ext.code")],
        ["extend", str(hamming), "--l", "1", "--projective"],
        ["chain", str(golay), "--max-l", "2", "--report", str(workdir / "chain.txt")],
        ["puncture", str(pad), "--l", "1", "--s", "1", "--out", str(workdir / "pad_p.code")],
        ["dump-d", str(hamming), "--out", str(workdir / "d.txt")],
        ["incidence", "--q", "2", "--k", "3", "--out", str(workdir / "inc.txt")],
    ]
    results = []
    for cmd in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "lsext", *cmd], capture_output=True, env=env, cwd=workdir
        )
        results.append((cmd[0], proc.returncode, proc.stdout, proc.stderr))
    for name in ["ham_ext.code", "gol_ext.code", "chain.txt", "pad_p.code", "d.txt", "inc.txt"]:
        results.append((name, (workdir / name).read_bytes()))
    return results


def test_criterion_9_determinism(tmp_path):
    """Two full CLI runs produce byte-identical stdout, stderr and files."""
    first = _run_cli_session(tmp_path / "run1")
    second = _run_cli_session(tmp_path / "run2")
    normalize = lambda results, root: [
        tuple(x.replace(str(root).encode(), b"ROOT") if isinstance(x, bytes) else x for x in item)
        for item in results
    ]
    assert normalize(first, tmp_path / "run1") == normalize(second, tmp_path / "run2")
    _pass(9, f"two CLI sessions byte-identical across {len(first)} artifacts")
