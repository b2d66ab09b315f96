"""Command-line interface.

Subcommands: analyze, extend, puncture, chain, incidence, dump-d.
Exit codes: 0 success/feasible, 1 infeasible, 2 inconclusive (solver budget),
3 input error, a request too large for memory included.  A chain exits 0
once it applied a step, or when it stopped at the target distance or the
total-length budget.  LSEXT_ENUM_CAP overrides the enumeration cap.

All output is deterministic: identical inputs produce byte-identical text.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .code import LinearCode
from .errors import LsextError
from .extension import coverage_matrix, format_matrix
from .field import gf
from .geometry import incidence_matrix
from .pipeline import (
    ChainPolicy,
    StopReason,
    chain_search,
    extend_once,
    parse_code,
    serialize_code,
    special_puncture,
)
from .solver import STRATEGIES, SolverConfig, SolveStatus

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3

EXIT_CODES = {
    SolveStatus.FEASIBLE: EXIT_OK,
    SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
    SolveStatus.BUDGET_EXHAUSTED: EXIT_INCONCLUSIVE,
    StopReason.TARGET_REACHED: EXIT_OK,
    StopReason.LENGTH_BUDGET: EXIT_OK,
    StopReason.SOLVER_BUDGET: EXIT_INCONCLUSIVE,
    StopReason.NO_EXTENSION: EXIT_INFEASIBLE,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors, but exit code 2 means
    'inconclusive' here, so usage errors are remapped to 3."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _load(path: str) -> LinearCode:
    return parse_code(Path(path).read_text())


def _emit(lines, out: str | None) -> None:
    """Write the lines to the --out file, or to stdout, as they come."""
    if out:
        with open(out, "w") as f:
            f.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _params(code: LinearCode) -> str:
    n, k, d = code.params()
    return f"[{n},{k},{d}]_{code.q}"


def cmd_analyze(args) -> int:
    code = _load(args.file)
    print(f"code: {_params(code)}")
    if code.is_degenerate:
        print("degenerate: yes")
    dist = code.weight_distribution()
    print("weight distribution:", " ".join(f"{w}:{dist[w]}" for w in sorted(dist)))
    print(f"A_d: {code.min_weight_count}")
    print(f"min-weight representatives: {code.num_min_weight_representatives}")
    gap = code.weight_gap_or_none()
    print(f"weight gap: {gap if gap is not None else 'undefined (single nonzero weight)'}")
    return EXIT_OK


def cmd_extend(args) -> int:
    code = _load(args.file)
    config = SolverConfig(strategy=args.strategy, max_solutions=args.max_solutions, node_limit=args.node_limit)
    rec = extend_once(code, args.l, args.s, config, projective=args.projective)
    print(f"code: {_params(code)}")
    usable = rec.candidates_total - rec.candidates_masked
    print(f"candidates: {rec.candidates_total}  masked: {rec.candidates_masked}  usable: {usable}")
    print(f"system: l={rec.l} s={rec.s} rows={rec.rows}")
    search = "complete" if rec.search.exhausted else "stopped early"
    print(f"solver: {config.strategy}  status: {rec.search.status}  nodes: {rec.search.nodes_explored}  search: {search}")
    print(f"solutions found: {len(rec.search.solutions)}")
    if rec.result is not None:
        best = rec.search.best
        cols = " ".join(str(c) for c in best.columns)
        vecs = " ".join("".join(str(int(v)) for v in vec) for vec in rec.result.matrix[:, code.n :].T)
        print(f"chosen columns: {cols} [{vecs}]")
        zero = best.slacks.count(0)
        print(f"slacks: min={best.min_slack} max={max(best.slacks)} zero={zero}/{rec.rows}")
        print(f"extended code: {_params(rec.result)}")
        # Each zero-slack row lands exactly on the new minimum weight with its
        # q-1 scalar multiples.  The prediction equals the recomputed A_d exactly
        # when every new minimum-weight word descends from an old one; the report
        # only shows both counts.
        predicted = zero * (code.q - 1)
        recomputed = rec.result.min_weight_count
        verdict = "agree" if predicted == recomputed else "differ"
        print(f"minimum-weight words: {recomputed} recomputed, {predicted} slack-predicted -> {verdict}")
    return _finish(rec, args.out, f"no (l={rec.l}, s={rec.s})-extension exists")


def cmd_puncture(args) -> int:
    code = _load(args.file)
    config = SolverConfig(node_limit=args.node_limit)
    rec = special_puncture(code, args.l, args.s, config)
    print(f"code: {_params(code)}")
    print(f"system: l={rec.l} s={rec.s} over {code.n} positions")
    print(f"solver: status: {rec.search.status}  nodes: {rec.search.nodes_explored}")
    if rec.result is not None:
        print(f"removed columns: {' '.join(str(c) for c in rec.search.best.columns)}")
        print(f"predicted distance: >= {rec.guaranteed_distance} when the second-smallest weight allows")
        print(f"punctured code: {_params(rec.result)}")
    return _finish(rec, args.out, f"no qualifying column set: some minimum-weight word has fewer "
                                  f"than s={rec.s} zeros in every candidate set")


def _finish(rec, out: str | None, missing: str) -> int:
    """The tail of extend and puncture: write the new code to `out`, or say why there is none
    (`missing` when the search proved it), and return the exit code of the step's verdict."""
    if rec.result is not None:
        if out:
            Path(out).write_text(serialize_code(rec.result))
            print(f"wrote: {out}")
    elif rec.search.status is SolveStatus.BUDGET_EXHAUSTED:
        print("inconclusive: node budget exhausted before a solution was found")
    else:
        print(missing)
    return EXIT_CODES[rec.search.status]


def cmd_chain(args) -> int:
    code = _load(args.file)
    policy = ChainPolicy(
        max_l=args.max_l,
        max_total_added=args.max_total,
        target_distance=args.target_d,
        projective=args.projective,
        solver=SolverConfig(node_limit=args.node_limit),
    )
    report = chain_search(code, policy)
    text = report.to_text()
    sys.stdout.write(text)
    if args.report:
        Path(args.report).write_text(text)
    return EXIT_OK if report.steps else EXIT_CODES[report.stopping_reason]


def cmd_incidence(args) -> int:
    _emit(format_matrix(incidence_matrix(gf(args.q), args.k)), args.out)
    return EXIT_OK


def cmd_dump_d(args) -> int:
    code = _load(args.file)
    _emit(format_matrix(coverage_matrix(code).bits), args.out)
    return EXIT_OK


def _add_node_limit(p: argparse.ArgumentParser) -> None:
    default = SolverConfig.node_limit
    help_text = f"solver node budget per search; running out is inconclusive (default: {default})"
    p.add_argument("--node-limit", type=int, default=default, dest="node_limit", help=help_text)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `lsext` parser, built once per process: building it costs more than a parse."""
    parser = _Parser(prog="lsext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print parameters, weight distribution and gap")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("extend", help="search for distance-raising columns and append them")
    p.add_argument("file")
    p.add_argument("--l", type=int, required=True, help="number of columns to append")
    p.add_argument("--s", type=int, default=None, help="required nonzero letters per minimum-weight word (default: min(weight gap, l))")
    p.add_argument("--projective", action="store_true", help="exclude columns already among the code's points")
    p.add_argument("--strategy", choices=list(STRATEGIES), default="bnb")
    p.add_argument("--max-solutions", type=int, default=10)
    _add_node_limit(p)
    p.add_argument("--out", default=None, help="write the extended code to this file")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("puncture", help="remove columns where minimum-weight words are zero")
    p.add_argument("file")
    p.add_argument("--l", type=int, required=True, help="number of columns to remove")
    p.add_argument("--s", type=int, required=True, help="required zeros per minimum-weight word")
    _add_node_limit(p)
    p.add_argument("--out", default=None, help="write the punctured code to this file")
    p.set_defaults(func=cmd_puncture)

    p = sub.add_parser("chain", help="repeat extensions to climb the minimum distance")
    p.add_argument("file")
    p.add_argument("--max-l", type=int, default=2, dest="max_l")
    p.add_argument("--max-total", type=int, default=None, dest="max_total", help="cap on total appended columns")
    p.add_argument("--target-d", type=int, default=None, dest="target_d")
    p.add_argument("--projective", action="store_true")
    _add_node_limit(p)
    p.add_argument("--report", default=None, help="also write the report to this file")
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("incidence", help="dump the point-hyperplane incidence matrix")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_incidence)

    p = sub.add_parser("dump-d", help="dump the coverage matrix (header 't h', 0/1 rows)")
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dump_d)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LsextError, ValueError, OSError, ZeroDivisionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
