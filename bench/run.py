"""lsext benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 bench/run.py --workload enumerate|search --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N        # every workload, one table
    python3 bench/run.py --write-pins --workload all --seed N
    python3 bench/run.py --compare PARENT_CHECKOUT --workload W

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (`bench/worker.py`) that runs timed passes
over the workload's operations and then checks every answer.  Between
operations it starts set-up-only workers, for the median set-up time.  With
--trace 1 the measuring worker also runs passes with timing wrappers
installed and reports the per-layer metrics instead of the end-to-end ones.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  `failed` counts operations that raised or hit an input
error; `solved_ratio` counts every operation without a confirmed, decided
answer (budget stops, greedy misses, contradicted verdicts) against the
attempted ones.  The exit code is 1 when any answer, digest or pin is wrong.
Details go to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("enumerate", "search")
WORKER_MARGIN = 90.0  # seconds beyond 2 x --seconds for set-up samples, traced passes and checks
OUT_DIR = Path(".bench_out")
WORK_DIR = Path(".bench_work")


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("LSEXT_ENUM_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, spans: Path | None = None) -> dict:
    """Run the measuring worker to completion and return its JSON result."""
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", args.src, "--work", str(work)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True, env=worker_env(),
                          timeout=2 * args.seconds + WORKER_MARGIN)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker for {args.workload} failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT_DIR / f"spans-{tag}.json" if args.trace else None
    main = spawn(args, spans)
    setups = main["setups"]
    walls = main["walls"]
    result = {
        "correct": main["correct"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "solved": main["solved"],
        "end_to_end": {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
            "solved_ratio": {"value": main["solved"] / main["attempted"], "unit": "ratio"},
        },
        "samples": {"walls": walls, "setups": setups},
        "worker": main,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    return result


def report(args, res: dict) -> dict:
    """Print the human-readable summary of one workload; return its metrics for the JSON line."""
    w = res["worker"]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(w['walls'])}  "
          f"solved {res['solved']}/{res['attempted']}  failed {res['failed']}  correct {res['correct']}")
    unsolved = [op for op in w["ops"] if op["status"] != "solved"]
    for op in unsolved[:6]:
        print(f"  {op['status']}: {op['op']} ({op['reason']})")
    if len(unsolved) > 6:
        print(f"  ... and {len(unsolved) - 6} more not solved (see .bench_out/)")
    for problem in w["problems"]:
        print(f"  PROBLEM: {problem}")
    if args.trace:
        layer = w["layer"]
        if layer["missing"]:
            print(f"  missing wrappers (their metrics are left out): {', '.join(layer['missing'])}")
        metrics = layer["metrics"]
    else:
        metrics = res["end_to_end"]
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return metrics


def write_pins(args) -> int:
    pins_path = HERE / "pins.json"
    pins = json.loads(pins_path.read_text()) if pins_path.exists() else {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        one = argparse.Namespace(**{**vars(args), "workload": workload, "seconds": 0, "trace": 0})
        res = spawn(one)
        wrong = [op["op"] for op in res["ops"] if op["status"] == "wrong"]
        if wrong:
            print(f"not pinning {workload}: wrong answers in {wrong}", file=sys.stderr)
            return 1
        for op in res["ops"]:
            pins[op["pin_key"]] = op["digests"]
        print(f"pinned {len(res['ops'])} operations of {workload} (seed {args.seed})")
    pins_path.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", default="src", help="directory holding the lsext package (default: src)")
    p.add_argument("--write-pins", action="store_true", help="pin this seed's digests in bench/pins.json")
    p.add_argument("--compare", metavar="PARENT", default=None,
                   help="compare the parent checkout PARENT against this one, in alternating pairs")
    args = p.parse_args(argv)
    if not (Path(args.src) / "lsext" / "__init__.py").is_file():
        print(f"error: no lsext package under {args.src!r}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.compare:
        import compare

        return compare.main(args)
    if args.write_pins:
        return write_pins(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, combined = {}, {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        results[name] = run_workload(one)
        metrics = report(one, results[name])
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + k: v for k, v in metrics.items()})
    if len(names) > 1:
        print(f"{'workload':<10} {'wall_s':>10} {'setup_s':>9} {'peak_rss_mb':>12} {'solved_ratio':>13}")
        for name, res in results.items():
            e = res["end_to_end"]
            print(f"{name:<10} {e['wall_s']['value']:>9.3f}s {e['setup_s']['value']:>8.3f}s "
                  f"{e['peak_rss_mb']['value']:>10.1f}MB {e['solved_ratio']['value']:>8.3f} "
                  f"({res['solved']}/{res['attempted']})")
    with contextlib.suppress(OSError):
        WORK_DIR.rmdir()  # only when no other run is using it
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
