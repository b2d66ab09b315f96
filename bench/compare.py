"""Compare a parent checkout with this one on one workload, in alternating pairs.

    python3 bench/run.py --compare PARENT_CHECKOUT --workload W [--seed N] [--seconds S]

Both sides run with this checkout's benchmark code and the same settings;
only `--src` differs.  There are always ten pairs, the fewest a claim may
rest on.  Pair i uses seed N+i, and the side that runs first
alternates.  For each end-to-end metric the report gives each side's median
and quartiles and the number of pairs the change won (ties count for
neither), and a verdict:

* gain          - the change won at least 9/10 of the pairs and its median is
                  better by more than the parent's interquartile spread;
* unresolved    - a side's interquartile spread, relative to its median,
                  exceeds the metric's bound, and not every change run beat
                  every parent run;
* regression    - the change's median is worse by more than the bound;
* no regression - otherwise.

Every pair must also produce identical digests for every operation; the
exit code is 1 on any digest mismatch, incorrect answer or regression.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIRS = 10


def run_side(args, root: Path, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0", "--src", str(root / "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if not proc.stdout.strip():
        raise RuntimeError(f"benchmark failed on {root}:\n{proc.stderr[-4000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(Path(f".bench_out/result-{args.workload}-seed{seed}-trace0.json").read_text())
    return last, {op["op"]: op["digests"] for op in detail["worker"]["ops"]}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = -1.0 if better == "lower" else 1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    qp, qc = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if (c - p) * sign > 0)
    gain = (mc - mp) * sign
    spread = max((qp[2] - qp[0]) / abs(mp) if mp else 0.0, (qc[2] - qc[0]) / abs(mc) if mc else 0.0)
    all_better = all((c - p) * sign > 0 for p in parent for c in change)
    if wins >= 0.9 * len(parent) and gain > qp[2] - qp[0]:
        result = "gain"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif -gain > bound * abs(mp):
        result = "regression"
    else:
        result = "no regression"
    return {"parent": {"median": mp, "q1": qp[0], "q3": qp[2]}, "change": {"median": mc, "q1": qc[0], "q3": qc[2]},
            "wins": wins, "pairs": len(parent), "spread": spread, "bound": bound, "verdict": result}


def main(args) -> int:
    if args.workload == "all":
        print("error: --compare takes one workload", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent_root, change_root = Path(args.compare).resolve(), Path(".").resolve()
    samples = {"parent": {}, "change": {}}
    mismatches, incorrect = [], []
    for i in range(PAIRS):
        seed = args.seed + i
        sides = [("parent", parent_root), ("change", change_root)]
        digests = {}
        for side, root in sides if i % 2 == 0 else reversed(sides):
            last, digests[side] = run_side(args, root, seed)
            if not last["correct"]:
                incorrect.append(f"{side} seed {seed}")
            for name, m in last["metrics"].items():
                samples[side].setdefault(name, []).append(m["value"])
        for op in sorted(set(digests["parent"]) | set(digests["change"])):
            if digests["parent"].get(op) != digests["change"].get(op):
                mismatches.append(f"seed {seed} {op}")
        print(f"pair {i + 1}/{PAIRS} (seed {seed}) done", file=sys.stderr)
    table = {name: verdict(samples["parent"][name], samples["change"][name], m["better"], m["bound"])
             for name, m in metrics.items()}
    print(f"{args.workload}: {PAIRS} pairs, seeds {args.seed}..{args.seed + PAIRS - 1}")
    for name, row in table.items():
        p, c = row["parent"], row["change"]
        print(f"  {name:<13} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"wins {row['wins']}/{row['pairs']}  spread {row['spread']:.3f} (bound {row['bound']})  {row['verdict']}")
    for line in mismatches:
        print(f"  DIGEST MISMATCH: {line}")
    for line in incorrect:
        print(f"  INCORRECT: {line}")
    Path(".bench_out").mkdir(exist_ok=True)
    Path(f".bench_out/compare-{args.workload}.json").write_text(json.dumps(
        {"metrics": table, "samples": samples, "digest_mismatches": mismatches, "incorrect": incorrect}, indent=1))
    regressed = any(row["verdict"] == "regression" for row in table.values())
    return 1 if mismatches or incorrect or regressed else 0
