#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and compare them.

Usage (from the repository root):

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b]
                                    [--seconds S] [--first-seed N]

Every run uses its own seed.  For every (workload, end-to-end metric) pair
it prints each set's median and quartiles (statistics.quantiles, n=4), the
spread (interquartile distance over the median) and whether the pair agrees
within the metric's bound from BENCHMARK.json: every set's spread within
the bound (set-up time excepted), and the two sets' medians no further apart
than the bound, relative to the first.  The share of failed operations must be
identical in the two sets.  Raw results go to
<target>/perfbench/steadiness.json.  Exits 1 when any pair disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
from run import target_dir  # noqa: E402

SETS = 2


def one_run(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    results = {}  # (set, workload) -> [result]
    seed = args.first_seed
    for s in range(SETS):
        for w in workloads:
            for _ in range(args.runs):
                r = one_run(w, seed, seconds)
                seed += 1
                results.setdefault((s, w), []).append(r)
                print(f"set {s + 1} {w} seed {seed - 1}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)

    out = target_dir() / "perfbench" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({f"{s}:{w}": v for (s, w), v in results.items()}, indent=1))

    all_ok = True
    print(f"{'workload':<18} {'metric':<15} {'bound':>5}  "
          + "  ".join(f"{'set' + str(s + 1) + ' q1/med/q3':>30} {'spread':>7}" for s in range(SETS))
          + "  verdict")
    for w in workloads:
        runs = [results[(s, w)] for s in range(SETS)]
        shares = {sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs}
        correct = all(r["correct"] for rs in runs for r in rs)
        if len(shares) > 1 or not correct:
            all_ok = False
            print(f"{w}: failed shares {sorted(shares)}, all correct: {correct}  DISAGREE")
        for m in bench["end_to_end"]:
            cells, ok = [], True
            medians = []
            for rs in runs:
                q1, med, q3 = summary([r["metrics"][m["name"]]["value"] for r in rs])
                spread = (q3 - q1) / med
                medians.append(med)
                if m["name"] != "setup_s" and spread > m["bound"]:
                    ok = False
                cells.append(f"{q1:>10.4g}/{med:<9.4g}/{q3:<9.4g} {spread:>7.3f}")
            ok = ok and abs(medians[1] - medians[0]) / medians[0] <= m["bound"]
            all_ok = all_ok and ok
            print(f"{w:<18} {m['name']:<15} {m['bound']:>5}  " + "  ".join(cells)
                  + ("  agree" if ok else "  DISAGREE"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
