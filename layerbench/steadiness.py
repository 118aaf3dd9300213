#!/usr/bin/env python3
"""Steadiness check: runs each workload n times, interleaved, and prints
each end-to-end metric's median, quartiles and spread against its bound.

    python3 layerbench/steadiness.py [--runs 10] [--sets 1]
                                     [--workloads a,b] [--seed-base 1]

Spread is (Q3 - Q1) / median with Python's statistics.quantiles(n=4).
A metric is steady when its spread stays below a third of its bound in
BENCHMARK.json (setup_s is reported but exempt from the spread rule).
With --sets 2 the runs are repeated with fresh seeds and the second
set's median is compared with the first's against the same bound. The
share of failed operations must be identical in every run of a workload.
Bounds in BENCHMARK.json were set from this script's output.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=False, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}, no result")
    return json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return q1, q2, q3, spread


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    # results[set][workload] = list of result objects
    results = []
    seed = args.seed_base
    for _ in range(args.sets):
        current = {w: [] for w in workloads}
        for _ in range(args.runs):
            for w in workloads:
                current[w].append(run_once(w, seed, args.seconds))
                seed += 1
        results.append(current)

    steady = True
    for w in workloads:
        print(f"\n{w}")
        shares = {(r["failed"], r["attempted"]) for s in results for r in s[w]}
        share_set = {f / a for f, a in shares}
        ok_share = len(share_set) == 1 and all(r["correct"] for s in results
                                               for r in s[w])
        steady &= ok_share
        print(f"  failed share {sorted(share_set)} "
              f"{'ok' if ok_share else 'UNSTEADY or incorrect'}")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in results:
                values = [r["metrics"][name]["value"] for r in s[w]]
                q1, q2, q3, spread = summarize(values)
                medians.append(q2)
                exempt = name == "setup_s"
                ok = exempt or spread < bound / 3
                steady &= ok
                print(f"  {name:<22}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.4f}{bound:>7.3f}  "
                      f"{'ok' if ok else 'TOO WIDE'}{' (exempt)' if exempt else ''}")
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                ok = worse <= bound
                steady &= ok
                print(f"  {'':<22}second set median {medians[1]:.6g}: "
                      f"{worse:+.4f} worse {'ok' if ok else 'BEYOND BOUND'}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
