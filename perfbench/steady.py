#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same build, interleaved run by run.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]

Set A uses seeds 1..N and set B seeds N+1..2N; the order of the two sets
alternates from run to run. For every (workload, end-to-end metric) it
prints each set's median, quartiles and spread (the distance between the
quartiles as a share of the median) against the metric's bound from
BENCHMARK.json, the worsening of B's median against A's, and the host
calibration time (`host.calib_ms`) of each set next to them. It also prints the
spread of both sets pooled. It exits 1 if any spread other than
`setup_s` exceeds its bound, if B's median is
worse than A's by more than the bound, or if the failed shares differ.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    calib = next(float(l.split()[2]) for l in lines if l.startswith("calib host.calib_ms"))
    return result, calib


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    sets = {"A": {}, "B": {}}
    for i in range(args.runs):
        order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
        for name in order:
            seed = i + 1 if name == "A" else args.runs + i + 1
            for w in workloads:
                result, calib = run_once(bench["command"], w, seed, args.seconds)
                sets[name].setdefault(w, []).append((result, calib))
                vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                print(f"run {i} set {name} {w} seed {seed}: {vals} calib={calib:.3f}", flush=True)

    bad = False
    for w in workloads:
        print(f"\n== {w}")
        for s in ("A", "B"):
            runs = sets[s][w]
            cal = [c for _, c in runs]
            share = sum(r["failed"] for r, _ in runs) / sum(r["attempted"] for r, _ in runs)
            print(f"set {s}: host.calib_ms median {statistics.median(cal):.3f} "
                  f"(q1 {statistics.quantiles(cal, n=4)[0]:.3f}, q3 {statistics.quantiles(cal, n=4)[2]:.3f}), "
                  f"failed share {share:.6f}")
        shares = [[(r["failed"], r["attempted"]) for r, _ in sets[s][w]] for s in ("A", "B")]
        fa = sum(f for f, _ in shares[0]) / sum(a for _, a in shares[0])
        fb = sum(f for f, _ in shares[1]) / sum(a for _, a in shares[1])
        if fa != fb:
            print(f"  failed shares differ: {fa} vs {fb}")
            bad = True
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            row = []
            meds = {}
            for s in ("A", "B"):
                values = [r["metrics"][name]["value"] for r, _ in sets[s][w]]
                q1, med, q3, sp = spread(values)
                meds[s] = med
                row.append(f"{s}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {sp:.4f} ({sp / bound:.2f} of bound)")
                if name != "setup_s" and sp > bound:
                    bad = True
            worse = (meds["B"] / meds["A"] - 1) if lower else (1 - meds["B"] / meds["A"])
            if worse > bound:
                bad = True
            pooled = [r["metrics"][name]["value"] for s in ("A", "B") for r, _ in sets[s][w]]
            q1, med, q3, sp = spread(pooled)
            if name != "setup_s" and sp > bound:
                bad = True
            row.append(f"all {len(pooled)}: median {med:.6g} spread {sp:.4f} ({sp / bound:.2f} of bound)")
            print(f"  {name:<18} bound {bound}: " + " | ".join(row) + f" | B worse by {worse:+.4f}")
    print("\nsteady" if not bad else "\nNOT steady")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
