#!/usr/bin/env python3
"""Repeatability harness: run the benchmark N times per workload, each run
with another --seed (31-bit draws from random.Random(--seed-stream), the
same draws in every set), exactly as BENCHMARK.json's command line says, and
print per end-to-end metric x workload the min / median / max, the quartile
spread (Q3 - Q1 as a share of the median, from statistics.quantiles(n=4))
and PASS / FAIL against the metric's bound. `--sets 2` runs the whole thing
twice and also checks that no median got worse by more than the bound.

    python3 benchmark/repeat.py [--runs 10] [--sets 1] [--workload NAME ...]
                                [--seed-stream N] [--markdown] [--bin PATH]

Run from the repo root. `--bin` runs an already-built executable instead of
going through `cargo run` (same program, saves the fingerprint check).
"""

import argparse
import json
import random
import re
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed\n{proc.stderr}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    raw = re.search(r"^raw: ([\d.]+) on-CPU ns", proc.stdout, re.M)
    if raw:  # the uncalibrated time behind sim_kpps / sweep_s, for comparison
        metrics["(raw on-CPU ns)"] = float(raw.group(1))
    return metrics, time.time() - started


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed-stream", type=int, default=1)
    ap.add_argument("--markdown", action="store_true")
    ap.add_argument("--bin")
    args = ap.parse_args()

    contract = json.load(open("BENCHMARK.json"))
    command = [args.bin] if args.bin else contract["command"]
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    seconds = contract["run_seconds"]

    medians = []  # one {(workload, metric): median} per set
    ok = True
    for s in range(args.sets):
        # Large random seeds, as the driver passes them; every set draws the
        # same ones, so the simulated-axis medians of two sets must be equal.
        seeds = random.Random(args.seed_stream)
        if args.markdown:
            print(f"\n### Set {s + 1}: {args.runs} runs per workload, seed stream {args.seed_stream}\n")
            print("| workload | metric | min | median | max | spread | bound | verdict |")
            print("|---|---|---|---|---|---|---|---|")
        medians.append({})
        for w in workloads:
            runs, wall = [], []
            for _ in range(args.runs):
                m, t = run_once(command, w, seeds.randrange(1, 2**31), seconds, 0)
                runs.append(m)
                wall.append(t)
            if trace_free := [r["(raw on-CPU ns)"] for r in runs if "(raw on-CPU ns)" in r]:
                row = [w, "(raw on-CPU ns)", f"{min(trace_free):.6g}", f"{statistics.median(trace_free):.6g}",
                       f"{max(trace_free):.6g}", f"{spread(trace_free) * 100:.2f} %", "-", "not a metric"]
                print(("| " + " | ".join(row) + " |") if args.markdown else "  ".join(f"{c:<16}" for c in row))
            for metric in contract["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[name] for r in runs]
                sp = spread(values)
                # setup_s is held to its bound only through its median.
                passed = sp <= bound or name == "setup_s"
                ok &= passed
                medians[-1][(w, name)] = statistics.median(values)
                verdict = "PASS" if passed else "FAIL"
                if passed and sp > bound / 3 and name != "setup_s":
                    verdict = "PASS (above bound/3)"
                row = [w, name, f"{min(values):.6g}", f"{statistics.median(values):.6g}", f"{max(values):.6g}",
                       f"{sp * 100:.2f} %", f"{bound * 100:g} %", verdict]
                print(("| " + " | ".join(row) + " |") if args.markdown else "  ".join(f"{c:<16}" for c in row))
            note = f"{w}: wall per run min {min(wall):.1f} s, max {max(wall):.1f} s"
            print(f"\n{note}\n" if not args.markdown else "", file=sys.stderr if args.markdown else sys.stdout)
            sys.stdout.flush()

    if args.sets >= 2:
        if args.markdown:
            print("\n### Medians, set 2 against set 1\n")
            print("| workload | metric | set 1 | set 2 | worse by | bound | verdict |")
            print("|---|---|---|---|---|---|---|")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = -1.0 if metric["better"] == "higher" else 1.0
            for w in workloads:
                a, b = medians[0][(w, name)], medians[-1][(w, name)]
                worse = sign * (b - a) / a
                passed = worse <= bound
                ok &= passed
                row = [w, name, f"{a:.6g}", f"{b:.6g}", f"{worse * 100:+.2f} %", f"{bound * 100:g} %", "PASS" if passed else "FAIL"]
                print(("| " + " | ".join(row) + " |") if args.markdown else "  ".join(f"{c:<16}" for c in row))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
