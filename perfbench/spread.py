#!/usr/bin/env python3
"""Runs the benchmark over several seeds and judges the spread of its metrics.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads flow,atpg_opt,serve \
        --seeds 1-10 [--trace 0|1] [--out runs.jsonl]
    python3 perfbench/spread.py --compare BASE.jsonl [CANDIDATE.jsonl]

Every run's last output line is appended to the output file (default
`.bench_runs/runs.jsonl`) as `{"workload": W, "seed": N, "trace": T,
"result": {...}}`. Then, for each workload and end-to-end metric in the
file, it prints the median and the spread: the distance between the first
and third quartile (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the metric's bound in BENCHMARK.json. Given a second file,
it also prints how much each candidate median is worse than the base
median, as a share of the base median, and the candidate's own spread. It
exits 1 when any spread, or any worsening, exceeds its metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Q3 - Q1 over the median; None for fewer than two values or median 0."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return None if mid == 0 else (q3 - q1) / abs(mid)


def worsening(base, cand, better):
    """How much worse the candidate median is than the base median, as a
    share of the base median (negative when better); None when undefined."""
    if not base or not cand:
        return None
    b, c = statistics.median(base), statistics.median(cand)
    if b == 0:
        return None
    change = (c - b) / abs(b)
    return change if better == "lower" else -change


def read_runs(path):
    """{workload: {metric: [value per run]}} from a JSON-lines file of runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                run = json.loads(line)
                metrics = runs.setdefault(run["workload"], {})
                for name, m in run["result"]["metrics"].items():
                    metrics.setdefault(name, []).append(m["value"])
    return runs


def judge(spec, base, cand=None):
    """Report lines and whether every spread and every worsening is within
    its bound."""
    ok, lines = True, []
    for workload, values in base.items():
        lines.append(f"{workload}:")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = values.get(name, [])
            s = spread(a)
            steady = s is not None and s <= bound
            ok &= steady
            note = ("SPREAD ABOVE BOUND" if not steady
                    else "spread above a third of the bound" if s * 3 > bound else "")
            line = (f"  {name:<20} n={len(a):<3} median={statistics.median(a) if a else 0:<14.6f}"
                    f" spread={'-' if s is None else f'{s:.4f}':<8} bound={bound:<5} {note}").rstrip()
            b = (cand or {}).get(workload, {}).get(name)
            if b:
                sb, w = spread(b), worsening(a, b, m["better"])
                ok &= sb is not None and sb <= bound and w is not None and w <= bound
                line += (f"  candidate: median={statistics.median(b):.6f}"
                         f" spread={'-' if sb is None else f'{sb:.4f}'}"
                         f" worse_by={'-' if w is None else f'{w:+.4f}'}"
                         + (" SPREAD ABOVE BOUND" if sb is None or sb > bound else "")
                         + (" WORSE BEYOND BOUND" if w is not None and w > bound else ""))
            lines.append(line)
    return ok, lines


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_all(spec, workloads, seed_range, trace, out):
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    for workload in workloads:
        for seed in seed_range:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", trace]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                         f"{done.stdout}{done.stderr}")
            result = json.loads(lines[-1])
            with open(out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": int(trace), "result": result}) + "\n")
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="flow,atpg_opt,serve")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_runs", "runs.jsonl"))
    parser.add_argument("--compare", nargs="+", metavar="RUNS.jsonl",
                        help="judge one or two existing files instead of running")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes a base file and at most one candidate file")
        files = args.compare
    else:
        run_all(spec, args.workloads.split(","), seeds(args.seeds), args.trace, args.out)
        files = [args.out]
    runs = [read_runs(path) for path in files]
    ok, lines = judge(spec, runs[0], runs[1] if len(runs) > 1 else None)
    print("\n".join(lines))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
