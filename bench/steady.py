"""Steadiness of the benchmark: many seeded runs per workload.

    python3 bench/steady.py [--runs 10] [--first-seed 1] [--workloads planar,fit,web]
                            [--seconds S] [--save FILE] [--baseline FILE]

Runs `bench/run.py` once per seed, one run at a time, with tracing off.  For
every end-to-end metric of every workload it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) /
median against the metric's bound in BENCHMARK.json.  A spread under a third
of its bound is marked steady.  The share of failed operations must be the
same in every run.  --save writes the raw results as JSON; --baseline reads
such a file and prints how far each median moved against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: dict, spec: dict, baseline: dict | None) -> bool:
    steady = True
    for workload, runs in results.items():
        shares = {(r["failed"], r["attempted"]) for r in runs}
        failed = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share {sorted(failed)}, "
              f"correct {all(r['correct'] for r in runs)}  (failed, attempted): {sorted(shares)}")
        if len(failed) != 1:
            steady = False
        print(f"  {'metric':14s} {'median':>11s} {'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s} {'/bound':>7s}"
              + ("  moved" if baseline else ""))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            mark = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            if name == "setup_s":
                mark = "(exempt)"
            elif mark == "WIDE":
                steady = False
            line = (f"  {name:14s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {bound:6.2f} "
                    f"{spread / bound:7.2f}  {mark}")
            if baseline and workload in baseline:
                old = statistics.median(r["metrics"][name]["value"] for r in baseline[workload])
                moved = (med - old) / old
                worse = moved if m["better"] == "lower" else -moved
                line += f"  {moved:+.3f} {'WORSE' if worse > bound else 'ok'}"
                steady = steady and worse <= bound
            print(line)
    return steady


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", default=None)
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args(argv)

    results: dict = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results[workload].append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results))
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    return 0 if summarize(results, spec, baseline) else 1


if __name__ == "__main__":
    raise SystemExit(main())
