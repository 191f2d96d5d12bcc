"""Seeded benchmark of planarize: one workload, one process, one thread.

    python3 bench/run.py --workload planar|fit|web --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/`.  Set-up
imports `planarize` afresh and builds the workload's seeded inputs, several
times; then whole passes over the workload run until `--seconds` have
passed.  Every result is checked (see checks.py).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

With --trace 0 the metrics are the end-to-end ones: per-pass totals (median
over passes) of each pipeline, the pass time, the set-up time (median over
set-ups) and the peak resident set.  With --trace 1 untraced and traced
passes alternate, and the metrics are the per-layer ones from the traced
passes (see tracing.py), plus the tracing overhead; the spans are written to
bench/out/ once, at the end.
"""

from __future__ import annotations

import os

# one thread: the BLAS under numpy must not start a pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PIPELINES = ("classify_s", "dual_s", "fit_s", "khovanskii_s", "web_s", "implicitize_s", "cli_s")
UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", **{m: "s" for m in PIPELINES}}
SETUPS = 5
#: the reference loop's nominal time.  The loop runs between operations, and
#: each operation's time is scaled by REFERENCE_S / (the mean of the loop's
#: times just before and just after it): it is the time the work would take
#: at the machine speed where the loop takes 3 ms.  The CPU speed of a
#: shared machine changes within seconds; the scaling cancels most of that.
REFERENCE_S = 0.003

#: per-layer metrics reported by a traced run, with their units
LAYER_METRICS = {
    "jetplan.jet_of.calls": "count",
    "jetplan.jet_of.self_s": "s",
    "jetplan.omega.calls": "count",
    "jetplan.omega.self_s": "s",
    "jetplan.nondegenerate_at.calls": "count",
    "jetplan.nondegenerate_at.accepted": "count",
    "jetplan.nondegenerate_at.accepted_ratio": "ratio",
    "jetplan.source_evaluate.calls": "count",
    "jetplan.source_evaluate.distinct": "count",
    "jetplan.source_evaluate.distinct_ratio": "ratio",
    "jetplan.read_csv_grid.self_s": "s",
    "dualize.dual_map.self_s": "s",
    "dualize.classify.self_s": "s",
    "dualize.component_dependence.self_s": "s",
    "poly.substitute.calls": "count",
    "poly.substitute.self_s": "s",
    "poly.hpoly_gcd.calls": "count",
    "poly.hpoly_gcd.self_s": "s",
    "poly.reduce_map.calls": "count",
    "poly.reduce_map.self_s": "s",
    "poly.p_mul.calls": "count",
    "poly.p_mul.self_s": "s",
    "poly.p_gcd.calls": "count",
    "poly.p_gcd.self_s": "s",
    "poly.ratmap_evaluate.calls": "count",
    "poly.ratmap_evaluate.self_s": "s",
    "poly.implicitize.self_s": "s",
    "univar.gcd.calls": "count",
    "univar.gcd.self_s": "s",
    "projcore.nullspace.calls": "count",
    "projcore.nullspace.cells": "count",
    "projcore.nullspace.self_s": "s",
    "projcore.rank.calls": "count",
    "projcore.rank.self_s": "s",
    "projcore.det.calls": "count",
    "ratfit.fit_uni.calls": "count",
    "ratfit.fit_uni.self_s": "s",
    "ratfit.fit_bi.calls": "count",
    "ratfit.fit_bi.self_s": "s",
    "ratfit.fit_map.self_s": "s",
    "conicweb.lines_to_curves.calls": "count",
    "conicweb.lines_to_curves.self_s": "s",
    "conicweb.classify_web.self_s": "s",
    "conicweb.invert_via_net.self_s": "s",
    "conicweb.khovanskii_classify.self_s": "s",
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
    "bench.reference_loop_s": "s",
}
RATIOS = {
    "jetplan.nondegenerate_at.accepted_ratio": ("jetplan.nondegenerate_at.accepted", "jetplan.nondegenerate_at.calls"),
    "jetplan.source_evaluate.distinct_ratio": ("jetplan.source_evaluate.distinct", "jetplan.source_evaluate.calls"),
}


def load_planarize():
    """Import `planarize` from src/ afresh (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "planarize" or n.startswith("planarize.")]:
        del sys.modules[name]
    pz = importlib.import_module("planarize")
    for layer in LAYERS:
        importlib.import_module(f"planarize.{layer}")
    return pz


def set_up(workload: str, seed: int, workdir: Path):
    """Median set-up time and the operations of the last set-up."""
    from workloads import WORKLOADS, Inputs

    times = []
    ops = None
    before = reference_loop()
    for _ in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        pz = load_planarize()
        ops = WORKLOADS[workload](Inputs(pz, seed, str(workdir)))
        dt = perf_counter() - t0
        after = reference_loop()
        times.append(dt * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(times), ops


_REFERENCE_MATRIX = [[(7 * i + 3 * j * j + 1) % 199 - 99 for j in range(12)] for i in range(12)]


def reference_loop() -> float:
    """Seconds taken by fixed work of the kinds the program does, Fraction
    sums and fraction-free integer elimination: a probe of the machine's
    speed at this moment."""
    t0 = perf_counter()
    a, s = Fraction(1, 3), Fraction(0)
    for i in range(1, 400):
        s += a / i
    for _ in range(4):
        m = [row[:] for row in _REFERENCE_MATRIX]
        prev = 1
        for c in range(12):
            piv = m[c][c] or 1
            for i in range(c + 1, 12):
                mic = m[i][c]
                for j in range(c, 12):
                    m[i][j] = (piv * m[i][j] - mic * m[c][j]) // prev
            prev = piv
    return perf_counter() - t0


def interleave(ops: list) -> list:
    """Round-robin over the metrics, so each metric's operations are spread
    through the pass and sample the machine's speed at many moments."""
    groups: dict = {}
    for op in ops:
        groups.setdefault(op.metric, []).append(op)
    out = []
    while any(groups.values()):
        for group in groups.values():
            if group:
                out.append(group.pop(0))
    return out


class Runner:
    """Runs passes over the operations and checks every result."""

    def __init__(self, ops):
        self.ops = interleave(ops)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed operations whose result was wrong, not raised
        self.first = {}  # label -> key of the first checked result
        self.failures: list = []
        self.reference: list = []  # seconds of each reference loop

    def one_pass(self, times: dict, tracer=None) -> None:
        """Run every operation once; append each one's scaled time to times[label]."""
        from checks import CheckFailed

        before = reference_loop()
        for op in self.ops:
            self.attempted += 1
            try:
                try:
                    with tracer.op(op.label) if tracer is not None else nullcontext():
                        t0 = perf_counter()
                        result = op.run()
                        dt = perf_counter() - t0
                finally:
                    after = reference_loop()
                    self.reference.append(after)
                    scale = 2 * REFERENCE_S / (before + after)
                    before = after
                key = op.key(result)
                if op.label not in self.first:
                    op.check(result)
                    self.first[op.label] = key
                elif key != self.first[op.label]:
                    raise CheckFailed("result differs from the first pass")
                times.setdefault(op.label, []).append(dt * scale)
                if tracer is not None and op.metric == "cli_s":
                    tracer.counts["cli.report_bytes"] += len(result[1])
            except Exception as exc:  # an operation that raises or fails its check
                self.failed += 1
                self.wrong += isinstance(exc, CheckFailed)
                if len(self.failures) < 20:
                    self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                    if not isinstance(exc, CheckFailed):
                        traceback.print_exc(file=sys.stderr)

    def typical_pass(self, times: dict) -> dict:
        """Per metric, the sum over its operations of each one's median time
        over the passes; pass_s is the sum over all operations."""
        totals = dict.fromkeys(PIPELINES, 0.0)
        for op in self.ops:
            if times.get(op.label):
                totals[op.metric] += statistics.median(times[op.label])
        totals["pass_s"] = sum(totals[m] for m in PIPELINES)
        return totals


def run_untraced(runner: Runner, seconds: float) -> dict:
    times: dict = {}
    passes = 0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        runner.one_pass(times)
        passes += 1
    return runner.typical_pass(times)


def run_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    plain: dict = {}
    traced: dict = {}
    layers = []
    start = perf_counter()
    while not layers or perf_counter() - start < seconds:
        runner.one_pass(plain)
        tracer.reset()
        tracer.pass_index = len(layers)
        tracer.install()
        try:
            runner.one_pass(traced, tracer)
        finally:
            tracer.uninstall()
        layers.append(tracer.snapshot())
    tracer.write_spans(str(spans_path))
    out = {}
    for name in LAYER_METRICS:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = statistics.median(s.get(num, 0) / s[den] if s.get(den) else 0.0 for s in layers)
        elif name == "bench.reference_loop_s":
            out[name] = statistics.median(runner.reference)
        elif name == "trace.overhead_s":
            out[name] = runner.typical_pass(traced)["pass_s"] - runner.typical_pass(plain)["pass_s"]
        else:
            out[name] = statistics.median(s.get(name, 0) for s in layers)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("planar", "fit", "web"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "planarize" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'planarize'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks  # noqa: F401  (sympy loads here, before any timing)

    run_dir = OUT / f"{args.workload}-{args.seed}-{'trace' if args.trace else 'plain'}-{os.getpid()}"
    workdir = run_dir / "inputs"
    setup_s, ops = set_up(args.workload, args.seed, workdir)
    runner = Runner(ops)
    # the benchmark's own heap (sympy above all) stays out of the program's
    # garbage collections
    gc.collect()
    gc.freeze()
    if args.trace:
        values = run_traced(runner, args.seconds, run_dir / "spans.jsonl")
        metrics = {n: {"value": values[n], "unit": LAYER_METRICS[n]} for n in LAYER_METRICS}
    else:
        values = run_untraced(runner, args.seconds)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {n: {"value": values[n], "unit": UNITS[n]} for n in ("setup_s", "pass_s") + PIPELINES + ("peak_rss_mb",)}
    shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in runner.failures:
        print(f"bench: failed: {line}", file=sys.stderr)
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
