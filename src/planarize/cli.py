"""Command-line front end: JSON/CSV ingestion, seeded generation, reports.

Subcommands: dualize | classify | fit | web-classify | implicitize |
khovanskii | gen.  Reports are canonical JSON (sorted keys, compact
separators), so identical configuration and inputs give byte-identical
output.  Exit codes: 0 definite verdict, 2 unresolved/indeterminate, 1
input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import conicweb, dualize, jetplan, projcore, ratfit
from .conicweb import (
    ConicSystem,
    InCircle,
    InConic,
    InverseQuadratic,
    Quadratic,
    Unresolved,
)
from .dualize import CoTrivial, Rational, Trivial
from .poly import HPoly, RatMap, implicitize, line_base_points, reduce_map, _forms_eval_int, _forms_plan, _monomials
from .projcore import PLine2
from .seeding import stable_rng


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_map(path: str) -> RatMap:
    return RatMap.from_json(_load_json(path))


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------

#: largest `gen --degree`, the documented range of `gen`; generation is
#: cheap past it: on a 2-core machine generate_map(1, d, 3) takes 0.002 s
#: at d = 8 and 0.01 s at d = 12
MAX_GEN_DEGREE = 8
#: largest `gen --target-dim`
MAX_GEN_TARGET_DIM = 64

_GEN_KINDS = {
    "linear-rp3": (1, 3),
    "quadratic-rp3": (2, 3),
    "cubic-rp3": (3, 3),
    "quadratic-rp2": (2, 2),
}


def generate_map(seed: int, degree: int, target_dim: int) -> RatMap:
    """Random integer-coefficient map, rejection-sampled so that removing
    common factors preserves the requested degree."""
    if degree < 0:
        raise ValueError(f"degree must be at least 0, got {degree}")
    if target_dim < 1:
        raise ValueError(f"target dimension must be at least 1, got {target_dim}")
    rng = stable_rng(seed, f"gen:{degree}:{target_dim}")
    monos = _monomials(3, degree)
    while True:
        comps = []
        for _ in range(target_dim + 1):
            comps.append(HPoly(3, degree, {m: rng.randint(-9, 9) for m in monos}))
        if all(c.is_zero for c in comps):
            continue
        m = reduce_map(comps)
        if m.degree == degree:
            return m


# ---------------------------------------------------------------------------
# verdict serialization
# ---------------------------------------------------------------------------


def _classify_report(verdict) -> tuple[dict, int]:
    if isinstance(verdict, Trivial):
        return {"class": "Trivial", "witness": list(verdict.hyperplane.covector), "degree": None}, 0
    if isinstance(verdict, CoTrivial):
        return {"class": "CoTrivial", "witness": list(verdict.center.coords), "degree": None}, 0
    if isinstance(verdict, Rational):
        return {"class": "Rational", "witness": None, "degree": verdict.degree}, 0
    return {"class": "Indeterminate", "witness": None, "degree": None, "reason": verdict.reason}, 2


def _case_report(verdict) -> tuple[dict, int]:
    """The report of a web or sphere verdict, named by its class: a witness
    (exit 0), or for Unresolved and for an exception that left the map
    unclassified, the reason as diagnostics (exit 2)."""
    case = type(verdict).__name__
    if isinstance(verdict, (Unresolved, Exception)):
        reason = verdict.reason if isinstance(verdict, Unresolved) else str(verdict)
        return {"case": case, "witness": None, "diagnostics": reason}, 2
    if isinstance(verdict, InConic):
        witness = list(verdict.member.coords)
    elif isinstance(verdict, InCircle):
        witness = list(verdict.plane.covector)
    elif isinstance(verdict, CoTrivial):
        witness = list(verdict.center.coords)
    elif isinstance(verdict, InverseQuadratic):
        witness = verdict.witness.to_json()
    elif isinstance(verdict, Quadratic):
        witness = verdict.map.to_json()
    else:
        witness = {
            "quadric": verdict.quadric.to_json(),
            "system_map": verdict.system_map.to_json(),
            "composite": verdict.composite.to_json(),
        }
    return {"case": case, "witness": witness, "diagnostics": None}, 0


# ---------------------------------------------------------------------------
# curve emission for external plotting
# ---------------------------------------------------------------------------


def _emit_curves(path: str, F: RatMap, seed: int) -> None:
    """Sampled polylines of image curves of seeded lines, as plain CSV."""
    curves, samples = 8, 33  # polylines written, samples per polyline
    rng = stable_rng(seed, "emit_curves")
    n1 = len(F.components)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("curve,param," + ",".join(f"y{i}" for i in range(n1)) + "\n")
        written = 0
        guard = 0
        while written < curves and guard < 10 * curves:
            guard += 1
            cov = tuple(rng.randint(-5, 5) for _ in range(3))
            if cov == (0, 0, 0):
                continue
            p0, p1 = line_base_points(PLine2.of(cov))
            rows = []
            for k in range(samples):
                t = Fraction(-2) + Fraction(4 * k, samples - 1)
                w = [a + t * b for a, b in zip(p0, p1)]
                img = F.evaluate(w)
                if img is None:
                    continue
                scale = max(abs(float(x)) for x in img) or 1.0
                rows.append((float(t), [float(x) / scale for x in img]))
            if len(rows) < samples // 2:
                continue
            for t, ys in rows:
                fh.write(f"{written},{t!r}," + ",".join(repr(y) for y in ys) + "\n")
            written += 1


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_dualize(args) -> int:
    F = _load_map(args.infile)
    try:
        Fh = dualize.dual_map(F, seed=args.seed)
    except (dualize.EverywhereDegenerate, dualize.NotPlanar) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)}, args.out)
        return 2
    if args.emit_curves:
        _emit_curves(args.emit_curves, F, args.seed)
    _emit({"dual": Fh.to_json(), "degree": Fh.degree}, args.out)
    return 0


def _cmd_classify(args) -> int:
    F = _load_map(args.infile)
    report, code = _classify_report(dualize.classify(F, seed=args.seed))
    _emit(report, args.out)
    return code


def _cmd_fit(args) -> int:
    # CSV cells (including decimals) are exact rationals; the fit is exact
    source = jetplan.read_csv_grid(args.infile, mode="exact")
    try:
        model = ratfit.fit_map(source, args.degree, seed=args.seed)
    except (ratfit.DegreeTooLow, ratfit.AmbiguousFit, ratfit.ChartOverflow) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)}, args.out)
        return 2
    residuals = _fit_residuals(source, model)
    _emit({"map": model.to_json(), "residuals": residuals}, args.out)
    return 0


def _fit_residuals(source: jetplan.GridMapSource, model: RatMap) -> dict:
    """Worst scaled cross-product residual |Y_i M_j - Y_j M_i| / (max|Y| max|M|)
    between the exact grid samples Y and the model values M, computed exactly
    (0 when the fit is exact).  It does not change when Y or M is scaled, so
    both are integers: Y the node's value with its denominators cleared, M
    the model's integer components at the node X / L taken as (L, X)."""
    plan = _forms_plan([c.terms for c in model.components])
    worst = Fraction(0)
    checked = 0
    for iv, v in enumerate(source.v_axis):
        for iu, u in enumerate(source.u_axis):
            Y, _ = projcore._cleared((1, *source.node_value(iu, iv)))
            X, L = projcore._cleared((u, v))
            M = _forms_eval_int(plan, (L, *X), 1, model.degree)
            if not any(M):
                continue
            cross = max(
                abs(Y[i] * M[j] - Y[j] * M[i]) for i in range(len(Y)) for j in range(i + 1, len(Y))
            )
            worst = max(worst, Fraction(cross, max(map(abs, Y)) * max(map(abs, M))))
            checked += 1
    return {"max_cross_residual": float(worst), "nodes_checked": checked}


def _cmd_web_classify(args) -> int:
    f = _load_map(args.infile)
    web = ConicSystem.from_json(_load_json(args.web))
    try:
        verdict = conicweb.classify_web(f, web, seed=args.seed)
    except conicweb.NotALinesToCurvesMap as exc:
        verdict = exc
    else:
        if args.emit_curves:
            _emit_curves(args.emit_curves, f, args.seed)
    report, code = _case_report(verdict)
    _emit(report, args.out)
    return code


#: largest degree-kmax system, in cells (rows times columns), that
#: `implicitize --kmax` may set up: on a 2-core machine a cubic into RP^3
#: whose image has degree 9 takes about 1.5 s at kmax 9 (89,320 cells), and
#: kmax 12 (319,865 cells) asks for far larger systems
MAX_IMPLICITIZE_CELLS = 100_000


def _cmd_implicitize(args) -> int:
    F = _load_map(args.infile)
    if args.kmax >= 1:
        # the degree-kmax system: target monomials by principal-lattice points
        m = F.domain_vars - 1
        cells = math.comb(args.kmax + F.codim, F.codim) * math.comb(args.kmax * F.degree + m, m)
        if cells > MAX_IMPLICITIZE_CELLS:
            raise ValueError(
                f"kmax {args.kmax} needs a system of {cells} cells, more than "
                f"MAX_IMPLICITIZE_CELLS = {MAX_IMPLICITIZE_CELLS}"
            )
    result = implicitize(F, args.kmax)
    if result is None:
        _emit({"degree": None, "relation": None}, args.out)
        return 0
    k, rel = result
    _emit({"degree": k, "relation": rel.to_json()}, args.out)
    return 0


def _cmd_khovanskii(args) -> int:
    source = jetplan.read_csv_grid(args.infile, mode=args.mode)
    try:
        verdict = conicweb.khovanskii_classify(source, seed=args.seed)
    except (conicweb.NotOnSphere, conicweb.DegreeAnomaly, conicweb.TooFewSamples,
            ratfit.DegreeTooLow, ratfit.AmbiguousFit) as exc:
        verdict = exc
    report, code = _case_report(verdict)
    _emit(report, args.out)
    return code


def _cmd_gen(args) -> int:
    if args.kind:
        degree, target_dim = _GEN_KINDS[args.kind]
    else:
        degree, target_dim = args.degree, args.target_dim
    if not 0 <= degree <= MAX_GEN_DEGREE:
        raise ValueError(f"degree must be at least 0 and at most {MAX_GEN_DEGREE}, got {degree}")
    if not 1 <= target_dim <= MAX_GEN_TARGET_DIM:
        raise ValueError(
            f"target dimension must be at least 1 and at most {MAX_GEN_TARGET_DIM}, got {target_dim}"
        )
    m = generate_map(args.seed, degree, target_dim)
    _emit(m.to_json(), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarize",
        description="exact projective geometry: duals, planarization classes, conic webs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_in=True):
        if needs_in:
            p.add_argument("--in", dest="infile", required=True, help="input file")
        p.add_argument("--out", dest="out", default=None, help="write the JSON report here")
        p.add_argument("--seed", type=int, default=0, help="seed for all validation draws")

    p = sub.add_parser("dualize", help="dual planarization of a rational map")
    common(p)
    p.add_argument("--emit-curves", default=None, help="CSV of sampled image polylines")
    p.set_defaults(fn=_cmd_dualize)

    p = sub.add_parser("classify", help="trivial/co-trivial/rational trichotomy")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("fit", help="reconstruct a rational map from a CSV grid")
    common(p)
    p.add_argument("--degree", type=int, default=3, help="degree bound")
    p.set_defaults(fn=_cmd_fit)

    p = sub.add_parser("web-classify", help="classify a lines-to-web-conics map")
    common(p)
    p.add_argument("--web", required=True, help="conic system JSON")
    p.add_argument("--emit-curves", default=None)
    p.set_defaults(fn=_cmd_web_classify)

    p = sub.add_parser("implicitize", help="lowest-degree image relation of a map")
    common(p)
    p.add_argument("--kmax", type=int, default=4)
    p.set_defaults(fn=_cmd_implicitize)

    p = sub.add_parser("khovanskii", help="classify a sphere-valued lines-to-circles grid")
    common(p)
    p.add_argument("--mode", choices=("exact", "float"), default="exact", help="read CSV cells as exact or float")
    p.set_defaults(fn=_cmd_khovanskii)

    p = sub.add_parser("gen", help="seeded random map generation")
    common(p, needs_in=False)
    p.add_argument("--kind", choices=sorted(_GEN_KINDS), default=None)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--target-dim", type=int, default=3)
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, MemoryError) as exc:
        print(f"planarize: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
