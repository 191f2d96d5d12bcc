"""The three workloads and the probe set they share.

A workload is built once per set-up from (program modules, seed, work
directory) into a list of operations.  Each operation names the end-to-end
metric its time counts toward, a call into the program, and a check of the
result made apart from the program (see checks.py).  The program receives
only the generated inputs and the `seed=` of its calls.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks
import corpus
from checks import require


@dataclass
class Op:
    metric: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    key: Callable[[Any], Any] = repr  # compared across passes: results must repeat


class Inputs:
    """Conversion of plain-data inputs into program objects and files."""

    def __init__(self, pz, seed: int, workdir: str):
        self.pz = pz
        self.seed = seed
        self.workdir = workdir

    def ratmap(self, F: list):
        HPoly = self.pz.poly.HPoly
        nv, deg = len(next(iter(F[0]))), sum(next(iter(F[0])))
        return self.pz.poly.reduce_map([HPoly(nv, deg, comp) for comp in F])

    def generic(self, rng, degree: int, target_dim: int):
        """A generic seeded map that keeps its degree after reduction."""
        while True:
            F = corpus.random_map(rng, degree, target_dim)
            M = self.ratmap(F)
            if M.degree == degree:
                return F, M

    def system(self, basis: list):
        HPoly = self.pz.poly.HPoly
        return self.pz.conicweb.ConicSystem([HPoly(3, 2, q) for q in basis])

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def cli_op(self, label: str, argv: list, check: Callable[[dict], None], code: int = 0) -> Op:
        """In-process `planarize` call: files in, canonical report file out."""
        out = os.path.join(self.workdir, f"{label}.out.json")
        cli = self.pz.cli
        argv = argv + ["--seed", str(self.seed), "--out", out]

        def run():
            if os.path.exists(out):
                os.remove(out)
            rc = cli.main(argv)
            with open(out, "rb") as fh:
                return rc, fh.read()

        def full_check(result):
            rc, data = result
            require(rc == code, f"exit code {rc}, expected {code}")
            check(json.loads(data))

        return Op("cli_s", label, run, full_check, key=lambda r: r)


def kind(verdict) -> str:
    return type(verdict).__name__


def homogeneous_fn(F: list):
    """A black box (u, v) -> F(1, u, v), None at base points."""

    def fn(u, v):
        y = corpus.evaluate(F, (1, u, v))
        return y if any(y) else None

    return fn


# ---------------------------------------------------------------------------
# probe set: a few cheap calls per pipeline, so every workload defines every
# end-to-end metric
# ---------------------------------------------------------------------------


def probe(inp: Inputs) -> list:
    """A few distinct inputs per pipeline, each a cheap call."""
    pz, seed = inp.pz, inp.seed
    rng = corpus.rng_for(seed, "probe")
    ops = []

    for i in range(6):
        F, M = inp.generic(rng, 2, 3)
        if i >= 4:  # implicitize alone: it needs the most inputs to average out
            ops.append(_implicitize_op(inp, f"probe-implicitize-q3-{i}", F, M))
            continue

        def check_rational(v, F=F):
            require(kind(v) == "Rational" and v.degree == 2, f"{v} on a generic quadratic to RP^3")
            checks.check_independent(F)

        ops.append(Op("classify_s", f"probe-classify-{i}", lambda M=M: pz.dualize.classify(M, seed=seed), check_rational))
        ops.append(
            Op(
                "dual_s",
                f"probe-dual-{i}",
                lambda M=M: pz.dualize.dual_map(M, seed=seed),
                lambda D, F=F: checks.check_dual(F, checks.terms_of(D), seed),
            )
        )
        ops.append(_implicitize_op(inp, f"probe-implicitize-q3-{i}", F, M))

    web = inp.system(corpus.CIRCLE_WEB)
    for i in range(4):
        A = corpus.collineation(rng)
        L = corpus.linear_map(A)
        Lm = inp.ratmap(L)
        ops.append(
            Op(
                "fit_s",
                f"probe-fit-{i}",
                lambda Lm=Lm: pz.ratfit.fit_map(pz.jetplan.ExactMapSource(Lm), 1, seed=seed),
                lambda m, L=L: checks.check_model(checks.terms_of(m), L),
            )
        )

        def check_deg1(v, L=L):
            require(kind(v) == "Quadratic", f"{kind(v)} on a collineation")
            checks.check_model(checks.terms_of(v.map), L)

        ops.append(Op("web_s", f"probe-web-{i}", lambda Lm=Lm: pz.conicweb.classify_web(Lm, web, seed=seed), check_deg1))

    for i in range(2):
        R = corpus.rotation(rng)
        ops.append(_khovanskii_op(inp, f"probe-khovanskii-stereo-{i}", corpus.stereo_fn(R), _sphere_check(R)))
        R = corpus.rotation(rng)
        ops.append(_khovanskii_op(inp, f"probe-khovanskii-circle-{i}", corpus.great_circle_fn(R), _plane_check(R)))

    for i in range(2):
        F = corpus.compose(corpus.CIRCLE_WEB, corpus.linear_map(corpus.collineation(rng)))
        ops.append(_implicitize_op(inp, f"probe-implicitize-circle-{i}", F, inp.ratmap(F), 2))

    return ops


def _implicitize_op(inp: Inputs, label: str, F: list, M, degree=None) -> Op:
    """implicitize(M, 4); the relation is checked against F, and against the
    planted degree where it is known."""

    def check(result):
        require(result is not None, "no relation found")
        k, rel = result
        require(degree is None or k == degree, f"relation degree {k}, planted {degree}")
        checks.check_relation(F, k, checks.terms_of(rel))

    return Op("implicitize_s", label, lambda: inp.pz.poly.implicitize(M, 4), check)


def _sphere_check(R: list):
    def check(v):
        require(kind(v) == "Quadratic", f"{kind(v)} on a stereographic map")
        checks.check_model(checks.terms_of(v.map), corpus.stereographic(R))

    return check


def _plane_check(R: list):
    def check(v):
        require(kind(v) == "InCircle", f"{kind(v)} on a great-circle map")
        checks.check_plane(v.plane.covector, corpus.plane_of_rotated_equator(R))

    return check


def _khovanskii_op(inp: Inputs, label: str, fn, check) -> Op:
    pz, seed = inp.pz, inp.seed

    def run():
        src = pz.jetplan.CallableSource(fn, codim=3, mode="exact")
        return pz.conicweb.khovanskii_classify(src, seed=seed)

    return Op("khovanskii_s", label, run, check)


# ---------------------------------------------------------------------------
# planar: duals and the trichotomy
# ---------------------------------------------------------------------------


def planar(inp: Inputs) -> list:
    pz, seed = inp.pz, inp.seed
    rng = corpus.rng_for(seed, "planar")
    dualize = pz.dualize
    ops = []

    def classify_op(label, M, check):
        ops.append(Op("classify_s", label, lambda: dualize.classify(M, seed=seed), check))

    def rational_check(F, d):
        def check(v):
            require(kind(v) == "Rational" and v.degree == d, f"{v} on a generic planarization")
            checks.check_independent(F)

        return check

    # planarizations: generic quadratics to RP^3, a generic cubic to RP^4
    q3 = [inp.generic(rng, 2, 3) for _ in range(4)]
    c4 = inp.generic(rng, 3, 4)
    for i, (F, M) in enumerate(q3):
        classify_op(f"classify-q3-{i}", M, rational_check(F, 2))
    classify_op("classify-c4", c4[1], rational_check(c4[0], 3))
    c4_dual_only = inp.generic(rng, 3, 4)

    # planted Trivial: the last component is a combination of the others
    base = corpus.random_map(rng, 2, 2)
    coef = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)]
    last: dict = {}
    for c, comp in zip(coef, base):
        last = corpus.p_add(last, comp, c)
    trivial = base + [last]
    trivial_m = inp.ratmap(trivial)

    def trivial_check(v):
        require(kind(v) == "Trivial", f"{kind(v)} on a planted Trivial map")
        checks.check_trivial(v.hyperplane.covector, trivial)

    classify_op("classify-trivial", trivial_m, trivial_check)

    # planted CoTrivial: T∘Segre∘A
    cotrivial = []
    for i in range(2):
        A = corpus.collineation(rng)
        T = corpus.collineation(rng, size=4, lo=-2, hi=2)
        F = corpus.apply_target(T, corpus.compose(corpus.SEGRE, corpus.linear_map(A)))
        cotrivial.append((F, inp.ratmap(F), T))

        def cotrivial_check(v, T=T):
            require(kind(v) == "CoTrivial", f"{kind(v)} on a planted CoTrivial map")
            checks.check_cotrivial(v.center.coords, T)

        classify_op(f"classify-cotrivial-{i}", cotrivial[-1][1], cotrivial_check)

    # not planarizations: cubic to RP^3, quadratics to RP^2, RP^4, RP^5
    nonplanar = {}
    for label, d, n in (("c3", 3, 3), ("q2", 2, 2), ("q4", 2, 4), ("q5", 2, 5)):
        F, M = inp.generic(rng, d, n)
        nonplanar[label] = (F, M)
        classify_op(
            f"classify-{label}", M, lambda v, F=F: checks.check_not_planar(kind(v), F, seed)
        )

    # duals and biduals
    for i, (F, M) in enumerate(q3):

        def dual_twice(M=M):
            D = dualize.dual_map(M, seed=seed)
            return D, dualize.dual_map(D, seed=seed)

        def dual_check(result, F=F):
            D, B = (checks.terms_of(m) for m in result)
            checks.check_dual(F, D, seed)
            checks.check_dual_degree(D, 3)
            require(checks.projectively_equal(B, F), "bidual differs from the map")

        ops.append(Op("dual_s", f"bidual-q3-{i}", dual_twice, dual_check))

    for i, (F, M) in enumerate((c4, c4_dual_only)):

        def c4_check(D, F=F):
            D = checks.terms_of(D)
            checks.check_dual(F, D, seed)
            checks.check_dual_degree(D, 4)

        ops.append(Op("dual_s", f"dual-c4-{i}", lambda M=M: dualize.dual_map(M, seed=seed), c4_check))

    # the same verdicts through the command line
    def report_class(expected, extra=None):
        def check(report):
            require(report["class"] == expected, f"CLI class {report['class']}, expected {expected}")
            if extra:
                extra(report)

        return check

    def map_file(name, F):
        return inp.write(f"{name}.json", json.dumps(corpus.map_json(F)))

    for i, (F, _) in enumerate(q3):
        path = map_file(f"q3-{i}", F)
        ops.append(inp.cli_op(f"cli-classify-q3-{i}", ["classify", "--in", path], report_class("Rational")))
        if i < 2:

            def dualize_check(report, F=F):
                D = checks.map_from_json(report["dual"])
                require(report["degree"] == checks.degree(D), "reported degree differs from the dual's")
                checks.check_dual(F, D, seed)

            ops.append(inp.cli_op(f"cli-dualize-q3-{i}", ["dualize", "--in", path], dualize_check))
    for i, (F, _, T) in enumerate(cotrivial):
        ops.append(
            inp.cli_op(
                f"cli-classify-cotrivial-{i}",
                ["classify", "--in", map_file(f"cotrivial-{i}", F)],
                report_class("CoTrivial", lambda r, T=T: checks.check_cotrivial(r["witness"], T)),
            )
        )
    ops.append(
        inp.cli_op(
            "cli-classify-trivial",
            ["classify", "--in", map_file("trivial", trivial)],
            report_class("Trivial", lambda r: checks.check_trivial(r["witness"], trivial)),
        )
    )
    ops.append(
        inp.cli_op(
            "cli-classify-q2",
            ["classify", "--in", map_file("q2", nonplanar["q2"][0])],
            lambda r: checks.check_not_planar(r["class"], nonplanar["q2"][0], seed),
            code=2,
        )
    )
    return ops + probe(inp)


# ---------------------------------------------------------------------------
# fit: reconstruction from samples
# ---------------------------------------------------------------------------


def _grid_map(rng, axis: list) -> list:
    """A generic quadratic to RP^3 whose F_0 has no zero on the grid."""
    while True:
        F = corpus.random_map(rng, 2, 3)
        if all(corpus.evaluate(F[:1], (1, u, v))[0] for u in axis for v in axis):
            return F


def fit(inp: Inputs) -> list:
    pz, seed = inp.pz, inp.seed
    rng = corpus.rng_for(seed, "fit")
    ratfit = pz.ratfit
    ExactMapSource, CallableSource = pz.jetplan.ExactMapSource, pz.jetplan.CallableSource
    ops = []

    def model_check(F):
        return lambda m: checks.check_model(checks.terms_of(m), F)

    # exact sources: evaluation-bound
    for label, d, n in (("q3-0", 2, 3), ("q3-1", 2, 3), ("c3", 3, 3)):
        F, M = inp.generic(rng, d, n)
        ops.append(
            Op("fit_s", f"fit-exact-{label}", lambda M=M, d=d: ratfit.fit_map(ExactMapSource(M), d, seed=seed), model_check(F))
        )
    F, _ = inp.generic(rng, 2, 3)
    black_box = homogeneous_fn(F)
    ops.append(
        Op(
            "fit_s",
            "fit-callable-q3",
            lambda: ratfit.fit_map(CallableSource(black_box, codim=3, mode="exact"), 2, seed=seed),
            model_check(F),
        )
    )

    # exact CSV grids through the command line: lookup-bound
    axes = {
        "int": [Fraction(k) for k in range(11)],
        "third": [Fraction(k, 3) + Fraction(1, 5) for k in range(11)],
    }
    for name, axis in axes.items():
        G = _grid_map(rng, axis)
        path = inp.write(f"grid-{name}.csv", corpus.grid_csv(corpus.affine_fn(G), axis, axis))
        ops.append(
            inp.cli_op(
                f"cli-fit-{name}",
                ["fit", "--in", path, "--degree", "2"],
                lambda r, G=G, n=len(axis) ** 2: checks.check_fit_report(r, G, n),
            )
        )

    # sphere maps taking lines to circles: callable sources
    for i in range(2):
        R = corpus.rotation(rng)
        ops.append(_khovanskii_op(inp, f"khovanskii-stereo-{i}", corpus.stereo_fn(R), _sphere_check(R)))
    R = corpus.rotation(rng)
    ops.append(_khovanskii_op(inp, "khovanskii-circle", corpus.great_circle_fn(R), _plane_check(R)))

    # sphere maps as CSV grids through the command line, one in float mode
    R = corpus.rotation(rng)
    axis = [Fraction(k) for k in range(11)]
    path = inp.write("sphere-stereo.csv", corpus.grid_csv(corpus.stereo_fn(R), axis, axis))

    def cli_sphere(report, R=R):
        require(report["case"] == "Quadratic", f"CLI case {report['case']} on a stereographic grid")
        checks.check_model(checks.map_from_json(report["witness"]), corpus.stereographic(R))

    ops.append(inp.cli_op("cli-khovanskii-stereo", ["khovanskii", "--in", path], cli_sphere))

    R = corpus.rotation(rng)
    axis = [Fraction(k, 2) for k in range(11)]
    path = inp.write("sphere-circle.csv", corpus.grid_csv(corpus.great_circle_fn(R), axis, axis))

    def cli_circle(report, R=R):
        require(report["case"] == "InCircle", f"CLI case {report['case']} on a great-circle grid")
        checks.check_plane(report["witness"], corpus.plane_of_rotated_equator(R))

    ops.append(inp.cli_op("cli-khovanskii-circle", ["khovanskii", "--in", path], cli_circle))

    R = corpus.rotation(rng)
    axis = [k / 10.0 for k in range(16)]
    float_fn = corpus.great_circle_float_fn(R)
    path = inp.write("sphere-float.csv", corpus.grid_csv(float_fn, axis, axis, fmt=repr))
    samples = [float_fn(u, v) for v in axis for u in axis]
    tol = pz.conicweb.SPHERE_RTOL

    def cli_float(report):
        require(report["case"] == "InCircle", f"CLI case {report['case']} on a float great-circle grid")
        checks.check_float_plane(report["witness"], samples, tol)

    ops.append(inp.cli_op("cli-khovanskii-float", ["khovanskii", "--in", path, "--mode", "float"], cli_float))
    return ops + probe(inp)


# ---------------------------------------------------------------------------
# web: maps taking lines to conics of a web
# ---------------------------------------------------------------------------


def web(inp: Inputs) -> list:
    pz, seed = inp.pz, inp.seed
    rng = corpus.rng_for(seed, "web")
    cw = pz.conicweb
    circle = inp.system(corpus.CIRCLE_WEB)
    origin_web = inp.system(corpus.ORIGIN_WEB)
    origin_net = inp.system(corpus.ORIGIN_NET)
    ops = []

    def planted(base):
        A = corpus.collineation(rng)
        F = corpus.compose(base, corpus.linear_map(A))
        return F, inp.ratmap(F)

    def quadric_check(f):
        def check(v):
            require(kind(v) == "QuadricFactor", f"{kind(v)} on inversion∘A")
            Q, Phi, comp = (checks.terms_of(x) for x in (v.quadric, v.system_map, v.composite))
            require(checks.projectively_equal(Phi, corpus.CIRCLE_WEB), "system map is not the web's")
            require(
                checks.projectively_equal(comp, corpus.compose(corpus.CIRCLE_WEB, f)),
                "composite is not web∘f",
            )
            checks.check_quadric(Q, Phi, comp)

        return check

    for i in range(2):
        f, m = planted(corpus.INVERSION)
        ops.append(Op("web_s", f"web-quadric-{i}", lambda m=m: cw.classify_web(m, circle, seed=seed), quadric_check(f)))

    for i in range(2):
        f, m = planted(corpus.INVERSION)

        def inverse_check(v, f=f):
            require(kind(v) == "InverseQuadratic", f"{kind(v)} on inversion∘A in the origin web")
            checks.check_inverse(checks.terms_of(v.witness), f, seed)

        ops.append(Op("web_s", f"web-inverse-{i}", lambda m=m: cw.classify_web(m, origin_web, seed=seed), inverse_check))

    f, m = planted(corpus.IN_CONIC)

    def conic_check(v, f=f):
        require(kind(v) == "InConic", f"{kind(v)} on a map into one conic")
        checks.check_in_conic(v.member.coords, corpus.CIRCLE_WEB, f)

    ops.append(Op("web_s", "web-inconic", lambda m=m: cw.classify_web(m, circle, seed=seed), conic_check))

    A = corpus.collineation(rng)
    m = inp.ratmap(corpus.linear_map(A))

    def deg1_check(v, A=A):
        require(kind(v) == "Quadratic", f"{kind(v)} on a collineation")
        checks.check_model(checks.terms_of(v.map), corpus.linear_map(A))

    ops.append(Op("web_s", "web-degree1", lambda m=m: cw.classify_web(m, circle, seed=seed), deg1_check))

    # classify_web on a sampled (CallableSource) map is left out: it raises
    # TooFewSamples on the seeds whose screening lines include x0 = 0 (see
    # CHANGES.md), and no operation may fail on some seeds only
    for i in range(2):
        f, m = planted(corpus.INVERSION)
        ops.append(
            Op(
                "web_s",
                f"invert-net-{i}",
                lambda m=m: cw.invert_via_net(m, origin_net, seed=seed),
                lambda W, f=f: checks.check_inverse(checks.terms_of(W), f, seed),
            )
        )

    # implicitize: circle-web map, a web map of image degree 4, a generic quadratic
    for label, base, k in (("circle", corpus.CIRCLE_WEB, 2), ("origin", corpus.ORIGIN_WEB, 4)):
        F, M = planted(base)
        ops.append(_implicitize_op(inp, f"implicitize-{label}", F, M, k))
    F, M = inp.generic(rng, 2, 3)
    ops.append(_implicitize_op(inp, "implicitize-q3", F, M))

    # the command line on the same kinds of input
    wpath = inp.write("circle-web.json", json.dumps(corpus.system_json(corpus.CIRCLE_WEB)))

    def cli_quadric(report, f):
        require(report["case"] == "QuadricFactor", f"CLI case {report['case']} on inversion∘A")
        w = report["witness"]
        Q = checks.form_from_json(w["quadric"])
        Phi, comp = checks.map_from_json(w["system_map"]), checks.map_from_json(w["composite"])
        require(checks.projectively_equal(comp, corpus.compose(corpus.CIRCLE_WEB, f)), "composite is not web∘f")
        checks.check_quadric(Q, Phi, comp)

    def cli_conic(report, f):
        require(report["case"] == "InConic", f"CLI case {report['case']} on a map into one conic")
        checks.check_in_conic(report["witness"], corpus.CIRCLE_WEB, f)

    def cli_deg1(report, f):
        require(report["case"] == "Quadratic", f"CLI case {report['case']} on a collineation")
        checks.check_model(checks.map_from_json(report["witness"]), f)

    identity = corpus.linear_map([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    web_inputs = [(f"quadric-{i}", corpus.INVERSION, cli_quadric) for i in range(3)]
    web_inputs += [(f"inconic-{i}", corpus.IN_CONIC, cli_conic) for i in range(2)]
    web_inputs += [(f"degree1-{i}", identity, cli_deg1) for i in range(2)]
    for label, base, check in web_inputs:
        f, _ = planted(base)
        fpath = inp.write(f"web-{label}.json", json.dumps(corpus.map_json(f)))
        ops.append(
            inp.cli_op(
                f"cli-web-classify-{label}",
                ["web-classify", "--in", fpath, "--web", wpath],
                lambda r, f=f, check=check: check(r, f),
            )
        )

    for label, base, k in [(f"circle-{i}", corpus.CIRCLE_WEB, 2) for i in range(2)] + [
        (f"origin-{i}", corpus.ORIGIN_WEB, 4) for i in range(2)
    ]:
        F, _ = planted(base)
        ipath = inp.write(f"{label}-map.json", json.dumps(corpus.map_json(F)))

        def cli_implicitize(report, F=F, k=k):
            require(report["degree"] == k, f"CLI relation degree {report['degree']}, planted {k}")
            checks.check_relation(F, k, checks.form_from_json(report["relation"]))

        ops.append(inp.cli_op(f"cli-implicitize-{label}", ["implicitize", "--in", ipath, "--kmax", "4"], cli_implicitize))
    return ops + probe(inp)


WORKLOADS = {"planar": planar, "fit": fit, "web": web}
