"""Linear systems of conics and maps taking lines to conics.

A linear system is spanned by independent quadratic forms; its map sends a
point to the tuple of basis values, turning conic membership of image
curves into hyperplane membership after composition.  On top of that sit
the per-line conic finder, the web classifier (which routes through the
planarization trichotomy), inversion through a net, and the classification
of sphere-valued maps taking lines to circles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import dualize, projcore, ratfit
from .dualize import CoTrivial, Indeterminate, Rational, Trivial
from .jetplan import CallableSource, ExactMapSource, GridMapSource
from .poly import (
    HPoly,
    RatMap,
    fiber_count,
    implicitize,
    line_base_points,
    reduce_map,
    variables,
    NonGenericTarget,
)
from .projcore import Hyperplane, PLine2, PPoint
from .ratfit import ChartOverflow, DegreeTooLow
from .seeding import stable_rng

#: float-mode tolerance on |x|^2 - 1 for sphere samples
SPHERE_RTOL = 1e-9
#: float-mode relative residual of W∘f against the identity in net inversion
INVERSE_RTOL = 1e-6


class DependentBasis(ValueError):
    """The quadratic forms spanning a linear system are dependent."""


class TooFewSamples(ValueError):
    """A line did not yield enough evaluable sample points."""


class NotALinesToCurvesMap(ValueError):
    """The screening lines found no containing conic for some line."""


class NotCollinear(ValueError):
    """The net composite fails the collineation precondition."""


class ProjectiveFitFailed(ValueError):
    """The net composite did not fit a projective transformation."""


class NotOnSphere(ValueError):
    """A sample strays from the unit sphere."""


class DegreeAnomaly(ValueError):
    """A sphere-valued lines-to-circles map fitted at degree three,
    contradicting the classification; report rather than accept."""


class ConicSystem:
    """Linear system of conics spanned by independent quadratic forms."""

    __slots__ = ("basis",)

    def __init__(self, basis: Sequence[HPoly]):
        basis = tuple(basis)
        if not basis:
            raise DependentBasis("empty basis")
        for q in basis:
            if q.nvars != 3 or q.degree != 2:
                raise ValueError("conics are quadratic forms in three variables")
        monos = sorted({e for q in basis for e in q.terms})
        matrix = [[q.terms.get(m, 0) for m in monos] for q in basis]
        if projcore.rank(matrix) != len(basis):
            raise DependentBasis("basis forms are linearly dependent")
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, *a):
        raise AttributeError("ConicSystem is immutable")

    @property
    def dimension(self) -> int:
        """Projective dimension: 1 pencil, 2 net, 3 web."""
        return len(self.basis) - 1

    def conic(self, lam: Sequence) -> HPoly:
        """The member with system coordinates lam."""
        if len(lam) != len(self.basis):
            raise ValueError("wrong coordinate count")
        out = HPoly.zero(3, 2)
        for c, q in zip(lam, self.basis):
            out = out + Fraction(c) * q
        return out

    def to_json(self) -> dict:
        return {"dimension": self.dimension, "basis": [q.to_json() for q in self.basis]}

    @classmethod
    def from_json(cls, data: dict) -> "ConicSystem":
        if not (isinstance(data, dict) and isinstance(data.get("basis"), list)):
            raise ValueError("a conic system is a JSON object with a list of basis forms")
        sys = cls([HPoly.from_json(q) for q in data["basis"]])
        if "dimension" in data and int(data["dimension"]) != sys.dimension:
            raise ValueError("dimension field disagrees with basis size")
        return sys


def circle_web() -> ConicSystem:
    """The web of circles (in the chart x0 = 1) plus degenerate members."""
    x0, x1, x2 = variables(3)
    return ConicSystem([x0 * x0, x0 * x1, x0 * x2, x1 * x1 + x2 * x2])


def phi_map(sys: ConicSystem) -> RatMap:
    """The rational map whose components are the system's basis forms."""
    return reduce_map(list(sys.basis))


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _points_on_line(line: PLine2, count: int) -> list[tuple[int, ...]]:
    p0, p1 = line_base_points(line)
    ts = [0]
    k = 1
    while len(ts) < 3 * count + 4:
        ts.extend([k, -k])
        k += 1
    pts = []
    for t in ts:
        w = tuple(a + t * b for a, b in zip(p0, p1))
        if any(w):
            pts.append(w)
    pts.append(tuple(p1))
    return pts


def _eval_projective(f_src, w: Sequence):
    """Evaluate a map source at a projective domain point (exact sources
    anywhere; chart-bound sources only at finite points)."""
    if isinstance(f_src, ExactMapSource):
        return f_src.ratmap.evaluate([Fraction(x) for x in w])
    if w[0] == 0:
        return None
    u = Fraction(w[1], w[0]) if f_src.mode == "exact" else w[1] / w[0]
    v = Fraction(w[2], w[0]) if f_src.mode == "exact" else w[2] / w[0]
    return f_src.evaluate(u, v)


def lines_to_curves(
    f_src,
    sys: ConicSystem,
    lines: Sequence[PLine2],
    samples_per_line: Optional[int] = None,
) -> list[Optional[PPoint]]:
    """Per-line containing conic (system coordinates), or None.

    For each line, at least dim+3 image samples are taken and the matrix of
    basis-form values must drop rank exactly (float mode: relative tolerance)
    for a conic to be reported.
    """
    k = sys.dimension
    m = samples_per_line if samples_per_line is not None else k + 4
    if m < k + 3:
        raise ValueError("need at least dim + 3 samples per line")
    out: list[Optional[PPoint]] = []
    for line in lines:
        rows = []
        for w in _points_on_line(line, m):
            img = _eval_projective(f_src, w)
            if img is None:
                continue
            rows.append([q.evaluate(list(img)) for q in sys.basis])
            if len(rows) >= m:
                break
        if len(rows) < m:
            raise TooFewSamples(f"line {line.covector} yielded {len(rows)} samples")
        if f_src.mode == "exact":
            basis = projcore.nullspace(rows)
            out.append(PPoint.of(basis[0]) if basis else None)
        else:
            fm = [[float(x) for x in r] for r in rows]
            if projcore.float_rank(fm) <= k:
                vec = projcore.float_nullvector(fm)
                out.append(PPoint(projcore.rationalize_direction(vec)))
            else:
                out.append(None)
    return out


# ---------------------------------------------------------------------------
# web classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InConic:
    """The image sits inside one member of the system."""

    member: PPoint


@dataclass(frozen=True)
class InverseQuadratic:
    """The map inverts a quadratic rational map (the witness) locally."""

    witness: RatMap


@dataclass(frozen=True)
class Quadratic:
    """The map itself is rational of degree at most two."""

    map: RatMap


@dataclass(frozen=True)
class QuadricFactor:
    """Both the system map and the composite land on one quadric surface."""

    quadric: HPoly
    system_map: RatMap
    composite: RatMap


@dataclass(frozen=True)
class Unresolved:
    reason: str


WebCase = Union[InConic, InverseQuadratic, Quadratic, QuadricFactor, Unresolved]


def _screen_lines(seed: int, count: int = 25) -> list[PLine2]:
    rng = stable_rng(seed, "web_screen")
    lines = []
    while len(lines) < count:
        cov = tuple(rng.randint(-9, 9) for _ in range(3))
        if cov[1] == cov[2] == 0:
            # the zero covector, or the line x0 = 0, on which a source bound
            # to the affine chart has no point
            continue
        lines.append(PLine2.of(cov))
    return lines


def _composite_source(f_src, web: ConicSystem):
    def fn(u, v):
        img = f_src.evaluate(u, v)
        if img is None:
            return None
        vals = tuple(q.evaluate(list(img)) for q in web.basis)
        if all(x == 0 for x in vals):
            return None
        return vals

    return CallableSource(fn, codim=web.dimension, mode=f_src.mode)


def net_through(web: ConicSystem, center: PPoint) -> ConicSystem:
    """The net of web members whose composite hyperplanes pass through the
    center: one linear condition on the system coordinates."""
    if web.dimension != 3:
        raise ValueError("expected a web")
    basis = projcore.nullspace([list(center.coords)])
    psis = []
    for mu in basis:
        psi = HPoly.zero(3, 2)
        for c, q in zip(mu, web.basis):
            psi = psi + c * q
        psis.append(psi.canonical())
    return ConicSystem(psis)


def classify_web(f, web: ConicSystem, seed: int = 0) -> WebCase:
    """Sort a lines-to-web-conics map into its structural case.

    The composite of the system map with f is classified by the
    planarization trichotomy; the verdict then routes to: image inside one
    conic; f itself of degree one (reported as the degree-<=2 rational case
    with the recovered map); both maps onto a common quadric; a local
    inverse of a quadratic map through the induced net; or the degree-<=2
    rational case checked by birationality of the system map.
    """
    if web.dimension != 3:
        raise ValueError("classification needs a web (dimension 3)")
    rational = isinstance(f, RatMap)
    f_src = ExactMapSource(f) if rational else f

    verdicts = lines_to_curves(f_src, web, _screen_lines(seed))
    if any(v is None for v in verdicts):
        raise NotALinesToCurvesMap("a screening line has no containing conic")

    if rational:
        F = reduce_map([q.substitute(list(f.components)) for q in web.basis])
    else:
        F = ratfit.fit_map(_composite_source(f_src, web), 3, seed=seed)
    Phi = phi_map(web)

    verdict = dualize.classify(F, seed=seed)
    if isinstance(verdict, Trivial):
        return InConic(PPoint(verdict.hyperplane.covector))
    if isinstance(verdict, Indeterminate):
        return Unresolved(verdict.reason)

    # a collineation input degenerates every other case; report the
    # degree-1 map under the rational-case variant
    f_deg1: Optional[RatMap] = None
    if rational:
        if f.degree == 1:
            f_deg1 = f
    else:
        try:
            f_deg1 = ratfit.fit_map(f_src, 1, seed=seed)
        except (DegreeTooLow, ChartOverflow):
            f_deg1 = None
    if f_deg1 is not None:
        return Quadratic(f_deg1)

    imp = implicitize(Phi, 4)
    if imp is not None and imp[0] == 2:
        Q = imp[1]
        on_quadric_phi = Q.substitute(list(Phi.components)).is_zero
        on_quadric_F = Q.substitute(list(F.components)).is_zero
        if on_quadric_phi and on_quadric_F and F.degree <= 2:
            return QuadricFactor(Q, Phi, F)
        return Unresolved("image surface is a quadric but the composite fails its checks")

    if isinstance(verdict, CoTrivial):
        net = net_through(web, verdict.center)
        try:
            W = invert_via_net(f if rational else f_src, net, seed=seed)
        except (NotCollinear, ProjectiveFitFailed, DegreeTooLow) as exc:
            return Unresolved(str(exc))
        return InverseQuadratic(W)

    # rational branch: confirm the system map is birational onto its image
    rng = stable_rng(seed, "web_fibers")
    checked = 0
    attempts = 0
    while checked < 5 and attempts < 60:
        attempts += 1
        x = tuple(rng.randint(-9, 9) for _ in range(3))
        if x == (0, 0, 0):
            continue
        y = Phi.evaluate(x)
        if y is None:
            continue
        try:
            n = fiber_count(Phi, PPoint.of(y), seed=seed + attempts)
        except NonGenericTarget:
            continue
        if n != 1:
            return Unresolved(f"system map has fiber count {n} at a generic target")
        checked += 1
    if checked < 5:
        return Unresolved("birationality of the system map could not be confirmed")
    if rational:
        f_rec = f
    else:
        try:
            f_rec = ratfit.fit_map(f_src, 2, seed=seed)
        except (DegreeTooLow, ChartOverflow) as exc:
            return Unresolved(f"direct recovery failed: {exc}")
    if f_rec.degree <= 2:
        return Quadratic(f_rec)
    return Unresolved(f"recovered map has degree {f_rec.degree} > 2")


# ---------------------------------------------------------------------------
# inversion through a net
# ---------------------------------------------------------------------------


def _matrix_of_linear_map(P: RatMap) -> list[list[Fraction]]:
    if P.degree != 1:
        raise ProjectiveFitFailed("expected a degree-1 map")
    mat = []
    for comp in P.components:
        row = []
        for j in range(3):
            e = [0, 0, 0]
            e[j] = 1
            row.append(comp.terms.get(tuple(e), 0))
        mat.append(row)
    return mat


def _adjugate3(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    # the cofactor rows of a 3x3 matrix are cross products of its other rows
    cof = [projcore.cross(m[1], m[2]), projcore.cross(m[2], m[0]), projcore.cross(m[0], m[1])]
    return [list(col) for col in zip(*cof)]


def invert_via_net(f, net: ConicSystem, seed: int = 0) -> RatMap:
    """The quadratic map W with W∘f = id, through a net of conics.

    Precondition (validated): the net map composed with f is a collineation
    on the sampled region.  W is the net map precomposed with the inverse of
    the fitted projective transformation; the identity W(f(x)) = x is
    checked projectively at 20 samples.
    """
    if net.dimension != 2:
        raise ValueError("inversion needs a net (dimension 2)")
    rational = isinstance(f, RatMap)
    f_src = ExactMapSource(f) if rational else f
    Phin = phi_map(net)

    if rational:
        comp = Phin.after(f)
        comp_src = ExactMapSource(comp)
    else:

        def fn(u, v):
            img = f_src.evaluate(u, v)
            if img is None:
                return None
            return Phin.evaluate(list(img))

        comp_src = CallableSource(fn, codim=2, mode=f_src.mode)

    # 10 sampled lines must map to collinear point sets
    rng = stable_rng(seed, "net_collinear")
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 200:
        attempts += 1
        cov = tuple(rng.randint(-9, 9) for _ in range(3))
        if cov == (0, 0, 0):
            continue
        rows = []
        for w in _points_on_line(PLine2.of(cov), 5):
            img = _eval_projective(comp_src, w)
            if img is None:
                continue
            rows.append(list(img))
            if len(rows) >= 5:
                break
        if len(rows) < 5:
            continue
        if f_src.mode == "exact":
            if projcore.rank(rows) > 2:
                raise NotCollinear(f"images of line {cov} are not collinear")
        else:
            if projcore.float_rank([[float(x) for x in r] for r in rows]) > 2:
                raise NotCollinear(f"images of line {cov} are not collinear")
        checked += 1
    if checked < 10:
        raise NotCollinear("not enough usable lines for the collineation check")

    try:
        P = ratfit.fit_map(comp_src, 1, seed=seed)
    except (DegreeTooLow, ChartOverflow) as exc:
        raise ProjectiveFitFailed(str(exc)) from exc
    mat = _matrix_of_linear_map(P)
    if projcore.det(mat) == 0:
        raise ProjectiveFitFailed("fitted transformation is singular")
    adj = _adjugate3(mat)
    comps = []
    for i in range(3):
        acc = HPoly.zero(3, Phin.degree)
        for j in range(3):
            acc = acc + adj[i][j] * Phin.components[j]
        comps.append(acc)
    W = reduce_map(comps)

    rng = stable_rng(seed, "net_inverse_validate")
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 400:
        attempts += 1
        w = tuple(rng.randint(-9, 9) for _ in range(3))
        if w == (0, 0, 0):
            continue
        fx = _eval_projective(f_src, w)
        if fx is None:
            continue
        wx = W.evaluate([Fraction(x) for x in fx]) if f_src.mode == "exact" else W.evaluate(
            [Fraction(float(x)).limit_denominator(10**9) for x in fx]
        )
        if wx is None:
            continue
        if f_src.mode == "exact":
            for i in range(3):
                for j in range(i + 1, 3):
                    if wx[i] * Fraction(w[j]) != wx[j] * Fraction(w[i]):
                        raise ProjectiveFitFailed("W∘f is not the identity")
        else:
            nw = max(abs(float(x)) for x in wx) or 1.0
            nx = max(abs(float(x)) for x in w) or 1.0
            for i in range(3):
                for j in range(i + 1, 3):
                    resid = abs(float(wx[i]) * w[j] - float(wx[j]) * w[i]) / (nw * nx)
                    if resid > INVERSE_RTOL:
                        raise ProjectiveFitFailed(
                            f"W∘f deviates from the identity by {resid:.2e}"
                        )
        checked += 1
    if checked < 20:
        raise ProjectiveFitFailed("not enough points to validate the inverse")
    return W


# ---------------------------------------------------------------------------
# sphere-valued maps taking lines to circles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InCircle:
    """The whole image lies in one circle (sphere section by a plane)."""

    plane: Hyperplane


def khovanskii_classify(f_src, seed: int = 0):
    """Classify a sphere-valued map that takes lines to circles.

    The sphere embeds in RP^3 by prepending 1; circles are plane sections.
    The trivial case (image inside one plane) is decided directly on exact
    samples; otherwise a rational model of degree <= 3 is fitted and the
    planarization trichotomy maps to InCircle / CoTrivial / Quadratic.  A
    degree-3 rational verdict contradicts the classification and raises
    DegreeAnomaly rather than being silently accepted.
    """
    if f_src.codim != 3:
        raise ValueError("expected a map into 3-space")
    exact = f_src.mode == "exact"
    # the sphere in RP^3: a grid already evaluates to (1, x, y, z)
    if isinstance(f_src, GridMapSource):
        emb = f_src
        pts = [(u, v) for v in f_src.v_axis for u in f_src.u_axis]
    else:
        one = Fraction(1) if exact else 1.0

        def embedded(u, v):
            val = f_src.evaluate(u, v)
            return None if val is None else (one, *val)

        emb = CallableSource(embedded, codim=3, mode=f_src.mode)
        # the centres of the 6x6 cells of the unit square
        ts = [Fraction(2 * i + 1, 12) if exact else (2 * i + 1) / 12.0 for i in range(6)]
        pts = [(u, v) for u in ts for v in ts]
    samples = [val[1:] for val in (emb.evaluate(u, v) for u, v in pts) if val is not None]
    if len(samples) < 8:
        raise TooFewSamples("not enough sphere samples")
    for x, y, z in samples:
        norm = x * x + y * y + z * z
        if exact:
            if norm != 1:
                raise NotOnSphere(f"sample at distance^2 {norm} from 1")
        elif abs(float(norm) - 1.0) > SPHERE_RTOL:
            raise NotOnSphere(f"sample off the sphere by {abs(float(norm)-1.0):.2e}")

    rows = [[1, x, y, z] for x, y, z in samples]
    if exact:
        basis = projcore.nullspace(rows)
        if basis:
            return InCircle(Hyperplane.of(basis[0]))
    else:
        if projcore.float_rank([[float(c) for c in r] for r in rows]) < 4:
            vec = projcore.float_nullvector([[float(c) for c in r] for r in rows])
            return InCircle(Hyperplane(projcore.rationalize_direction(vec)))

    model = None
    last_exc = None
    for d in (1, 2, 3):
        try:
            model = ratfit.fit_map(emb, d, seed=seed)
            break
        except (DegreeTooLow, ChartOverflow) as exc:
            last_exc = exc
    if model is None:
        raise DegreeTooLow(f"no rational model of degree <= 3 fits: {last_exc}")
    verdict = dualize.classify(model, seed=seed)
    if isinstance(verdict, Trivial):
        return InCircle(verdict.hyperplane)
    if isinstance(verdict, CoTrivial):
        # the cases overlap: a quadratic rational sphere map can also be
        # co-trivial (stereographic images all pass through the pole);
        # the recovered quadratic map is the stronger verdict
        if model.degree <= 2:
            return Quadratic(model)
        return verdict
    if isinstance(verdict, Rational):
        if model.degree <= 2:
            return Quadratic(model)
        raise DegreeAnomaly(
            "rational verdict at degree 3 violates the lines-to-circles classification"
        )
    raise DegreeAnomaly(f"unclassifiable sphere map: {verdict.reason}")
