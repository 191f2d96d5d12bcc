"""Linear systems of conics and maps taking lines to conics.

A linear system is spanned by independent quadratic forms; its map sends a
point to the tuple of basis values, turning conic membership of image
curves into hyperplane membership after composition.  On top of that sit
the per-line conic finder (an exact map's coefficient rows on the line),
the web classifier (which routes through the planarization trichotomy,
whose certified dual also decides whether the map takes lines to web
conics at all), inversion through a net (checked as an identity of maps),
and the classification of sphere-valued maps taking lines to circles.  The
web classifier and net inversion work on exact maps only: a sampled source
is first fitted once as a rational map of degree at most three.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import dualize, projcore, ratfit
from .dualize import CoTrivial, Indeterminate, Trivial
from .jetplan import CallableSource, ExactMapSource, GridMapSource
from .poly import (
    HPoly,
    RatMap,
    _line_rows,
    implicitize,
    line_base_points,
    reduce_map,
    variables,
)
from .projcore import Hyperplane, PLine2, PPoint
from .ratfit import ChartOverflow, DegreeTooLow

#: float-mode tolerance on |x|^2 - 1 for sphere samples
SPHERE_RTOL = 1e-9


class DependentBasis(ValueError):
    """The quadratic forms spanning a linear system are dependent."""


class TooFewSamples(ValueError):
    """A line lies in the indeterminacy locus: the map restricted to it is zero."""


class NotALinesToCurvesMap(ValueError):
    """Some line is taken into no conic of the system: the dual of the web
    composite shows it is no planarization."""


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
        dimension = data.get("dimension", sys.dimension)
        # poly._json_int's rule: a JSON integer, not a bool, float, string or null
        if type(dimension) is not int:
            raise ValueError(f"dimension must be an integer, got {dimension!r}")
        if dimension != sys.dimension:
            raise ValueError("dimension field disagrees with basis size")
        return sys


def circle_web() -> ConicSystem:
    """The web of circles (in the chart x0 = 1) plus degenerate members."""
    x0, x1, x2 = variables(3)
    return ConicSystem([x0 * x0, x0 * x1, x0 * x2, x1 * x1 + x2 * x2])


def phi_map(sys: ConicSystem) -> RatMap:
    """The rational map whose components are the system's basis forms."""
    return reduce_map(list(sys.basis))


def lines_to_curves(f_src, sys: ConicSystem, lines: Sequence[PLine2]) -> list[Optional[PPoint]]:
    """Per-line containing conic (system coordinates), or None.

    On each line the exact map of degree d is its d+1 coefficient rows
    (`poly._line_rows`), read as d+1 binary forms; the basis quadrics are
    composed with those forms, and the conic is the null direction of the
    2d+1 coefficient rows of the composites, exact at any degree.  A line
    in the indeterminacy locus has only zero rows and raises TooFewSamples.
    Only an exact source has rows: any other source raises TypeError.
    """
    if not isinstance(f_src, ExactMapSource):
        raise TypeError("lines_to_curves needs an exact rational map")
    F = f_src.ratmap
    d = F.degree
    comps = [c.terms for c in F.components]
    out: list[Optional[PPoint]] = []
    for line in lines:
        rows = _line_rows(comps, *line_base_points(line), d)
        if not any(map(any, rows)):
            raise TooFewSamples(f"line {line.covector} yielded 0 samples")
        forms = [HPoly(2, d, {(d - r, r): row[i] for r, row in enumerate(rows)}) for i in range(len(comps))]
        composed = [q.substitute(forms) for q in sys.basis]
        coefficients = [[c.terms.get((2 * d - j, j), 0) for c in composed] for j in range(2 * d + 1)]
        direction = projcore.null_direction(coefficients, True)
        out.append(None if direction is None else PPoint(direction))
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


WebCase = Union[InConic, InverseQuadratic, Quadratic, QuadricFactor]


def net_through(web: ConicSystem, center: PPoint) -> ConicSystem:
    """The net of web members whose composite hyperplanes pass through the
    center: one linear condition on the system coordinates."""
    if web.dimension != 3:
        raise ValueError("expected a web")
    basis = projcore._nullspace_int([list(center.coords)])
    psis = []
    for mu in basis:
        psi = HPoly.zero(3, 2)
        for c, q in zip(mu, web.basis):
            psi = psi + c * q
        psis.append(psi.canonical())
    return ConicSystem(psis)


def classify_web(f, web: ConicSystem, seed: int = 0) -> WebCase:
    """Sort a lines-to-web-conics map into its structural case.

    A sampled f is first fitted as a rational map of degree at most three;
    a fit failure (DegreeTooLow, ChartOverflow) propagates.  f takes a line
    into a web conic exactly when the composite F of the system map with f
    takes it into a plane, so F's dual decides whether f takes lines to web
    conics at all: F is composed and its dual certified, and a dual that
    shows F is no planarization raises NotALinesToCurvesMap.  The
    trichotomy of F then routes to: image inside one conic (Trivial); f
    itself of degree one (reported as the degree-<=2 rational case with the
    map); both maps onto a common quadric; a local inverse of a quadratic
    map through the induced net (co-trivial); or the degree-<=2 rational
    case.  Every other outcome is ruled out:

    - F is never Indeterminate.  That needs every line's image inside a
      projective line, and then for non-collinear generic points a, b, c
      and generic x, with y where the line ax meets bc, F(x) lies on the
      line through F(a) and F(y), in the plane of F(a), F(b), F(c): the
      components are dependent, which is the Trivial case.
    - Past Trivial, F's image is a surface and f is dominant: an image
      curve would be the image of a generic line, which lies in a plane.
      So both have finite generic fibres, and a map G of that kind which
      takes each line into a conic (or a line) is one-to-one on a generic
      line: otherwise each line through a generic x would hold another
      point of x's fibre, infinitely many in all.  G restricted to a
      generic line, where a reduced map has no base point, then
      parametrizes a conic (or a line) once, so G has degree <= 2.
    - With f: f(l) lies in the web conic that pulls back F(l)'s plane, so
      f has degree <= 2 and the rational case is always Quadratic(f).
    - With F on a quadric S: F(l) lies in a plane section of S, a conic,
      so F has degree <= 2, and the quadric vanishes on F because
      implicitize proves that it vanishes on the system map.
    - With the net composite P of a co-trivial F, which is F projected from
      its center c: P takes lines into lines.  A net whose map is not onto
      the plane is spanned by m^2, m n, n^2 for two linear forms m, n, and
      a web containing it has a quadric image; so past the quadric case P
      is dominant, and the argument above makes it a collineation.
      invert_via_net's degree and singularity checks therefore pass, and
      its identity check fails only on a fault of its own.
    """
    if web.dimension != 3:
        raise ValueError("classification needs a web (dimension 3)")
    if f.codim != 2:
        raise ValueError(f"a map taking lines to conics must go into RP^2, got RP^{f.codim}")
    if not isinstance(f, RatMap):
        f = ratfit.fit_map(f, 3, seed=seed)
    F = reduce_map([q.substitute(list(f.components)) for q in web.basis])
    Phi = phi_map(web)

    try:
        verdict = dualize._classify(F, seed)
    except dualize.NotPlanar as exc:
        raise NotALinesToCurvesMap(str(exc)) from exc
    if isinstance(verdict, Trivial):
        return InConic(PPoint(verdict.hyperplane.covector))

    # the degree tests below read the map's degree, not its components'
    f = reduce_map(f)
    # a collineation input degenerates every other case; report the
    # degree-1 map under the rational-case variant
    if f.degree == 1:
        return Quadratic(f)

    # a web's forms are independent, so a relation of degree <= 2 is a
    # quadric; implicitize's solve proves that it vanishes on Phi
    imp = implicitize(Phi, 2)
    if imp is not None:
        return QuadricFactor(imp[1], Phi, F)

    if isinstance(verdict, CoTrivial):
        return InverseQuadratic(invert_via_net(f, net_through(web, verdict.center), seed=seed))
    return Quadratic(f)


# ---------------------------------------------------------------------------
# inversion through a net
# ---------------------------------------------------------------------------


def _matrix_of_linear_map(P: RatMap) -> list[list[Fraction]]:
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

    A sampled f is first fitted as a rational map of degree at most three;
    a fit failure (DegreeTooLow, ChartOverflow) propagates.  Precondition
    (validated): the net map composed with f reduces to a collineation P.
    W is the net map precomposed with the inverse of P, and W∘f must be the
    identity as a map.
    """
    if net.dimension != 2:
        raise ValueError("inversion needs a net (dimension 2)")
    if f.codim != 2:
        raise ValueError(f"a map inverted through a net must go into RP^2, got RP^{f.codim}")
    if not isinstance(f, RatMap):
        f = ratfit.fit_map(f, 3, seed=seed)
    Phin = phi_map(net)
    P = Phin.after(f)
    if P.degree != 1:
        raise NotCollinear(f"the net composite has degree {P.degree}, not 1")
    mat = _matrix_of_linear_map(P)
    # the triple product of the rows is the determinant
    if sum(map(operator.mul, mat[0], projcore.cross(mat[1], mat[2]))) == 0:
        raise ProjectiveFitFailed("the collineation is singular")
    adj = _adjugate3(mat)
    comps = []
    for i in range(3):
        acc = HPoly.zero(3, Phin.degree)
        for j in range(3):
            acc = acc + adj[i][j] * Phin.components[j]
        comps.append(acc)
    W = reduce_map(comps)

    # P = Phin∘f / h with matrix M, so W∘f = h·det(M)·id identically; only a
    # fault in the construction above can fail this.  The composite is
    # compared unreduced: proportionality needs no gcd
    composite = RatMap([w.substitute(f.components) for w in W.components])
    if not composite.projectively_equal(RatMap(variables(3))):
        raise ProjectiveFitFailed("W∘f is not the identity")
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
    The trivial case (image inside one plane) is decided directly on the
    samples; otherwise a rational model of degree <= 3 is fitted, and the
    planarization trichotomy of the model decides:

    - Trivial: InCircle with the model's plane.  The plane test missed it
      only through samples at base points of the model, which a fit does
      not check (a grid holding another sphere point at one).
    - co-trivial or rational at degree <= 2: Quadratic with the model.
    - co-trivial at degree 3: the CoTrivial verdict.
    - rational at degree 3, which contradicts the classification, and
      Indeterminate (the model takes some line to no plane): DegreeAnomaly,
      rather than a verdict silently accepted.

    An exact grid gets only InCircle or Quadratic, as Khovanskii's theorem
    says.  A form of degree 2k <= 2d that vanishes at every node of the
    (4d+3)-node axes but the model's at most k^2 base points vanishes on
    more than 2k rows, hence is zero; so the model maps into the sphere.
    The sphere's two rulings are complex conjugate, so they pull back to
    pencils of one degree a, and the model has degree 2a = 2.  Unless it
    is trivial, the two pencils have distinct (conjugate) centers, the line
    through them goes to one point, and every line's image passes through
    it: the model is co-trivial.  The other outcomes need samples that do
    not bind the model to the sphere: a float grid within SPHERE_RTOL of
    it, or a source that is not a grid, whose reads off the integer nodes
    {0..5}^2 are not tested for the sphere.

    A grid is tested for a plane at all its nodes.  A source that is not a
    grid is tested at the integer nodes (u, v) in {0..5}^2, the check block
    of the degree-2 fit, and read once per point: the plane test and the
    fits at degree 2 and 3 share one table of its values.  For a plane H
    and a sphere map f of degree <= 5, H.(1, f) is a rational function
    whose numerator has degree <= 5, and a polynomial of degree <= 5 that
    vanishes on a 6 x 6 tensor grid is zero, so the test is a proof.

    In exact mode each value (1, x, y, z) is cleared to integers Y, an
    exact grid's in its node table, and the sphere test is
    Y1^2 + Y2^2 + Y3^2 = Y0^2; the plane test takes those integer rows.  A
    float grid reads its `values` directly.
    """
    if f_src.codim != 3:
        raise ValueError("expected a map into 3-space")
    exact = f_src.mode == "exact"
    # the sphere in RP^3: a grid already evaluates to (1, x, y, z)
    if isinstance(f_src, GridMapSource):
        emb = f_src
        if exact:
            nodes = [node for row in f_src._node_table() for node in row]
        else:
            samples = [val for row in f_src.values for val in row]
    else:
        one = Fraction(1) if exact else 1.0

        # one table for every read: the plane test and both fits share it
        @functools.cache
        def embedded(u, v):
            val = f_src.evaluate(u, v)
            return None if val is None else (one, *val)

        emb = CallableSource(embedded, codim=3, mode=f_src.mode)
        # the degree-2 fit checks its model on these nodes (side k+d+2 = 6)
        us = vs = [Fraction(i) if exact else float(i) for i in range(6)]
        if exact:
            nodes = [ratfit._node(embedded, u, v) for v in vs for u in us]
        else:
            samples = [val[1:] for val in (embedded(u, v) for v in vs for u in us) if val is not None]
    if exact:
        # each value (1, x, y, z) cleared to integers Y: on the sphere
        # exactly when Y1^2 + Y2^2 + Y3^2 = Y0^2
        rows = [Y for _, Y, _ in filter(None, nodes)]
        if len(rows) < 8:
            raise TooFewSamples("not enough sphere samples")
        for y0, y1, y2, y3 in rows:
            norm = y1 * y1 + y2 * y2 + y3 * y3
            if norm != y0 * y0:
                raise NotOnSphere(f"sample at distance^2 {Fraction(norm, y0 * y0)} from 1")
    else:
        if len(samples) < 8:
            raise TooFewSamples("not enough sphere samples")
        for x, y, z in samples:
            norm = x * x + y * y + z * z
            if not abs(float(norm) - 1.0) <= SPHERE_RTOL:  # NaN fails too
                raise NotOnSphere(f"sample off the sphere by {abs(float(norm)-1.0):.2e}")
        rows = [[1, x, y, z] for x, y, z in samples]

    plane = projcore.null_direction(rows, exact)
    if plane is not None:
        return InCircle(Hyperplane(plane))

    model = None
    last_exc = None
    # no d = 1: a degree-1 model's image is a plane, and coplanar samples returned above
    for d in (2, 3):
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
    if isinstance(verdict, Indeterminate):
        raise DegreeAnomaly(f"unclassifiable sphere map: {verdict.reason}")
    # the cases overlap: a quadratic rational sphere map can also be
    # co-trivial (stereographic images all pass through the pole); the
    # recovered quadratic map is the stronger verdict
    if model.degree <= 2:
        return Quadratic(model)
    if isinstance(verdict, CoTrivial):
        return verdict
    raise DegreeAnomaly("rational verdict at degree 3 violates the lines-to-circles classification")
