"""Dual maps of rational planarizations and the trichotomy classifier.

The dual assigns to a line of RP^2 (a point of the dual plane) the
hyperplane containing the image of that line.  For rational maps it is
found exactly, by one of two routes:

* d+1 = n: the image of a line has n coefficient vectors, and their signed
  maximal minors (the wedge) are the hyperplane.  The wedge is evaluated
  in integers at the lines (a, b, 1) of the principal lattice, interpolated
  by Newton forward differences and reduced: no linear system is solved.
* d >= n: d+1 rational sections put points on the moving line, and the
  dual is the lowest-degree form G in the line whose pairing with F at
  every section point vanishes identically, one exact linear system per
  degree.  The solve is its own certificate: no minors, no gcd and no
  second check.

The classifier then sorts a map into the trivial / co-trivial / rational
trichotomy by two exact rank computations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import projcore
from .jetplan import ExactMapSource, OnIndeterminacy, nondegenerate_at
from .poly import (
    HPoly,
    RatMap,
    reduce_map,
    restrict_to_line,
    span_dim,
    variables,
    _binomial_row,
    _canonical_scale,
    _int_components,
    _monomials,
    _newton_triangle,
    _powers,
)
from .projcore import Hyperplane, PLine2, PPoint
from .seeding import stable_rng

#: largest pairing system, in cells (rows times columns), that `dual_map`
#: may solve for a map of degree d >= n; it was sized when d + 1 = n maps
#: still took this system, where a quintic into RP^6 (1,319,472 cells at
#: degree 15) classified in about 6 s on a 2-core machine
MAX_DUAL_CELLS = 1_500_000
#: most principal-lattice points, C(D+2, 2) with D = d(d+1)/2, on which
#: `dual_map` may interpolate the wedge of a map with d + 1 = n: on a 2-core
#: machine `classify(generate_map(1, d, d + 1))` takes about 0.16 s for a
#: sextic into RP^7 (253 points) and 0.5 s for a septic into RP^8 (435); an
#: octic into RP^9 (703) would take about 1.4 s
MAX_WEDGE_POINTS = 500


class EverywhereDegenerate(ValueError):
    """No point of the map determines per-line hyperplanes: its lines' images
    span too little for their degree, no sampled point is nondegenerate, or
    the pairing system of the dual has more than one lowest solution."""


class NotPlanar(ValueError):
    """The input is not a planarization along some line: the line's image
    spans all of RP^n, or the pairing system of the dual has no solution up
    to its degree bound, so no hyperplane contains the images of the lines."""


@dataclass(frozen=True)
class Trivial:
    hyperplane: Hyperplane


@dataclass(frozen=True)
class CoTrivial:
    center: PPoint


@dataclass(frozen=True)
class Rational:
    degree: int


@dataclass(frozen=True)
class Indeterminate:
    reason: str


PlanarizationClass = Union[Trivial, CoTrivial, Rational, Indeterminate]


def component_dependence(F: RatMap) -> Optional[tuple[int, ...]]:
    """A covector c with sum_i c_i F_i = 0, or None if components are independent.

    One row per monomial that occurs in some component: the others give
    zero rows, which leave the nullspace as it is."""
    monos = dict.fromkeys(e for c in F.components for e in c.terms)
    matrix = [[c.terms.get(m, 0) for c in F.components] for m in monos]
    basis = projcore.nullspace(matrix)
    if not basis:
        return None
    return projcore.normalize(basis[0])


def _precheck_points(seed: int):
    pts = [
        (Fraction(i, 4), Fraction(j, 4)) for i in range(1, 4) for j in range(1, 4)
    ]
    rng = stable_rng(seed, "dual_precheck")
    for _ in range(16):
        pts.append(
            (
                Fraction(rng.randint(-40, 40), rng.randint(1, 19)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 19)),
            )
        )
    return pts


def _check_preconditions(F: RatMap, seed: int) -> None:
    """Raise EverywhereDegenerate or NotPlanar as `dual_map` orders them."""
    n, d = F.codim, F.degree
    if d + 1 < n:
        raise EverywhereDegenerate(
            f"a degree-{d} map into RP^{n} is everywhere degenerate: "
            f"each line's image spans rank at most d+1 = {d + 1} < n = {n}"
        )
    if d >= n:
        # no zero entry: a line through a coordinate point restricts sparse
        # maps such as [x0^d : x1^d : x2^d : ...] to proportional forms
        rng = stable_rng(seed, "dual_span_line")
        line = PLine2.of([rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(3)])
        if span_dim(restrict_to_line(F, line)) == n + 1:
            raise NotPlanar(f"the image of line {line.covector} spans RP^{n}, so no hyperplane contains it")
    src = ExactMapSource(F)
    for a in _precheck_points(seed):
        try:
            if nondegenerate_at(src, a):
                return
        except OnIndeterminacy:
            continue
    raise EverywhereDegenerate("no sampled point is nondegenerate")


def _section_directions(count: int) -> list[tuple[int, int, int]]:
    """The coordinate points, then (1, k, k^2) for k = 1, 2, ...: `count`
    pairwise independent directions, the sparse ones first."""
    coordinate = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return (coordinate + [(1, k, k * k) for k in range(1, count - 2)])[:count]


def _section_row(F: RatMap, direction: Sequence[int]) -> list[HPoly]:
    """F at the point l x c of the moving line l, one polynomial in l per component."""
    section = list(projcore.cross(variables(3), direction))
    return [comp.substitute(section) for comp in F.components]


def _pairing_nullspace(rows: list[list[HPoly]], D: int) -> list[tuple[Fraction, ...]]:
    """Nullspace of the pairing system at degree D: the unknowns are the
    coefficients of n+1 forms G_i of degree D, form by form, and the
    equations the coefficients of sum_i G_i * row_i, one per monomial and
    row.  Each entry is set once: a column's terms reach distinct monomials.
    A system of more than MAX_DUAL_CELLS cells (at most C(D+d+2, 2) rows
    per section, d the degree of the map) raises ValueError unsolved."""
    d = rows[0][0].degree
    cells = len(rows) * math.comb(D + d + 2, 2) * len(rows[0]) * math.comb(D + 2, 2)
    if cells > MAX_DUAL_CELLS:
        raise ValueError(
            f"the pairing system at degree {D} has {cells} cells, more than MAX_DUAL_CELLS = {MAX_DUAL_CELLS}"
        )
    monos = _monomials(3, D)
    ncols = len(rows[0]) * len(monos)
    matrix = []
    for row in rows:
        equations: dict = {}
        for i, comp in enumerate(row):
            for j, mu in enumerate(monos):
                col = i * len(monos) + j
                for e, c in comp.terms.items():
                    key = (mu[0] + e[0], mu[1] + e[1], mu[2] + e[2])
                    equations.setdefault(key, [0] * ncols)[col] = c
        matrix.extend(equations.values())
    return projcore.nullspace(matrix)


def _wedge_forms(F: RatMap) -> list[HPoly]:
    """The forms H of degree D = d(d+1)/2 whose reduction is the dual of a
    map with d + 1 = n, from the wedge of one line's image.

    For the line l = (a, b, 1), F(s p + t q) with p = l x e0 = (0, 1, -b)
    and q = l x e1 = (-1, 0, a) has n coefficient vectors in Z^(n+1) (the
    components first cleared to integers by one common multiplier), and
    their signed maximal minors W(l) are the covector of the hyperplane
    they span.  As a form in l, W = +-l_2^(d(d+1)/2) H: p x q = l_2 l, and
    Sym^d of a change of parameter has determinant det^(d(d+1)/2).  So H has
    degree n d - d(d+1)/2 = D and equals W where l_2 = 1: each component is
    interpolated from its values on the principal lattice Lambda_D
    (`poly._newton_triangle`, at the scale (D!)^2) and homogenized.  H is
    zero exactly when no line's image spans a hyperplane.

    On the line, x0 = -t and x1 = s, and x2 = a t - b s has the binomial
    row (a t - b s)^k = sum_m B_km a^m b^(k-m) t^m s^(k-m), B_k the row of
    (-s + t)^k.  So every entry of the coefficient vectors is a fixed
    integer combination of the products a^m b^j, listed once per map; at
    each lattice point only the power tables of a and b change."""
    n, d = F.codim, F.degree
    D = d * (d + 1) // 2
    signed = [_binomial_row(-1, 1, k) for k in range(d + 1)]
    terms = []  # (power of t, component, coefficient, power of a, power of b)
    for i, comp in enumerate(_int_components(F)):
        for e, c in comp.items():
            c = -c if e[0] % 2 else c
            terms.extend((e[0] + m, i, c * beta, m, e[2] - m) for m, beta in enumerate(signed[e[2]]))

    def wedge_at(a: int, b: int) -> list[int]:
        ap, bp = _powers(a, d), _powers(b, d)
        rows = [[0] * (n + 1) for _ in range(d + 1)]
        for r, i, c, m, j in terms:
            rows[r][i] += c * ap[m] * bp[j]
        return projcore.signed_minors(rows)

    grid = [[wedge_at(a, b) for b in range(D + 1 - a)] for a in range(D + 1)]
    H = []
    for i in range(n + 1):
        coeffs = _newton_triangle([[w[i] for w in row] for row in grid], D)
        H.append(HPoly(3, D, {(k, l, D - k - l): c for (k, l), c in coeffs.items()}))
    return H


def dual_map(F: RatMap, seed: int = 0) -> RatMap:
    """The rational map sending a line to the hyperplane containing its image.

    Restricted to a line, a degree-d map into RP^n is n+1 binary forms of
    degree d, so the image of a line spans rank at most min(d+1, n+1).  The
    preconditions are decided in this order, before any symbolic work:

    1. d+1 < n: no line's image picks out one hyperplane, so
       EverywhereDegenerate at once.
    2. d >= n: F is restricted to one seeded line; if that line's image
       spans rank n+1 (all of RP^n), no hyperplane contains it and
       NotPlanar names the line.
    3. Otherwise the map must be nondegenerate at some rational point of
       a fixed 3x3 grid plus 16 seeded points, else EverywhereDegenerate.
       A point is nondegenerate when, for one of n(n-1)/2 + 1 slopes, the
       first n coefficient vectors of F along the line through it have
       integer rank n (`jetplan.nondegenerate_at`; no jet is built).

    For d+1 = n the dual is the reduced wedge of one line's image, read in
    integers at the lines (a, b, 1) of the principal lattice of degree
    d(d+1)/2 and interpolated (`_wedge_forms`); a lattice of more than
    MAX_WEDGE_POINTS points raises ValueError before the preconditions.

    For d >= n the dual is the lowest-degree solution G of the pairing identity
    sum_i G_i(l) * F_i(l x c) = 0 in the line l, for the d+1 directions c of
    _section_directions.  On a line the pairing is a degree-d binary form,
    zero at the d+1 points l x c, so G(l) contains the line's image: the
    exact solve is the certificate.  A lowest solution has no common
    factor, so no gcd is taken, and it is unique up to the canonical scale.
    Every solution of degree D = deg G + k is g * G, so the nullity is
    C(k+2, 2).  Degrees 0 and 1 are tried first, then the generic degree
    n(n-1)/2, where the nullity gives k and one solve at D - k finishes,
    then upward to n*d - n(n-1)/2: the degree of n rows' minors less the
    section factors l . (c x c') they share.  No solution up to there
    raises NotPlanar; a nullity other than C(k+2, 2), or other than 1 at
    the lowest degree, raises EverywhereDegenerate.  A system of more than
    MAX_DUAL_CELLS cells raises ValueError before it is solved.
    """
    if F.domain_vars != 3:
        raise ValueError("dual maps need domain RP^2")
    n, d = F.codim, F.degree
    if n < 2:
        raise ValueError("dual maps need a target of dimension at least 2")
    points = math.comb(d * (d + 1) // 2 + 2, 2)
    if d + 1 == n and points > MAX_WEDGE_POINTS:
        raise ValueError(
            f"the wedge of a degree-{d} map into RP^{n} needs {points} lattice points, "
            f"more than MAX_WEDGE_POINTS = {MAX_WEDGE_POINTS}"
        )
    _check_preconditions(F, seed)
    if d + 1 == n:
        H = _wedge_forms(F)
        if all(h.is_zero for h in H):
            raise EverywhereDegenerate(f"no line's image spans a hyperplane of RP^{n}")
        return reduce_map(H)

    rows = [_section_row(F, c) for c in _section_directions(d + 1)]
    generic = n * (n - 1) // 2
    top = n * d - generic
    for D in itertools.chain((0, 1), range(max(generic, 2), top + 1)):
        basis = _pairing_nullspace(rows, D)
        if not basis:
            continue
        nullity = len(basis)
        k = next((k for k in range(nullity) if math.comb(k + 2, 2) == nullity), None)
        if k:
            basis = _pairing_nullspace(rows, D - k)
        if k is None or len(basis) != 1:
            raise EverywhereDegenerate(
                f"the pairing system has nullity {nullity} at degree {D}, so no line has one hyperplane"
            )
        monos = _monomials(3, D - k)
        forms = [HPoly(3, D - k, dict(zip(monos, basis[0][i * len(monos) :]))) for i in range(n + 1)]
        return RatMap(_canonical_scale(forms))
    raise NotPlanar(f"no form of degree at most {top} in the line sends it to a hyperplane containing its image")


def classify(F: RatMap, seed: int = 0) -> PlanarizationClass:
    """Trivial / co-trivial / rational trichotomy for a rational map to RP^n, n >= 2.

    Trivial: the components satisfy a linear relation (the image lies in the
    witness hyperplane).  Co-trivial: the dual's components do (every
    per-line hyperplane passes through the witness center).  Otherwise the
    map is reported rational with its own degree, that of the reduced map.
    Inputs on which the dual construction breaks down (not planarizations)
    come back Indeterminate.
    """
    try:
        return _classify(F, seed)
    except NotPlanar as exc:
        return Indeterminate(str(exc))


def _classify(F: RatMap, seed: int) -> PlanarizationClass:
    """`classify`, except that a map shown not to be a planarization raises
    NotPlanar instead of coming back Indeterminate."""
    if F.domain_vars != 3:
        raise ValueError("classification needs domain RP^2")
    dep = component_dependence(F)
    if dep is not None:
        return Trivial(Hyperplane(dep))
    try:
        Fhat = dual_map(F, seed=seed)
    except EverywhereDegenerate:
        return Indeterminate("everywhere degenerate but components are independent")
    dep2 = component_dependence(Fhat)
    if dep2 is not None:
        return CoTrivial(PPoint(dep2))
    # the degree of the map, not of its components: [x0^2 : x0x1 : x0x2] is
    # the identity
    return Rational(reduce_map(F.components).degree)

