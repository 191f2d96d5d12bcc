"""Dual maps of rational planarizations and the trichotomy classifier.

The dual assigns to a line of RP^2 (a point of the dual plane) the
hyperplane containing the image of that line.  For rational maps it is
computed fully symbolically: three (or n) canonical rational sections put
points on the moving line, their images are wedged into the covector of the
containing hyperplane, and the common polynomial factor is removed.  The
result is certified by an exact identity in the line, not by sample points.
The classifier then sorts a map into the trivial / co-trivial / rational
trichotomy by two exact rank computations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import projcore, ratfit
from .jetplan import ExactMapSource, OnIndeterminacy, nondegenerate_at
from .poly import HPoly, RatMap, p_add, p_mul, reduce_map, restrict_to_line, span_dim, variables, _monomials
from .projcore import Hyperplane, PLine2, PPoint
from .seeding import stable_rng


class EverywhereDegenerate(ValueError):
    """No point of the map determines per-line hyperplanes: its lines' images
    span too little for their degree, or no sampled point is nondegenerate."""


class SectionCollapse(ValueError):
    """Every canonical section set degenerates identically (re-seed)."""


class NotPlanar(ValueError):
    """The input is not a planarization along some line: the line's image
    spans all of RP^n, or a computed hyperplane misses an image point."""


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


#: constant directions whose cross product with the moving line covector
#: gives rational point-sections of the line; windows of n of these are
#: tried in order until the symbolic wedge is not identically zero
_SECTION_DIRECTIONS = [
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (0, 1, 1),
    (1, 0, 1),
    (1, 1, 1),
    (1, -1, 0),
    (0, 1, -1),
    (1, 0, -1),
    (1, 1, -1),
    (1, -1, 1),
]


def component_dependence(F: RatMap) -> Optional[tuple[int, ...]]:
    """A covector c with sum_i c_i F_i = 0, or None if components are independent."""
    monos = _monomials(F.domain_vars, F.degree)
    matrix = [[c.terms.get(m, 0) for c in F.components] for m in monos]
    basis = projcore.nullspace(matrix)
    if not basis:
        return None
    return projcore.normalize(basis[0])


def _symbolic_section(direction: Sequence[int]) -> list[HPoly]:
    """Cross product of the moving line covector with a constant direction."""
    av = variables(3)
    c = direction
    return [
        c[2] * av[1] - c[1] * av[2],
        c[0] * av[2] - c[2] * av[0],
        c[1] * av[0] - c[0] * av[1],
    ]


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


def _section_row(F: RatMap, direction: Sequence[int]) -> list[HPoly]:
    """F at the point l x c of the moving line l, one polynomial in l per component."""
    section = _symbolic_section(direction)
    return [comp.substitute(section) for comp in F.components]


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
    3. Otherwise the map must be nondegenerate at some rational point, by
       the jets at a fixed 3x3 grid plus 16 seeded points, else
       EverywhereDegenerate.

    The result is certified exactly: its pairing with F at d+1 section
    points of the moving line must vanish identically, else NotPlanar.
    Output degree is at most n(n-1)/2.
    """
    if F.domain_vars != 3:
        raise ValueError("dual maps need domain RP^2")
    n = F.codim
    if n < 2:
        raise ValueError("dual maps need a target of dimension at least 2")
    _check_preconditions(F, seed)

    for start in range(len(_SECTION_DIRECTIONS) - n + 1):
        rows = [_section_row(F, c) for c in _SECTION_DIRECTIONS[start : start + n]]
        covector = projcore.signed_minors(rows)
        if all(c.is_zero for c in covector):
            continue
        Fhat = reduce_map(covector)
        _validate_dual(F, Fhat, rows, start)
        return Fhat
    raise SectionCollapse("all canonical section sets collapse identically")


def _validate_dual(F: RatMap, Fhat: RatMap, rows: list[list[HPoly]], start: int) -> None:
    """Raise NotPlanar unless Fhat(l) contains the image of the line l, as an
    identity in l.

    On a line, the pairing Fhat(l) . F is a binary form of degree d, so it
    vanishes along the line once it vanishes at d+1 distinct points of it.
    The points l x c and l x c' coincide only on the lines with
    l . (c x c') = 0, so for pairwise independent directions the d+1 pairings
    sum_i Fhat_i * F_i(l x c), each zero as a polynomial in l, certify the
    containment on a Zariski-open set of lines, hence on all of them.  The
    window's n rows are reused; when d >= n, d+1-n more come from the section
    directions outside the window, then from (1, k, k^2) for k = 2, 3, ....
    """
    outside = _SECTION_DIRECTIONS[:start] + _SECTION_DIRECTIONS[start + len(rows) :]
    moment = ((1, k, k * k) for k in itertools.count(2))
    more = itertools.islice(itertools.chain(outside, moment), max(0, F.degree + 1 - len(rows)))
    extra = [_section_row(F, c) for c in more]
    for row in rows + extra:
        pairing: dict = {}
        for fh, comp in zip(Fhat.components, row):
            pairing = p_add(pairing, p_mul(fh.terms, comp.terms))
        if pairing:
            raise NotPlanar("computed hyperplane misses an image point of its line")


def classify(F: RatMap, seed: int = 0) -> PlanarizationClass:
    """Trivial / co-trivial / rational trichotomy for a rational map to RP^n, n >= 2.

    Trivial: the components satisfy a linear relation (the image lies in the
    witness hyperplane).  Co-trivial: the dual's components do (every
    per-line hyperplane passes through the witness center).  Otherwise the
    map is reported rational with its own degree.  Inputs on which the dual
    construction breaks down (not planarizations) come back Indeterminate.
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
    except SectionCollapse as exc:
        return Indeterminate(str(exc))
    dep2 = component_dependence(Fhat)
    if dep2 is not None:
        return CoTrivial(PPoint(dep2))
    return Rational(F.degree)


def classify_source(source, seed: int = 0):
    """Classify a sampled map by fitting a rational model first.

    Returns (verdict, fitted map).  Fitting failures (DegreeTooLow) propagate:
    a sampled map that is not rational of degree <= 3 cannot be placed in
    the trichotomy by this artifact.
    """
    model = ratfit.fit_map(source, 3, seed=seed)
    return classify(model, seed=seed), model
