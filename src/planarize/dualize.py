"""Dual maps of rational planarizations and the trichotomy classifier.

The dual assigns to a line of RP^2 (a point of the dual plane) the
hyperplane containing the image of that line.  For rational maps it is
computed fully symbolically: three (or n) canonical rational sections put
points on the moving line, their images are wedged into the covector of the
containing hyperplane, and the common polynomial factor is removed.  The
classifier then sorts a map into the trivial / co-trivial / rational
trichotomy by two exact rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import projcore
from .jetplan import ExactMapSource, OnIndeterminacy, nondegenerate_at
from .poly import HPoly, RatMap, reduce_map, variables, _monomials
from .projcore import Hyperplane, PPoint
from .seeding import stable_rng


class EverywhereDegenerate(ValueError):
    """No sampled point of the map determines per-line hyperplanes."""


class SectionCollapse(ValueError):
    """Every canonical section set degenerates identically (re-seed)."""


class NotPlanar(ValueError):
    """A computed hyperplane fails to contain sampled image points: the
    input is not a planarization along some line."""


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


def dual_map(F: RatMap, seed: int = 0) -> RatMap:
    """The rational map sending a line to the hyperplane containing its image.

    Requires the input to be nondegenerate at some rational point (checked on
    a fixed 3x3 grid plus 16 seeded points, else EverywhereDegenerate).  The
    result is validated by exact containment on 10 seeded (line, point) pairs
    and raises NotPlanar on failure.  Output degree is at most n(n-1)/2.
    """
    if F.domain_vars != 3:
        raise ValueError("dual maps need domain RP^2")
    n = F.codim
    if n < 2:
        raise ValueError("dual maps need a target of dimension at least 2")
    src = ExactMapSource(F)
    found = False
    for a in _precheck_points(seed):
        try:
            if nondegenerate_at(src, a):
                found = True
                break
        except OnIndeterminacy:
            continue
    if not found:
        raise EverywhereDegenerate("no sampled point is nondegenerate")

    for start in range(len(_SECTION_DIRECTIONS) - n + 1):
        directions = _SECTION_DIRECTIONS[start : start + n]
        sections = [_symbolic_section(d) for d in directions]
        rows = [[comp.substitute(sec) for comp in F.components] for sec in sections]
        covector = projcore.signed_minors(rows)
        if all(c.is_zero for c in covector):
            continue
        Fhat = reduce_map(covector)
        _validate_dual(F, Fhat, seed)
        return Fhat
    raise SectionCollapse("all canonical section sets collapse identically")


def _validate_dual(F: RatMap, Fhat: RatMap, seed: int):
    rng = stable_rng(seed, "dual_validate")
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 400:
        attempts += 1
        line = tuple(rng.randint(-9, 9) for _ in range(3))
        if line == (0, 0, 0):
            continue
        hval = Fhat.evaluate(line)
        if hval is None:
            continue
        r = tuple(rng.randint(-9, 9) for _ in range(3))
        p = projcore.cross(line, r)
        if p == (0, 0, 0):
            continue
        img = F.evaluate(p)
        if img is None:
            continue
        if sum(a * b for a, b in zip(hval, img)) != 0:
            raise NotPlanar(
                "computed hyperplane misses an image point of its line"
            )
        checked += 1


def classify(F: RatMap, seed: int = 0) -> PlanarizationClass:
    """Trivial / co-trivial / rational trichotomy for a rational map to RP^3.

    Trivial: the components satisfy a linear relation (the image lies in the
    witness hyperplane).  Co-trivial: the dual's components do (every
    per-line hyperplane passes through the witness center).  Otherwise the
    map is reported rational with its own degree.  Inputs on which the dual
    construction breaks down (not planarizations) come back Indeterminate.
    """
    if F.domain_vars != 3:
        raise ValueError("classification needs domain RP^2")
    dep = component_dependence(F)
    if dep is not None:
        return Trivial(Hyperplane(dep))
    try:
        Fhat = dual_map(F, seed=seed)
    except EverywhereDegenerate:
        return Indeterminate("everywhere degenerate but components are independent")
    except (NotPlanar, SectionCollapse) as exc:
        return Indeterminate(str(exc))
    dep2 = component_dependence(Fhat)
    if dep2 is not None:
        return CoTrivial(PPoint(dep2))
    return Rational(F.degree)


def classify_source(source, seed: int = 0, degree_bound: int = 3):
    """Classify a sampled map by fitting a rational model first.

    Returns (verdict, fitted map).  Fitting failures (DegreeTooLow) propagate:
    a sampled map that is not rational of degree <= bound cannot be placed in
    the trichotomy by this artifact.
    """
    from . import ratfit

    model = ratfit.fit_map(source, degree_bound)
    return classify(model, seed=seed), model
