"""Dual maps of rational planarizations and the trichotomy classifier.

The dual assigns to a line of RP^2 (a point of the dual plane) the
hyperplane containing the image of that line.  For a map of degree d into
RP^n with d+1 >= n it is found exactly by one route, with no linear system
solved.  At each line l = (a, b, 1) of the principal lattice of degree
D = n d - n(n-1)/2 the image of the line has d+1 integer coefficient
vectors A(l).  The n of them that have rank n at the first lattice line
where A does (all of them when d+1 = n) have signed maximal minors, the
wedge, which is read in integers at the lattice lines, interpolated by
Newton forward differences and reduced.  When d+1 = n the vectors span
the image of every line, so the reduced wedge is the dual; when d >= n it
is the only candidate, certified by A(l) paired with it vanishing on a
lattice that fixes that identity.

The classifier then sorts a map into the trivial / co-trivial / rational
trichotomy by two exact rank computations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import projcore
from .jetplan import ExactMapSource, OnIndeterminacy, nondegenerate_at
from .poly import (
    HPoly,
    RatMap,
    reduce_map,
    restrict_to_line,
    span_dim,
    _binomial_row,
    _forms_eval_int,
    _forms_plan,
    _int_components,
    _newton_triangle,
    _powers,
)
from .projcore import Hyperplane, PLine2, PPoint
from .seeding import stable_rng

#: most cells, C(D+2, 2) lattice points times the (d+1)(n+1) entries of
#: A(l), that `dual_map` may read for a map of degree d into RP^n, with
#: D = n d - n(n-1)/2.  On a 2-core machine `dual_map` takes 0.17 s on a
#: sextic into RP^7 (14,168 cells), 0.5 s on a septic into RP^8 (31,320) and
#: 0.07-0.12 s on maps into RP^3 of degree 12-14 with a linear relation
#: (30,940-49,200); an octic into RP^9 (63,270) takes 1.6 s
MAX_DUAL_LATTICE_CELLS = 50_000

#: the fixed 3x3 grid (i/4, j/4), i, j = 1..3, at which `_check_preconditions`
#: asks `jetplan.nondegenerate_at`
_PRECHECK_POINTS = tuple((Fraction(i, 4), Fraction(j, 4)) for i in range(1, 4) for j in range(1, 4))


class EverywhereDegenerate(ValueError):
    """No point of the map determines per-line hyperplanes: its lines' images
    span too little for their degree, or no line of the dual's lattice has
    an image that spans a hyperplane, which proves that none has."""


class NotPlanar(ValueError):
    """The input is not a planarization along some line: the line's image
    spans all of RP^n, or it leaves the one hyperplane the reduced wedge
    assigns it, so no hyperplane map contains the images of the lines."""


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


def _wedge_degree(n: int, d: int) -> int:
    """n d - n(n-1)/2, the degree in (a, b) of the minors of n rows of A (see
    `_wedge_forms`): the lattice Lambda_D of the wedge has C(D+2, 2) points."""
    return n * d - n * (n - 1) // 2


def _lattice(D: int):
    """The principal lattice Lambda_D: the points (a, b) >= 0 with a + b <= D,
    a-major."""
    return ((a, b) for a in range(D + 1) for b in range(D + 1 - a))


def _check_preconditions(F: RatMap, seed: int) -> None:
    """Raise EverywhereDegenerate for d+1 < n, NotPlanar for a seeded line
    whose image spans RP^n when d >= n, and ValueError for a lattice of more
    than MAX_DUAL_LATTICE_CELLS cells, in `dual_map`'s order.  Every other
    map goes on to the lattice, which alone decides the rest."""
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
    points = math.comb(_wedge_degree(n, d) + 2, 2)
    cells = points * (d + 1) * (n + 1)
    if cells > MAX_DUAL_LATTICE_CELLS:
        raise ValueError(
            f"the dual of a degree-{d} map into RP^{n} needs {points} lattice points of {d + 1} x {n + 1} "
            f"entries, {cells} cells, more than MAX_DUAL_LATTICE_CELLS = {MAX_DUAL_LATTICE_CELLS}"
        )
    # decides nothing; kept because bench/test_checks.py traces this call in classify
    src = ExactMapSource(F)
    for a in _PRECHECK_POINTS:
        try:
            if nondegenerate_at(src, a):
                return
        except OnIndeterminacy:
            continue


def _row_reader(F: RatMap) -> Callable[..., list[list[int]]]:
    """rows(a, b, which=all): the rows `which` of A(l), the d+1 integer
    coefficient vectors of F(s p + t q) = sum_r s^(d-r) t^r A_r at the line
    l = (a, b, 1), p = l x e0 = (0, 1, -b) and q = l x e1 = (-1, 0, a), the
    components cleared to integers by one common multiplier.  Each row is
    built once per line and kept.

    On the line x0 = -t and x1 = s, and x2 = a t - b s has the binomial row
    (a t - b s)^k = sum_m B_km a^m b^(k-m) t^m s^(k-m), B_k the row of
    (-s + t)^k.  So each entry of A is a fixed integer combination of the
    products a^m b^j, listed once per map; at each line only the power
    tables of a and b change."""
    n, d = F.codim, F.degree
    signed = [_binomial_row(-1, 1, k) for k in range(d + 1)]
    terms: list[list] = [[] for _ in range(d + 1)]  # per row: (component, coefficient, power of a, power of b)
    for i, comp in enumerate(_int_components(F)):
        for e, c in comp.items():
            c = -c if e[0] % 2 else c
            for m, beta in enumerate(signed[e[2]]):
                terms[e[0] + m].append((i, c * beta, m, e[2] - m))
    kept: dict = {}

    def rows(a: int, b: int, which: Sequence[int] = range(d + 1)) -> list[list[int]]:
        built = kept.setdefault((a, b), {})
        missing = [r for r in which if r not in built]
        if missing:
            ap, bp = _powers(a, d), _powers(b, d)
            for r in missing:
                row = [0] * (n + 1)
                for i, c, m, j in terms[r]:
                    row[i] += c * ap[m] * bp[j]
                built[r] = row
        return [built[r] for r in which]

    return rows


def _spanning_rows(rows: Callable, n: int, D: int) -> Optional[list[int]]:
    """The first n rows of A with rank n at the first line of Lambda_D where
    A has rank at least n (the pivots of its transpose), or None if there is
    none: then every n x n minor of A, of degree at most D (`_wedge_forms`),
    is zero.  Rank n+1 there raises NotPlanar naming the line."""
    for a, b in _lattice(D):
        _, pivots, _ = projcore._bareiss_echelon([list(col) for col in zip(*rows(a, b))])
        if len(pivots) > n:
            raise NotPlanar(f"the image of line {(a, b, 1)} spans RP^{n}, so no hyperplane contains it")
        if len(pivots) == n:
            return pivots
    return None


def _wedge_forms(rows: Callable, chosen: Sequence[int], D: int) -> list[HPoly]:
    """Forms H of degree D whose reduction is the reduced wedge of the rows
    `chosen` of A (`_row_reader`): their signed maximal minors W(l), the
    covector of the hyperplane they span, read on the principal lattice
    Lambda_D, interpolated (`poly._newton_triangle`, at the scale (D!)^2)
    and homogenized.

    As forms in l the entries of A have degree d.  With l_2 = e the line's
    points are (-t e, s e, L), L = l_0 t - l_1 s, so F(s p + t q) =
    sum_k e^k L^(d-k) psi_k with psi_k of degree k: the part of power e^k
    lies in a space of dimension k + 1.  Expanding the columns of a minor
    by powers of e, a term whose vectors are independent has its m-th
    smallest power at least m - 1.  So W is divisible by l_2^(n(n-1)/2),
    and where l_2 = 1 it has degree at most D = n d - n(n-1)/2, which
    Lambda_D fixes.  For d+1 = n, W = +-l_2^D H with H of degree D."""
    grid = [[projcore.signed_minors(rows(a, b, chosen)) for b in range(D + 1 - a)] for a in range(D + 1)]
    H = []
    for i in range(len(chosen) + 1):
        coeffs = _newton_triangle([[w[i] for w in row] for row in grid], D)
        H.append(HPoly(3, D, {(k, l, D - k - l): c for (k, l), c in coeffs.items()}))
    return H


def _certify(G: RatMap, rows: Callable, d: int) -> None:
    """Raise NotPlanar unless A(l) G(l) = 0 at every line l of
    Lambda_(d + deg G).  Its entries have degree at most d + deg G in
    (a, b), so then they vanish identically: G(l) contains the image of
    every line."""
    g = G.degree
    plan = _forms_plan([comp.terms for comp in G.components])
    for a, b in _lattice(d + g):
        h = _forms_eval_int(plan, (a, b, 1), 1, g)
        if any(sum(map(operator.mul, row, h)) for row in rows(a, b)):
            raise NotPlanar(
                f"the image of line {(a, b, 1)} leaves the hyperplane the reduced wedge gives it, "
                "so no hyperplane contains the images of all lines"
            )


def dual_map(F: RatMap, seed: int = 0) -> RatMap:
    """The rational map sending a line to the hyperplane containing its image.

    Restricted to a line, a degree-d map into RP^n is n+1 binary forms of
    degree d, so the image of a line spans rank at most min(d+1, n+1).  The
    preconditions are decided in this order, before the lattice is read:

    1. d+1 < n: no line's image picks out one hyperplane, so
       EverywhereDegenerate at once.
    2. d >= n: F is restricted to one seeded line; if that line's image
       spans rank n+1 (all of RP^n), no hyperplane contains it and
       NotPlanar names the line.
    3. A lattice of more than MAX_DUAL_LATTICE_CELLS cells, C(D+2, 2)
       points (D = n d - n(n-1)/2) times the (d+1)(n+1) entries of A,
       raises ValueError.
    4. `jetplan.nondegenerate_at` is asked at the points of a fixed 3x3
       grid until one is nondegenerate.  The answer decides nothing: a map
       degenerate at all nine goes on to the lattice like any other.

    The dual is then the reduced wedge of the n coefficient vectors of one
    line's image that have rank n at the first line (a, b, 1) of the
    principal lattice Lambda_D where all d+1 of them reach rank n; rank
    n+1 there raises NotPlanar, and no such line raises
    EverywhereDegenerate.  The wedge is read in integers at the lattice
    lines and interpolated (`_wedge_forms`); no linear system is solved.
    For d+1 = n the n vectors span the image of every line.  For d >= n the
    reduced wedge G is certified by A(l) G(l) = 0 on Lambda_(d + deg G),
    from the rows already read; a nonzero entry raises NotPlanar naming the
    line.
    """
    if F.domain_vars != 3:
        raise ValueError("dual maps need domain RP^2")
    n, d = F.codim, F.degree
    if n < 2:
        raise ValueError("dual maps need a target of dimension at least 2")
    _check_preconditions(F, seed)
    D = _wedge_degree(n, d)
    rows = _row_reader(F)
    chosen = _spanning_rows(rows, n, D)
    if chosen is None:
        raise EverywhereDegenerate(f"no line's image spans a hyperplane of RP^{n}")
    G = reduce_map(_wedge_forms(rows, chosen, D))
    if d >= n:
        _certify(G, rows, d)
    return G


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

