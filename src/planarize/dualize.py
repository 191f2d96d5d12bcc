"""Dual maps of rational planarizations and the trichotomy classifier.

The dual assigns to a line of RP^2 (a point of the dual plane) the
hyperplane containing the image of that line.  `dual_map` finds it exactly
for a map of degree d into RP^n with d+1 >= n, by one route on a principal
lattice of lines, and every NotPlanar it raises names a line whose image
spans RP^n.  The classifier then sorts a map into the trivial / co-trivial
/ rational trichotomy by two exact rank computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import projcore
from .jetplan import ExactMapSource, OnIndeterminacy, nondegenerate_at
from .poly import (
    HPoly,
    RatMap,
    line_base_points,
    reduce_map,
    _binary_gcd_degree,
    _binomial_row,
    _block_forms,
    _int_components,
    _monomial_values,
    _monomials,
    _newton_line,
    _newton_triangle,
    _powers,
    _reduced_map,
)
from .projcore import Hyperplane, PLine2, PPoint
from .seeding import stable_rng

#: most cells, C(D+2, 2) lattice points times the (d+1)(n+1) entries of
#: A(l), that `dual_map` may read for a map of degree d into RP^n, with
#: D = n d - n(n-1)/2.  On a 2-core machine `dual_map` takes 0.10 s on a
#: sextic into RP^7 (14,168 cells), 0.3 s on a septic into RP^8 (31,320) and
#: 0.02-0.04 s on maps into RP^3 of degree 12-14 with a linear relation
#: (30,940-49,200); an octic into RP^9 (63,270) takes 1.0 s (process time,
#: best of five)
MAX_DUAL_LATTICE_CELLS = 50_000

#: the fixed 3x3 grid (i/4, j/4), i, j = 1..3, at which `_check_preconditions`
#: asks `jetplan.nondegenerate_at`
_PRECHECK_POINTS = tuple((Fraction(i, 4), Fraction(j, 4)) for i in range(1, 4) for j in range(1, 4))


class EverywhereDegenerate(ValueError):
    """No point of the map determines per-line hyperplanes: its lines' images
    span too little for their degree, or no line of the dual's lattice has
    an image that spans a hyperplane, which proves that none has."""


class NotPlanar(ValueError):
    """The input is not a planarization: the image of the line it names
    spans all of RP^n, so no hyperplane contains it."""


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
    return projcore.null_direction([[c.terms.get(m, 0) for c in F.components] for m in monos], True)


def _wedge_degree(n: int, d: int) -> int:
    """n d - n(n-1)/2, the degree in (a, b) of the minors of n rows of A (see
    `_wedge_forms`): the lattice Lambda_D of the wedge has C(D+2, 2) points."""
    return n * d - n * (n - 1) // 2


def _lattice(D: int):
    """The principal lattice Lambda_D: the points (a, b) >= 0 with a + b <= D,
    a-major."""
    return ((a, b) for a in range(D + 1) for b in range(D + 1 - a))


def _spans_modulo_prime(F: RatMap, line: PLine2) -> bool:
    """Whether the images of the n+1 points p0 + t p1, t = 0..n, of the line
    (`line_base_points`) have rank n+1 modulo projcore._PRIMES[0].  A rank
    mod p is at most the rank over Q, so True proves that the image of the
    line spans RP^n; False proves nothing.  F is cleared to integers once
    and each monomial is one pow(x, e, p) per point, so the work does not
    grow with the degree.  The residue matrix is square: its last Bareiss
    pivot is +-det over Z, which is det modulo p, so rank n+1 mod p is n+1
    pivots with a last pivot p does not divide."""
    p = projcore._PRIMES[0]
    p0, p1 = line_base_points(line)
    comps = [[(c % p, e) for e, c in comp.items()] for comp in _int_components(F.components)]
    rows = []
    for t in range(F.codim + 1):
        x0, x1, x2 = ((a + t * b) % p for a, b in zip(p0, p1))
        rows.append([
            sum(c * pow(x0, e0, p) * pow(x1, e1, p) * pow(x2, e2, p) for c, (e0, e1, e2) in comp) % p
            for comp in comps
        ])
    ech, pivots = projcore._bareiss_echelon(rows)
    return len(pivots) == F.codim + 1 and ech[-1][-1] % p != 0


def _check_preconditions(F: RatMap, seed: int) -> None:
    """Raise EverywhereDegenerate for d+1 < n, NotPlanar for a seeded line
    whose image is shown to span RP^n modulo a prime when d >= n
    (`_spans_modulo_prime`), and ValueError for a lattice of more than
    MAX_DUAL_LATTICE_CELLS cells, in `dual_map`'s order.  Every other map
    goes on to the lattice, which alone decides the rest."""
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
        if _spans_modulo_prime(F, line):
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
    for i, comp in enumerate(_int_components(F.components)):
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


def _pivots(rows: Callable, n: int, D: int):
    """At each line of Lambda_D in turn, the rows of A that have full rank
    there (the pivots of its transpose); rank n+1 raises NotPlanar."""
    for a, b in _lattice(D):
        _, pivots = projcore._bareiss_echelon([list(col) for col in zip(*rows(a, b))])
        if len(pivots) > n:
            raise NotPlanar(f"the image of line {(a, b, 1)} spans RP^{n}, so no hyperplane contains it")
        yield pivots


def _spanning_rows(rows: Callable, n: int, D: int) -> Optional[list[int]]:
    """The first n rows of A with rank n at the first line of Lambda_D where
    A has rank at least n (`_pivots`), or None if there is none: then every
    n x n minor of A, of degree at most D (`_wedge_forms`), is zero."""
    return next((pivots for pivots in _pivots(rows, n, D) if len(pivots) == n), None)


def _refuse_spanning_lines(rows: Callable, n: int, d: int, D: int) -> None:
    """For d >= n, raise NotPlanar at the first line of Lambda_(D+d-n) whose
    image spans RP^n (`_pivots`); if none does, no line does (`dual_map`)."""
    if d >= n:
        for _ in _pivots(rows, n, D + d - n):
            pass


def _pencil_minors(rows: Callable, chosen: Sequence[int], D: int) -> list[list[int]]:
    """The wedge W(l) of the rows `chosen` of A (`_wedge_forms`) at the
    lines (a, D - a, 1), a = 0..D: the edge a + b = D of the principal
    lattice Lambda_D, on the pencil l_0 + l_1 = D l_2.  That pencil holds
    none of the coordinate lines l = e_i, where sparse maps put the base
    points and monomial factors of their wedge."""
    return [projcore.signed_minors(rows(a, D - a, chosen)) for a in range(D + 1)]


def _pencil_bound(pencil: Sequence[Sequence[int]], D: int) -> int:
    """An upper bound on the degree of the common factor h of the wedge's
    forms H (`_wedge_forms`), from their values on the pencil
    (`_pencil_minors`): H_i(a, D - a, 1) is a polynomial of degree at most
    D in a, the form restricted to the pencil at u_0 = 1, which one Newton
    row interpolates (`poly._newton_line`).  h restricted divides every
    restriction, so the degree of their gcd bounds deg h
    (`poly._binary_gcd_degree`); 0 proves H reduced."""
    return _binary_gcd_degree([_newton_line(values) for values in zip(*pencil)], D)


def _wedge_forms(rows: Callable, chosen: Sequence[int], D: int, pencil: Sequence[Sequence[int]]) -> list[HPoly]:
    """Forms H of degree D whose reduction is the reduced wedge of the rows
    `chosen` of A (`_row_reader`): their signed maximal minors W(l), the
    covector of the hyperplane they span, read on the principal lattice
    Lambda_D, interpolated (`poly._newton_triangle`, at the scale (D!)^2)
    and homogenized.  The minors at the lines (a, D - a, 1) are `pencil`
    (`_pencil_minors`), already read.

    As forms in l the entries of A have degree d.  With l_2 = e the line's
    points are (-t e, s e, L), L = l_0 t - l_1 s, so F(s p + t q) =
    sum_k e^k L^(d-k) psi_k with psi_k of degree k: the part of power e^k
    lies in a space of dimension k + 1.  Expanding the columns of a minor
    by powers of e, a term whose vectors are independent has its m-th
    smallest power at least m - 1.  So W is divisible by l_2^(n(n-1)/2),
    and where l_2 = 1 it has degree at most D = n d - n(n-1)/2, which
    Lambda_D fixes.  For d+1 = n, W = +-l_2^D H with H of degree D."""
    grid = [
        [projcore.signed_minors(rows(a, b, chosen)) for b in range(D - a)] + [pencil[a]] for a in range(D + 1)
    ]
    H = []
    for i in range(len(chosen) + 1):
        coeffs = _newton_triangle([[w[i] for w in row] for row in grid], D)
        H.append(HPoly._trusted(3, D, {(k, l, D - k - l): c for (k, l), c in coeffs.items()}))
    return H


def _pairing_kernel(rows: Callable, d: int, k: int) -> Optional[list[HPoly]]:
    """The first nullspace vector of A(l) G(l) = 0 at every line l of
    Lambda_(d+k), over n+1 forms G of degree k taken component-major (the
    columns of `poly._parallel_forms` at k), as n+1 forms, or None if only
    G = 0 solves it.  Each row of A(l) (`_row_reader`) is one equation:
    the row times the monomials of degree k at (a, b, 1).  The entries of
    A(l) G(l) have degree at most d + k in (a, b), so a solution makes
    them vanish identically: G(l) contains the image of every line, and
    the solve is its own certificate."""
    monos = _monomials(3, k)
    matrix = []
    for a, b in _lattice(d + k):
        w = _monomial_values(monos, (a, b, 1), 1, k)
        matrix.extend([x * y for x in row for y in w] for row in rows(a, b))
    basis = projcore._nullspace_int(matrix)
    return _block_forms(basis[0], 3, k) if basis else None


def dual_map(F: RatMap, seed: int = 0) -> RatMap:
    """The rational map sending a line to the hyperplane containing its image.

    Restricted to a line, a degree-d map into RP^n is n+1 binary forms of
    degree d, so the image of a line spans rank at most min(d+1, n+1).  The
    preconditions are decided in this order, before the lattice is read:

    1. d+1 < n: no line's image picks out one hyperplane, so
       EverywhereDegenerate at once.
    2. d >= n: F is read modulo a prime at n+1 points of one seeded line;
       if those images have rank n+1 there, the line's image spans all of
       RP^n, no hyperplane contains it and NotPlanar names the line.  A
       lower rank there decides nothing.
    3. A lattice of more than MAX_DUAL_LATTICE_CELLS cells, C(D+2, 2)
       points (D = n d - n(n-1)/2) times the (d+1)(n+1) entries of A,
       raises ValueError.
    4. `jetplan.nondegenerate_at` is asked at the points of a fixed 3x3
       grid until one is nondegenerate.  The answer decides nothing: a map
       degenerate at all nine goes on to the lattice like any other.

    The wedge H, forms of degree D, is the signed maximal minors of the n
    coefficient vectors of a line's image that have rank n at the first
    line (a, b, 1) of the principal lattice Lambda_D where A reaches rank n
    (`_spanning_rows`): rank n+1 on the way raises NotPlanar, and no such
    line EverywhereDegenerate.  H is read on the edge (a, D - a, 1), where
    the gcd of its restrictions bounds the degree b of its common factor h,
    H = h G (`_pencil_bound`).  For k = D - b, ..., D - 1 the system
    A(l) G(l) = 0 on Lambda_(d+k) is solved (`_pairing_kernel`): the first
    nonzero kernel is the dual and certifies itself.  For d >= n the first
    empty kernel, or b = 0, sends Lambda_(D+d-n) once to
    `_refuse_spanning_lines`, before any larger kernel.  With no kernel
    below D, H interpolated on Lambda_D (`_wedge_forms`) is the dual.

    Why the tail needs no reduction and no certificate:

    - A planarization's dual G solves the pairing system at its own degree
      g = D - deg h >= D - b.  So with no kernel below D, g = D, h is a
      constant and H is reduced: `_reduced_map(H)` gives the bytes
      `reduce_map(H)` would.
    - The maximal minors of any n+1 rows of A have degree at most
      (n+1) d - n(n+1)/2 = D + d - n where l_2 = 1 (`_wedge_forms`'
      argument with n+1 rows).  So if no line of Lambda_(D+d-n) spans
      RP^n, none does and F is a planarization; for d < n, A has d+1 <= n
      rows.  Every NotPlanar therefore names a line whose image spans RP^n.
    - (Not needed by the code.)  For d >= n a planarization's dual has
      degree below D: by Plucker's formula each line's image has
      n(d-n+1) > 0 ramification points, and the first n rows of A are
      dependent on the curve of lines that meet x0 = 0 at one of them.  So
      only maps that are not planarizations reach the tail with d >= n.
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
    pencil = _pencil_minors(rows, chosen, D)
    b = _pencil_bound(pencil, D)
    for k in range(D - b, D):
        forms = _pairing_kernel(rows, d, k)
        if forms is not None:
            return _reduced_map(forms)
        if k == D - b:  # a map that is not a planarization stops before the larger kernels
            _refuse_spanning_lines(rows, n, d, D)
    if b == 0:
        _refuse_spanning_lines(rows, n, d, D)
    return _reduced_map(_wedge_forms(rows, chosen, D, pencil))


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
    return Rational(reduce_map(F).degree)

