"""Exact projective linear algebra over the rationals.

Coordinates of projective points, lines and hyperplanes are kept as integer
vectors in a canonical form (no common factor, first nonzero entry positive),
so projective equality is plain tuple equality.  Ranks, nullspaces and
determinants are computed with fraction-free Bareiss elimination on integer
matrices; no rounding ever happens in exact mode.  A small float-mode rank
helper (SVD with a relative tolerance) exists only for CSV-sampled inputs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

Scalar = Fraction

#: relative singular-value tolerance for float-mode rank decisions
FLOAT_RANK_RTOL = 1e-9


class ZeroVector(ValueError):
    """A projective coordinate vector had all entries zero."""


class DimensionMismatch(ValueError):
    """Vectors of different lengths were fed to an exterior-algebra op."""


def scalar_to_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_str(s: str) -> Fraction:
    """Parse "p/q", "p" or a decimal as an exact rational.

    Raises ValueError on malformed text, on a zero denominator and on a
    value that is not a finite number (a JSON null, list or infinity)."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"scalar {s!r} has a zero denominator") from None
    except (TypeError, OverflowError):
        raise ValueError(f"scalar {s!r} is not a rational number") from None


def _as_fraction_vector(v: Sequence) -> list[Fraction]:
    return [Fraction(c) for c in v]


def clear_denominators(v: Sequence) -> list[int]:
    """Scale a rational vector by the positive lcm of denominators."""
    fv = [c if type(c) is int else Fraction(c) for c in v]
    m = math.lcm(*(c.denominator for c in fv))
    return [c.numerator * (m // c.denominator) for c in fv]


def normalize(v: Sequence) -> tuple[int, ...]:
    """Canonical integer representative of a projective coordinate vector.

    Denominators are cleared, the integer content is divided out, and the
    sign is fixed so the first nonzero entry is positive.  Idempotent and
    invariant under scaling by any nonzero rational.

    Raises ZeroVector if all entries are zero.
    """
    iv = clear_denominators(v)
    g = 0
    for c in iv:
        g = math.gcd(g, abs(c))
    if g == 0:
        raise ZeroVector("cannot normalize the zero vector")
    iv = [c // g for c in iv]
    for c in iv:
        if c != 0:
            if c < 0:
                iv = [-x for x in iv]
            break
    return tuple(iv)


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Row-wise denominator clearing with positive multipliers.

    Positive scaling preserves the sign of every maximal minor, which the
    wedge complement relies on.
    """
    return [clear_denominators(r) for r in rows]


def _bareiss_echelon(mat: list[list[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free row echelon form.

    Returns (echelon matrix, pivot cols, sign), where sign is -1 when an odd
    number of row swaps was made.  Partial pivoting picks the
    largest-magnitude integer pivot in the current column.  The divisions
    are exact (Bareiss), so on a square matrix of full rank the last entry
    is sign times the determinant.
    """
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        best = r
        for i in range(r, nrows):
            if abs(m[i][c]) > abs(m[best][c]):
                best = i
        if m[best][c] == 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
            sign = -sign
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            for j in range(c, ncols):
                m[i][j] = (piv * m[i][j] - mic * m[r][j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
    return m, pivots, sign


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank of a matrix with rational entries."""
    if not rows:
        return 0
    mat = _integer_rows(rows)
    widths = {len(r) for r in mat}
    if len(widths) != 1:
        raise DimensionMismatch("rows of unequal length")
    _, pivots, _ = _bareiss_echelon(mat)
    return len(pivots)


def nullspace(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Exact right-nullspace basis of a rational matrix.

    Basis vectors are produced one per free column, in increasing column
    order, each with the free variable set to 1; this makes the output
    deterministic.
    """
    if not rows:
        return []
    mat = _integer_rows(rows)
    widths = {len(r) for r in mat}
    if len(widths) != 1:
        raise DimensionMismatch("rows of unequal length")
    ncols = widths.pop()
    ech, pivots, _ = _bareiss_echelon(mat)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        x = [Fraction(0)] * ncols
        x[fc] = Fraction(1)
        # back-substitute pivot variables bottom-up
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = Fraction(0)
            for c in range(pc + 1, ncols):
                if ech[r][c] != 0 and x[c] != 0:
                    s += Fraction(ech[r][c]) * x[c]
            x[pc] = -s / ech[r][pc]
        basis.append(tuple(x))
    return basis


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square rational matrix."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("determinant needs a square matrix")
    fv = [_as_fraction_vector(r) for r in rows]
    scale = 1
    for r in fv:
        scale *= math.lcm(*(c.denominator for c in r))
    ech, pivots, sign = _bareiss_echelon(_integer_rows(fv))
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * ech[n - 1][n - 1], scale)


def signed_minors(
    rows: Sequence[Sequence], mul=operator.mul, add=operator.add, neg=operator.neg
) -> list:
    """Signed maximal minors of an n x (n+1) matrix over any commutative ring.

    Entry j is (-1)^j times the determinant of the rows with column j left
    out: the covector that pairs to zero with every row.  Entries need only
    the three ring operations passed in, so the same kernel serves numbers,
    homogeneous polynomials and slope polynomials.  Each determinant expands
    by cofactors along its first remaining row, columns ascending; the
    sub-minor on a set of trailing rows and columns is computed once and
    shared by all n+1 minors, so together they take at most (n+1)·2^n
    products, where separate expansions take order (n+1)!.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n + 1 for r in rows):
        raise DimensionMismatch(f"need {n} rows of length {n + 1}")
    memo: dict = {}

    def minor(cols: tuple):
        # determinant of the last len(cols) rows on these columns
        if cols not in memo:
            row = rows[n - len(cols)]
            if len(cols) == 1:
                memo[cols] = row[cols[0]]
            else:
                acc = None
                for k, c in enumerate(cols):
                    term = mul(row[c], minor(cols[:k] + cols[k + 1 :]))
                    if k % 2:
                        term = neg(term)
                    acc = term if acc is None else add(acc, term)
                memo[cols] = acc
        return memo[cols]

    every = tuple(range(n + 1))
    out = []
    for j in range(n + 1):
        d = minor(every[:j] + every[j + 1 :])
        out.append(neg(d) if j % 2 else d)
    return out


def wedge_complement(vs: Sequence[Sequence]) -> tuple[int, ...]:
    """Covector annihilating k vectors in (k+1)-space.

    Entry j is (-1)^j times the maximal minor omitting column j, computed on
    row-wise integer-cleared inputs and divided by the (positive) integer
    content, so the result keeps the alternating sign behaviour: swapping two
    inputs flips every entry's sign, a repeated input gives the zero covector.
    Linearly dependent inputs give the zero covector (a meaningful value: it
    signals degeneracy downstream).
    """
    out = signed_minors(_integer_rows(vs))
    g = math.gcd(*out)
    if g > 1:
        out = [c // g for c in out]
    return tuple(out)


class SpanVerdict(Enum):
    """Non-hyperplane outcomes of hyperplane_through."""

    NOT_UNIQUE = "NotUnique"
    NONE_EXISTS = "NoneExists"


NOT_UNIQUE = SpanVerdict.NOT_UNIQUE
NONE_EXISTS = SpanVerdict.NONE_EXISTS


@dataclass(frozen=True)
class PPoint:
    """Point of RP^k in canonical homogeneous integer coordinates."""

    coords: tuple[int, ...]

    @classmethod
    def of(cls, *coords) -> "PPoint":
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        return cls(normalize(coords))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane of RP^k as a canonical covector; contains(p) iff <cov,p> = 0."""

    covector: tuple[int, ...]

    @classmethod
    def of(cls, *covector) -> "Hyperplane":
        if len(covector) == 1 and isinstance(covector[0], (list, tuple)):
            covector = tuple(covector[0])
        return cls(normalize(covector))

    def contains(self, p: PPoint | Sequence) -> bool:
        coords = p.coords if isinstance(p, PPoint) else p
        if len(coords) != len(self.covector):
            raise DimensionMismatch("point/hyperplane dimension mismatch")
        return sum(Fraction(a) * Fraction(b) for a, b in zip(self.covector, coords)) == 0

    def __iter__(self):
        return iter(self.covector)


@dataclass(frozen=True)
class PLine2:
    """Line in RP^2, i.e. a point of the dual plane RP^2*."""

    covector: tuple[int, int, int]

    @classmethod
    def of(cls, *covector) -> "PLine2":
        if len(covector) == 1 and isinstance(covector[0], (list, tuple)):
            covector = tuple(covector[0])
        cov = normalize(covector)
        if len(cov) != 3:
            raise DimensionMismatch("a line in RP^2 has a length-3 covector")
        return cls(cov)

    def contains(self, p: PPoint | Sequence) -> bool:
        coords = p.coords if isinstance(p, PPoint) else p
        if len(coords) != 3:
            raise DimensionMismatch("expected a point of RP^2")
        return sum(Fraction(a) * Fraction(b) for a, b in zip(self.covector, coords)) == 0

    def __iter__(self):
        return iter(self.covector)


def cross(u: Sequence, v: Sequence) -> tuple:
    """Cross product in 3-space; joins points / meets lines in RP^2."""
    if len(u) != 3 or len(v) != 3:
        raise DimensionMismatch("cross product needs length-3 vectors")
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def hyperplane_through(ps: Sequence[PPoint]) -> Hyperplane | SpanVerdict:
    """The unique hyperplane through points of RP^k, if it exists.

    Returns NOT_UNIQUE when the points span less than a hyperplane and
    NONE_EXISTS when they span everything.
    """
    if not ps:
        raise ZeroVector("need at least one point")
    rows = [list(p.coords) for p in ps]
    k = len(rows[0]) - 1
    r = rank(rows)
    if r < k:
        return NOT_UNIQUE
    if r > k:
        return NONE_EXISTS
    basis = nullspace(rows)
    return Hyperplane.of(basis[0])


def float_rank(rows: Sequence[Sequence[float]], rtol: float = FLOAT_RANK_RTOL) -> int:
    """Rank with a relative singular-value cutoff (float mode only)."""
    a = np.asarray(rows, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def float_nullvector(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """Right singular vector of the smallest singular value (float mode)."""
    a = np.asarray(rows, dtype=float)
    _, _, vh = np.linalg.svd(a)
    return vh[-1]


def rationalize_direction(
    vec: Sequence[float], max_den: int = 10**6, zero_rtol: float = FLOAT_RANK_RTOL
) -> tuple[int, ...]:
    """Canonical rational representative of a float direction vector.

    Entries are scaled by the largest magnitude (so clean data becomes small
    ratios), values below the relative tolerance snap to zero, and each
    remaining ratio snaps to the nearest small-denominator rational.
    """
    top = max(abs(float(x)) for x in vec)
    if top == 0.0:
        raise ZeroVector("cannot rationalize the zero vector")
    snapped = []
    for x in vec:
        r = float(x) / top
        if abs(r) <= zero_rtol:
            snapped.append(Fraction(0))
        else:
            snapped.append(Fraction(r).limit_denominator(max_den))
    return normalize(snapped)
