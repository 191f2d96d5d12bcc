"""Exact projective linear algebra over the rationals.

Coordinates of projective points, lines and hyperplanes are kept as integer
vectors in a canonical form (no common factor, first nonzero entry positive),
so projective equality is plain tuple equality.  Ranks are computed with
fraction-free Bareiss elimination on integer matrices.
One private kernel, `_nullspace_int`, solves every exact nullspace on an
integer matrix and returns integer vectors.  Systems of at least
_MODULAR_MIN_CELLS cells are solved modulo fixed 31-bit primes in int64
arithmetic, lifted by CRT and rational reconstruction in integers, and
returned only once A·X = 0 holds; smaller systems, and those the primes
cannot settle, use Bareiss.  Both routes give positive multiples of the
same basis, and no rounding ever happens in exact mode.  The public
`nullspace` divides each vector by its free entry; callers in the package
that need a kernel vector only up to scale call the kernel directly.
Denominators are cleared here, once, for the whole package: `_cleared`
turns a rational vector into integers over the lcm of its denominators,
and the polynomial and univariate kernels use it too.  null_direction
picks the exact route or, for float CSV-sampled inputs, one SVD with a
relative tolerance, from a flag.
numpy is imported only inside the modular and SVD functions, so importing
the package does not load it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
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


def _cleared(v: Sequence) -> tuple[list[int], int]:
    """(X, L) with X integer and v = X / L, L the positive lcm of the
    denominators of v's entries (anything Fraction accepts); an all-int v
    comes back as a list with L = 1."""
    if all(type(c) is int for c in v):
        return list(v), 1
    fv = [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in v]
    L = math.lcm(*(c.denominator for c in fv))
    return [c.numerator * (L // c.denominator) for c in fv], L


def normalize(v: Sequence) -> tuple[int, ...]:
    """Canonical integer representative of a projective coordinate vector.

    Denominators are cleared, the integer content is divided out, and the
    sign is fixed so the first nonzero entry is positive.  Idempotent and
    invariant under scaling by any nonzero rational.

    Raises ZeroVector if all entries are zero.
    """
    iv, _ = _cleared(v)
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
    """Row-wise denominator clearing with positive multipliers: each row
    becomes a positive multiple of itself, so ranks and nullspaces keep."""
    return [_cleared(r)[0] for r in rows]


def _bareiss_echelon(mat: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form: (echelon matrix, pivot cols).

    Partial pivoting picks the largest-magnitude integer pivot in the
    current column.  The divisions are exact (Bareiss).
    """
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
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
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            for j in range(c, ncols):
                m[i][j] = (piv * m[i][j] - mic * m[r][j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank of a matrix with rational entries.

    A matrix of at least _MODULAR_MIN_CELLS cells is first ranked modulo
    _PRIMES[0]: the rank mod p is at most the rank over Q, so a full rank
    mod p is the answer.  Otherwise, and for smaller matrices, Bareiss
    answers."""
    if not rows:
        return 0
    mat = _integer_rows(rows)
    widths = {len(r) for r in mat}
    if len(widths) != 1:
        raise DimensionMismatch("rows of unequal length")
    ncols = widths.pop()
    full = min(len(mat), ncols)
    if len(mat) * ncols >= _MODULAR_MIN_CELLS:
        import numpy as np

        p = _PRIMES[0]
        _, pivots = _rref_mod(np.array([[x % p for x in row] for row in mat], dtype=np.int64), p)
        if len(pivots) == full:
            return full
    _, pivots = _bareiss_echelon(mat)
    return len(pivots)


def nullspace(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Exact right-nullspace basis of a rational matrix.

    Basis vectors are produced one per free column, in increasing column
    order, each with the free variable set to 1 and every other free
    variable 0; this makes the output deterministic.  The rows are cleared
    to integers and solved by `_nullspace_int`, whose vectors are positive
    multiples of these, and each is divided by its free entry, its last
    nonzero one.
    """
    if not rows:
        return []
    basis = []
    for X in _nullspace_int(_integer_rows(rows)):
        free = next(c for c in reversed(X) if c)
        basis.append(tuple(Fraction(c, free) for c in X))
    return basis


def _nullspace_int(mat: list[list[int]]) -> list[list[int]]:
    """Right-nullspace basis of an integer matrix, as integer vectors.

    One vector per free column, in increasing column order: a positive
    multiple of the vector that is 1 on that free column and 0 on the
    others, so its last nonzero entry is the free one, and it is positive.
    Systems of at least _MODULAR_MIN_CELLS cells are solved modulo fixed
    primes and lifted by rational reconstruction, and the basis is returned
    only after A·X = 0 is checked in integers (see _nullspace_modular);
    smaller systems, and larger ones the primes cannot settle, go through
    Bareiss.  For callers that need the vectors only up to scale; the rows
    are not modified.
    """
    if not mat:
        return []
    widths = {len(r) for r in mat}
    if len(widths) != 1:
        raise DimensionMismatch("rows of unequal length")
    ncols = widths.pop()
    if len(mat) * ncols >= _MODULAR_MIN_CELLS:
        basis = _nullspace_modular(mat, ncols)
        if basis is not None:
            return basis
    ech, pivots = _bareiss_echelon(mat)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        # y is the solution times y[fc] > 0; back-substitute pivot variables
        # bottom-up, scaling y so that each new entry is integral
        y = [0] * ncols
        y[fc] = 1
        solved = [fc]
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = ech[r]
            s = 0
            for c in solved:  # entries left of the pivot are zero
                s += row[c] * y[c]
            piv = row[pc]
            g = math.gcd(s, piv)
            k = abs(piv) // g
            if k != 1:
                y = [c * k for c in y]
            y[pc] = -s // g if piv > 0 else s // g
            solved.append(pc)
        basis.append(y)
    return basis


#: systems with fewer cells than this stay on Bareiss: there numpy's cost
#: per pivot outweighs the big-integer arithmetic it saves
_MODULAR_MIN_CELLS = 200

#: the largest 31-bit primes; p² < 2⁶² keeps every product of two residues
#: inside int64
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
    2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
)


def _rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p) of an int64 matrix with entries
    in [0, p): (its nonzero rows, their pivot columns).  Each pivot clears
    its column in every other row with one broadcast update of the columns
    from it on (all earlier ones are settled); rows whose entry there is 0
    take a zero update, which is cheaper than picking them out."""
    import numpy as np

    m = a.copy()
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        i = r + int(m[r:, c].argmax())
        piv = int(m[i, c])
        if not piv:
            continue
        row = m[i, c:] * pow(piv, -1, p) % p
        if i != r:  # rows r.. are zero left of c
            m[i, c:] = m[r, c:]
        m[r, c:] = row
        f = m[:, c].copy()
        f[r] = 0
        sub = m[:, c:]
        sub -= np.multiply.outer(f, row)  # > -p², so inside int64
        sub %= p
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _ratrecon(u: int, m: int) -> tuple[int, int] | None:
    """Maximal quotient rational reconstruction (Monagan, ISSAC 2004):
    (n, d) with d > 0, gcd(n, d) = 1 and n ≡ u·d (mod m), taken at the
    largest quotient of the Euclidean sequence of (m, u); None when no
    quotient exceeds T = 2¹⁰·log₂ m or n and d share a factor."""
    if u == 0:
        return 0, 1
    best = m.bit_length() << 10
    n = d = 0
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 and r0 > best:
        q = r0 // r1
        if q > best:
            n, d, best = r1, t1, q
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if d == 0 or math.gcd(n, d) != 1:
        return None
    return (-n, -d) if d < 0 else (n, d)


def _nullspace_modular(mat: list[list[int]], ncols: int) -> list[list[int]] | None:
    """_nullspace_int() of an integer matrix from its RREFs modulo _PRIMES,
    or None when the primes run out first.

    Only primes with the best pivot list seen are combined by CRT: highest
    rank first, then the lexicographically smallest list, which bounds the
    rational one from below (rank_p ≤ rank_Q on every leading block of
    columns).  A basis is returned only when every reconstructed vector X
    satisfies A·X = 0 in integers.  Each vector is positive on its free
    column, 0 on the other free columns and 0 on the pivot columns after its
    own, so n − rank_p independent vectors of ker_Q give rank_p = rank_Q,
    every mod-p free column is free over Q, and each vector is a positive
    multiple of the one Bareiss gives.
    """
    import numpy as np

    try:
        base = np.array(mat, dtype=np.int64)
    except OverflowError:  # an entry outside int64: reduce it in Python
        base = None
    best = None
    for p in _PRIMES:
        a = np.array([[x % p for x in row] for row in mat], dtype=np.int64) if base is None else base % p
        ech, pivots = _rref_mod(a, p)
        if len(pivots) == ncols:
            return []  # full rank mod p, so full rank over Q
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue
        pivot_set = set(pivots)
        free = [c for c in range(ncols) if c not in pivot_set]
        res = ech[:, free].T.tolist()  # R[r][fc] mod p, one list per free column fc
        if best is None or key < best:
            best, modulus, crt = key, p, res
        else:
            inv = pow(modulus % p, -1, p)
            crt = [
                [x + modulus * ((r - x % p) * inv % p) for x, r in zip(xs, rs)]
                for xs, rs in zip(crt, res)
            ]
            modulus *= p
        basis = _lift(crt, pivots, free, modulus)
        if basis is not None and all(_annihilates(mat, v) for v in basis):
            return basis
    return None


def _lift(crt: list[list[int]], pivots: list[int], free: list[int], m: int) -> list[list[int]] | None:
    """Integer basis vectors from the CRT images mod m of each free
    column's RREF entries, or None when one entry does not reconstruct.
    A vector's free entry is the common denominator of the entries found so
    far, and each entry is reconstructed times it, so that once the common
    denominator is found the rest are integers, which reconstruct up to
    about m / T in size; a new denominator scales the whole vector."""
    ncols = len(pivots) + len(free)
    basis = []
    for fc, col in zip(free, crt):
        x = [0] * ncols
        x[fc] = 1
        for pc, u in zip(pivots, col):
            if not u:
                continue
            nd = _ratrecon(-u * x[fc] % m, m)
            if nd is None:
                return None
            n, q = nd
            if q != 1:
                x = [c * q for c in x]
            x[pc] = n
        basis.append(x)
    return basis


def _annihilates(mat: list[list[int]], X: Sequence[int]) -> bool:
    """A·X = 0 for an integer vector X."""
    return not any(sum(map(operator.mul, row, X)) for row in mat)


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
    # level by level: the determinants of the last m rows on every m-set of
    # columns, in the order of _minor_plan(n)
    minors = list(rows[-1])
    for m, level in enumerate(_minor_plan(n), start=2):
        row = rows[n - m]
        current = []
        for expansion in level:
            acc = None
            for c, sub, odd in expansion:
                term = mul(row[c], minors[sub])
                if odd:
                    term = neg(term)
                acc = term if acc is None else add(acc, term)
            current.append(acc)
        minors = current
    # the n-sets come as combinations of range(n + 1): column n left out first
    return [neg(minors[n - j]) if j % 2 else minors[n - j] for j in range(n + 1)]


@functools.lru_cache(maxsize=None)
def _minor_plan(n: int) -> tuple:
    """For m = 2..n, the cofactor expansions of the m-sets of columns of an
    n x (n+1) matrix, in itertools.combinations order: for each set, one
    (column, index of the (m-1)-set left when it is removed, odd position)
    per column of the set."""
    plan = []
    previous = {(c,): c for c in range(n + 1)}
    for m in range(2, n + 1):
        sets = list(itertools.combinations(range(n + 1), m))
        plan.append(tuple(
            tuple((c, previous[cols[:k] + cols[k + 1 :]], k % 2) for k, c in enumerate(cols)) for cols in sets
        ))
        previous = {cols: i for i, cols in enumerate(sets)}
    return tuple(plan)


@dataclass(frozen=True)
class PPoint:
    """Point of RP^k in canonical homogeneous integer coordinates."""

    coords: tuple[int, ...]

    @classmethod
    def of(cls, *coords) -> "PPoint":
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        return cls(normalize(coords))


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
        return sum(map(operator.mul, self.covector, coords)) == 0


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
        return sum(map(operator.mul, self.covector, coords)) == 0


def cross(u: Sequence, v: Sequence) -> tuple:
    """Cross product in 3-space; joins points / meets lines in RP^2."""
    if len(u) != 3 or len(v) != 3:
        raise DimensionMismatch("cross product needs length-3 vectors")
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def rationalize_direction(vec: Sequence[float], max_den: int = 10**6) -> tuple[int, ...]:
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
        if abs(r) <= FLOAT_RANK_RTOL:
            snapped.append(Fraction(0))
        else:
            snapped.append(Fraction(r).limit_denominator(max_den))
    return normalize(snapped)


def null_direction(rows: Sequence[Sequence], exact: bool) -> tuple[int, ...] | None:
    """Canonical first right-null direction of a matrix, or None when its
    columns are independent.  Float rows have one when their rank, the
    number of singular values above FLOAT_RANK_RTOL times the largest, is
    below the column count; it is the rationalized singular direction of
    the smallest singular value.  One full SVD gives both the rank and that
    direction."""
    if exact:
        basis = _nullspace_int(_integer_rows(rows))
        return normalize(basis[0]) if basis else None
    import numpy as np

    a = np.array([[float(x) for x in r] for r in rows])
    _, s, vh = np.linalg.svd(a)
    r = int(np.sum(s > FLOAT_RANK_RTOL * s[0])) if s.size and s[0] > 0.0 else 0
    return rationalize_direction(vh[-1]) if r < a.shape[1] else None
