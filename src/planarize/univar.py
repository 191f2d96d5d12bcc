"""Dense univariate polynomials with exact coefficients, and their gcd.

Coefficient lists are low-to-high degree; the zero polynomial is [].  A
coefficient is an int or a Fraction.  add, sub and mul accumulate from
the int 0, so int lists give int lists (as `poly._line_rows` forms its
binomial rows) and Fraction lists give Fractions (as the jet wedges
expect); evaluate works in Fractions.

The gcd kernel works on integers with the content kept apart:
`content_primitive` splits a polynomial once into its rational content and
an integer primitive part (projcore clears the denominators), and `gcd`
and `divexact` compute on those int lists.  The gcd is the last nonzero
term of the primitive pseudo-remainder sequence of the two primitive
parts: a primitive int list with a positive leading coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from . import projcore

Poly = list  # list of ints and Fractions, low-to-high


def trim(p: Sequence) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: Sequence) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(trim(p)) - 1


def add(p: Sequence, q: Sequence) -> Poly:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def sub(p: Sequence, q: Sequence) -> Poly:
    return add(p, [-c for c in q])


def mul(p: Sequence, q: Sequence) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def evaluate(p: Sequence, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# the integer gcd kernel
# ---------------------------------------------------------------------------


def content_primitive(p: Sequence) -> tuple[Fraction, list[int]]:
    """(c, P) with p = c P: the rational content and the int primitive part
    with positive lead; (0, []) for the zero polynomial."""
    p = trim(p)
    if not p:
        return Fraction(0), []
    ints, den = projcore._cleared(p)
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return Fraction(g, den), [c // g for c in ints]


def _exquo(a: list[int], b: list[int]) -> Optional[list[int]]:
    """a / b over the integers, or None when b does not divide a in Z[x]."""
    db = len(b) - 1
    if len(a) <= db:
        return [] if not a else None
    r = list(a)
    lead = b[-1]
    quo = [0] * (len(a) - db)
    for k in range(len(quo) - 1, -1, -1):
        c, m = divmod(r[k + db], lead)
        if m:
            return None
        quo[k] = c
        if c:
            for i in range(db):
                r[k + i] -= c * b[i]
    return quo if not any(r[:db]) else None


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over the integers, up to a unit power of
    lead(b) (the caller takes its primitive part)."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    while len(r) > db:
        k = len(r) - 1 - db
        c = r[-1]
        r = [x * lead for x in r]
        for i in range(db + 1):
            r[k + i] -= c * b[i]
        r = trim(r)
    return r


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two primitive int polynomials (positive leads) by
    the primitive pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, content_primitive(r)[1]
    return [1]


def gcd(p: Sequence, q: Sequence) -> list[int]:
    """Primitive gcd with positive lead ([] when both are zero)."""
    a = content_primitive(p)[1]
    b = content_primitive(q)[1]
    if not a:
        return b
    if not b:
        return a
    return _prs_gcd(a, b)


def divexact(p: Sequence, q: Sequence) -> Poly:
    """The exact quotient p / q; ints when the content ratio is integral,
    Fractions otherwise.  Raises ArithmeticError when q does not divide p."""
    cq, b = content_primitive(q)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    cp, a = content_primitive(p)
    # b is primitive, so b | a over Q means b | a over Z (Gauss)
    quo = _exquo(a, b)
    if quo is None:
        raise ArithmeticError("inexact univariate division")
    ratio = cp / cq
    if ratio.denominator == 1:
        ratio = ratio.numerator
    return [c * ratio for c in quo]
