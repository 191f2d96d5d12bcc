"""Seeded inputs of the benchmark, built without the program.

Polynomials here are plain dicts {exponent tuple: int}; a map is a list of
them.  Every draw comes from (seed, label), so one seed always gives the same
corpus.  The program sees them only as the RatMaps, JSON and CSV files the
workloads build from them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction


def rng_for(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"bench|{seed}|{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# integer polynomial arithmetic, just enough to plant maps
# ---------------------------------------------------------------------------


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    return sorted(
        e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree
    )


def p_add(a: dict, b: dict, cb=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + cb * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def p_pow(a: dict, k: int, nvars: int) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(k):
        out = p_mul(out, a)
    return out


def compose(F: list, G: list) -> list:
    """F∘G: substitute the forms of G for the variables of F."""
    nv = len(next(iter(G[0])))
    out = []
    for comp in F:
        acc: dict = {}
        for e, c in comp.items():
            term = {(0,) * nv: c}
            for g, k in zip(G, e):
                if k:
                    term = p_mul(term, p_pow(g, k, nv))
            acc = p_add(acc, term)
        out.append(acc)
    return out


def apply_target(T: list, F: list) -> list:
    """T∘F for an integer matrix T acting on the target coordinates."""
    out = []
    for row in T:
        acc: dict = {}
        for c, comp in zip(row, F):
            if c:
                acc = p_add(acc, comp, c)
        out.append(acc)
    return out


def evaluate(F: list, x) -> tuple:
    """Exact value of every component at a coordinate vector."""
    out = []
    for comp in F:
        s = Fraction(0)
        for e, c in comp.items():
            t = Fraction(c)
            for xi, k in zip(x, e):
                if k:
                    t *= Fraction(xi) ** k
            s += t
        out.append(s)
    return tuple(out)


def integer_det(m) -> Fraction:
    """Determinant by fraction elimination (small matrices only)."""
    a = [[Fraction(x) for x in r] for r in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return d


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------


def random_map(rng: random.Random, degree: int, target_dim: int) -> list:
    """Generic integer map RP^2 -> RP^target_dim, coefficients in [-9, 9]."""
    monos = monomials(3, degree)
    while True:
        comps = [
            {m: c for m in monos if (c := rng.randint(-9, 9))} for _ in range(target_dim + 1)
        ]
        if all(comps):
            return comps


def collineation(rng: random.Random, size: int = 3, lo: int = -3, hi: int = 3) -> list:
    while True:
        m = [[rng.randint(lo, hi) for _ in range(size)] for _ in range(size)]
        if integer_det(m) != 0:
            return m


def rotation(rng: random.Random) -> list:
    """Rational rotation of R^3 from an integer quaternion (Euler–Rodrigues)."""
    while True:
        a, b, c, d = (rng.randint(-4, 4) for _ in range(4))
        if b or c or d:
            break
    n = a * a + b * b + c * c + d * d
    m = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    return [[Fraction(x, n) for x in row] for row in m]


def random_point(rng: random.Random, lo: int = -9, hi: int = 9) -> tuple:
    while True:
        x = tuple(rng.randint(lo, hi) for _ in range(3))
        if any(x):
            return x


# ---------------------------------------------------------------------------
# fixed families, planted through seeded collineations
# ---------------------------------------------------------------------------


def _m(*exp, c=1) -> dict:
    return {tuple(exp): c}


SEGRE = [_m(2, 0, 0), _m(1, 1, 0), _m(1, 0, 1), _m(0, 1, 1)]
INVERSION = [{(0, 2, 0): 1, (0, 0, 2): 1}, _m(1, 1, 0), _m(1, 0, 1)]
#: the web of circles of the chart x0 = 1: lines and circles
CIRCLE_WEB = [_m(2, 0, 0), _m(1, 1, 0), _m(1, 0, 1), {(0, 2, 0): 1, (0, 0, 2): 1}]
#: circles through the origin, extended to a web by a fourth conic
ORIGIN_WEB = [{(0, 2, 0): 1, (0, 0, 2): 1}, _m(1, 1, 0), _m(1, 0, 1), {(2, 0, 0): 1, (0, 2, 0): 1}]
#: the net that inverts the inversion
ORIGIN_NET = ORIGIN_WEB[:3]
#: image inside the member -y0 + y3 of the circle web
IN_CONIC = [{(2, 0, 0): 1, (0, 2, 0): 1}, {(2, 0, 0): 1, (0, 2, 0): -1}, _m(1, 1, 0, c=2)]
IN_CONIC_MEMBER = (-1, 0, 0, 1)
#: y0*y3 - y1^2 - y2^2, the quadric of the circle-web image
CIRCLE_QUADRIC = {(1, 0, 0, 1): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): -1}


def linear_map(A: list) -> list:
    return [{e: c for e, c in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), row) if c} for row in A]


def stereographic(R: list) -> list:
    """Homogeneous R∘(inverse stereographic projection) into RP^3 ⊃ S^2."""
    s = {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
    xyz = [_m(1, 1, 0, c=2), _m(1, 0, 1, c=2), {(0, 2, 0): 1, (0, 0, 2): 1, (2, 0, 0): -1}]
    den = 1
    for row in R:
        for c in row:
            den = den * c.denominator // math.gcd(den, c.denominator)
    out = [{e: c * den for e, c in s.items()}]
    for row in R:
        acc: dict = {}
        for c, comp in zip(row, xyz):
            acc = p_add(acc, comp, int(c * den))
        out.append(acc)
    return out


def stereo_fn(R: list):
    """The same sphere map as a black box (u, v) -> (x, y, z)."""

    def fn(u, v):
        u, v = Fraction(u), Fraction(v)
        s = u * u + v * v + 1
        p = (2 * u / s, 2 * v / s, (u * u + v * v - 1) / s)
        return tuple(sum(R[i][j] * p[j] for j in range(3)) for i in range(3))

    return fn


def great_circle_fn(R: list):
    """(u, v) -> R·(a rational parameterisation of the equator at t = u + v²)."""

    def fn(u, v):
        t = Fraction(u) + Fraction(v) * Fraction(v)
        den = 1 + t * t
        p = ((1 - t * t) / den, 2 * t / den, Fraction(0))
        return tuple(sum(R[i][j] * p[j] for j in range(3)) for i in range(3))

    return fn


def great_circle_float_fn(R: list):
    Rf = [[float(c) for c in row] for row in R]

    def fn(u, v):
        g = 0.7 * u - 0.3 * v * v
        p = (math.cos(g), math.sin(g), 0.0)
        return tuple(sum(Rf[i][j] * p[j] for j in range(3)) for i in range(3))

    return fn


def plane_of_rotated_equator(R: list) -> tuple:
    """Covector (0, R e3) of the plane through the rotated equator, in RP^3."""
    return (Fraction(0), R[0][2], R[1][2], R[2][2])


# ---------------------------------------------------------------------------
# files in the program's formats
# ---------------------------------------------------------------------------


def scalar(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def map_json(F: list) -> dict:
    deg = sum(next(iter(F[0])))
    return {
        "components": [
            {
                "nvars": len(next(iter(c))),
                "degree": deg,
                "terms": [{"exp": list(e), "coef": scalar(k)} for e, k in sorted(c.items())],
            }
            for c in F
        ]
    }


def system_json(basis: list) -> dict:
    return {"dimension": len(basis) - 1, "basis": map_json(basis)["components"]}


def grid_csv(fn, u_axis, v_axis, fmt=scalar) -> str:
    """Grid CSV: header u,v,F1..Fn, the u index varying fastest."""
    first = fn(u_axis[0], v_axis[0])
    lines = ["u,v," + ",".join(f"F{i + 1}" for i in range(len(first)))]
    for v in v_axis:
        for u in u_axis:
            lines.append(",".join(fmt(x) for x in (u, v, *fn(u, v))))
    return "\n".join(lines) + "\n"


def affine_fn(F: list):
    """(u, v) -> (F_i / F_0)(1, u, v) for i >= 1; None where F_0 vanishes."""

    def fn(u, v):
        y = evaluate(F, (1, u, v))
        if y[0] == 0:
            return None
        return tuple(c / y[0] for c in y[1:])

    return fn
