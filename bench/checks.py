"""Output checks, computed apart from the program.

Each check compares a result with a computation of its own (sympy polynomial
arithmetic and ranks, or exact evaluation with Fractions) or with a property
the method must have.  None compares against a stored copy of an earlier
output.  Maps and forms are plain data: a form is {exponent tuple: number},
a map is a list of forms.  A failed check raises CheckFailed.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

import corpus


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------


def terms_of(ratmap) -> list:
    """Plain-data copy of a program RatMap (or a single HPoly)."""
    comps = getattr(ratmap, "components", None)
    if comps is None:
        return dict(ratmap.terms)
    return [dict(c.terms) for c in comps]


def form_from_json(data: dict) -> dict:
    return {tuple(t["exp"]): Fraction(t["coef"]) for t in data["terms"]}


def map_from_json(data: dict) -> list:
    return [form_from_json(c) for c in data["components"]]


def spoly(form: dict, count: int) -> sp.Poly:
    """The form as a sympy polynomial over QQ in `count` variables."""
    data = {e: QQ(Fraction(c).numerator, Fraction(c).denominator) for e, c in form.items()}
    return sp.Poly.from_dict(data, *sp.symbols(f"z0:{count}"), domain=QQ)


def nvars(F: list) -> int:
    for comp in F:
        for e in comp:
            return len(e)
    raise CheckFailed("map has no terms at all")


def degree(F: list) -> int:
    for comp in F:
        for e in comp:
            return sum(e)
    raise CheckFailed("map has no terms at all")


def substitute(form: dict, args: list) -> sp.Poly:
    """form(args[0], ..., args[k]) for sympy Polys args."""
    out = args[0] * 0
    for e, c in form.items():
        term = args[0] * 0 + QQ(Fraction(c).numerator, Fraction(c).denominator)
        for a, k in zip(args, e):
            if k:
                term = term * a**k
        out = out + term
    return out


def _matrix(rows) -> DomainMatrix:
    data = [[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in r] for r in rows]
    return DomainMatrix(data, (len(data), len(data[0])), QQ)


def rank(rows) -> int:
    if not rows or not rows[0]:
        return 0
    return _matrix(rows).rank()


def nullspace(rows) -> list:
    """Basis of the right nullspace, as lists of Fractions."""
    ns = _matrix(rows).nullspace().to_list()
    return [[Fraction(int(v.numerator), int(v.denominator)) for v in row] for row in ns]


# ---------------------------------------------------------------------------
# small projective helpers
# ---------------------------------------------------------------------------


def proportional(a, b) -> bool:
    """Nonzero vectors a and b span the same projective point."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    if len(a) != len(b) or not any(a) or not any(b):
        return False
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


def projectively_equal(F: list, G: list) -> bool:
    """F_i G_j - F_j G_i expands to 0 for every pair (and neither map is 0)."""
    if len(F) != len(G) or not any(F) or not any(G):
        return False
    nv = nvars(F)
    if nvars(G) != nv:
        return False
    P = [spoly(c, nv) for c in F]
    Q = [spoly(c, nv) for c in G]
    return all(
        (P[i] * Q[j] - P[j] * Q[i]).is_zero for i in range(len(P)) for j in range(i + 1, len(P))
    )


def line_points(line, count: int) -> list:
    """`count` distinct points of the line {x : line·x = 0} of RP^2."""
    j = max(i for i in range(3) if line[i] != 0)
    others = [i for i in range(3) if i != j]
    basis = []
    for a in others:
        v = [0, 0, 0]
        v[a] = line[j]
        v[j] = -line[a]
        basis.append(v)
    p0, p1 = basis
    return [tuple(x + t * y for x, y in zip(p0, p1)) for t in range(count)]


# ---------------------------------------------------------------------------
# planar workload
# ---------------------------------------------------------------------------


def check_independent(F: list) -> None:
    """The components are linearly independent (sympy rank)."""
    nv, d = nvars(F), degree(F)
    monos = corpus.monomials(nv, d)
    require(
        rank([[c.get(m, 0) for c in F] for m in monos]) == len(F),
        "components are dependent",
    )


def check_dual(F: list, Fhat: list, seed: int, lines: int = 4) -> None:
    """For seeded lines l: Fhat(l) is the one hyperplane through the images
    of the points of l, so F(p)·Fhat(l) = 0 for p on l."""
    n = len(F) - 1
    require(len(Fhat) == n + 1, "dual has the wrong number of components")
    require(nvars(Fhat) == 3, "dual is not a map on the dual plane")
    rng = corpus.rng_for(seed, "check_dual")
    checked = 0
    for _ in range(10 * lines):
        if checked >= lines:
            break
        line = corpus.random_point(rng)
        h = corpus.evaluate(Fhat, line)
        if not any(h):
            continue
        images = [y for y in (corpus.evaluate(F, p) for p in line_points(line, n + 4)) if any(y)]
        for y in images:
            require(sum(a * b for a, b in zip(h, y)) == 0, f"image point off Fhat{line}")
        r = rank(images)
        require(r <= n, f"images of line {line} span RP^{n}: no hyperplane exists")
        if r < n:
            continue  # degenerate line: no unique hyperplane to compare
        plane = nullspace(images)
        require(len(plane) == 1 and proportional(plane[0], h), f"Fhat{line} is not the spanned hyperplane")
        checked += 1
    require(checked >= lines, f"only {checked} lines gave a unique hyperplane")


def check_dual_degree(Fhat: list, n: int) -> None:
    require(degree(Fhat) <= n * (n - 1) // 2, f"dual degree {degree(Fhat)} > n(n-1)/2")


def check_trivial(witness, F: list) -> None:
    """The witness covector annihilates the components."""
    require(any(witness), "zero witness")
    acc: dict = {}
    for w, comp in zip(witness, F):
        acc = corpus.p_add(acc, {e: Fraction(c) for e, c in comp.items()}, Fraction(w))
    require(not acc, "witness does not annihilate the components")


def check_cotrivial(center, T: list) -> None:
    """A planted T∘Segre∘A has centre T·e3."""
    require(proportional(center, [row[3] for row in T]), f"centre {tuple(center)} is not T·e3")


def span_bound(F: list, seed: int, lines: int = 3) -> int:
    """Largest rank of the coefficient matrix of F restricted to seeded lines."""
    d = degree(F)
    s, t = sp.symbols("s t")
    rng = corpus.rng_for(seed, "span_bound")
    best = 0
    for _ in range(lines):
        p0, p1 = line_points(corpus.random_point(rng), 2)
        args = [sp.Poly(a * s + b * t, s, t, domain=QQ) for a, b in zip(p0, p1)]
        rows = []
        restricted = [substitute(c, args) for c in F]
        for j in range(d + 1):
            rows.append([r.coeff_monomial(s ** (d - j) * t**j) for r in restricted])
        best = max(best, rank(rows))
    return best


def check_not_planar(verdict: str, F: list, seed: int) -> str:
    """Indeterminate is right when the span bound rules out a planarization:
    a line image spans more than a hyperplane, or every line image spans so
    little (d+1 < n) that no point picks out one hyperplane."""
    require(verdict == "Indeterminate", f"{verdict} verdict on a map that is no planarization")
    n, d = len(F) - 1, degree(F)
    r = span_bound(F, seed)
    if r > n:
        return f"line images span rank {r} > n = {n}"
    require(d + 1 < n, f"span rank {r} <= n and d+1 >= n: the map may be planar")
    check_independent(F)
    return f"d+1 = {d + 1} < n = {n} with independent components"


# ---------------------------------------------------------------------------
# fit workload
# ---------------------------------------------------------------------------


def check_model(model: list, planted: list) -> None:
    require(projectively_equal(model, planted), "fitted model differs from the planted map")


def check_fit_report(report: dict, planted: list, nodes: int) -> None:
    check_model(map_from_json(report["map"]), planted)
    res = report["residuals"]
    require(res["max_cross_residual"] == 0, "nonzero residual of an exact fit")
    require(res["nodes_checked"] == nodes, f"{res['nodes_checked']} nodes checked, {nodes} finite")


def check_plane(covector, expected) -> None:
    require(proportional(covector, expected), f"plane {tuple(covector)} is not the planted plane")


def check_float_plane(covector, samples, tol: float) -> None:
    """Every float sample (x, y, z) lies on the plane within `tol`, relative."""
    c = [float(x) for x in covector]
    norm = sum(x * x for x in c) ** 0.5
    require(norm > 0, "zero plane")
    for x, y, z in samples:
        resid = abs(c[0] + c[1] * x + c[2] * y + c[3] * z) / norm
        require(resid <= tol, f"sample off the plane by {resid:.2e} > {tol:.0e}")


# ---------------------------------------------------------------------------
# web workload
# ---------------------------------------------------------------------------


def check_vanishes(form: dict, F: list) -> None:
    """form(F) expands to 0."""
    nv = nvars(F)
    require(substitute(form, [spoly(c, nv) for c in F]).is_zero, "relation does not vanish on F")


def check_quadric(Q: dict, Phi: list, composite: list) -> None:
    require(proportional_forms(Q, corpus.CIRCLE_QUADRIC), "quadric is not y0*y3 - y1^2 - y2^2")
    check_vanishes(Q, Phi)
    check_vanishes(Q, composite)


def proportional_forms(a: dict, b: dict) -> bool:
    keys = sorted(set(a) | set(b))
    return proportional([a.get(k, 0) for k in keys], [b.get(k, 0) for k in keys])


def check_in_conic(member, web: list, f: list) -> None:
    """The reported member is the planted one, and it contains the image."""
    require(proportional(member, corpus.IN_CONIC_MEMBER), f"member {tuple(member)} is not planted")
    conic: dict = {}
    for lam, q in zip(member, web):
        conic = corpus.p_add(conic, {e: Fraction(c) for e, c in q.items()}, Fraction(lam))
    check_vanishes(conic, f)


def check_inverse(W: list, f: list, seed: int, count: int = 10) -> None:
    """W∘f = id projectively at seeded points."""
    rng = corpus.rng_for(seed, "check_inverse")
    checked = 0
    for _ in range(20 * count):
        if checked >= count:
            break
        x = corpus.random_point(rng)
        fx = corpus.evaluate(f, x)
        if not any(fx):
            continue
        wx = corpus.evaluate(W, fx)
        if not any(wx):
            continue
        require(proportional(wx, x), f"W(f({x})) != {x}")
        checked += 1
    require(checked >= count, "too few points to check W∘f = id")


def check_relation(F: list, k: int, rel: dict) -> None:
    """rel vanishes on F, and no relation of lower degree exists (sympy rank)."""
    require(bool(rel) and all(sum(e) == k for e in rel), f"relation is not a nonzero form of degree {k}")
    n1 = len(F)
    nv = nvars(F)
    P = [spoly(c, nv) for c in F]
    require(substitute(rel, P).is_zero, "relation does not vanish on F")
    for j in range(1, k):
        composed = [substitute({m: 1}, P) for m in corpus.monomials(n1, j)]
        monos = sorted({e for c in composed for e in c.as_dict()})
        rows = [[c.as_dict().get(m, 0) for c in composed] for m in monos]
        require(rank(rows) == len(composed), f"a relation of lower degree {j} exists")
