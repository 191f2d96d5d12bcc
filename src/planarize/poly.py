"""Homogeneous polynomials and rational maps over exact rationals.

The sparse representation maps exponent tuples to nonzero exact
coefficients: a Python int when the value is integral and a Fraction only
when it is not (see `coef`), so the integer maps, sections, minors and
relations that dominate the work never pay for Fraction arithmetic.  Every
quotient of two coefficients goes through `coef_div`, because int / int
would give a float.  On top of it sit:

* HPoly / RatMap / UniTuple, the map types used everywhere else;
* a recursive multivariate gcd (primitive pseudo-remainder sequences with
  contents extracted recursively) driving common-factor removal;
* restriction of maps to lines, image-span dimension, implicitization by
  exact linear algebra, and generic fiber counting through resultants.

Everything here is pure and exact; callers may parallelize freely.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from . import projcore, univar
from .projcore import PLine2, PPoint, normalize
from .seeding import stable_rng

Term = tuple
PolyDict = dict


class AllZero(ValueError):
    """Every component of a would-be rational map is the zero polynomial."""


class NonGenericTarget(ValueError):
    """Fiber counting hit a target whose eliminant degenerates; resample."""


# ---------------------------------------------------------------------------
# exact coefficients: int when integral, Fraction otherwise
# ---------------------------------------------------------------------------


def coef(x):
    """x as an exact coefficient: an int when it is integral, else a Fraction.

    Accepts anything Fraction accepts (ints, Fractions, floats, "p/q" text)."""
    if type(x) is not int:
        x = Fraction(x)
        if x.denominator == 1:
            return x.numerator
    return x


def coef_div(a, b):
    """The exact quotient a / b of two coefficients, as `coef` would store it."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return coef(Fraction(a) / b)


# ---------------------------------------------------------------------------
# generic sparse polynomial dictionaries (not necessarily homogeneous)
# ---------------------------------------------------------------------------


def p_add(a: PolyDict, b: PolyDict) -> PolyDict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return out


def p_neg(a: PolyDict) -> PolyDict:
    return {e: -c for e, c in a.items()}


def p_sub(a: PolyDict, b: PolyDict) -> PolyDict:
    return p_add(a, p_neg(b))


def p_scale(a: PolyDict, c) -> PolyDict:
    c = coef(c)
    if c == 0:
        return {}
    return {e: x * c for e, x in a.items()}


def p_mul(a: PolyDict, b: PolyDict) -> PolyDict:
    if not a or not b:
        return {}
    out: PolyDict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def p_mul_term(a: PolyDict, exp: Term, c) -> PolyDict:
    if not a or c == 0:
        return {}
    return {tuple(map(operator.add, e, exp)): x * c for e, x in a.items()}


def p_eval(a: PolyDict, xs: Sequence) -> Fraction:
    xs = [Fraction(x) for x in xs]
    total = Fraction(0)
    for e, c in a.items():
        v = c
        for x, k in zip(xs, e):
            if k:
                v *= x**k
        total += v
    return total


def p_total_degree(a: PolyDict) -> int:
    if not a:
        return -1
    return max(sum(e) for e in a)


def p_degree_in(a: PolyDict, var: int) -> int:
    if not a:
        return -1
    return max(e[var] for e in a)


def p_canonical(a: PolyDict) -> PolyDict:
    """Int coefficients, content 1, lexicographically-leading term positive."""
    if not a:
        return {}
    den = math.lcm(*(c.denominator for c in a.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in a.items()}
    g = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    return {e: c // g for e, c in ints.items()}


def _p_constant(a: PolyDict) -> bool:
    return all(all(k == 0 for k in e) for e in a)


def _coeffs_wrt(a: PolyDict, var: int) -> dict[int, PolyDict]:
    """View as a polynomial in `var`: exponent-of-var -> coefficient poly."""
    out: dict[int, PolyDict] = {}
    for e, c in a.items():
        k = e[var]
        e2 = list(e)
        e2[var] = 0
        out.setdefault(k, {})[tuple(e2)] = c
    return out


def p_divexact(a: PolyDict, b: PolyDict) -> PolyDict:
    """Exact division in the polynomial ring; raises if not divisible."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return {}
    quo: PolyDict = {}
    rem = dict(a)
    lead_b = max(b)
    cb = b[lead_b]
    while rem:
        lead_r = max(rem)
        diff = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division")
        c = coef_div(rem[lead_r], cb)
        quo[diff] = c
        rem = p_sub(rem, p_mul_term(b, diff, c))
    return quo


def _p_prem(a: PolyDict, b: PolyDict, var: int) -> PolyDict:
    """Pseudo-remainder of a by b in the main variable."""
    db = p_degree_in(b, var)
    cb = _coeffs_wrt(b, var)
    lc_b = cb[db]
    r = dict(a)
    while r:
        dr = p_degree_in(r, var)
        if dr < db:
            break
        cr = _coeffs_wrt(r, var)
        lc_r = cr[dr]
        shift = [0] * len(next(iter(a)))
        shift[var] = dr - db
        r = p_sub(p_mul(lc_b, r), p_mul(p_mul_term(lc_r, tuple(shift), 1), b))
    return r


def _p_content_wrt(a: PolyDict, var: int) -> tuple[PolyDict, PolyDict]:
    """(content, primitive part) of a viewed as a polynomial in `var`."""
    coeffs = _coeffs_wrt(a, var)
    cont: PolyDict = {}
    for poly in coeffs.values():
        cont = p_gcd(cont, poly)
        if _p_constant(cont) and cont:
            break
    if not cont:
        return {}, {}
    prim = p_divexact(a, cont)
    return cont, prim


def _p_only_var(a: PolyDict) -> Optional[int]:
    """The single variable a depends on, or None (constants give None)."""
    seen = None
    for e in a:
        for i, k in enumerate(e):
            if k:
                if seen is None:
                    seen = i
                elif seen != i:
                    return None
    return seen


def _p_to_univar(a: PolyDict, var: int) -> list:
    out = [Fraction(0)] * (p_degree_in(a, var) + 1)
    for e, c in a.items():
        out[e[var]] += c
    return univar.trim(out)


def _p_from_univar(p: Sequence, var: int, nvars: int) -> PolyDict:
    out: PolyDict = {}
    for k, c in enumerate(p):
        if c:
            e = [0] * nvars
            e[var] = k
            out[tuple(e)] = c
    return out


def p_lcm(a: PolyDict, b: PolyDict) -> PolyDict:
    if not a or not b:
        return {}
    g = p_gcd(a, b)
    return p_canonical(p_divexact(p_mul(a, b), g))


def p_gcd(a: PolyDict, b: PolyDict) -> PolyDict:
    """Primitive gcd over the integers of two rational-coefficient polys.

    Recursive pseudo-remainder sequence in the variable of highest degree,
    with contents (computed by recursive gcds) extracted at every step.
    """
    a = p_canonical(a)
    b = p_canonical(b)
    if not a:
        return b
    if not b:
        return a
    if _p_constant(a) or _p_constant(b):
        g = math.gcd(*a.values(), *b.values())
        zero = tuple([0] * len(next(iter(a))))
        return {zero: g}
    nvars = len(next(iter(a)))
    deg_a = [p_degree_in(a, v) for v in range(nvars)]
    deg_b = [p_degree_in(b, v) for v in range(nvars)]
    shared = [v for v in range(nvars) if deg_a[v] > 0 and deg_b[v] > 0]
    if not shared:
        zero = tuple([0] * nvars)
        return {zero: 1}
    var = max(shared, key=lambda v: max(deg_a[v], deg_b[v]))
    ua, ub = _p_only_var(a), _p_only_var(b)
    if ua == var and ub == var:
        g = univar.gcd(_p_to_univar(a, var), _p_to_univar(b, var))
        return p_canonical(_p_from_univar(g, var, nvars))
    cont_a, prim_a = _p_content_wrt(a, var)
    cont_b, prim_b = _p_content_wrt(b, var)
    cont = p_gcd(cont_a, cont_b)
    f, g = prim_a, prim_b
    if p_degree_in(f, var) < p_degree_in(g, var):
        f, g = g, f
    while True:
        if p_degree_in(g, var) <= 0:
            # var-primitive polys share no factor of var-degree 0
            result = g if not g else None
            if result is None:
                zero = tuple([0] * nvars)
                part = {zero: 1}
            else:
                part = f  # g == 0: gcd is f
            break
        r = _p_prem(f, g, var)
        if not r:
            part = g
            break
        _, r = _p_content_wrt(r, var)
        f, g = g, r
    return p_canonical(p_mul(cont, part))


# ---------------------------------------------------------------------------
# homogeneous polynomials
# ---------------------------------------------------------------------------


class HPoly:
    """Homogeneous polynomial with exact rational coefficients.

    Immutable by convention: `terms` maps exponent tuples (length nvars,
    entries summing to `degree`) to nonzero exact coefficients, each an int
    when integral and a Fraction otherwise (the constructor normalizes any
    rational input to that form).  The zero polynomial keeps a formal degree
    so tuples of components stay well-typed.
    """

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms: PolyDict):
        clean: PolyDict = {}
        for e, c in terms.items():
            if type(c) is not int:
                c = coef(c)
            if c == 0:
                continue
            e = tuple(map(int, e))
            if len(e) != nvars or any(k < 0 for k in e):
                raise ValueError(f"bad exponent {e} for {nvars} variables")
            if sum(e) != degree:
                raise ValueError(f"exponent {e} is not homogeneous of degree {degree}")
            clean[e] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("HPoly is immutable")

    # -- constructors

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HPoly":
        return cls(nvars, degree, {})

    @classmethod
    def monomial(cls, exp: Sequence[int], coef=1) -> "HPoly":
        exp = tuple(int(k) for k in exp)
        return cls(len(exp), sum(exp), {exp: coef})

    # -- basic queries

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HPoly)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if self.is_zero:
            return "HPoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "HPoly(" + " + ".join(bits) + ")"

    # -- arithmetic

    def _check_like(self, other: "HPoly"):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("polynomials of different shape")

    def __add__(self, other: "HPoly") -> "HPoly":
        self._check_like(other)
        return HPoly(self.nvars, self.degree, p_add(self.terms, other.terms))

    def __sub__(self, other: "HPoly") -> "HPoly":
        self._check_like(other)
        return HPoly(self.nvars, self.degree, p_sub(self.terms, other.terms))

    def __neg__(self) -> "HPoly":
        return HPoly(self.nvars, self.degree, p_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, HPoly):
            if self.nvars != other.nvars:
                raise ValueError("different variable counts")
            return HPoly(self.nvars, self.degree + other.degree, p_mul(self.terms, other.terms))
        return HPoly(self.nvars, self.degree, p_scale(self.terms, other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int) -> "HPoly":
        if k < 0:
            raise ValueError("negative power")
        out = HPoly(self.nvars, 0, {tuple([0] * self.nvars): 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def evaluate(self, xs: Sequence) -> Fraction:
        if len(xs) != self.nvars:
            raise ValueError("wrong point dimension")
        return p_eval(self.terms, xs)

    def substitute(self, args: Sequence["HPoly"]) -> "HPoly":
        """Compose with a tuple of same-degree polynomials, one per variable."""
        if len(args) != self.nvars:
            raise ValueError("need one substitution per variable")
        if self.is_zero:
            inner_deg = args[0].degree if args else 0
            return HPoly.zero(args[0].nvars if args else 0, self.degree * inner_deg)
        degs = {a.degree for a in args}
        nv = {a.nvars for a in args}
        if len(degs) != 1 or len(nv) != 1:
            raise ValueError("substitution polynomials must share degree and nvars")
        inner_deg = degs.pop()
        nvars_out = nv.pop()
        # powers[i][k - 1] = args[i]**k, each built once from the one below
        powers = []
        for i, a in enumerate(args):
            top = max(e[i] for e in self.terms)
            pw = [a.terms] if top else []
            while len(pw) < top:
                pw.append(p_mul(pw[-1], a.terms))
            powers.append(pw)
        acc: PolyDict = {}
        for e, c in self.terms.items():
            term: Optional[PolyDict] = None
            for pw, k in zip(powers, e):
                if k:
                    term = p_scale(pw[k - 1], c) if term is None else p_mul(term, pw[k - 1])
            acc = p_add(acc, term if term is not None else {tuple([0] * nvars_out): c})
        return HPoly(nvars_out, self.degree * inner_deg, acc)

    def dehomogenize(self, var: int) -> PolyDict:
        """Set x_var = 1; exponent tuples keep the remaining variables."""
        out: PolyDict = {}
        for e, c in self.terms.items():
            e2 = tuple(k for i, k in enumerate(e) if i != var)
            out[e2] = out.get(e2, 0) + c
        return {e: c for e, c in out.items() if c}

    def canonical(self) -> "HPoly":
        return HPoly(self.nvars, self.degree, p_canonical(self.terms))

    # -- serialization (scalars as "p/q" strings, terms sorted lexicographically)

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "degree": self.degree,
            "terms": [
                {"exp": list(e), "coef": projcore.scalar_to_str(self.terms[e])}
                for e in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HPoly":
        # a value of the wrong JSON type (null, a list, a string) shows up
        # as a TypeError somewhere in the parse; it is bad input all the same
        try:
            terms = {tuple(t["exp"]): projcore.scalar_from_str(t["coef"]) for t in data["terms"]}
            return cls(int(data["nvars"]), int(data["degree"]), terms)
        except TypeError:
            raise ValueError("a polynomial is a JSON object with integer nvars and degree and a "
                             "list of terms, each an exponent list with a coefficient") from None


def variables(nvars: int) -> tuple[HPoly, ...]:
    """The coordinate polynomials x_0..x_{nvars-1}, handy for literals."""
    out = []
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 1
        out.append(HPoly.monomial(e))
    return tuple(out)


def hpoly_gcd(f: HPoly, g: HPoly) -> HPoly:
    """Gcd of two homogeneous polynomials (canonical integer form).

    Monomial content is stripped first; the rest dehomogenizes through x_0
    (a gcd of forms is a form, and forms free of x_0 dehomogenize
    injectively), which keeps the recursive PRS one variable smaller.
    """
    if f.is_zero:
        return g.canonical()
    if g.is_zero:
        return f.canonical()
    if f.nvars != g.nvars:
        raise ValueError("different variable counts")
    nvars = f.nvars

    def strip(p: HPoly) -> tuple[tuple[int, ...], PolyDict]:
        mins = [min(e[i] for e in p.terms) for i in range(nvars)]
        stripped = {tuple(k - m for k, m in zip(e, mins)): c for e, c in p.terms.items()}
        return tuple(mins), stripped

    mf, fd = strip(f)
    mg, gd = strip(g)
    common = tuple(min(a, b) for a, b in zip(mf, mg))
    if nvars == 1:
        h: PolyDict = {(0,): 1}
    else:
        fh = {e[1:]: c for e, c in fd.items()}
        gh = {e[1:]: c for e, c in gd.items()}
        hd = p_gcd(fh, gh)
        # rehomogenize to the gcd's own total degree
        deg = p_total_degree(hd)
        h = {}
        for e, c in hd.items():
            h[(deg - sum(e),) + e] = c
    lift = {tuple(k + m for k, m in zip(e, common)): c for e, c in h.items()}
    deg_total = sum(next(iter(lift))) if lift else 0
    return HPoly(nvars, deg_total, lift).canonical()


def hpoly_divexact(f: HPoly, g: HPoly) -> HPoly:
    if g.is_zero:
        raise ZeroDivisionError
    if f.is_zero:
        return HPoly.zero(f.nvars, f.degree - g.degree)
    return HPoly(f.nvars, f.degree - g.degree, p_divexact(f.terms, g.terms))


# ---------------------------------------------------------------------------
# rational maps
# ---------------------------------------------------------------------------


class RatMap:
    """Tuple of same-degree homogeneous components, up to common factor/scale.

    Build through reduce_map, which removes the full common polynomial
    factor; the constructor only checks shape.  Indeterminacy points (all
    components vanish) are allowed and surface as None on evaluation.
    """

    __slots__ = ("components",)

    def __init__(self, components: Sequence[HPoly]):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        nv = {c.nvars for c in components}
        dg = {c.degree for c in components}
        if len(nv) != 1 or len(dg) != 1:
            raise ValueError("components must share nvars and degree")
        if all(c.is_zero for c in components):
            raise AllZero("all components are zero")
        object.__setattr__(self, "components", components)

    def __setattr__(self, *a):
        raise AttributeError("RatMap is immutable")

    @property
    def domain_vars(self) -> int:
        return self.components[0].nvars

    @property
    def degree(self) -> int:
        return self.components[0].degree

    @property
    def codim(self) -> int:
        """Dimension of the target projective space."""
        return len(self.components) - 1

    def __eq__(self, other):
        return isinstance(other, RatMap) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"RatMap(degree={self.degree}, components={list(self.components)})"

    def evaluate(self, xs: Sequence) -> Optional[tuple[Fraction, ...]]:
        """Homogeneous value at a coordinate vector; None at indeterminacy."""
        vals = tuple(c.evaluate(xs) for c in self.components)
        if all(v == 0 for v in vals):
            return None
        return vals

    def evaluate_point(self, p: PPoint) -> Optional[PPoint]:
        v = self.evaluate(list(p.coords))
        return None if v is None else PPoint.of(v)

    def after(self, inner: "RatMap") -> "RatMap":
        """Reduced composition self∘inner."""
        comps = [c.substitute(inner.components) for c in self.components]
        return reduce_map(comps)

    def projectively_equal(self, other: "RatMap") -> bool:
        if len(self.components) != len(other.components):
            return False
        for i in range(len(self.components)):
            for j in range(i + 1, len(self.components)):
                lhs = self.components[i] * other.components[j]
                rhs = self.components[j] * other.components[i]
                if lhs != rhs:
                    return False
        return True

    def to_json(self) -> dict:
        return {"components": [c.to_json() for c in self.components]}

    @classmethod
    def from_json(cls, data: dict) -> "RatMap":
        if not (isinstance(data, dict) and isinstance(data.get("components"), list)):
            raise ValueError("a map is a JSON object with a list of components")
        return cls([HPoly.from_json(c) for c in data["components"]])


def _canonical_scale(components: Sequence[HPoly]) -> tuple[HPoly, ...]:
    """Scale a component tuple to integer-primitive form, first coefficient
    (component-major, lexicographic within) positive: p_canonical of all the
    terms at once, keyed (-index, exponent) so the first nonzero component
    holds the leading term."""
    scaled = p_canonical(
        {(-i, e): c for i, comp in enumerate(components) for e, c in comp.terms.items()}
    )
    return tuple(
        HPoly(comp.nvars, comp.degree, {e: scaled[(-i, e)] for e in comp.terms})
        for i, comp in enumerate(components)
    )


def reduce_map(components: Sequence[HPoly]) -> RatMap:
    """Divide out the full common polynomial factor and rescale canonically."""
    components = list(components)
    if not components:
        raise AllZero("no components")
    nonzero = [c for c in components if not c.is_zero]
    if not nonzero:
        raise AllZero("all components are zero")
    g = nonzero[0].canonical()
    for c in nonzero[1:]:
        if g.degree == 0:
            break
        g = hpoly_gcd(g, c)
    if g.degree > 0:
        components = [
            hpoly_divexact(c, g) if not c.is_zero else HPoly.zero(c.nvars, c.degree - g.degree)
            for c in components
        ]
    return RatMap(_canonical_scale(components))


# ---------------------------------------------------------------------------
# restriction to lines and span dimension
# ---------------------------------------------------------------------------


class UniTuple:
    """Tuple of binary forms in [u_0:u_1] of a common degree.

    The lift is u_0^d A_0 + u_0^{d-1} u_1 A_1 + ... + u_1^d A_d with constant
    vectors A_j; coefficient_vectors() returns those rows.
    """

    __slots__ = ("components",)

    def __init__(self, components: Sequence[HPoly]):
        components = tuple(components)
        if not components:
            raise ValueError("empty tuple")
        if any(c.nvars != 2 for c in components):
            raise ValueError("components must be binary forms")
        if len({c.degree for c in components}) != 1:
            raise ValueError("components must share degree")
        object.__setattr__(self, "components", components)

    def __setattr__(self, *a):
        raise AttributeError("UniTuple is immutable")

    @property
    def degree(self) -> int:
        return self.components[0].degree

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __eq__(self, other):
        return isinstance(other, UniTuple) and self.components == other.components

    def __repr__(self):
        return f"UniTuple(degree={self.degree}, components={list(self.components)})"

    def coefficient_vectors(self) -> list[tuple[Fraction, ...]]:
        d = self.degree
        rows = []
        for j in range(d + 1):
            exp = (d - j, j)
            rows.append(tuple(c.terms.get(exp, 0) for c in self.components))
        return rows

    def evaluate(self, u0, u1) -> Optional[tuple[Fraction, ...]]:
        vals = tuple(c.evaluate([u0, u1]) for c in self.components)
        if all(v == 0 for v in vals):
            return None
        return vals


def line_base_points(line: PLine2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical pair of distinct points spanning a line of RP^2.

    Take the coordinate plane of the largest-index nonzero covector entry,
    project its two basis points orthogonally onto the line (ordered by
    lowest index first).  Always yields two distinct points on the line.
    """
    ell = line.covector
    j = max(i for i in range(3) if ell[i] != 0)
    others = [i for i in range(3) if i != j]
    norm2 = sum(c * c for c in ell)
    pts = []
    for p in others:
        vec = [0, 0, 0]
        vec[p] = norm2
        vec = [vec[i] - ell[p] * ell[i] for i in range(3)]
        pts.append(normalize(vec))
    return pts[0], pts[1]


def restrict_to_line(F: RatMap, line: PLine2) -> UniTuple:
    """Compose F with the canonical degree-1 parameterization of a line.

    A line inside the indeterminacy locus yields the zero tuple (callers
    check .is_zero).  The raw restriction is returned without common-factor
    removal.
    """
    if F.domain_vars != 3:
        raise ValueError("restriction needs a map with domain RP^2")
    p0, p1 = line_base_points(line)
    subs = [HPoly(2, 1, {(1, 0): p0[i], (0, 1): p1[i]}) for i in range(3)]
    return UniTuple([c.substitute(subs) for c in F.components])


def span_dim(t: UniTuple) -> int:
    """Rank of the coefficient-vector matrix: 1 + dim of the projective span."""
    if t.is_zero:
        return 0
    return projcore.rank(t.coefficient_vectors())


# ---------------------------------------------------------------------------
# implicitization
# ---------------------------------------------------------------------------


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, ascending lex."""
    out = []
    for bars in itertools.combinations(range(degree + nvars - 1), nvars - 1):
        exp = []
        prev = -1
        for b in bars:
            exp.append(b - prev - 1)
            prev = b
        exp.append(degree + nvars - 2 - prev)
        out.append(tuple(exp))
    return sorted(out)


def implicitize(F: RatMap, kmax: int = 4) -> Optional[tuple[int, HPoly]]:
    """Smallest-degree polynomial relation satisfied by the components of F.

    Searches k = 1..kmax for a nonzero degree-k form in the target
    coordinates vanishing identically after composition with F; returns
    (k, relation) for the first k that works, or None if none does.
    The relation is the first nullspace generator, canonically scaled.
    Each composed monomial of degree k >= 2 is one product: a composed
    monomial of degree k - 1 times one component.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    n1 = len(F.components)
    d = F.degree
    units = [tuple(int(i == j) for j in range(n1)) for i in range(n1)]
    composed = dict(zip(units, F.components))
    for k in range(1, kmax + 1):
        target_monos = _monomials(n1, k)
        if k > 1:
            below = composed
            composed = {}
            for exp in target_monos:
                i = next(j for j, e in enumerate(exp) if e)
                rest = tuple(e - (j == i) for j, e in enumerate(exp))
                composed[exp] = below[rest] * F.components[i]
        x_monos = _monomials(F.domain_vars, k * d)
        matrix = [
            [composed[exp].terms.get(xm, 0) for exp in target_monos] for xm in x_monos
        ]
        basis = projcore.nullspace(matrix)
        if basis:
            terms = {e: c for e, c in zip(target_monos, basis[0]) if c}
            rel = HPoly(n1, k, terms).canonical()
            check = rel.substitute(list(F.components))
            if not check.is_zero:
                raise AssertionError("implicitize produced a non-vanishing relation")
            return k, rel
    return None


# ---------------------------------------------------------------------------
# fiber counting via resultants
# ---------------------------------------------------------------------------


def _apply_linear_change(F: RatMap, mat: Sequence[Sequence[int]]) -> RatMap:
    subs = [HPoly(3, 1, {(1, 0, 0): row[0], (0, 1, 0): row[1], (0, 0, 1): row[2]}) for row in mat]
    return RatMap([c.substitute(subs) for c in F.components])


def _resultant_wrt_x2(G1: HPoly, G2: HPoly) -> PolyDict:
    """Resultant of two ternary forms w.r.t. x_2, as a binary form in (x_0,x_1).

    Requires both leading coefficients in x_2 to be constants (the caller
    arranges this with a generic linear change), so specialization commutes
    with the resultant and evaluation/interpolation is exact.
    """
    d1, d2 = G1.degree, G2.degree
    if G1.terms.get((0, 0, d1)) is None or G2.terms.get((0, 0, d2)) is None:
        raise NonGenericTarget("leading coefficient in x_2 not constant")
    D = d1 * d2
    samples = []
    for t in range(D + 1):
        tF = Fraction(t)

        def specialize(G: HPoly) -> list:
            coeffs = [Fraction(0)] * (G.degree + 1)
            for e, c in G.terms.items():
                coeffs[e[2]] += c * tF ** e[1]
            return univar.trim(coeffs)

        r = univar.resultant(specialize(G1), specialize(G2))
        samples.append((tF, r))
    R = univar.lagrange_interpolate(samples)
    return {(D - k, k): c for k, c in enumerate(R) if c}


def _bf_split(form: PolyDict) -> tuple[int, int, list]:
    """Binary form -> (x0 multiplicity, x1 multiplicity, core as univar in x1/x0)."""
    if not form:
        return 0, 0, []
    a = min(e[0] for e in form)
    b = min(e[1] for e in form)
    deg = max(e[1] for e in form) - b
    core = [Fraction(0)] * (deg + 1)
    for e, c in form.items():
        core[e[1] - b] += c
    return a, b, univar.trim(core)


def _bf_distinct_roots_excluding(form: PolyDict, excl: PolyDict) -> int:
    """Distinct projective roots of a binary form, minus roots it shares
    with `excl` (used to drop indeterminacy points)."""
    a, b, core = _bf_split(form)
    core = univar.squarefree_part(core)
    if excl:
        ea, eb, ecore = _bf_split(excl)
        if ea > 0:
            a = 0
        if eb > 0:
            b = 0
        g = univar.gcd(core, ecore)
        if univar.degree(g) > 0:
            core = univar.divexact(core, g)
    return (1 if a > 0 else 0) + (1 if b > 0 else 0) + max(univar.degree(core), 0)


def _bf_gcd(f: PolyDict, g: PolyDict) -> PolyDict:
    if not f:
        return g
    if not g:
        return f
    fa, fb, fc = _bf_split(f)
    ga, gb, gc = _bf_split(g)
    a, b = min(fa, ga), min(fb, gb)
    core = univar.gcd(fc, gc)
    deg = a + b + univar.degree(core)
    out: PolyDict = {}
    for k, c in enumerate(core):
        if c:
            out[(deg - (b + k), b + k)] = Fraction(c)
    return out


def _random_combination(polys: Sequence[HPoly], rng) -> HPoly:
    while True:
        out = HPoly.zero(polys[0].nvars, polys[0].degree)
        for p in polys:
            out = out + rng.randint(1, 9) * p
        if not out.is_zero:
            return out


def _eliminant(eqs: Sequence[HPoly], rng) -> Optional[PolyDict]:
    """Gcd of eliminants from three independent random pairs of combinations."""
    acc: Optional[PolyDict] = None
    for _ in range(3):
        for _attempt in range(4):
            G1 = _random_combination(eqs, rng)
            G2 = _random_combination(eqs, rng)
            try:
                R = _resultant_wrt_x2(G1, G2)
            except NonGenericTarget:
                return None
            if R:
                break
        else:
            return None
        acc = R if acc is None else _bf_gcd(acc, R)
    return acc


def fiber_count(F: RatMap, y: PPoint, seed: int = 0) -> int:
    """Number of distinct complex projective preimages of a generic target.

    Eliminates two variables by resultants of random combinations of the
    fiber equations {y_j F_i - y_i F_j}, counts distinct roots of the
    squarefree eliminant, and excludes indeterminacy points of F.  Two
    independent linear changes of coordinates must agree on the count;
    persistent degeneracy raises NonGenericTarget (caller should resample).
    """
    if F.domain_vars != 3:
        raise ValueError("fiber counting needs domain RP^2")
    yc = y.coords
    if len(yc) != len(F.components):
        raise ValueError("target dimension mismatch")
    j0 = max(range(len(yc)), key=lambda i: abs(yc[i]))

    def fiber_equations(G: RatMap) -> list[HPoly]:
        eqs = []
        for i in range(len(yc)):
            if i == j0:
                continue
            e = Fraction(yc[j0]) * G.components[i] - Fraction(yc[i]) * G.components[j0]
            if not e.is_zero:
                eqs.append(e)
        return eqs

    if len(fiber_equations(F)) < 2:
        raise NonGenericTarget("fewer than two independent fiber equations")

    counts = []
    for attempt in range(6):
        rng = stable_rng(seed, "fiber_count", attempt)
        mat = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        if projcore.det(mat) == 0:
            continue
        FT = _apply_linear_change(F, mat)
        eqs = fiber_equations(FT)
        E = _eliminant(eqs, rng)
        if E is None:
            continue
        if not E:
            raise NonGenericTarget("eliminant vanished identically")
        indet = _eliminant(list(FT.components), rng)
        if indet is None:
            continue
        counts.append(_bf_distinct_roots_excluding(E, indet if indet else {}))
        if len(counts) >= 2 and counts[-1] == counts[-2]:
            return counts[-1]
    if not counts:
        raise NonGenericTarget("no usable coordinate change found")
    raise NonGenericTarget(f"unstable fiber counts {counts}")
