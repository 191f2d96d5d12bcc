"""Homogeneous polynomials and rational maps over exact rationals.

The sparse representation maps exponent tuples to nonzero exact
coefficients: a Python int when the value is integral and a Fraction only
when it is not (see `coef`), so the integer maps, sections, minors and
relations that dominate the work never pay for Fraction arithmetic.  Every
quotient of two coefficients goes through `coef_div`, because int / int
would give a float.  On top of it sit:

* HPoly / RatMap, the map types used everywhere else; the constructor
  checks every term, and the package's own nonzero int terms of the right
  shape skip the checks (`HPoly._trusted`);
* one integer evaluation kernel (`_forms_eval_int`) for int-coefficient
  forms at a node given as integer coordinates over a common denominator:
  a plan built once lists the union of the forms' exponents and one
  coefficient row per form, and each node takes one monomial table and
  one dot product per form.  It is behind `p_eval` (a one-form plan), the
  fits and `implicitize` (the denominators of nodes and coefficients are
  cleared in projcore);
* common-factor removal without a multivariate gcd (`reduce_map`, which
  takes components or a RatMap, and passes a map it returned through): the
  univariate gcd of the components restricted to one fixed line bounds the
  degree of a common factor and, when it is constant, proves the map
  reduced; otherwise the reduced map is the lowest-degree solution G of
  F_c G_i = F_i G_c, one exact nullspace of integer rows per degree.  The
  gcd degree of binary forms (`_binary_gcd_degree`) and the canonical,
  marked result (`_reduced_map`) also serve the dual's reduction;
* a map on a line as its coefficient rows (`_line_rows`): the vectors A_r
  of F(s p + t q) = sum_r s^(d-r) t^r A_r, read off the binomial theorem
  with no product of polynomials; their rank is the span of the line's
  image and their null direction its hyperplane;
* the principal lattice of degree D, the points (a, b) >= 0 with
  a + b <= D, on which a polynomial of degree D is fixed by its values:
  Newton interpolation there in integers (`_newton_triangle`, and
  `_newton_line` on one edge), and
  implicitization by evaluation: the degree-k relations of F are the
  kernel of one integer matrix of the values F(x)^e at the points x of the
  principal lattice of degree k deg F, which decides an identity of forms
  of that degree, so the solve needs no composed product and no check.

Everything here is pure and exact; callers may parallelize freely.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence

from . import projcore, univar
from .projcore import PLine2, normalize

PolyDict = dict


class AllZero(ValueError):
    """Every component of a would-be rational map is the zero polynomial."""


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


def _int_components(components: Sequence["HPoly"]) -> list[PolyDict]:
    """The components of a map as int-coefficient term dicts, all scaled by
    one common positive multiplier, so the map is unchanged."""
    X, _ = projcore._cleared([c for comp in components for c in comp.terms.values()])
    it = iter(X)
    return [dict(zip(comp.terms, it)) for comp in components]


def _powers(x: int, D: int) -> list[int]:
    t = [1]
    for _ in range(D):
        t.append(t[-1] * x)
    return t


def _monomial_values(exps, X: Sequence[int], L: int, D: int) -> list[int]:
    """L^(D - |e|) X^e for each exponent e with |e| <= D: the monomials at
    the node X / L, homogenized to degree D, from int power tables."""
    tables = [_powers(x, D) for x in X]
    if len(tables) == 3:  # a point of the plane, the common case
        t0, t1, t2 = tables
        out = [t0[i] * t1[j] * t2[k] for i, j, k in exps]
    else:
        out = [math.prod(map(operator.getitem, tables, e)) for e in exps]
    if L != 1:
        lp = _powers(L, D)
        out = [w * lp[D - sum(e)] for w, e in zip(out, exps)]
    return out


def _forms_plan(forms: Sequence[PolyDict]) -> tuple[list, list[list[int]]]:
    """The evaluation plan of int-coefficient forms: the union of their
    exponents, and one coefficient row per form over that union.  A term
    dict a is its own one-form plan as (a, (a.values(),))."""
    exps = list(dict.fromkeys(e for a in forms for e in a))
    return exps, [[a.get(e, 0) for e in exps] for a in forms]


def _forms_eval_int(plan, X: Sequence[int], L: int, D: int) -> list[int]:
    """L^D a(X / L) for each form a of a plan (`_forms_plan`) of total
    degree <= D: one monomial table at the node, one dot product per form;
    no Fraction is made."""
    exps, rows = plan
    w = _monomial_values(exps, X, L, D)
    return [sum(map(operator.mul, row, w)) for row in rows]


def p_eval(a: PolyDict, xs: Sequence) -> Fraction:
    """a at the point xs, as a Fraction, through the integer kernel."""
    C, m = projcore._cleared(a.values())
    X, L = projcore._cleared(xs)
    D = max(p_total_degree(a), 0)
    return Fraction(_forms_eval_int((a, (C,)), X, L, D)[0], m * L**D)


def p_total_degree(a: PolyDict) -> int:
    if not a:
        return -1
    return max(sum(e) for e in a)


def p_canonical(a: PolyDict) -> PolyDict:
    """Int coefficients, content 1, lexicographically-leading term positive."""
    if not a:
        return {}
    X, _ = projcore._cleared(a.values())
    g = math.gcd(*X)
    if a[max(a)] < 0:
        g = -g
    return {e: c // g for e, c in zip(a, X)}


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
            e = _exponent(e)
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

    def __reduce__(self):
        # copies and pickles go through the constructor, not __setattr__
        return HPoly, (self.nvars, self.degree, dict(self.terms))

    # -- constructors

    @classmethod
    def _trusted(cls, nvars: int, degree: int, terms: PolyDict) -> "HPoly":
        """An HPoly built with no check, for terms the package made itself:
        nonzero int coefficients keyed by int exponent tuples of length
        nvars that sum to degree.  The dict is kept, not copied."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, nvars: int, degree: int) -> "HPoly":
        return cls(nvars, degree, {})

    @classmethod
    def monomial(cls, exp: Sequence[int], coef=1) -> "HPoly":
        exp = _exponent(exp)
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

    def canonical(self) -> "HPoly":
        return HPoly._trusted(self.nvars, self.degree, p_canonical(self.terms))

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
        # a value of the wrong JSON type (null, a list, an object) shows up
        # as a TypeError somewhere in the parse; it is bad input all the same
        try:
            terms: PolyDict = {}
            for t in data["terms"]:
                e = tuple(_json_int(k, "exponent") for k in t["exp"])
                if e in terms:
                    raise ValueError(f"two terms have the exponent {list(e)}")
                terms[e] = projcore.scalar_from_str(t["coef"])
            return cls(_json_int(data["nvars"], "nvars"), _json_int(data["degree"], "degree"), terms)
        except TypeError:
            raise ValueError("a polynomial is a JSON object with integer nvars and degree and a "
                             "list of terms, each an exponent list with a coefficient") from None


def _exponent(e) -> tuple[int, ...]:
    """An exponent as a tuple of ints; an entry that is not integral is a
    ValueError that names the exponent (int() would truncate it)."""
    out = tuple(map(int, e))
    if any(map(operator.ne, out, e)):
        raise ValueError(f"exponent {tuple(e)} is not integral")
    return out


def _json_int(value, what: str) -> int:
    """An integer field of a polynomial's JSON.  A number with a fraction
    part or a string is a ValueError that names it (int() would truncate or
    parse it); null, a boolean, a list or an object is a TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, (float, str)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    raise TypeError(what)


def variables(nvars: int) -> tuple[HPoly, ...]:
    """The coordinate polynomials x_0..x_{nvars-1}, handy for literals."""
    out = []
    for i in range(nvars):
        e = [0] * nvars
        e[i] = 1
        out.append(HPoly.monomial(e))
    return tuple(out)


# ---------------------------------------------------------------------------
# rational maps
# ---------------------------------------------------------------------------


class RatMap:
    """Tuple of same-degree homogeneous components, up to common factor/scale.

    Build through reduce_map, which removes the full common polynomial
    factor; the constructor only checks shape.  Indeterminacy points (all
    components vanish) are allowed and surface as None on evaluation.
    A map that reduce_map returned says so in its private `_reduced` slot,
    which only `_reduced_map` sets (for reduce_map and the dual, whose
    results are proved reduced), and reduce_map passes it through.
    """

    __slots__ = ("components", "_reduced")

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
        object.__setattr__(self, "_reduced", False)

    def __setattr__(self, *a):
        raise AttributeError("RatMap is immutable")

    def __reduce__(self):
        # through the constructor, so a copy is not marked reduced
        return RatMap, (self.components,)

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
        HPoly._trusted(comp.nvars, comp.degree, {e: scaled[(-i, e)] for e in comp.terms})
        for i, comp in enumerate(components)
    )


def reduce_map(components: Sequence[HPoly] | RatMap) -> RatMap:
    """Divide out the full common polynomial factor and rescale canonically.

    Takes the components, or a RatMap: a map that reduce_map or dual_map
    returned is returned as it is, and any other map has its components
    reduced.  The nonzero components must share nvars and degree, and a
    zero component must share nvars; it is taken at the common degree.

    No multivariate gcd is taken.  `_common_degree_bound` bounds the degree
    of a common factor from one line; a bound of 0 proves the map reduced.
    Otherwise write F = h R with R reduced and c a nonzero component: the
    forms G with F_c G_i = F_i G_c for every i are the multiples g R, so
    the lowest degree k with a nonzero solution is deg R, where the
    solutions are the scalar multiples of R (`_parallel_forms`).  No
    solution below deg F leaves F as it is.  A lone component has no
    equations and reduces to the constant map.
    """
    if isinstance(components, RatMap):
        if components._reduced:
            return components
        components = components.components
    components = list(components)
    if not components:
        raise AllZero("no components")
    nonzero = [c for c in components if not c.is_zero]
    if not nonzero:
        raise AllZero("all components are zero")
    nvars, d = nonzero[0].nvars, nonzero[0].degree
    if any(c.nvars != nvars for c in components) or any(c.degree != d for c in nonzero):
        raise ValueError("components must share nvars and degree")
    if len(components) == 1:
        components = [HPoly._trusted(nvars, 0, {(0,) * nvars: 1})]
    else:
        components = [c if c.terms else HPoly._trusted(nvars, d, {}) for c in components]
        for k in range(d - _common_degree_bound(nonzero), d):
            G = _parallel_forms(components, k)
            if G is not None:
                components = G
                break
    return _reduced_map(components)


def _reduced_map(components: Sequence[HPoly]) -> RatMap:
    """The map of components known to share no factor, scaled canonically
    (`_canonical_scale`) and marked reduced, so `reduce_map` passes it
    through."""
    out = RatMap(_canonical_scale(components))
    object.__setattr__(out, "_reduced", True)
    return out


def _common_degree_bound(forms: Sequence[HPoly]) -> int:
    """An upper bound on the degree of a common factor h of nonzero forms
    of degree d, from their restrictions to the line x_i = (i+1) u0 +
    (i+1)^3 u1.  h restricted to the line divides every restriction, so
    the degree of their gcd bounds deg h (`_binary_gcd_degree`).  A base
    point on the line can only raise the bound."""
    nvars, d = forms[0].nvars, forms[0].degree
    rows = _line_rows([f.terms for f in forms], range(1, nvars + 1), [(i + 1) ** 3 for i in range(nvars)], d)
    return _binary_gcd_degree([[row[col] for row in rows] for col in range(len(forms))], d)


def _binary_gcd_degree(forms: Sequence[Sequence[int]], d: int) -> int:
    """The degree of the gcd of binary forms of degree d, each given by its
    int coefficients of u1^0..u1^d at u0 = 1: the degree of the univariate
    gcd plus the common power of u0, or d if every form is zero.  The scan
    stops at the first form that leaves a constant gcd."""
    g: list = []  # the gcd with u0 = 1, a polynomial in u1
    u0_power = d
    for form in forms:
        p = univar.trim(form)
        if not p:
            continue
        g = univar.gcd(g, p)
        u0_power = min(u0_power, d + 1 - len(p))
        if len(g) == 1 and u0_power == 0:
            return 0
    return len(g) - 1 + u0_power if g else d


def _parallel_forms(components: Sequence[HPoly], k: int) -> Optional[list[HPoly]]:
    """The first nullspace vector of F_c G_i - F_i G_c = 0 (i != c), c the
    nonzero component with the fewest terms, over n+1 forms G of degree k
    taken component-major, up to a positive factor, or None if there is
    none.  The components are cleared to integers by one common multiplier
    (`_int_components`), which leaves the equations as they are, so the
    rows reach the kernel as integers.  Each entry is set once: a column's
    terms reach distinct monomials."""
    nvars = components[0].nvars
    forms = _int_components(components)
    c = min((i for i, f in enumerate(forms) if f), key=lambda i: len(forms[i]))
    monos = _monomials(nvars, k)
    m = len(monos)
    ncols = len(forms) * m
    matrix = []
    for i, f in enumerate(forms):
        if i == c:
            continue
        equations: dict = {}
        for j, mu in enumerate(monos):
            for col, form, sign in ((i * m + j, forms[c], 1), (c * m + j, f, -1)):
                for e, a in form.items():
                    equations.setdefault(tuple(map(operator.add, mu, e)), [0] * ncols)[col] = sign * a
        matrix.extend(equations.values())
    basis = projcore._nullspace_int(matrix)
    return _block_forms(basis[0], nvars, k) if basis else None


def _block_forms(v: Sequence[int], nvars: int, k: int) -> list[HPoly]:
    """The forms of degree k whose coefficients over `_monomials(nvars, k)`
    are the consecutive blocks of the int vector v."""
    monos = _monomials(nvars, k)
    m = len(monos)
    return [
        HPoly._trusted(nvars, k, {mu: x for mu, x in zip(monos, v[b : b + m]) if x}) for b in range(0, len(v), m)
    ]


# ---------------------------------------------------------------------------
# a map on a line: base points and coefficient rows
# ---------------------------------------------------------------------------


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


def _convolve(a: list, b: list) -> list:
    """The coefficient list of the product of two univariate coefficient
    lists; zero entries of `a` are skipped, so pass the sparser one first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _binomial_row(u, v, k: int) -> list:
    """(u s + v t)^k as its coefficients of s^(k-r) t^r, r = 0..k, read off
    the binomial theorem from power tables of u and v."""
    up, vp = _powers(u, k), _powers(v, k)
    return [math.comb(k, r) * up[k - r] * vp[r] for r in range(k + 1)]


def _line_rows(comps: Sequence[PolyDict], p: Sequence[int], q: Sequence[int], d: int) -> list[list]:
    """The coefficient vectors A_0..A_d of F(s p + t q) = sum_r s^(d-r) t^r A_r,
    one entry per term dict of `comps` (forms of degree d in len(p) variables).

    Each power (p_i s + q_i t)^k is read off the binomial theorem
    (`_binomial_row`), and a monomial's row is the product of its
    variables' rows, formed once for all the forms that share it; no
    polynomial product is formed, so the cost grows as the degree times the
    terms, not as the square of the degree.  A line in the base locus of
    the forms gives zero rows; no common factor is removed."""
    monomial_rows: dict = {}
    out = [[0] * len(comps) for _ in range(d + 1)]
    for col, terms in enumerate(comps):
        for e, c in terms.items():
            row = monomial_rows.get(e)
            if row is None:
                row = [1]
                for u, v, k in zip(p, q, e):
                    if k:
                        row = _convolve(row, _binomial_row(u, v, k))
                monomial_rows[e] = row
            for r, x in enumerate(row):
                if x:
                    out[r][col] += c * x
    return out


# ---------------------------------------------------------------------------
# the principal lattice: interpolation and implicitization
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


@functools.lru_cache(maxsize=None)
def _stirling_scaled(D: int) -> tuple[tuple[int, ...], ...]:
    """T[i][k] = (D!/i!) s(i, k) for 0 <= k <= i <= D, s the signed Stirling
    numbers of the first kind, so that D! C(a, i) = sum_k T[i][k] a^k."""
    s = [[1]]
    for i in range(D):
        prev = s[-1] + [0]
        s.append([(prev[k - 1] if k else 0) - i * prev[k] for k in range(i + 2)])
    f = math.factorial(D)
    return tuple(tuple(f // math.factorial(i) * x for x in row) for i, row in enumerate(s))


def _newton_line(values: Sequence[int]) -> list[int]:
    """D! f as its coefficients of a^0..a^D, for the polynomial f of degree
    <= D whose values at a = 0..D are given: the forward differences of f
    at 0 are the coefficients of the binomials C(a, i), and D! C(a, i) =
    sum_k T[i][k] a^k (`_stirling_scaled`), so integer values stay
    integers."""
    c = list(values)
    D = len(c) - 1
    for k in range(1, D + 1):
        for a in range(D, k - 1, -1):
            c[a] -= c[a - 1]
    T = _stirling_scaled(D)
    return [sum(T[i][k] * c[i] for i in range(k, D + 1)) for k in range(D + 1)]


def _newton_triangle(values: Sequence[Sequence[int]], D: int) -> dict:
    """(D!)^2 f as {(k, l): coefficient of a^k b^l}, for the polynomial f of
    degree <= D in (a, b) whose values on the principal lattice are given as
    values[a][b] = f(a, b), a, b >= 0, a + b <= D.

    The lattice is unisolvent for degree D, and f = sum c_ij C(a, i) C(b, j)
    over i + j <= D with c_ij the forward difference of order i in a and j
    in b at the origin: integer differences, row by row in b, then column by
    column in a.  One change of basis takes the binomials to monomials,
    D! C(a, i) = sum_k T[i][k] a^k (`_stirling_scaled`), so the whole
    interpolant stays in integers at the scale (D!)^2."""
    c = [list(row) for row in values]
    for row in c:
        for k in range(1, len(row)):
            for b in range(len(row) - 1, k - 1, -1):
                row[b] -= row[b - 1]
    for j in range(D + 1):
        for k in range(1, D - j + 1):
            for a in range(D - j, k - 1, -1):
                c[a][j] -= c[a - 1][j]
    T = _stirling_scaled(D)
    # B[k][j] = sum_i T[i][k] c_ij, then the coefficient sum_j T[j][l] B[k][j]
    B = [[sum(T[i][k] * c[i][j] for i in range(k, D - j + 1)) for j in range(D + 1 - k)] for k in range(D + 1)]
    out = {}
    for k in range(D + 1):
        for l in range(D + 1 - k):
            v = sum(T[j][l] * B[k][j] for j in range(l, D - k + 1))
            if v:
                out[k, l] = v
    return out


def implicitize(F: RatMap, kmax: int = 4) -> Optional[tuple[int, HPoly]]:
    """Smallest-degree polynomial relation satisfied by the components of F.

    Searches k = 1..kmax for a nonzero degree-k form in the target
    coordinates vanishing identically after composition with F; returns
    (k, relation) for the first k that works, or None if none does.
    The relation is the first nullspace generator, canonically scaled.

    The degree-k system is built by evaluation, not composition: one row
    per point (1, a) of the principal lattice, a >= 0 with |a| <= k d, and
    one column per target monomial e, holding F(x)^e.  A form of degree
    k d that vanishes on that lattice is zero (the lattice is unisolvent
    for polynomials of degree <= k d in the chart x0 = 1), so the kernel
    is exactly the set of degree-k relations, and the solve certifies
    itself.  The components are first scaled by one common multiplier to
    integers, which scales each degree-k column by the same factor.

    Each lattice point is evaluated once for the whole search: the lattice
    of degree k d lies inside that of degree (k+1) d, so one table keyed
    by the point holds F's integer values Y there and its rows of every
    degree searched so far.  A degree-k row comes from the degree-(k-1)
    row with one product per entry: Y^e = Y^(e - u_i) Y_i, i the first
    index with e_i > 0.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    n1 = len(F.components)
    d = F.degree
    plan = _forms_plan(_int_components(F.components))
    # point -> (Y, [row of degree 0, row of degree 1, ...]); the kernel leaves its rows as they are
    table: dict = {}
    # steps[k]: for each degree-k monomial e, (the column of e - u_i at degree k-1, i)
    steps = [None]
    below = _monomials(n1, 0)
    for k in range(1, kmax + 1):
        target_monos = _monomials(n1, k)
        column = {e: c for c, e in enumerate(below)}
        step = []
        for e in target_monos:
            i = next(i for i, a in enumerate(e) if a)
            step.append((column[(*e[:i], e[i] - 1, *e[i + 1 :])], i))
        steps.append(step)
        below = target_monos
        matrix = []
        for e in _monomials(F.domain_vars, k * d):
            x = (1, *e[1:])
            if x not in table:
                table[x] = (_forms_eval_int(plan, x, 1, d), [[1]])
            Y, rows = table[x]
            for j in range(len(rows), k + 1):
                prev = rows[-1]
                rows.append([prev[c] * Y[i] for c, i in steps[j]])
            matrix.append(rows[k])
        basis = projcore._nullspace_int(matrix)
        if basis:
            terms = {e: c for e, c in zip(target_monos, basis[0]) if c}
            return k, HPoly._trusted(n1, k, terms).canonical()
    return None
