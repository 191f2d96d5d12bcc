"""The signed-minors and polynomial kernels against the sympy oracle, and
the exact coefficient convention of the polynomial kernel."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planarize import dualize, poly
from planarize.cli import generate_map
from planarize.dualize import dual_map
from planarize.jetplan import ExactMapSource
from planarize.poly import (
    HPoly,
    RatMap,
    coef_div,
    implicitize,
    p_mul,
    reduce_map,
)
from planarize.ratfit import fit_map
from planarize.projcore import DimensionMismatch, signed_minors
from planarize.seeding import stable_rng

sympy = pytest.importorskip("sympy")

XS = sympy.symbols("x0 x1 x2")


def to_sympy(p: HPoly):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**k for x, k in zip(XS, e))
        for e, c in p.terms.items()
    )


def sympy_det(rows):
    return sympy.Matrix(rows).det(method="berkowitz")


def random_form(rng, degree, zero_chance=0.0):
    if rng.random() < zero_chance:
        return HPoly.zero(3, degree)
    terms = {}
    for _ in range(3):
        a = rng.randint(0, degree)
        b = rng.randint(0, degree - a)
        terms[(a, b, degree - a - b)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return HPoly(3, degree, terms)


def minors_oracle(rows):
    """(-1)^j det(rows without column j), each determinant by sympy."""
    n = len(rows)
    return [
        (-1) ** j * sympy_det([[r[c] for c in range(n + 1) if c != j] for r in rows])
        for j in range(n + 1)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signed_minors_of_forms_match_sympy(n):
    rng = stable_rng(n, "minors_forms")
    for _ in range(2):
        # rows of different degrees, some entries zero (the dual's sections
        # and the jet's lifted chart column both give zero entries)
        degrees = [rng.randint(1, 2) for _ in range(n)]
        rows = [[random_form(rng, d, zero_chance=0.2) for _ in range(n + 1)] for d in degrees]
        ours = signed_minors(rows)
        oracle = minors_oracle([[to_sympy(p) for p in r] for r in rows])
        for p, q in zip(ours, oracle):
            assert p.degree == sum(degrees)
            assert sympy.expand(to_sympy(p) - q) == 0


def test_signed_minors_of_integers_match_numeric_minors():
    rng = stable_rng(0, "minors_ints")
    for n in range(1, 7):
        for _ in range(4):
            rows = [[rng.randint(-6, 6) for _ in range(n + 1)] for _ in range(n)]
            expect = [int(m) for m in minors_oracle(rows)]
            assert signed_minors(rows) == expect
            # the covector pairs to zero with every row
            assert all(sum(map(operator.mul, r, expect)) == 0 for r in rows)


def test_signed_minors_shape_errors():
    with pytest.raises(DimensionMismatch):
        signed_minors([])
    with pytest.raises(DimensionMismatch):
        signed_minors([[1, 2, 3], [4, 5, 6], [7, 8, 9]])


# ---------------------------------------------------------------------------
# the coefficient convention: an int when integral, a Fraction otherwise
# ---------------------------------------------------------------------------


def assert_convention(p: HPoly):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def mixed_form(rng, degree):
    """A nonzero ternary form whose coefficients mix ints, proper fractions and
    integral Fractions such as 4/2."""
    while True:
        terms = {}
        for _ in range(4):
            a = rng.randint(0, degree)
            b = rng.randint(0, degree - a)
            c = rng.randint(-6, 6)
            terms[(a, b, degree - a - b)] = c if rng.random() < 0.5 else Fraction(c, rng.randint(1, 4))
        p = HPoly(3, degree, terms)
        if not p.is_zero:
            return p


@pytest.mark.parametrize("seed", range(4))
def test_coefficient_convention_and_sympy(seed):
    rng = stable_rng(seed, "coefficient_convention")
    f, f2, g, k = mixed_form(rng, 2), mixed_form(rng, 2), mixed_form(rng, 1), mixed_form(rng, 1)
    for p in (f, f2, g, k):
        assert_convention(p)

    fg = HPoly(3, 3, p_mul(f.terms, g.terms))
    assert fg == f * g
    assert sympy.expand(to_sympy(fg) - to_sympy(f) * to_sympy(g)) == 0
    for p in (fg, f + f2, f - f2, g**3, Fraction(3, 2) * f, 2 * g):
        assert_convention(p)
    assert (f - f).is_zero

    # substitution against sympy's
    args = [mixed_form(rng, 1) for _ in range(3)]
    sub = f.substitute(args)
    assert_convention(sub)
    expect = to_sympy(f).subs(dict(zip(XS, [to_sympy(a) for a in args])), simultaneous=True)
    assert sympy.expand(to_sympy(sub) - expect) == 0

    assert all(type(c) is int for c in f.canonical().terms.values())
    m = reduce_map([f * g, f * k, f2 * g])
    for comp in m.components:
        assert all(type(c) is int for c in comp.terms.values())

    again = HPoly.from_json(f.to_json())
    assert again == f
    assert_convention(again)


def assert_passes_the_checks(p: HPoly):
    """A polynomial the package built without the constructor's checks is
    the one the checks build, and its coefficients are nonzero ints."""
    assert p == HPoly(p.nvars, p.degree, dict(p.terms))
    assert all(type(c) is int and c for c in p.terms.values())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([2, 1, 3]))
def test_package_built_polynomials_pass_the_constructor_checks(seed, degree):
    rng = stable_rng(seed, "trusted_construction")
    F = generate_map(seed, 2, 3)  # a generic quadratic into RP^3
    # a common factor with Fraction coefficients, for reduce_map's solve
    h = mixed_form(rng, 1)
    unreduced = RatMap([c * h for c in F.components])
    maps = [reduce_map(unreduced), dual_map(F), dual_map(unreduced), fit_map(ExactMapSource(F), 2)]
    polys = [c for m in maps for c in m.components]
    polys += [implicitize(F, 4)[1], mixed_form(rng, degree).canonical()]
    for p in polys:
        assert_passes_the_checks(p)


def test_coefficient_edges_keep_fractions():
    two = HPoly.from_json({"nvars": 1, "degree": 0, "terms": [{"exp": [0], "coef": "4/2"}]})
    assert type(two.terms[(0,)]) is int and two.terms[(0,)] == 2
    half = HPoly(1, 1, {(1,): "1/2"})
    assert half.terms[(1,)] == Fraction(1, 2)
    assert HPoly(1, 1, {(1,): 0.5}) == half
    # int / int would be a float
    assert coef_div(6, 3) == 2 and type(coef_div(6, 3)) is int
    assert coef_div(3, 6) == Fraction(1, 2) and type(coef_div(3, 6)) is Fraction
    assert type(coef_div(Fraction(3, 2), Fraction(1, 2))) is int


def test_implicitize_builds_no_product_and_no_composition(monkeypatch):
    # the degree-k system holds values of F on the principal lattice, so
    # no composed monomial is multiplied out and no relation substituted
    F = generate_map(3, 2, 3)
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"implicitize called {name}")
        return call

    for name in ("__mul__", "__rmul__", "__pow__", "substitute"):
        monkeypatch.setattr(HPoly, name, refuse(f"HPoly.{name}"))
    monkeypatch.setattr(poly, "p_mul", refuse("p_mul"))
    k, rel = implicitize(F, 4)
    assert k == 4 and rel.degree == 4
    assert calls == []


# -- the principal-lattice interpolation kernel and the wedge it reads --------------

A, B = sympy.symbols("a b")


def _fraction(c) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def planted_form(rng, degree):
    """A polynomial of degree at most `degree` in (a, b), unexpanded: a
    product of affine factors with Fraction coefficients (some zero) plus a
    few Fraction monomials; the zero polynomial at random."""
    if rng.random() < 0.1:
        return sympy.Integer(0)
    expr = sympy.Rational(rng.randint(-4, 4), rng.randint(1, 4))
    for _ in range(rng.randint(0, degree)):
        a, b, c = (sympy.Rational(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(3))
        expr *= a * A + b * B + c
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(0, degree)
        expr += sympy.Rational(rng.randint(-5, 5), rng.randint(1, 7)) * A**k * B ** rng.randint(0, degree - k)
    return expr


@pytest.mark.parametrize("degree", range(9))
def test_newton_kernel_matches_sympy_expansion_of_planted_forms(degree):
    rng = stable_rng(degree, "newton_triangle")
    for D in (degree, degree + 1):
        for _ in range(3):
            expr = planted_form(rng, degree)
            values = [[_fraction(expr.subs({A: a, B: b})) for b in range(D + 1 - a)] for a in range(D + 1)]
            scale = math.factorial(D) ** 2
            expect = sympy.Poly(sympy.expand(expr), A, B)
            want = {m: _fraction(c) * scale for m, c in zip(expect.monoms(), expect.coeffs()) if c}
            assert poly._newton_triangle(values, D) == want


@pytest.mark.parametrize("D", range(8))
def test_newton_line_is_d_factorial_times_the_interpolant(D):
    rng = stable_rng(D, "newton_line")
    coeffs = [rng.randint(-50, 50) for _ in range(D + 1)]
    values = [sum(c * a**k for k, c in enumerate(coeffs)) for a in range(D + 1)]
    assert poly._newton_line(values) == [math.factorial(D) * c for c in coeffs]


def test_newton_kernel_of_integer_values_stays_in_integers():
    rng = stable_rng(0, "newton_triangle_ints")
    D = 6
    values = [[rng.randint(-50, 50) for _ in range(D + 1 - a)] for a in range(D + 1)]
    got = poly._newton_triangle(values, D)
    assert all(type(c) is int for c in got.values())
    scale = math.factorial(D) ** 2
    for a in range(D + 1):
        for b in range(D + 1 - a):
            assert sum(c * a**k * b**l for (k, l), c in got.items()) == scale * values[a][b]


@pytest.mark.parametrize(
    "d, n, chosen",
    [(1, 2, [0, 1]), (2, 3, [0, 1, 2]), (3, 4, [0, 1, 2, 3]), (2, 2, [0, 2]), (3, 3, [0, 1, 2]), (3, 3, [1, 2, 3]),
     (4, 3, [0, 2, 4]), (4, 2, [3, 4])],
)
def test_the_wedge_is_a_power_of_l2_times_the_interpolated_forms(d, n, chosen):
    # W(l) = signed minors of the rows `chosen` of the coefficient vectors of
    # F(s p + t q) with p = l x e0, q = l x e1, expanded by sympy in l; the
    # route's H is (D!)^2 times W / l2^(n(n-1)/2), D = n d - n(n-1)/2, so W is
    # divisible by l2^(n(n-1)/2) for any n rows (all d+1 of them for d+1 = n)
    F = generate_map(d, d, n)
    l0, l1, l2, s, t = sympy.symbols("l0:3 s t")
    x = [-t * l2, s * l2, -s * l1 + t * l0]
    rows = []
    for r in chosen:
        row = []
        for comp in F.components:
            form = sympy.Poly(sympy.expand(to_sympy(comp).subs(dict(zip(XS, x)), simultaneous=True)), s, t)
            row.append(form.coeff_monomial(s ** (d - r) * t**r))
        rows.append(row)
    W = minors_oracle(rows)
    D = n * d - n * (n - 1) // 2
    reader = dualize._row_reader(F)
    H = dualize._wedge_forms(reader, chosen, D, dualize._pencil_minors(reader, chosen, D))
    assert not all(h.is_zero for h in H)
    for w, h in zip(W, H):
        assert h.degree == D
        assert sympy.expand(
            math.factorial(D) ** 2 * w - l2 ** (n * d - D) * to_sympy(h).subs(dict(zip(XS, (l0, l1, l2))))
        ) == 0
