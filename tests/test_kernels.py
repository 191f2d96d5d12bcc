"""The determinant, signed-minors and polynomial kernels against the sympy
oracle, and the exact coefficient convention of the polynomial kernel."""

import operator
from fractions import Fraction

import pytest

from planarize.cli import generate_map
from planarize.poly import (
    HPoly,
    _monomials,
    coef_div,
    hpoly_divexact,
    hpoly_gcd,
    implicitize,
    p_mul,
    reduce_map,
)
from planarize.projcore import DimensionMismatch, det, signed_minors
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
            expect = [
                (-1) ** j * det([[r[c] for c in range(n + 1) if c != j] for r in rows])
                for j in range(n + 1)
            ]
            assert signed_minors(rows) == expect
            # the covector pairs to zero with every row
            assert all(sum(map(operator.mul, r, expect)) == 0 for r in rows)


def test_signed_minors_shape_errors():
    with pytest.raises(DimensionMismatch):
        signed_minors([])
    with pytest.raises(DimensionMismatch):
        signed_minors([[1, 2, 3], [4, 5, 6], [7, 8, 9]])


def _random_rational_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def test_det_matches_sympy_on_seeded_rationals():
    rng = stable_rng(0, "det_oracle")
    cases = []
    for n in range(1, 7):
        for _ in range(3):
            cases.append(_random_rational_matrix(rng, n))
        if n >= 2:
            # singular: the last row is a combination of the first two
            m = _random_rational_matrix(rng, n)
            a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3), 2)
            m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
            cases.append(m)
            # a zero first pivot and a small leading column force row swaps
            m = _random_rational_matrix(rng, n)
            m[0][0] = Fraction(0)
            m[-1][0] = Fraction(50)
            cases.append(m)
            # a zero column
            m = _random_rational_matrix(rng, n)
            for row in m:
                row[n - 1] = Fraction(0)
            cases.append(m)
    for m in cases:
        oracle = sympy_det([[sympy.Rational(c.numerator, c.denominator) for c in r] for r in m])
        assert det(m) == Fraction(int(oracle.p), int(oracle.q))


def test_det_sign_follows_row_swaps():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det([]) == 1
    with pytest.raises(DimensionMismatch):
        det([[1, 2, 3], [4, 5, 6]])


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

    # exact division, also by a divisor whose scale leaves a fractional quotient
    assert hpoly_divexact(fg, g) == f
    half = hpoly_divexact(fg, 2 * g)
    assert_convention(half)
    assert half == Fraction(1, 2) * f

    # the gcd is sympy's up to a constant factor, in canonical int form
    h = hpoly_gcd(f * g, f * k)
    assert all(type(c) is int for c in h.terms.values())
    ratio = sympy.cancel(to_sympy(h) / sympy.gcd(to_sympy(f * g), to_sympy(f * k)))
    assert ratio.is_number and ratio != 0

    assert all(type(c) is int for c in f.canonical().terms.values())
    m = reduce_map([f * g, f * k, f2 * g])
    for comp in m.components:
        assert all(type(c) is int for c in comp.terms.values())

    again = HPoly.from_json(f.to_json())
    assert again == f
    assert_convention(again)


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


def test_implicitize_one_product_per_composed_monomial(monkeypatch):
    products = []
    mul = HPoly.__mul__

    def counting(self, other):
        if isinstance(other, HPoly):
            products.append((self.degree, other.degree))
        return mul(self, other)

    monkeypatch.setattr(HPoly, "__mul__", counting)
    F = generate_map(3, 2, 3)
    k, rel = implicitize(F, 4)
    assert k == 4
    # degree-1 monomials are the components themselves; each one of degree
    # j >= 2 is a degree-(j-1) composed monomial times one component
    expect = [(2 * (j - 1), 2) for j in range(2, k + 1) for _ in _monomials(4, j)]
    assert sorted(products) == expect
