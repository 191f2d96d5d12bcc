"""The univariate gcd kernel against the sympy oracle.

gcd (its primitive pseudo-remainder sequence also called directly), exact
division and the gcd cofactors, on seeded inputs up to degree 70: zero,
constant, coprime, planted common factors, negative leads, rational and
large coefficients.  Every gcd must be primitive with a positive lead.
"""

from fractions import Fraction

import pytest

from planarize import univar
from planarize.seeding import stable_rng

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")


def to_sympy(p):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(univar.trim(p))]
    return sympy.Poly(coeffs or [0], X, domain="QQ")


def canon(P) -> list:
    """The primitive integer form with positive lead, low-to-high."""
    if P.is_zero:
        return []
    _, Q = P.clear_denoms(convert=True)
    _, Q = Q.primitive()
    if Q.LC() < 0:
        Q = -Q
    return [int(c) for c in reversed(Q.all_coeffs())]


def assert_primitive(p):
    assert all(type(c) is int for c in p)
    if p:
        assert p[-1] > 0
        assert univar.content_primitive(p) == (1, p)


def random_poly(rng, deg, bits=4, rational=False, neg_lead=False):
    if deg < 0:
        return []
    p = [rng.randint(-(2**bits), 2**bits) for _ in range(deg + 1)]
    p[-1] = rng.randint(1, 2**bits) * (-1 if neg_lead else 1)
    if rational:
        p = [Fraction(c, rng.randint(1, 7)) for c in p]
    return p


def pairs(seed):
    """Named (p, q) pairs covering every input class."""
    rng = stable_rng(seed, "univar-oracle")
    same = random_poly(rng, 12, neg_lead=True)
    out = [
        ("zero-zero", [], []),
        ("zero-poly", [], random_poly(rng, 5)),
        ("poly-zero", random_poly(rng, 7, rational=True), []),
        ("constant", [Fraction(-6, 5)], random_poly(rng, 9)),
        ("constants", [4], [-6]),
        ("linear", random_poly(rng, 1), random_poly(rng, 1)),
        ("associate", same, [Fraction(-3, 2) * c for c in same]),
    ]
    for k, (dg, da, db) in enumerate([(1, 3, 2), (5, 10, 12), (20, 30, 25), (35, 35, 30), (60, 10, 4)]):
        g = random_poly(rng, dg, bits=3 + 4 * k, neg_lead=k % 2 == 1)
        a = random_poly(rng, da, bits=5, rational=k == 2)
        b = random_poly(rng, db, bits=40 if k == 3 else 6, neg_lead=True)
        out.append((f"planted-{dg}", univar.mul(g, a), univar.mul(g, b)))
    g = random_poly(rng, 8)
    out.append(("planted-power", univar.mul(univar.mul(g, g), random_poly(rng, 20)),
                univar.mul(g, random_poly(rng, 30, rational=True))))
    out.append(("coprime-70", random_poly(rng, 70, bits=20), random_poly(rng, 65, bits=30, neg_lead=True)))
    out.append(("coprime-rational", random_poly(rng, 25, rational=True), random_poly(rng, 40, rational=True)))
    return out


CASES = [case for seed in (1, 2) for case in pairs(seed)]
IDS = [f"{i}-{c[0]}" for i, c in enumerate(CASES)]


@pytest.mark.parametrize("name,p,q", CASES, ids=IDS)
def test_gcd_matches_sympy(name, p, q):
    expect = canon(sympy.gcd(to_sympy(p), to_sympy(q)))
    got = univar.gcd(p, q)
    assert got == expect
    assert_primitive(got)
    assert univar.gcd(q, p) == expect


# the PRS takes primitive int inputs of degree >= 1
PRIMITIVE = [
    (name, univar.content_primitive(p)[1], univar.content_primitive(q)[1])
    for name, p, q in CASES
    if univar.degree(p) > 0 and univar.degree(q) > 0
]


@pytest.mark.parametrize("name,a,b", PRIMITIVE, ids=[f"{i}-{c[0]}" for i, c in enumerate(PRIMITIVE)])
def test_prs_matches_sympy(name, a, b):
    expect = canon(sympy.gcd(to_sympy(a), to_sympy(b)))
    prs = univar._prs_gcd(a, b)
    assert prs == expect
    assert_primitive(prs)


# coprime pairs whose values at a large integer share a factor, so a gcd read
# off the digits of that integer gcd would divide neither input
FIRST_POINT_MISSES = [([1, -1, 1], [-1, -1, 3, 1]), ([3, -3, -2, 2], [1, 0, 0, 1]), ([-1, 2, 3], [-3, 1])]


@pytest.mark.parametrize("a,b", FIRST_POINT_MISSES)
def test_coprime_pairs_have_gcd_one(a, b):
    assert univar.gcd(a, b) == univar._prs_gcd(a, b) == [1]


@pytest.mark.parametrize("name,p,q", CASES, ids=IDS)
def test_gcd_cofactors_are_coprime_and_span_the_lcm(name, p, q):
    # the reduction p/q -> (p/g)/(q/g) that fit_uni makes: both divisions are
    # exact, the cofactors share no factor, and p * (q/g) is sympy's lcm
    g = univar.gcd(p, q)
    if not g:
        assert not univar.trim(p) and not univar.trim(q)
        return
    a, b = univar.divexact(p, g), univar.divexact(q, g)
    assert univar.mul(a, g) == univar.trim(p) and univar.mul(b, g) == univar.trim(q)
    assert univar.gcd(a, b) == ([1] if a or b else [])
    expect = canon(sympy.lcm(to_sympy(p), to_sympy(q))) if univar.trim(p) and univar.trim(q) else []
    assert univar.content_primitive(univar.mul(p, b))[1] == expect


@pytest.mark.parametrize("name,p,q", CASES, ids=IDS)
def test_divexact_matches_sympy(name, p, q):
    if not univar.trim(q):
        with pytest.raises(ZeroDivisionError):
            univar.divexact(p, q)
        return
    prod = univar.mul(p, q)
    quo = univar.divexact(prod, q)
    expect, rem = sympy.div(to_sympy(prod), to_sympy(q))
    assert rem.is_zero
    assert to_sympy(quo) == expect
    assert quo == univar.trim(p)
    if univar.degree(q) > 0:
        with pytest.raises(ArithmeticError):
            univar.divexact(univar.add(prod, [1]), q)


def test_divexact_keeps_ints_for_integral_quotients():
    assert univar.divexact([2, 4, 2], [1, 1]) == [2, 2]
    assert all(type(c) is int for c in univar.divexact([2, 4, 2], [1, 1]))
    half = univar.divexact([1, 1], [2, 2])
    assert half == [Fraction(1, 2)] and type(half[0]) is Fraction


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_content_primitive_matches_sympy(seed):
    rng = stable_rng(seed, "univar-content")
    cases = [[], [0, 0], [Fraction(-6, 5)], [4, 0, -6], [Fraction(3, 4), Fraction(-9, 10)]]
    for deg in (1, 4, 9):
        cases.append(random_poly(rng, deg, bits=40))
        cases.append(random_poly(rng, deg, rational=True, neg_lead=True))
        cases.append([c * Fraction(rng.randint(1, 99), rng.randint(1, 99)) for c in random_poly(rng, deg)])
    for p in cases:
        c, P = univar.content_primitive(p)
        assert all(type(x) is int for x in P) and type(c) is Fraction
        if not univar.trim(p):
            assert (c, P) == (0, [])
            continue
        den, ints = to_sympy(p).clear_denoms(convert=True)
        g, prim = ints.primitive()
        if prim.LC() < 0:
            g, prim = -g, -prim
        assert c == Fraction(int(g)) / int(den)
        assert P == [int(x) for x in reversed(prim.all_coeffs())]
