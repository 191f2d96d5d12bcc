"""Polynomial/rational-map layer: contract examples with independent oracles."""

import copy
import functools
import itertools
import pickle
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from planarize.poly import (
    AllZero,
    HPoly,
    RatMap,
    _canonical_scale,
    _common_degree_bound,
    _forms_eval_int,
    _forms_plan,
    _line_rows,
    _monomials,
    implicitize,
    line_base_points,
    p_eval,
    reduce_map,
    variables,
)
from planarize.cli import generate_map
from planarize.projcore import PLine2, PPoint, nullspace, rank
from planarize.seeding import stable_rng

X0, X1, X2 = variables(3)


def gauss_rank(rows):
    """Independent rational elimination rank, oracle for projcore.rank."""
    m = [[Fraction(c) for c in r] for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def random_hpoly(rng, nvars, degree, lo=-5, hi=5):
    monos = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    terms = {m: Fraction(rng.randint(lo, hi)) for m in monos}
    return HPoly(nvars, degree, {m: c for m, c in terms.items() if c})


def random_map(rng, degree, target_dim):
    while True:
        comps = [random_hpoly(rng, 3, degree) for _ in range(target_dim + 1)]
        if all(c.is_zero for c in comps):
            continue
        m = reduce_map(comps)
        if m.degree == degree:
            return m


# -- p_eval -------------------------------------------------------------------


def fraction_eval(a, xs):
    """Term-by-term Fraction reference for p_eval."""
    total = Fraction(0)
    for e, c in a.items():
        v = Fraction(c)
        for x, k in zip(xs, e):
            v *= Fraction(x) ** k
        total += v
    return total


@pytest.mark.parametrize("seed", range(6))
def test_p_eval_matches_a_fraction_reference(seed):
    rng = stable_rng(seed, "p_eval")
    for _ in range(60):
        nvars = rng.randint(1, 3)
        degree = rng.randint(0, 5)
        monos = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) <= degree]
        if rng.random() < 0.5:
            monos = [e for e in monos if sum(e) == degree]  # homogeneous
        a = {}
        for e in rng.sample(monos, rng.randint(0, len(monos))):
            c = rng.randint(-9, 9) or 1
            a[e] = c if rng.random() < 0.5 else Fraction(c, rng.randint(2, 12))
        xs = [
            rng.choice([0, rng.randint(-7, -1), rng.randint(1, 7), Fraction(rng.randint(-9, 9), rng.randint(2, 11))])
            for _ in range(nvars)
        ]
        got = p_eval(a, xs)
        assert type(got) is Fraction
        assert got == fraction_eval(a, xs)


@pytest.mark.parametrize("seed", range(4))
def test_shared_kernel_evaluates_each_form_as_a_one_form_plan(seed):
    # several int-coefficient forms with their own supports, some empty, at
    # nodes X / L with L != 1: one plan gives each form's own value
    rng = stable_rng(seed, "forms_eval")
    for _ in range(30):
        nvars = rng.randint(1, 3)
        D = rng.randint(0, 5)
        monos = [e for e in itertools.product(range(D + 1), repeat=nvars) if sum(e) <= D]
        forms = [
            {e: rng.randint(-9, 9) or 1 for e in rng.sample(monos, rng.randint(0, len(monos)))}
            for _ in range(rng.randint(1, 4))
        ]
        L = rng.randint(2, 12)
        X = [rng.randint(-20, 20) for _ in range(nvars)]
        got = _forms_eval_int(_forms_plan(forms), X, L, D)
        assert got == [_forms_eval_int(_forms_plan([a]), X, L, D)[0] for a in forms]
        assert got == [_forms_eval_int((a, (a.values(),)), X, L, D)[0] for a in forms]
        assert got == [L**D * fraction_eval(a, [Fraction(x, L) for x in X]) for a in forms]


# -- _line_rows: a map on a line ----------------------------------------------


def line_rows(F, line):
    """The coefficient rows A_0..A_d of F(s p0 + t p1) on the line's base points."""
    return _line_rows([c.terms for c in F.components], *line_base_points(line), F.degree)


def sympy_line_rows(F, line):
    """The same rows read off sympy's expansion of F(s p0 + t p1): an oracle
    that forms every product of polynomials."""
    s, t = sympy.symbols("s t")
    x = [a * s + b * t for a, b in zip(*line_base_points(line))]
    cols = []
    for comp in F.components:
        expr = sum(sympy.Rational(str(c)) * sympy.prod([xi**k for xi, k in zip(x, e)]) for e, c in comp.terms.items())
        form = sympy.Poly(sympy.expand(expr), s, t)
        coeffs = (form.coeff_monomial(s ** (F.degree - r) * t**r) for r in range(F.degree + 1))
        cols.append([Fraction(int(v.p), int(v.q)) for v in coeffs])
    return [list(row) for row in zip(*cols)]


def test_line_rows_of_identity_on_coordinate_line():
    F = reduce_map([X0, X1, X2])
    assert line_rows(F, PLine2.of(0, 0, 1)) == [[1, 0, 0], [0, 1, 0]]


def test_line_rows_of_segre_on_x0_line_raw():
    F = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2])
    assert line_rows(F, PLine2.of(1, 0, 0)) == [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]]


def test_line_rows_on_generic_line_keep_degree():
    F = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2])
    rows = line_rows(F, PLine2.of(1, 2, 3))
    assert len(rows) == F.degree + 1 and any(map(any, rows))


def test_line_rows_match_sympy_expansion():
    rng = stable_rng(11, "line_rows_sympy")
    for _ in range(20):
        F = random_map(rng, rng.choice([1, 2, 3]), 3)
        cov = tuple(rng.randint(-6, 6) for _ in range(3))
        if cov == (0, 0, 0):
            continue
        line = PLine2.of(cov)
        assert line_rows(F, line) == sympy_line_rows(F, line)


def test_line_rows_commute_with_evaluation():
    # sum_r t^r A_r equals F at the parameterized point, projectively, for
    # 20 seeded (F, L, t) draws
    rng = stable_rng(11, "restrict_eval")
    for _ in range(20):
        F = random_map(rng, rng.choice([1, 2]), 3)
        cov = tuple(rng.randint(-6, 6) for _ in range(3))
        if cov == (0, 0, 0):
            continue
        line = PLine2.of(cov)
        rows = line_rows(F, line)
        p0, p1 = line_base_points(line)
        t = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        point = [a + t * b for a, b in zip(p0, p1)]
        direct = F.evaluate(point)
        via = [sum(t**r * row[i] for r, row in enumerate(rows)) for i in range(len(F.components))]
        if direct is None or not any(via):
            assert direct is None and not any(via)
            continue
        n1 = len(direct)
        for i in range(n1):
            for j in range(i + 1, n1):
                assert direct[i] * via[j] == direct[j] * via[i]


def test_line_inside_indeterminacy_gives_zero_rows():
    # all components vanish on {x0 = 0}
    F = RatMap([X0 * X0, X0 * X1, X0 * X2])
    assert not any(map(any, line_rows(F, PLine2.of(1, 0, 0))))


# -- reduce_map ---------------------------------------------------------------


def test_reduce_explicit_common_factor():
    q = X1 * X1 + X2 * X2
    m = reduce_map([q * X0, q * X1])
    assert m.degree == 1
    assert m.components == (X0, X1)


def test_reduce_inversion_web_composite_and_verify_by_multiplication():
    q = X1 * X1 + X2 * X2
    raw = [q * q, q * (X0 * X1), q * (X0 * X2), (X0 * X0) * q]
    m = reduce_map(raw)
    assert m.degree == 2
    assert m.components == (q, X0 * X1, X0 * X2, X0 * X0)
    # divide-and-verify oracle: multiplying back by the factor restores the input
    for reduced, original in zip(m.components, raw):
        assert reduced * q == original


def test_reduce_coprime_unchanged():
    m = reduce_map([X0 * X0, X1 * X2])
    assert m.components == (X0 * X0, X1 * X2)


def test_reduce_idempotent():
    rng = stable_rng(3, "reduce_idem")
    for _ in range(10):
        m = random_map(rng, 2, 3)
        again = reduce_map(list(m.components))
        assert again.components == m.components


def test_reduce_all_zero_rejected():
    with pytest.raises(AllZero):
        reduce_map([HPoly.zero(3, 2), HPoly.zero(3, 2)])


# -- span of a line's image: the rank of its rows ------------------------------


def test_span_veronese():
    F = RatMap([X0 * X0, X0 * X1, X1 * X1])
    assert rank(line_rows(F, PLine2.of(0, 0, 1))) == 3


def test_span_constant_map():
    one = (0, 0, 0)
    F = RatMap([HPoly(3, 0, {one: Fraction(3)}), HPoly(3, 0, {one: Fraction(-1)})])
    assert line_rows(F, PLine2.of(1, 2, 3)) == [[3, -1]]
    assert rank(line_rows(F, PLine2.of(1, 2, 3))) == 1


def test_span_dependent_component_matches_rank_oracle():
    F = RatMap([X0 * X0, X0 * X1, X1 * X1, X0 * X0 + X1 * X1])
    rows = line_rows(F, PLine2.of(0, 0, 1))
    assert rank(rows) == 3
    assert gauss_rank(rows) == 3


def test_span_bound_for_restrictions():
    rng = stable_rng(17, "span_bound")
    for _ in range(15):
        d = rng.choice([1, 2, 3])
        F = random_map(rng, d, rng.choice([2, 3, 4]))
        cov = tuple(rng.randint(-5, 5) for _ in range(3))
        if cov == (0, 0, 0):
            continue
        rows = line_rows(F, PLine2.of(cov))
        assert rank(rows) == gauss_rank(rows) <= F.degree + 1


# -- implicitize ---------------------------------------------------------------


def test_implicitize_segre_quadric():
    F = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2])
    k, rel = implicitize(F)
    assert k == 2
    y = variables(4)
    assert rel == (y[0] * y[3] - y[1] * y[2]).canonical()
    # exact-expansion oracle: x0^2 * x1x2 == (x0x1)(x0x2)
    assert (X0 * X0) * (X1 * X2) == (X0 * X1) * (X0 * X2)


def test_implicitize_circle_web_map():
    F = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X1 + X2 * X2])
    k, rel = implicitize(F)
    assert k == 2
    y = variables(4)
    assert rel == (y[0] * y[3] - y[1] * y[1] - y[2] * y[2]).canonical()


def test_implicitize_dependent_components_degree_one():
    F = RatMap([X0 * X0, X0 * X1, X0 * X2, X0 * X0 + X0 * X1])
    k, rel = implicitize(F, 1)
    assert k == 1
    assert rel.substitute(list(F.components)).is_zero


def test_implicitize_relation_vanishes_after_composition():
    rng = stable_rng(23, "imp_compose")
    F = random_map(rng, 2, 3)
    out = implicitize(F, 4)
    assert out is not None
    k, rel = out
    assert rel.substitute(list(F.components)).is_zero


def test_implicitize_no_relation_for_plane_identity():
    F = reduce_map([X0, X1, X2])
    assert implicitize(F, 4) is None


def implicitize_by_composition(F, kmax):
    """The coefficient route, oracle for implicitize: every composed
    monomial F^e is built as a product, and the degree-k system matches
    coefficients of the domain monomials of degree k d."""
    n1 = len(F.components)
    units = [tuple(int(i == j) for j in range(n1)) for i in range(n1)]
    composed = dict(zip(units, F.components))
    for k in range(1, kmax + 1):
        target_monos = _monomials(n1, k)
        if k > 1:
            below, composed = composed, {}
            for exp in target_monos:
                i = next(j for j, e in enumerate(exp) if e)
                rest = tuple(e - (j == i) for j, e in enumerate(exp))
                composed[exp] = below[rest] * F.components[i]
        matrix = [
            [composed[exp].terms.get(xm, 0) for exp in target_monos]
            for xm in _monomials(F.domain_vars, k * F.degree)
        ]
        basis = nullspace(matrix)
        if basis:
            terms = {e: c for e, c in zip(target_monos, basis[0]) if c}
            return k, HPoly(n1, k, terms).canonical()
    return None


def vanishes_on(rel, F):
    """sympy: rel(F_0, ..., F_n) expands to zero."""
    xs = sympy.symbols(f"x0:{F.domain_vars}")
    ys = sympy.symbols(f"y0:{len(F.components)}")

    def expr(p, vs):
        return sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(v**k for v, k in zip(vs, e))
                   for e, c in p.terms.items())

    composed = expr(rel, ys).subs({y: expr(c, xs) for y, c in zip(ys, F.components)}, simultaneous=True)
    return sympy.expand(composed) == 0


@st.composite
def small_maps(draw):
    """Maps from RP^(nvars-1), nvars 1-4, of degree <= 3 (<= 2 from RP^2 on)
    into RP^1..RP^3: dense seeded components, some with Fraction
    coefficients, and at most one zero component."""
    nvars = draw(st.sampled_from([2, 3, 4, 1]))
    degree = draw(st.sampled_from([2, 1, 3, 0][: 2 if nvars > 2 else 3 if nvars == 2 else 4]))
    count = draw(st.sampled_from([4, 3, 2]))
    rng = stable_rng(draw(st.integers(0, 10**6)), "implicitize_maps")
    denominator = draw(st.sampled_from([1, 3, 2]))
    comps = [random_hpoly(rng, nvars, degree, -3, 3) * Fraction(1, rng.randint(1, denominator))
             for _ in range(count)]
    zero = draw(st.integers(0, 3 * count)) - 2 * count
    if 0 <= zero < count:
        comps[zero] = HPoly.zero(nvars, degree)
    if all(c.is_zero for c in comps):
        comps[0] = HPoly.monomial([degree] + [0] * (nvars - 1))
    return RatMap(comps)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_maps(), st.sampled_from([4, 3, 2, 1]))
def test_implicitize_matches_the_composition_route(F, kmax):
    out = implicitize(F, kmax)
    assert repr(out) == repr(implicitize_by_composition(F, kmax))
    if out is not None:
        assert vanishes_on(out[1], F)


@pytest.mark.parametrize("F, kmax", [
    (generate_map(3, 2, 3), 4),
    (RatMap([Fraction(1, 3) * c for c in generate_map(5, 2, 3).components[:3]] + [X0 * X1]), 4),
    (reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X1 + X2 * X2]), 2),
], ids=["generic quadratic", "fraction coefficients", "circle web"])
def test_implicitize_relation_vanishes_by_sympy(F, kmax):
    k, rel = implicitize(F, kmax)
    assert repr((k, rel)) == repr(implicitize_by_composition(F, kmax))
    assert vanishes_on(rel, F)


@pytest.mark.parametrize("F, k, points", [
    (generate_map(3, 2, 3), 4, 45),
    (reduce_map([X0 * X0 + X1 * X1 + X2 * X2, X0 * X1, X0 * X2, X1 * X1 + X2 * X2 - X0 * X0]), 2, 15),
], ids=["generic quadratic", "circle web"])
def test_implicitize_evaluates_each_lattice_point_once(monkeypatch, F, k, points):
    # the lattices of degree k d are nested, so the search reads F only on
    # the largest one: C(2k+2, 2) points at d = 2
    from planarize import poly

    reads = []
    forms_eval_int = poly._forms_eval_int

    def counted(plan, X, L, D):
        reads.append(tuple(X))
        return forms_eval_int(plan, X, L, D)

    monkeypatch.setattr(poly, "_forms_eval_int", counted)
    assert implicitize(F, 4)[0] == k
    assert len(reads) == len(set(reads)) == points


# -- reduce_map against sympy's gcd ----------------------------------------------

# reduce_map restricts to the line x_i = (i+1) u0 + (i+1)^3 u1, through
# LINE_POINT (u1 = 0) and (1, 8, 27) (u0 = 0); LINE_FORM vanishes on it, and
# POINT_FORM at (1, 8, 27), where the power of u0 counts in the gcd
LINE_POINT = (1, 2, 3)
LINE_FORM = 5 * X0 - 4 * X1 + X2
POINT_FORM = 8 * X0 - X1


def _sympy_form(p):
    xs = sympy.symbols("x0:3")
    return sum(
        (sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * sympy.prod(x**k for x, k in zip(xs, e))
         for e, c in p.terms.items()),
        sympy.Integer(0),
    )


def _from_sympy(expr, degree):
    xs = sympy.symbols("x0:3")
    if expr == 0:
        return HPoly.zero(3, degree)
    terms = sympy.Poly(expr, *xs).as_dict()
    return HPoly(3, degree, {e: Fraction(int(c.p), int(c.q)) for e, c in terms.items()})


def _sympy_reduced(components):
    """The components divided by sympy's gcd, canonically scaled: the
    reduced map by an independent gcd."""
    exprs = [_sympy_form(c) for c in components]
    g = functools.reduce(sympy.gcd, exprs)
    xs = sympy.symbols("x0:3")
    degree = components[0].degree - sympy.Poly(g, *xs).total_degree()
    return RatMap(_canonical_scale([_from_sympy(sympy.cancel(e / g), degree) for e in exprs]))


def _form_through(rng, degree, point):
    """A random form of the degree vanishing at the point (x0 = 1 there)."""
    q = random_hpoly(rng, 3, degree, -3, 3)
    return q - q.evaluate(point) * X0**degree


coefficients = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(0, 10**6),
    st.integers(1, 5),
    st.integers(0, 3),
    st.integers(0, 2),
    st.sampled_from(["generic", "line factor", "point factor", "base point"]),
    st.lists(coefficients, min_size=10, max_size=10),
)
def test_reduce_map_matches_the_sympy_gcd(seed, count, h_degree, degree, kind, h_coeffs):
    rng = stable_rng(seed, "reduce_sympy")
    monos = _monomials(3, h_degree)
    h = HPoly(3, h_degree, dict(zip(monos, h_coeffs)))
    if h.is_zero:
        h = X0**h_degree
    if kind == "line factor":
        h = h * LINE_FORM
    if kind == "point factor":
        h = h * POINT_FORM
    if kind == "base point" and degree:
        cofactors = [_form_through(rng, degree, LINE_POINT) for _ in range(count)]
    else:
        cofactors = [random_hpoly(rng, 3, degree, -3, 3) for _ in range(count)]
    if count > 1 and rng.random() < 0.4:
        cofactors[rng.randrange(count)] = HPoly.zero(3, degree)
    F = [h * c for c in cofactors]
    if all(c.is_zero for c in F):
        return
    got = reduce_map(F)
    assert got.to_json() == _sympy_reduced(F).to_json()
    assert reduce_map(got.components) == got
    if count > 1:
        # no common factor is left
        g = functools.reduce(sympy.gcd, [_sympy_form(c) for c in got.components])
        assert not g.free_symbols


def test_reduce_factor_through_the_certificate_line():
    # every restriction is zero, so the bound is the degree itself
    F = [LINE_FORM * X0, LINE_FORM * X1, LINE_FORM * (X2 + X0)]
    assert _common_degree_bound(F) == 2
    assert reduce_map(F).components == (X0, X1, X2 + X0)


def test_reduce_factor_through_the_u0_point_of_the_line():
    # the restrictions' gcd in u1 is constant; the factor is their common u0
    F = [POINT_FORM * X0, POINT_FORM * X1, POINT_FORM * X2]
    assert _common_degree_bound(F) == 1
    assert reduce_map(F).components == (X0, X1, X2)


def test_reduce_base_point_on_the_certificate_line():
    # the forms share the point (1, 2, 3) of the line but no factor: the
    # restricted gcd is spurious and the solve finds the map reduced
    F = [(X1 - 2 * X0) * X1, (X2 - 3 * X0) * X2]
    assert _common_degree_bound(F) == 1
    assert reduce_map(F).components == _canonical_scale(F)


def test_reduce_single_component_is_the_constant_map():
    assert reduce_map([X0 * X1 - 3 * X2 * X2]).components == (HPoly(3, 0, {(0, 0, 0): 1}),)
    m = reduce_map([HPoly.zero(3, 2), -2 * X0 * X1, HPoly.zero(3, 2)])
    assert m.components == (HPoly.zero(3, 0), HPoly(3, 0, {(0, 0, 0): 1}), HPoly.zero(3, 0))


@pytest.mark.parametrize("components", [
    [X0, X1 * X1],
    [X0, variables(4)[1]],
    [HPoly.zero(4, 1), X0, X1],
])
def test_reduce_checks_the_shapes_before_any_work(components):
    with pytest.raises(ValueError, match="components must share nvars and degree"):
        reduce_map(components)


def test_reduce_takes_a_zero_component_at_the_common_degree():
    # a zero component needs only the same nvars
    assert reduce_map([HPoly.zero(3, 2), X0]).components == (HPoly.zero(3, 0), HPoly(3, 0, {(0, 0, 0): 1}))
    m = reduce_map([HPoly.zero(3, 1), X0 * X0, X1 * X1])
    assert m.components == (HPoly.zero(3, 2), X0 * X0, X1 * X1)


def test_a_map_reduce_map_returned_passes_through():
    G = reduce_map([X0 * X0, X0 * X1, X0 * X2])
    assert reduce_map(G) is G
    # the constructor and from_json never mark a map reduced
    for F in (RatMap([X0 * X0, X0 * X1, X0 * X2]), RatMap.from_json(G.to_json())):
        assert reduce_map(F) is not F
        assert reduce_map(F) == G


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_polynomials_and_maps_copy_and_pickle(copier):
    for p in (X0, Fraction(1, 2) * X0 * X1 - 3 * X2 * X2):
        q = copier(p)
        assert type(q) is HPoly and q == p and q.terms == p.terms
        with pytest.raises(AttributeError, match="HPoly is immutable"):
            q.degree = 0
    G = reduce_map([X0 * X0, X0 * X1, X1 * X2])
    H = copier(G)
    assert type(H) is RatMap and H == G
    # a copy is built by the constructor, which never marks a map reduced
    assert G._reduced and not H._reduced
    assert reduce_map(H) is not H and reduce_map(H) == G
    with pytest.raises(AttributeError, match="RatMap is immutable"):
        H.components = ()


# -- serialization ----------------------------------------------------------------


def test_hpoly_rejects_a_non_integral_exponent():
    with pytest.raises(ValueError, match=r"exponent \(1\.5, 1\.5, 0\) is not integral"):
        HPoly(3, 2, {(1.5, 1.5, 0): 1})
    with pytest.raises(ValueError, match=r"exponent \(0\.5, 1\.5, 0\) is not integral"):
        HPoly.monomial((0.5, 1.5, 0))
    assert HPoly(3, 2, {(1.0, 1, 0): 1}) == X0 * X1  # an integral float is still an exponent


def test_hpoly_json_round_trip():
    p = 3 * X0 * X1 - Fraction(1, 2) * X2 * X2
    data = p.to_json()
    assert data["terms"] == sorted(data["terms"], key=lambda t: t["exp"])
    assert HPoly.from_json(data) == p


def test_ratmap_json_round_trip():
    F = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2])
    assert RatMap.from_json(F.to_json()) == F


# -- denominators, cleared once in projcore -------------------------------------


def _random_dict(rng, nvars, nterms):
    out = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, 3) for _ in range(nvars))
        kind = rng.randrange(3)
        c = rng.randint(-50, 50) if kind == 0 else Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        if kind == 2:
            c = Fraction(c) + Fraction(rng.randint(-3, 3))  # may be integral but stored as a Fraction
        if c:
            out[e] = c
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cleared_terms_and_p_canonical_match_sympy(seed):
    from planarize.poly import p_canonical
    from planarize.projcore import _cleared

    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols("x0:3")
    rng = stable_rng(seed, "int_terms_sympy")
    for nterms in (1, 2, 5, 9):
        a = _random_dict(rng, 3, nterms)
        if not a:
            continue
        P = sympy.Poly.from_dict(
            {e: sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for e, c in a.items()},
            gens, domain="QQ",
        )
        den, ints = P.clear_denoms(convert=True)
        X, m = _cleared(a.values())
        A = dict(zip(a, X))
        assert m == int(den) and all(type(c) is int for c in A.values())
        assert A == {e: int(c) for e, c in ints.as_dict().items()}
        g, prim = ints.primitive()
        lead = max(a)  # the lexicographically leading exponent
        sign = 1 if prim.as_dict()[lead] > 0 else -1
        assert p_canonical(a) == {e: sign * int(c) for e, c in prim.as_dict().items()}
