"""Rational interpolation: planted recovery, sharpness, and rejection."""

import itertools
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from planarize import projcore, ratfit, variables, reduce_map
from planarize.cli import generate_map
from planarize.jetplan import CallableSource, ChartOverflow, ExactMapSource, GridMapSource
from planarize.poly import HPoly, RatMap, _monomials, p_eval
from planarize.projcore import nullspace
from planarize.ratfit import (
    DegreeTooLow,
    UniRat,
    fit_bi,
    fit_map,
    fit_uni,
)
from planarize.seeding import stable_rng
from planarize import univar

X0, X1, X2 = variables(3)


def F(x):
    return Fraction(x)


def random_unirat(rng, d):
    """Planted reduced rational function with max(deg p, deg q) = d."""
    while True:
        p = [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)]
        q = [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)]
        if rng.random() < 0.5:
            q[-1] = Fraction(0)
            p[-1] = p[-1] if p[-1] else Fraction(1)
        p, q = univar.trim(p), univar.trim(q)
        if not p or not q:
            continue
        if max(univar.degree(p), univar.degree(q)) != d:
            continue
        g = univar.gcd(p, q)
        if univar.degree(g) > 0:
            p = univar.divexact(p, g)
            q = univar.divexact(q, g)
        if max(univar.degree(p), univar.degree(q)) != d:
            continue
        lead = q[-1]
        return UniRat(tuple(c / lead for c in p), tuple(c / lead for c in q))


def sample_unirat(r, nodes):
    out = []
    skip = max(int(n) for n in nodes) + 1
    for u in nodes:
        val = r.evaluate(u)
        while val is None:  # pole: replace with the next unused integer
            u = Fraction(skip)
            skip += 1
            val = r.evaluate(u)
        out.append((Fraction(u), val))
    return out


def unirat_equal(a: UniRat, b: UniRat) -> bool:
    pn = univar.mul(list(a.num), list(b.den))
    qn = univar.mul(list(b.num), list(a.den))
    return univar.sub(pn, qn) == []


# -- fit_uni ---------------------------------------------------------------------


def test_fit_identity():
    r = fit_uni([(0, 0), (1, 1), (2, 2)], 1)
    assert list(r.num) == [0, 1] and list(r.den) == [1]


def test_fit_planted_quadratic_over_linear():
    def f(u):
        return Fraction(u * u + 1, u - 2)

    r = fit_uni([(u, f(u)) for u in (0, 1, 3, 4, 5)], 2)
    planted = UniRat((F(1), F(0), F(1)), (F(-2), F(1)))
    assert unirat_equal(r, planted)


def test_fit_cubic_at_degree_two_rejected():
    with pytest.raises(DegreeTooLow):
        fit_uni([(u, u**3) for u in range(7)], 2)


def test_planted_recovery_sweep():
    for d in (1, 2, 3):
        rng = stable_rng(d, "planted_uni")
        for _ in range(12):
            planted = random_unirat(rng, d)
            samples = sample_unirat(planted, list(range(2 * d + 1)))
            got = fit_uni(samples, d)
            assert unirat_equal(got, planted)


def test_node_count_sharpness():
    # with only 2d nodes the linearized system has nullspace dimension >= 2
    d = 2
    rng = stable_rng(9, "sharpness")
    for _ in range(5):
        rows = []
        for u in range(2 * d):
            fu = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            uu = Fraction(u)
            rows.append([uu**k for k in range(d + 1)] + [-fu * uu**k for k in range(d + 1)])
        assert len(nullspace(rows)) >= 2


def test_fit_uni_at_rational_nodes():
    planted = UniRat((F(2), F(-1), F(3)), (Fraction(1, 5), F(1)))
    nodes = [Fraction(k, 3) + Fraction(1, 5) for k in range(7)]
    assert unirat_equal(fit_uni(sample_unirat(planted, nodes), 2), planted)


def test_fit_uni_rejects_duplicate_nodes():
    with pytest.raises(ValueError, match="sample nodes must be distinct"):
        fit_uni([(0, 1), (1, 2), (Fraction(2, 2), 3)], 1)


# (u + 1) / (1 + u^2) and u / (1 + u^2) at the nodes 2/5 and 1/3, and
# (u + 1) / (5u - 2) and u / ((3u - 1) / 2), with poles at those nodes
AT_NODE = [
    (lambda u: (u + 1) / (1 + u * u), UniRat((F(1), F(1)), (F(1), F(0), F(1))), Fraction(2, 5)),
    (lambda u: u / (1 + u * u), UniRat((F(0), F(1)), (F(1), F(0), F(1))), Fraction(1, 3)),
]


@pytest.mark.parametrize("f,planted,node", AT_NODE, ids=["integer", "fraction"])
def test_fit_uni_accepts_the_value_at_a_rational_node(f, planted, node):
    samples = [(u, f(F(u))) for u in range(5)] + [(node, f(node))]
    assert unirat_equal(fit_uni(samples, 2), planted)


@pytest.mark.parametrize("f,d,node,value,message", [
    (AT_NODE[0][0], 2, Fraction(2, 5), Fraction(7, 5) / Fraction(29, 25) + Fraction(1, 10**12), "residual at node 2/5"),
    (lambda u: (u + 1) / (5 * u - 2), 1, Fraction(2, 5), F(7), "pole mismatch at node 2/5"),
    (AT_NODE[1][0], 2, Fraction(1, 3), Fraction(1, 3) / Fraction(10, 9) + Fraction(1, 10**12), "residual at node 1/3"),
    (lambda u: u / ((3 * u - 1) / 2), 1, Fraction(1, 3), F(7), "pole mismatch at node 1/3"),
], ids=["int residual", "int pole mismatch", "fraction residual", "fraction pole mismatch"])
def test_fit_uni_rejects_at_a_rational_node(f, d, node, value, message):
    samples = [(u, f(F(u))) for u in range(2 * d + 1)] + [(node, value)]
    with pytest.raises(DegreeTooLow, match=f"^{re.escape(message)}$"):
        fit_uni(samples, d)


def test_fit_uni_refuses_a_function_that_misses_its_own_node():
    # the degree-1 system on the nodes 0, 1, 2 is solved by p = -2(u - 2),
    # q = u - 2, which both vanish at 2; their quotient -2 misses the sample
    # -1 there, so no function of degree <= 1 fits
    with pytest.raises(DegreeTooLow, match="^residual at node 2$"):
        fit_uni([(0, -2), (1, -2), (2, -1), (3, -2)], 1)


@pytest.mark.parametrize("d", [1, 2])
def test_fit_uni_agrees_with_every_sample_or_refuses(d):
    # every table of the values -2..2 at the nodes 0..2d+1
    nodes = range(2 * d + 2)
    for values in itertools.product(range(-2, 3), repeat=len(nodes)):
        samples = list(zip(nodes, values))
        try:
            got = fit_uni(samples, d)
        except DegreeTooLow:
            continue
        assert all(got.evaluate(u) == v for u, v in samples), samples


# -- fit_bi ----------------------------------------------------------------------


def test_fit_bi_planted():
    def f(u, v):
        return Fraction(u + v) / Fraction(1 + u * u)

    r = fit_bi(f, 2)
    assert r.num == {(1, 0): F(1), (0, 1): F(1)}
    assert r.den == {(0, 0): F(1), (2, 0): F(1)}


def test_fit_bi_polynomial():
    r = fit_bi(lambda u, v: Fraction(u) * Fraction(v), 2)
    assert r.num == {(1, 1): F(1)}
    assert r.den == {(0, 0): F(1)}


def test_fit_bi_perturbed_table_rejected():
    def f(u, v):
        if v == -1:
            return None
        base = Fraction(u) / Fraction(1 + v)
        if (u, v) == (1, 1):
            return base + 1
        return base

    with pytest.raises(DegreeTooLow):
        fit_bi(f, 2)


def test_fit_bi_with_poles_on_lines():
    # denominator vanishes along u = v: whole-line poles never occur, but
    # node poles are replaced per line
    def f(u, v):
        den = Fraction(1 + u) if u != -1 else None
        if den is None:
            return None
        return Fraction(v) / den

    r = fit_bi(f, 2)
    assert r.num == {(0, 1): F(1)}
    assert r.den == {(0, 0): F(1), (1, 0): F(1)}


def test_fit_bi_agrees_with_the_function_off_the_nodes():
    # a nontrivial planted case, checked at points the fit never reads
    def f(u, v):
        return Fraction(u * v - 3) / Fraction(2 + u + v * v)

    r = fit_bi(f, 2)
    for (u, v) in [(F(1), F(2)), (F(3), F(5)), (F(1) / 2, F(7))]:
        assert r.evaluate(u, v) == f(u, v)


def test_fit_bi_with_a_pole_on_every_line():
    # the line v = c has its pole at u = 6 - c, so every default node 0..6
    # is a pole on some line v = c, and every row loses one node
    r = fit_bi(lambda u, v: None if u + v == 6 else 1 / Fraction(u + v - 6), 1)
    assert r.num == {(0, 0): F(1)}
    assert r.den == {(0, 0): F(-6), (1, 0): F(1), (0, 1): F(1)}


RATIONAL_AXIS = [Fraction(k, 3) + Fraction(1, 5) for k in range(11)]


def _bivariate(rng, degree, sparsity):
    terms = {(i, j): Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
             for i in range(degree + 1) for j in range(degree + 1 - i) if rng.random() >= sparsity}
    return {e: c for e, c in terms.items() if c}


@pytest.mark.parametrize("seed", range(16))
def test_fit_bi_returns_a_coprime_pair(seed):
    # fit_bi reads the reduced model of fit_map; sympy's gcd of num and den
    # must be constant, also when the sampled formula carries a common factor
    u, v = sympy.symbols("u v")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * u**i * v**j for (i, j), c in p.items())

    rng = stable_rng(seed, "fit_bi_coprime")
    d = rng.choice([1, 2, 2, 3])
    A = _bivariate(rng, rng.randint(0, d - 1), rng.choice([0, 0.4]))
    B = _bivariate(rng, rng.randint(0, d - 1), rng.choice([0, 0.4])) or {(0, 0): 1}
    h = _bivariate(rng, 1, 0) or {(0, 1): 1}
    if seed % 2:  # keep the formula reduced
        h = {(0, 0): 1}

    def f(x, y):
        q = p_eval(B, [x, y]) * p_eval(h, [x, y])
        return None if q == 0 else p_eval(A, [x, y]) * p_eval(h, [x, y]) / q

    r = fit_bi(f, d)
    num, den = expr(r.num), expr(r.den)
    assert sympy.gcd(num, den).free_symbols == set()
    assert sympy.cancel(num / den - expr(A) / expr(B)) == 0


def test_fit_map_of_a_function_at_rational_nodes():
    # every node has denominator 15 or 5, so the integer lattice check and
    # the integer rows must homogenize by the node denominator; u v > 0 on
    # the lattice, so the function has no pole there
    def f(u, v):
        return (u * u - 2 * v + Fraction(1, 2)) / (1 + u * v)

    values = [[(f(u, v),) for u in RATIONAL_AXIS] for v in RATIONAL_AXIS]
    model = fit_map(GridMapSource(RATIONAL_AXIS, RATIONAL_AXIS, values, mode="exact"), 2)
    den, num = (_affine(c) for c in model.components)
    scale = den[(0, 0)]
    assert {e: Fraction(c, scale) for e, c in num.items()} == {(2, 0): F(1), (0, 1): F(-2), (0, 0): Fraction(1, 2)}
    assert {e: Fraction(c, scale) for e, c in den.items()} == {(0, 0): F(1), (1, 1): F(1)}


def test_fit_map_on_an_exact_grid_with_rational_nodes():
    # x0^2 + x1^2 + x2^2 has no real zero, so every node is in the chart
    planted = reduce_map([X0 * X0 + X1 * X1 + X2 * X2, X0 * X1 - 2 * X2 * X2, X1 * X2 + X0 * X2, X1 * X1])
    values = []
    for v in RATIONAL_AXIS:
        row = []
        for u in RATIONAL_AXIS:
            y = planted.evaluate([F(1), u, v])
            row.append(tuple(c / y[0] for c in y[1:]))
        values.append(row)
    grid = GridMapSource(RATIONAL_AXIS, RATIONAL_AXIS, values, mode="exact")
    assert fit_map(grid, 2).projectively_equal(planted)


# -- fit_map ----------------------------------------------------------------------


def test_fit_map_degree_one_baseline():
    P = reduce_map([X0 + 2 * X1, 3 * X1 - X2, X0 + X2])
    model = fit_map(ExactMapSource(P), 1)
    assert model.projectively_equal(P)


def test_fit_map_segre_recovery():
    S = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2])
    model = fit_map(ExactMapSource(S), 2)
    assert model.projectively_equal(S)


def test_fit_map_cubic_at_degree_two_rejected():
    C = reduce_map([X0**3 + X1 * X2 * X0, X1**3, X2**3 - X0 * X1 * X2, X0 * X1 * X2])
    with pytest.raises(DegreeTooLow):
        fit_map(ExactMapSource(C), 2)


def test_fit_map_composition_consistency():
    # the fitted model agrees with the source projectively at grid nodes
    S = reduce_map([X0 * X0 - X1 * X2, X0 * X1 + X2 * X2, X0 * X2, X1 * X1])
    src = ExactMapSource(S)
    model = fit_map(src, 2)
    for u in range(5):
        for v in range(5):
            y = src.evaluate(u, v)
            m = model.evaluate([F(1), F(u), F(v)])
            if y is None or m is None:
                continue
            n1 = len(y)
            for i in range(n1):
                for j in range(i + 1, n1):
                    assert y[i] * m[j] == y[j] * m[i]


def test_fit_map_reads_each_node_once():
    # every pass of the fit and every held-out draw shares one table
    planted = generate_map(3, 2, 3)
    calls = []

    def sample(u, v):
        calls.append((F(u), F(v)))
        return planted.evaluate([F(1), F(u), F(v)])

    model = fit_map(CallableSource(sample, codim=3), 2)
    assert model.projectively_equal(planted)
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("seed,degree,d,most", [(7, 3, 3, 72), (3, 2, 2, 54)])
def test_fit_map_solves_each_line_once(monkeypatch, seed, degree, d, most):
    # one nullspace per degree k <= d (d + 1 in all), well inside the bound
    calls = []
    real = projcore._nullspace_int

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(projcore, "_nullspace_int", counted)
    planted = generate_map(seed, degree, 3)
    assert fit_map(ExactMapSource(planted), d).projectively_equal(planted)
    assert len(calls) <= most


# -- fit_map against the planted map, from every source kind ----------------------


AXIS_15 = [Fraction(k, 3) + Fraction(1, 5) for k in range(15)]
F_ONE = Fraction(1)


def _callable_source(M):
    return CallableSource(lambda u, v: M.evaluate([F_ONE, F(u), F(v)]), codim=M.codim)


def _grid_source(M):
    """M on the rational-node lattice AXIS_15^2, in the chart x0 = 1."""
    values = []
    for v in AXIS_15:
        row = []
        for u in AXIS_15:
            y = M.evaluate([F_ONE, u, v])
            row.append(tuple(c / y[0] for c in y[1:]))
        values.append(row)
    return GridMapSource(AXIS_15, AXIS_15, values, mode="exact")


SOURCES = {"exact": ExactMapSource, "callable": _callable_source, "grid": _grid_source}


def _affine(h):
    """The form h in the chart x0 = 1, as a term dict in (u, v)."""
    return {e[1:]: c for e, c in h.terms.items()}


DIFFERENTIAL = [(n, degree) for n in (2, 3, 4, 5) for degree in (1, 2, 3)]


def _planted(n, degree):
    """A seeded map of this degree into RP^n whose x0 component has no zero
    on the lattice AXIS_15^2, so every source kind can carry it."""
    seed = 10 * n + degree
    while True:
        M = generate_map(seed, degree, n)
        if all(M.components[0].evaluate([F_ONE, u, v]) for u in AXIS_15 for v in AXIS_15):
            return M
        seed += 100


def _counted_nullspace(monkeypatch):
    calls = []
    real = projcore._nullspace_int

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(projcore, "_nullspace_int", counted)
    return calls


@pytest.mark.parametrize("n,degree", DIFFERENTIAL, ids=[f"RP{n}-deg{k}" for n, k in DIFFERENTIAL])
@pytest.mark.parametrize("kind", sorted(SOURCES))
def test_fit_map_matches_planted_map(monkeypatch, kind, n, degree):
    # one system per degree k <= d, each on at most (2d+1)^2 certificate nodes
    calls = _counted_nullspace(monkeypatch)
    planted = _planted(n, degree)
    source = SOURCES[kind](planted)
    model = fit_map(source, degree)
    assert model == planted  # both reduced and canonically scaled
    assert len(calls) <= degree + 1
    assert max(calls) <= (2 * degree + 1) ** 2 * n


def _after_collineation(M, B):
    """M after the collineation adj(B), whose base points are those of M
    moved by B: each column of B is sent to a multiple of a unit vector."""
    cols = [[B[r][j] for r in range(3)] for j in range(3)]
    adj = [projcore.cross(cols[1], cols[2]), projcore.cross(cols[2], cols[0]), projcore.cross(cols[0], cols[1])]
    A = reduce_map([sum((c * x for c, x in zip(row, (X0, X1, X2))), 0 * X0) for row in adj])
    return M.after(A)


# columns (1, 1, 2), (1, 3, 0), (1, 4, 5): the lattice points (u, v) = (1, 2),
# (3, 0) and (4, 5) of the chart x0 = 1
LATTICE_BASE = [[1, 1, 1], [1, 3, 4], [2, 0, 5]]
CREMONA = reduce_map([X1 * X2, X0 * X2, X0 * X1])
INVERSION = reduce_map([X1 * X1 + X2 * X2, X0 * X1, X0 * X2])


@pytest.mark.parametrize("inner", [CREMONA, INVERSION], ids=["cremona", "inversion"])
def test_fit_map_black_box_with_base_points_on_the_lattice(inner):
    planted = _after_collineation(inner, LATTICE_BASE)
    source = _callable_source(planted)
    unreadable = [(u, v) for u in range(11) for v in range(11) if source.evaluate(u, v) is None]
    assert (1, 2) in unreadable  # sent to the base point (1:0:0) of the inner map
    assert fit_map(source, 2) == planted


def test_fit_map_stops_at_the_degree_of_the_data(monkeypatch):
    # a collineation fitted at d = 3 is found at k = 1: systems for k = 0, 1
    calls = _counted_nullspace(monkeypatch)
    planted = reduce_map([X0 + 2 * X1, 3 * X1 - X2, X0 + X2])
    assert fit_map(ExactMapSource(planted), 3) == planted
    assert calls == [2, 18]


# -- poisoned samples -------------------------------------------------------------


def _poisoned_grid(M, axis, node):
    """M on axis^2 in the chart x0 = 1, with the first affine value at `node`
    (a pair of indices) moved by one."""
    values = []
    for iv, v in enumerate(axis):
        row = []
        for iu, u in enumerate(axis):
            y = M.evaluate([F_ONE, u, v])
            val = [c / y[0] for c in y[1:]]
            if (iu, iv) == node:
                val[0] += 1
            row.append(tuple(val))
        values.append(row)
    return GridMapSource(axis, axis, values, mode="exact")


COLLINEATION = reduce_map([X0 + X1 + X2, 2 * X1 - X0, X0 + 3 * X2])


def test_every_poisoned_node_fails_at_degree_one():
    planted = COLLINEATION
    axis = [F(k) for k in range(7)]
    for node in [(iu, iv) for iv in range(7) for iu in range(7)]:
        with pytest.raises(DegreeTooLow):
            fit_map(_poisoned_grid(planted, axis, node), 1)


@pytest.mark.parametrize("planted", [
    reduce_map([X0 * X0 + X1 * X1 + X2 * X2, X0 * X1 - 2 * X2 * X2, X1 * X2 + X0 * X2, X1 * X1]),
    COLLINEATION,
], ids=["quadratic", "collineation"])
def test_poisoned_nodes_fail_at_degree_two(planted):
    # x0^2 + x1^2 + x2^2 has no real zero.  The certificate nodes of k = 2 are
    # the first five of the first five rows.  Under the collineation F the
    # k = 2 nullspace is h * F for the linear forms h vanishing at the
    # poisoned node, so its reduced first vector must fail the lattice check.
    axis = [F(k) for k in range(11)]
    rng = stable_rng(11, "poisoned_nodes")
    inside = [(rng.randrange(5), rng.randrange(5)) for _ in range(4)]
    outside = [(rng.randrange(5, 11), rng.randrange(11)) for _ in range(3)] + [(rng.randrange(5), 10)]
    for node in inside + outside:
        with pytest.raises(DegreeTooLow):
            fit_map(_poisoned_grid(planted, axis, node), 2)


def test_poisoned_node_off_the_x0_chart_fails():
    # x1 vanishes on the column u = 0, so the node (0, 3) must be read in
    # another chart: there y = (0, 4, 6) is poisoned to (0, 5, 6)
    planted = reduce_map([X1, X0 + X2, X0 - X1 + 2 * X2])

    def poisoned(u, v):
        y = planted.evaluate([F_ONE, F(u), F(v)])
        return (y[0], y[1] + 1, y[2]) if (u, v) == (0, 3) else y

    assert fit_map(_callable_source(planted), 1) == planted
    with pytest.raises(DegreeTooLow):
        fit_map(CallableSource(poisoned, codim=2), 1)


def test_a_grid_fit_makes_no_held_out_draws(monkeypatch):
    # the check has read every sample a grid holds, so a draw could only
    # re-read a node that has already passed
    grid = _grid_source(_planted(3, 2))
    model = fit_map(grid, 2)

    def no_draws(*args):
        raise AssertionError("a grid fit drew held-out points")

    monkeypatch.setattr(ratfit, "stable_rng", no_draws)
    assert fit_map(grid, 2) == model


def _on_the_line_v_0(u, v):
    return (1, F(u), F(u) * F(u)) if v == 0 else None


def _at_integer_nodes(u, v):
    return (1, F(u), F(v)) if F(u).denominator == F(v).denominator == 1 else None


@pytest.mark.parametrize(
    "fn,error,message",
    [(lambda u, v: None, ChartOverflow, "no evaluable sample found"),
     (_on_the_line_v_0, DegreeTooLow, "fewer than 3 lattice rows with 3 evaluable nodes"),
     (_at_integer_nodes, ChartOverflow, "validation found no evaluable points")],
    ids=["nowhere", "one-row", "lattice-only"],
)
def test_fit_map_refuses_a_source_with_too_few_evaluable_points(fn, error, message):
    # no sample at all; samples on one lattice row only, one row short of
    # the degree-1 certificate; and samples at the lattice nodes only, so no
    # held-out draw has a value
    with pytest.raises(error) as info:
        fit_map(CallableSource(fn, codim=2), 1)
    assert str(info.value) == message


def test_held_out_validation_catches_one_bad_point():
    planted = generate_map(3, 2, 3)
    reads = []

    def clean(u, v):
        reads.append((F(u), F(v)))
        return planted.evaluate([F_ONE, F(u), F(v)])

    assert fit_map(CallableSource(clean, codim=3), 2) == planted
    held_out = [p for p in reads if p[0].denominator != 1]
    assert held_out  # draws off the integer lattice the fit reads
    bad = held_out[0]

    def poisoned(u, v):
        y = planted.evaluate([F_ONE, F(u), F(v)])
        return (y[0] + 1, *y[1:]) if (F(u), F(v)) == bad else y

    with pytest.raises(DegreeTooLow, match="held-out validation failed"):
        fit_map(CallableSource(poisoned, codim=3), 2)


def test_held_out_draw_where_the_model_vanishes_is_skipped():
    # a black box that reports some value at a base point of its map: the
    # model vanishes at that held-out draw, which is neither a failure nor
    # one of the 20 checks, so the fit reads as many points as a clean source
    def reads_of(fn):
        reads = []

        def recorded(u, v):
            reads.append((F(u), F(v)))
            return fn(u, v)

        return fit_map(CallableSource(recorded, codim=2), 2), reads

    probe = reduce_map([X0 * X0 + X1 * X1, X1 * X2, X0 * X2 - X1 * X1])
    _, reads = reads_of(lambda u, v: probe.evaluate([F_ONE, F(u), F(v)]))
    u0, v0 = next(p for p in reads if p[0].denominator != 1)  # the first held-out draw
    L = u0.denominator * v0.denominator
    l1 = int(u0 * L) * X0 - L * X1
    l2 = int(v0 * L) * X0 - L * X2
    planted = reduce_map([l1 * X0, l2 * X0, l1 * X1 + l2 * X2])
    assert planted.evaluate([F_ONE, u0, v0]) is None

    def clean(u, v):
        return planted.evaluate([F_ONE, F(u), F(v)])

    def filled(u, v):
        return (F(1), F(2), F(3)) if (F(u), F(v)) == (u0, v0) else clean(u, v)

    model, clean_reads = reads_of(clean)
    assert model == planted
    model, filled_reads = reads_of(filled)
    assert model == planted
    assert (u0, v0) in filled_reads and filled_reads == clean_reads


# -- the integer reader of exact sources --------------------------------------------


def _fit_outcome(source, d, seed):
    try:
        return repr(fit_map(source, d, seed=seed))
    except ValueError as exc:  # DegreeTooLow, ChartOverflow
        return type(exc).__name__, str(exc)


def _sparse_form(rng, degree):
    monos = _monomials(3, degree)
    chosen = rng.sample(monos, rng.randint(1, len(monos)))
    return HPoly(3, degree, {e: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for e in chosen})


@st.composite
def exact_fit_cases(draw):
    """(M, d, seed): a map M of degree 1-3 with Fraction coefficients, at
    times with a base point on the fit's lattice or an identically zero
    component, and a bound d one below, at or one above its degree."""
    degree = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    rng = stable_rng(draw(st.integers(0, 10**6)), "exact_fit_cases")
    if draw(st.booleans()):
        # every component is l1 A + l2 B, so all vanish at the lattice
        # point (u0, v0) where l1 = u0 x0 - x1 and l2 = v0 x0 - x2 do
        u0, v0 = rng.randrange(2 * degree + 1), rng.randrange(2 * degree + 1)
        l1, l2 = u0 * X0 - X1, v0 * X0 - X2
        comps = [l1 * _sparse_form(rng, degree - 1) + l2 * _sparse_form(rng, degree - 1) for _ in range(n + 1)]
    else:
        comps = [_sparse_form(rng, degree) for _ in range(n + 1)]
    if draw(st.booleans()):
        comps[rng.randrange(n + 1)] = HPoly.zero(3, degree)
    if all(c.is_zero for c in comps):
        comps[0] = HPoly.monomial([degree, 0, 0])
    return RatMap(comps), max(degree + draw(st.integers(-1, 1)), 0), draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(exact_fit_cases())
def test_exact_reader_fits_as_the_map_read_as_a_black_box(case):
    M, d, seed = case
    black_box = CallableSource(lambda u, v: M.evaluate([1, u, v]), codim=M.codim)
    assert _fit_outcome(ExactMapSource(M), d, seed) == _fit_outcome(black_box, d, seed)


def test_fit_map_reads_no_value_of_an_exact_map(monkeypatch):
    # an exact source is read in integers, never through its evaluate, and
    # each distinct (u, v) once per fit
    calls = []

    def count(method):
        def counted(*args):
            calls.append(method.__name__)
            return method(*args)

        return counted

    monkeypatch.setattr(ExactMapSource, "evaluate", count(ExactMapSource.evaluate))
    monkeypatch.setattr(RatMap, "evaluate", count(RatMap.evaluate))
    reads = []
    real = ratfit._exact_reader

    def recorded_reader(M):
        read = real(M)

        def recorded(u, v):
            reads.append((F(u), F(v)))
            return read(u, v)

        return recorded

    monkeypatch.setattr(ratfit, "_exact_reader", recorded_reader)
    planted = generate_map(3, 2, 3)
    for d in (2, 3):
        reads.clear()
        assert fit_map(ExactMapSource(planted), d) == planted
        assert reads and len(reads) == len(set(reads))
        assert any(u.denominator != 1 for u, _ in reads)  # the held-out draws
    assert calls == []


# -- the fit reads only the nodes its proof needs -------------------------------------


@st.composite
def planted_fit_cases(draw):
    """(M, d): a reduced map M of degree 0-3, at times with a base point on
    the fit's lattice or an identically zero component, and a bound d from
    its degree to 3."""
    degree = draw(st.integers(0, 3))
    n = draw(st.integers(1, 3))
    rng = stable_rng(draw(st.integers(0, 10**6)), "planted_fit_cases")
    if degree and draw(st.booleans()):
        # every component vanishes at the lattice point (u0, v0)
        u0, v0 = rng.randrange(2 * degree + 3), rng.randrange(2 * degree + 3)
        l1, l2 = u0 * X0 - X1, v0 * X0 - X2
        comps = [l1 * _sparse_form(rng, degree - 1) + l2 * _sparse_form(rng, degree - 1) for _ in range(n + 1)]
    else:
        comps = [_sparse_form(rng, degree) for _ in range(n + 1)]
    if draw(st.booleans()):
        comps[rng.randrange(n + 1)] = HPoly.zero(3, degree)
    if all(c.is_zero for c in comps):
        comps[0] = HPoly.monomial([degree, 0, 0])
    M = reduce_map(comps)
    return M, draw(st.integers(M.degree, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(planted_fit_cases())
def test_fit_map_reads_a_block_and_returns_the_planted_map(case):
    M, d = case
    reads = set()

    def recorded(u, v):
        reads.add((F(u), F(v)))
        return M.evaluate([F_ONE, F(u), F(v)])

    model = fit_map(CallableSource(recorded, codim=M.codim), d)
    assert model == M and repr(model) == repr(M)
    # the held-out draws are off the integer lattice; a full-lattice read
    # would be (4d+3)^2 nodes, the check block of the last degree is
    # (2d+2)^2 nodes where the map is defined, plus each base point passed
    lattice = {(u, v) for u, v in reads if u.denominator == v.denominator == 1}
    defined = {p for p in lattice if M.evaluate([F_ONE, *p]) is not None}
    assert len(defined) <= (2 * d + 2) ** 2
    assert len(lattice) < (4 * d + 3) ** 2


def test_fit_map_checks_every_lattice_node_when_no_check_block_fills():
    # a source defined on the rows v < 3 only: at k = 1 the certificate (3
    # rows of 3 nodes) fills but the check block of side k+d+2 = 4 cannot,
    # so the model is checked at every evaluable lattice node, and a bad
    # value at (6, 2), outside every block, is caught
    def three_rows(bad):
        def sample(u, v):
            if v >= 3:
                return None
            y = COLLINEATION.evaluate([F_ONE, F(u), F(v)])
            return (y[0] + 1, *y[1:]) if (u, v) == bad else y

        return CallableSource(sample, codim=2)

    assert fit_map(three_rows(None), 1) == COLLINEATION
    with pytest.raises(DegreeTooLow):
        fit_map(three_rows((6, 2)), 1)


def test_the_check_block_has_an_extra_row_and_column():
    # at d = 1 the collineation is found at k = 1 from its 3x3 certificate;
    # the proof for maps of degree <= 1 needs the block of side k+d+1 = 3,
    # and the check reads one row and one column more, which refuse a
    # black box poisoned there
    side = 1 + 1 + 2
    last = [(u, side - 1) for u in range(side)] + [(side - 1, v) for v in range(side - 1)]

    def poisoned(node):
        def sample(u, v):
            y = COLLINEATION.evaluate([F_ONE, F(u), F(v)])
            return (y[0] + 1, *y[1:]) if (u, v) == node else y

        return CallableSource(sample, codim=2)

    assert fit_map(poisoned(None), 1) == COLLINEATION
    for node in last:
        with pytest.raises(DegreeTooLow):
            fit_map(poisoned(node), 1)
