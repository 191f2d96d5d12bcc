"""Jets, the slope-indexed hyperplane family, and per-line extraction."""

import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_mul, rs_series_inversion
from sympy.polys.rings import ring

from planarize import jetplan, ratfit
from planarize.cli import generate_map
from planarize.jetplan import (
    ChartOverflow,
    DegeneratePoint,
    DegenerateSlope,
    ExactMapSource,
    GridMapSource,
    OnIndeterminacy,
    OrderMismatch,
    hyperplane_for_line,
    jet_of,
    nondegenerate_at,
    omega,
    read_csv_grid,
    write_csv_grid,
)
from planarize.poly import HPoly, RatMap, reduce_map, variables
from planarize.projcore import PPoint
from planarize.seeding import stable_rng

X0, X1, X2 = variables(3)

PARABOLOID = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X1 + X2 * X2])  # (u, v, u^2+v^2)
PRODUCT = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2])  # (u, v, uv)
LINEAR = reduce_map([X0, X1, X2, X1 + 2 * X2])  # an affine-linear embedding


def F(x):
    return Fraction(x)


# -- jets -----------------------------------------------------------------------


def test_jet_of_paraboloid_at_origin():
    jet = jet_of(ExactMapSource(PARABOLOID), (0, 0), 2)
    assert jet.chart == 0
    expect = {
        (0, 0): (0, 0, 0),
        (1, 0): (1, 0, 0),
        (0, 1): (0, 1, 0),
        (2, 0): (0, 0, 1),
        (1, 1): (0, 0, 0),
        (0, 2): (0, 0, 1),
    }
    for k, v in expect.items():
        assert jet.coeffs[k] == tuple(F(c) for c in v)


def test_jet_of_affine_linear_has_no_second_order():
    jet = jet_of(ExactMapSource(LINEAR), (F(1) / 3, F(2) / 7), 2)
    for (i, j), vec in jet.coeffs.items():
        if i + j == 2:
            assert all(c == 0 for c in vec)


def test_jet_of_product_map_at_one_one_matches_symbolic_shift():
    # (u, v, uv) shifted to (1, 1): (1+s, 1+t, 1+s+t+st)
    jet = jet_of(ExactMapSource(PRODUCT), (1, 1), 2)
    assert jet.chart == 0
    expect = {
        (0, 0): (1, 1, 1),
        (1, 0): (1, 0, 1),
        (0, 1): (0, 1, 1),
        (1, 1): (0, 0, 1),
        (2, 0): (0, 0, 0),
        (0, 2): (0, 0, 0),
    }
    for k, v in expect.items():
        assert jet.coeffs[k] == tuple(F(c) for c in v)


def _sympy_taylor(ratmap, a, m):
    """Chart and Taylor coefficients of F_i / F_chart at (u0, v0), by sympy.

    The chart is the component of largest absolute value at the base point
    (the first one on a tie); coeffs[(i, j)] lists, for each other
    component, the coefficient of s^i t^j in F_i / F_chart at (u0 + s, v0 + t),
    read off sympy's power series in e of the quotient at (u0 + e s, v0 + e t).
    """
    R, e, s, t = ring("e,s,t", QQ)
    u = QQ(a[0].numerator, a[0].denominator) + e * s
    v = QQ(a[1].numerator, a[1].denominator) + e * t
    series = [
        sum((QQ(c.numerator, c.denominator) * u ** k[1] * v ** k[2] for k, c in comp.terms.items()), R.zero)
        for comp in ratmap.components
    ]
    values = [p.coeff(1) for p in series]
    chart = max(range(len(values)), key=lambda i: (abs(values[i]), -i))
    inverse = rs_series_inversion(series[chart], e, m + 1)
    coeffs = {(i, j): [] for i in range(m + 1) for j in range(m + 1 - i)}
    for idx, p in enumerate(series):
        if idx != chart:
            q = dict(rs_mul(p, inverse, e, m + 1).terms())
            for (i, j), vec in coeffs.items():
                c = q.get((i + j, i, j), QQ(0))
                vec.append(Fraction(int(c.numerator), int(c.denominator)))
    return chart, coeffs


@pytest.mark.parametrize("seed,degree,target", [(1, 2, 3), (2, 3, 3), (3, 2, 4), (4, 3, 4)])
def test_exact_jets_match_sympy_taylor_series(seed, degree, target):
    ratmap = generate_map(seed, degree, target)
    src = ExactMapSource(ratmap)
    for a in [(F(2) / 3, F(-5) / 7), (F(-7) / 4, F(3) / 10)]:
        chart, expect = _sympy_taylor(ratmap, a, 3)
        for m in range(4):
            jet = jet_of(src, a, m)
            assert (jet.base, jet.order, jet.chart, jet.mode) == (a, m, chart, "exact")
            assert set(jet.coeffs) == {(i, j) for i in range(m + 1) for j in range(m + 1 - i)}
            for k, vec in jet.coeffs.items():
                assert all(type(x) is Fraction for x in vec)
                assert list(vec) == expect[k]


def test_exact_jets_in_a_chart_other_than_x0():
    # (u, v, uv + 5) at (1/2, 1/3): the last component is the largest there
    ratmap = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2 + 5 * X0 * X0])
    a = (F(1) / 2, F(1) / 3)
    chart, expect = _sympy_taylor(ratmap, a, 2)
    jet = jet_of(ExactMapSource(ratmap), a, 2)
    assert jet.chart == chart == 3
    assert {k: list(v) for k, v in jet.coeffs.items()} == expect


@pytest.mark.parametrize("a", [(0, 0), (F(1) / 2, F(-1) / 3)])
def test_exact_jets_raise_at_a_base_point_of_the_inversion(a):
    # the circle inversion centred at a: (x - a)^2 + (y - b)^2, x - a, y - b
    u0, v0 = F(a[0]), F(a[1])
    dx, dy = X1 - u0 * X0, X2 - v0 * X0
    inversion = reduce_map([dx * dx + dy * dy, X0 * dx, X0 * dy])
    src = ExactMapSource(inversion)
    for m in range(3):
        with pytest.raises(OnIndeterminacy):
            jet_of(src, a, m)
    with pytest.raises(OnIndeterminacy):
        nondegenerate_at(src, a)
    # one unit to the right the map is defined, at [1 : 1 : 0]
    assert jet_of(src, (u0 + 1, v0), 1).chart == 0


# -- omega ------------------------------------------------------------------------


def curve_points_on_line(ratmap, slope, ts):
    """Exact image points of the line v = slope*u through the origin."""
    pts = []
    for t in ts:
        val = ratmap.evaluate([F(1), F(t), F(slope) * F(t)])
        pts.append(PPoint.of(val))
    return pts


def test_omega_paraboloid_matches_hyperplane_through_oracle():
    # the oracle is sympy's nullspace of the image points: the one hyperplane
    # through them
    import sympy

    om = omega(jet_of(ExactMapSource(PARABOLOID), (0, 0), 2))
    assert om.degree == 1
    for slope in (1, 2):
        value = om.evaluate(slope)
        points = [list(p.coords) for p in curve_points_on_line(PARABOLOID, slope, [1, 2, 3])]
        (oracle,) = sympy.Matrix(points).nullspace()
        got = PPoint.of(value)
        assert got == PPoint.of([Fraction(int(x.p), int(x.q)) for x in oracle])


def test_omega_of_affine_linear_is_identically_zero():
    om = omega(jet_of(ExactMapSource(LINEAR), (F(1) / 4, F(1) / 5), 2))
    assert om.is_zero


def test_omega_degree_bound_for_order_two_jets():
    rng = stable_rng(31, "omega_bound")
    for _ in range(10):
        comps = []
        monos = [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]
        for _ in range(4):
            terms = {m: Fraction(rng.randint(-5, 5)) for m in monos}
            comps.append(HPoly(3, 2, {m: c for m, c in terms.items() if c}))
        if all(c.is_zero for c in comps):
            continue
        m = reduce_map(comps)
        if m.degree != 2 or m.codim != 3:
            continue
        try:
            om = omega(jet_of(ExactMapSource(m), (F(1) / 3, F(1) / 2), 2))
        except Exception:
            continue
        assert om.degree <= 3


def test_omega_order_mismatch_rejected():
    jet = jet_of(ExactMapSource(PARABOLOID), (0, 0), 1)
    with pytest.raises(OrderMismatch):
        omega(jet)


# -- nondegeneracy ------------------------------------------------------------------


def test_nondegenerate_paraboloid_origin():
    assert nondegenerate_at(ExactMapSource(PARABOLOID), (0, 0))


def test_degenerate_affine_linear_everywhere():
    src = ExactMapSource(LINEAR)
    for a in [(0, 0), (F(1) / 2, F(1) / 3), (5, -7)]:
        assert not nondegenerate_at(src, a)


def test_degenerate_planar_image():
    flat = reduce_map([X0 * X0, X0 * X1, X0 * X2, HPoly.zero(3, 2)])  # (u, v, 0)
    assert not nondegenerate_at(ExactMapSource(flat), (F(1) / 3, F(1) / 7))


@st.composite
def precheck_cases(draw):
    """(map, base point) pairs for the exact nondegeneracy test: generic
    maps, cones (forms in x0 and x1 only), sparse maps (few monomials),
    maps with d + 1 < n and maps whose components all vanish at the base
    point, with int or Fraction coefficients and base points."""
    kind = draw(st.sampled_from(["generic", "cone", "sparse", "low", "locus"]))
    n = draw(st.integers(3 if kind == "low" else 1, 4))
    d = draw(st.integers(1, n - 2) if kind == "low" else st.integers(0, 4))
    if kind == "cone":
        monos = [(d - i, i, 0) for i in range(d + 1)]
    else:
        monos = [(d - i - j, i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    if kind in ("cone", "sparse"):
        monos = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=n, unique=True))
    if draw(st.booleans()):
        coeff = st.fractions(-3, 3, max_denominator=5)
    else:
        coeff = st.integers(-3, 3)
    comps = [HPoly(3, d, {e: draw(coeff) for e in monos}) for _ in range(n + 1)]
    point = st.fractions(-4, 4, max_denominator=7) if draw(st.booleans()) else st.integers(-4, 4)
    a = (draw(point), draw(point))
    if kind == "locus":
        # subtract each component's value at [1 : a] times x0^d
        base = [F(1), F(a[0]), F(a[1])]
        corner = (d, 0, 0)
        comps = [c - HPoly(3, d, {corner: c.evaluate(base)}) for c in comps]
    assume(not all(c.is_zero for c in comps))
    return RatMap(comps), a


def _jet_verdict(src, a):
    try:
        return not omega(jet_of(src, a, src.codim - 1)).is_zero
    except OnIndeterminacy:
        return OnIndeterminacy


@settings(max_examples=200, deadline=None, derandomize=True)
@given(precheck_cases())
def test_exact_nondegeneracy_agrees_with_the_jets(case):
    # the integer rank on one line against the oracle: omega of the jet is
    # not identically zero, OnIndeterminacy included
    ratmap, a = case
    src = ExactMapSource(ratmap)
    expect = _jet_verdict(src, a)
    if expect is OnIndeterminacy:
        with pytest.raises(OnIndeterminacy):
            nondegenerate_at(src, a)
    else:
        assert nondegenerate_at(src, a) is expect


def test_exact_nondegeneracy_builds_no_jet(monkeypatch):
    def refuse(*args):
        raise AssertionError("an exact source built a jet")

    monkeypatch.setattr(jetplan, "jet_of", refuse)
    monkeypatch.setattr(jetplan, "omega", refuse)
    assert nondegenerate_at(ExactMapSource(PARABOLOID), (F(1) / 3, F(-2) / 5))
    assert not nondegenerate_at(ExactMapSource(LINEAR), (F(1) / 4, 2))
    assert nondegenerate_at(ExactMapSource(generate_map(3, 3, 4)), (F(1) / 4, F(1) / 4))


# -- hyperplane_for_line --------------------------------------------------------------


def test_hyperplane_paraboloid_slope_two():
    h = hyperplane_for_line(ExactMapSource(PARABOLOID), (0, 0), 2)
    assert h.covector == (0, 2, -1, 0)
    # containment oracle on four exact image points
    for t in (1, 2, -1, F(1) / 2):
        val = PARABOLOID.evaluate([F(1), F(t), 2 * F(t)])
        assert sum(F(c) * x for c, x in zip(h.covector, val)) == 0


def test_hyperplane_product_map_slope_one():
    h = hyperplane_for_line(ExactMapSource(PRODUCT), (0, 0), 1)
    assert PPoint.of(h.covector) == PPoint.of((0, 1, -1, 0))
    for t in (1, 3, -2, F(2) / 3):
        val = PRODUCT.evaluate([F(1), F(t), F(t)])
        assert sum(F(c) * x for c, x in zip(h.covector, val)) == 0


def test_hyperplane_vertical_line():
    h = hyperplane_for_line(ExactMapSource(PARABOLOID), (0, 0), "inf")
    for t in (1, 2, -3):
        val = PARABOLOID.evaluate([F(1), F(0), F(t)])
        assert sum(F(c) * x for c, x in zip(h.covector, val)) == 0


def test_hyperplane_requires_nondegenerate_point():
    with pytest.raises(DegeneratePoint):
        hyperplane_for_line(ExactMapSource(LINEAR), (0, 0), 1)


def test_containment_along_planarization_lines():
    # every quadratic map into RP^3 is a planarization; hyperplanes must
    # contain exactly computed image points for several base points/slopes
    rng = stable_rng(37, "containment")
    src = ExactMapSource(PARABOLOID)
    for _ in range(6):
        a = (Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 5))
        slope = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        h = hyperplane_for_line(src, a, slope)
        for k in (1, 2, 3):
            t = Fraction(k, 7)
            u, v = a[0] + t, a[1] + slope * t
            val = PARABOLOID.evaluate([F(1), u, v])
            assert sum(F(c) * x for c, x in zip(h.covector, val)) == 0


@pytest.mark.parametrize("slope,printed", [(2, "2"), (Fraction(1, 3), "1/3"), ("inf", "inf"), ((1, 3), "(1, 3)")])
def test_line_leaving_the_hyperplane_names_the_slope_as_given(slope, printed):
    # a generic cubic into RP^3 is no planarization: the jet's hyperplane
    # osculates the image of the line but does not contain it
    src = ExactMapSource(generate_map(7, 3, 3))
    message = f"image of the line with slope {printed} leaves the hyperplane"
    with pytest.raises(DegenerateSlope, match=f"^{re.escape(message)}$"):
        hyperplane_for_line(src, (Fraction(1, 3), Fraction(1, 5)), slope)


def test_exact_containment_reads_no_point_of_the_map(monkeypatch):
    calls = []

    def count(method):
        def counted(*args):
            calls.append(method.__name__)
            return method(*args)

        return counted

    monkeypatch.setattr(ExactMapSource, "evaluate", count(ExactMapSource.evaluate))
    monkeypatch.setattr(RatMap, "evaluate", count(RatMap.evaluate))
    for slope in (2, "inf", (3, -1)):
        hyperplane_for_line(ExactMapSource(PARABOLOID), (Fraction(1, 2), Fraction(-1, 3)), slope)
    assert calls == []


# -- grid (float) mode -----------------------------------------------------------------


def build_grid(ratmap, center, h, half, chart=0):
    us = [float(center[0] + k * h) for k in range(-half, half + 1)]
    vs = [float(center[1] + k * h) for k in range(-half, half + 1)]
    values = []
    for v in vs:
        row = []
        for u in us:
            val = ratmap.evaluate([F(1), Fraction(u).limit_denominator(10**12),
                                   Fraction(v).limit_denominator(10**12)])
            row.append(tuple(float(c / val[chart]) for i, c in enumerate(val) if i != chart))
        values.append(row)
    return GridMapSource(us, vs, values, mode="float")


def test_grid_jets_match_exact_jets():
    # exact jets vs central differences on sampled grids, 10 seeded quadratics
    rng = stable_rng(41, "fd_cross")
    checked = 0
    monos = [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]
    while checked < 10:
        terms0 = {m: Fraction(rng.randint(-4, 4)) for m in monos}
        terms0[(2, 0, 0)] = Fraction(rng.randint(30, 40))  # dominate: chart 0
        comps = [HPoly(3, 2, {m: c for m, c in terms0.items() if c})]
        for _ in range(3):
            t = {m: Fraction(rng.randint(-4, 4)) for m in monos}
            comps.append(HPoly(3, 2, {m: c for m, c in t.items() if c}))
        m = reduce_map(comps)
        if m.degree != 2:
            continue
        base = (Fraction(1, 4), Fraction(1, 3))
        exact = jet_of(ExactMapSource(m), base, 2)
        if exact.chart != 0:
            continue
        grid = build_grid(m, base, Fraction(1, 1024), 3)
        approx = jet_of(grid, (grid.u_axis[3], grid.v_axis[3]), 2)
        scale = max(abs(float(x)) for vec in exact.coeffs.values() for x in vec) or 1.0
        for key in exact.coeffs:
            for a, b in zip(exact.coeffs[key], approx.coeffs[key]):
                assert abs(float(a) - b) <= 1e-5 * scale
        checked += 1


def test_grid_nondegeneracy_and_hyperplane():
    grid = build_grid(PARABOLOID, (Fraction(1, 8), Fraction(1, 16)), Fraction(1, 512), 3)
    a = (grid.u_axis[3], grid.v_axis[3])
    assert nondegenerate_at(grid, a)
    h = hyperplane_for_line(grid, a, 2)
    assert h is not None


def test_grid_jets_reject_uneven_spacing():
    # the pitch comes from the first two nodes; differencing across uneven
    # steps would give d(v^2)/dv = 0.4 at v = 0.25, where it is 0.5
    axis = [0.0, 0.1, 0.25, 0.3, 0.45]
    values = [[(u, v, v * v) for u in axis] for v in axis]
    grid = GridMapSource(axis, axis, values, mode="float")
    for k in (1, 2, 3):
        with pytest.raises(ChartOverflow, match="not the pitch"):
            jet_of(grid, (axis[2], axis[k]), 2)
    exact_axis = [Fraction(k, 20) for k in (0, 2, 5, 6, 9)]
    exact_values = [[(u, v, v * v) for u in exact_axis] for v in exact_axis]
    exact = GridMapSource(exact_axis, exact_axis, exact_values, mode="exact")
    with pytest.raises(ChartOverflow, match="not the pitch"):
        jet_of(exact, (exact_axis[2], exact_axis[2]), 2)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_grid_jets_on_an_axis_of_one_node_hit_the_edge_not_the_pitch(mode):
    # one u node has no pitch, and every point of it is at the grid edge
    one = [Fraction(1, 2) if mode == "exact" else 0.5]
    axis = [Fraction(k, 8) for k in range(5)] if mode == "exact" else [k / 8 for k in range(5)]
    grid = GridMapSource(one, axis, [[(one[0], v, v * v)] for v in axis], mode=mode)
    for call in (lambda: jet_of(grid, (one[0], axis[2]), 2), lambda: nondegenerate_at(grid, (one[0], axis[2]))):
        with pytest.raises(ChartOverflow, match="too close to the grid edge"):
            call()


def _scan(axis, x):
    """Reference lookup: the first index whose node equals x, or None."""
    return next((i for i, a in enumerate(axis) if a == x), None)


# nodes k / 8 with |k| <= 160: exact binary fractions, at least 1/8 apart
_axes = st.lists(st.integers(-160, 160), min_size=1, max_size=12, unique=True).map(
    lambda ks: [Fraction(k, 8) for k in sorted(ks)]
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_axes, _axes, st.data())
def test_exact_node_index_agrees_with_a_linear_scan(us, vs, data):
    grid = GridMapSource(us, vs, [[(u, v) for u in us] for v in vs], mode="exact")
    as_type = data.draw(st.sampled_from([Fraction, float, lambda x: int(x) if x.denominator == 1 else x]))
    iu, iv = data.draw(st.integers(0, len(us) - 1)), data.draw(st.integers(0, len(vs) - 1))
    u, v = as_type(us[iu]), as_type(vs[iv])
    assert grid.node_index(u, v) == (_scan(us, u), _scan(vs, v)) == (iu, iv)
    assert grid.evaluate(u, v) == (1, us[iu], vs[iv])
    off = data.draw(st.fractions(-30, 30, max_denominator=24).filter(lambda x: _scan(us + vs, x) is None))
    for u, v in ((off, vs[iv]), (us[iu], off), (float(off), vs[iv]), ([us[iu]], vs[iv]), (float("nan"), vs[iv])):
        with pytest.raises(KeyError):
            grid.node_index(u, v)
        assert grid.evaluate(u, v) is None


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_axes, st.data())
def test_float_node_index_finds_a_node_within_its_tolerance(axis, data):
    axis = [float(a) for a in axis]
    grid = GridMapSource(axis, axis, [[(u, v) for u in axis] for v in axis], mode="float")
    i = data.draw(st.integers(0, len(axis) - 1))
    sign = data.draw(st.sampled_from([1, -1]))
    near, far = axis[i] + sign * 1e-13, axis[i] + sign * 1e-11
    assert grid.node_index(near, axis[0]) == (i, 0)
    with pytest.raises(KeyError):
        grid.node_index(far, axis[0])
    assert grid.evaluate(far, axis[0]) is None


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("key", [[0.0], None, "x", "0.0", 10**400], ids=["list", "none", "text", "numeric-text", "huge"])
def test_a_non_numeric_or_huge_key_is_no_node_in_either_mode(mode, key):
    axis = [0.0, 1.0] if mode == "float" else [Fraction(0), Fraction(1)]
    grid = GridMapSource(axis, axis, [[(u, v) for u in axis] for v in axis], mode=mode)
    with pytest.raises(KeyError):
        grid.node_index(key, axis[0])
    assert grid.evaluate(key, axis[0]) is None
    assert grid.evaluate(axis[0], key) is None


# -- CSV ---------------------------------------------------------------------------------


def test_csv_round_trip_and_order():
    us = [0.0, 0.5, 1.0]
    vs = [0.0, 1.0]
    values = [[(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)], [(7.0, 8.0), (9.0, 10.0), (11.0, 12.0)]]
    src = GridMapSource(us, vs, values)
    text = write_csv_grid(src)
    lines = text.strip().splitlines()
    assert lines[0] == "u,v,F1,F2"
    # row-major in v then u: the u index varies fastest
    assert lines[1].startswith("0.0,0.0") and lines[2].startswith("0.5,0.0")
    back = read_csv_grid(text)
    assert back.u_axis == us and back.v_axis == vs
    assert back.node_value(1, 1) == (9.0, 10.0)


def test_csv_sparse_grid_names_the_missing_node():
    with pytest.raises(ValueError, match="no row for the node u=1, v=1"):
        read_csv_grid("u,v,F1\n0,0,1\n1,0,2\n0,1,3\n", mode="exact")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_csv_repeated_node_is_rejected(mode):
    # a repeated node is an error, not a silent overwrite by its last row
    rows = "".join(f"0,0,{k}\n" for k in range(1, 100))
    with pytest.raises(ValueError, match="two rows for the node u=0(\\.0)?, v=0(\\.0)?$"):
        read_csv_grid("u,v,F1\n" + rows, mode=mode)
    with pytest.raises(ValueError, match="two rows for the node u=1(\\.0)?, v=0(\\.0)?$"):
        read_csv_grid("u,v,F1\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n1,0,5\n", mode=mode)


# every error of the parser, word for word
CSV_ERRORS = [
    ("exact", "\n", "grid CSV must start with columns u,v"),
    ("exact", "x,v,F1\n0,0,1\n", "grid CSV must start with columns u,v"),
    ("exact", "u,v\n0,0\n", "grid CSV has no value columns after u,v"),
    ("exact", "u,v,F1\n0,0,1\n5\n", "grid CSV row 3 has fewer than two cells"),
    ("exact", "u,v,F1\n1/2,0,1\n0.5,0,2\n", "grid CSV has two rows for the node u=1/2, v=0"),
    ("float", "u,v,F1\n0.5,0,1\n5e-1,0.0,2\n", "grid CSV has two rows for the node u=0.5, v=0.0"),
    # the repeated row names its own spelling of the node
    ("float", "u,v,F1\n0.0,0,1\n-0.0,0,2\n", "grid CSV has two rows for the node u=-0.0, v=0.0"),
    ("exact", "u,v,F1\n\n\n", "grid CSV has no data rows"),
    ("exact", "u,v,F1\n0,0,1\n1/2,0,2\n0,3/4,3\n", "grid CSV has no row for the node u=1/2, v=3/4"),
    ("float", "u,v,F1\n0,0,1\n0.5,0,2\n0,0.75,3\n", "grid CSV has no row for the node u=0.5, v=0.75"),
    # a NaN node is a new node in every row
    ("float", "u,v,F1\nnan,0,1\nnan,1,1\n0,0,1\n0,1,1\n", "grid CSV has no row for the node u=nan, v=0.0"),
    ("exact", "u,v,F1,F2\n0,0,1,2\n1,0,3\n", "ragged grid CSV"),
    ("exact", "u,v,F1\n0,0,abc\n", "Invalid literal for Fraction: 'abc'"),
    ("exact", "u,v,F1\nx,0,1\n", "Invalid literal for Fraction: 'x'"),
    ("exact", "u,v,F1\n0,0,1/0\n", "scalar '1/0' has a zero denominator"),
    ("float", "u,v,F1\n0,0,abc\n", "could not convert string to float: 'abc'"),
    # a non-finite float node has no exact point
    ("float", "u,v,F1\n0,0,1\n0,inf,2\n", "grid axis node v=inf is not finite"),
    ("float", "u,v,F1\n-inf,0,1\n0,0,2\n", "grid axis node u=-inf is not finite"),
    # a lookup within NODE_ATOL would take two such nodes for one
    ("float", "u,v,F1\n0.0,0,1\n1e-13,0,2\n1.0,0,3\n", "grid axis nodes u=0.0 and u=1e-13 are closer than NODE_ATOL = 1e-12"),
]


@pytest.mark.parametrize("mode, text, message", CSV_ERRORS)
def test_csv_error_messages(mode, text, message):
    with pytest.raises(ValueError) as err:
        read_csv_grid(text, mode=mode)
    assert str(err.value) == message


def test_grid_axis_checks_refuse_what_a_lookup_or_the_node_table_cannot_read():
    with pytest.raises(ValueError, match=r"^grid axis nodes v=0.5 and v=0.5000000000001 are closer than NODE_ATOL"):
        GridMapSource([0.0], [0.5, 0.5 + 1e-13], [[(1.0,)], [(2.0,)]])
    with pytest.raises(ValueError, match=r"^grid axis node u=nan is not finite$"):
        GridMapSource([float("nan")], [0.0], [[(1.0,)]])
    # on an exact grid a lookup is by hash, so any two distinct nodes are apart
    grid = GridMapSource([Fraction(0), Fraction(1, 10**13)], [0], [[(1,), (2,)]], mode="exact")
    assert grid.evaluate(Fraction(1, 10**13), 0) == (1, 2)
    # nodes NODE_ATOL apart are two nodes
    grid = GridMapSource([0.0, 1e-12], [0.0], [[(1.0,), (2.0,)]])
    assert grid.evaluate(1e-12, 0.0) == (1.0, 2.0)


def test_csv_spellings_of_one_node_are_one_node():
    grid = read_csv_grid("u,v,F1\n1/2,0,1\n2,0.0,2\n0.5,1,3\n2,1,4\n", mode="exact")
    assert grid.u_axis == [Fraction(1, 2), 2] and grid.v_axis == [0, 1]
    assert grid.values == [[(1,), (2,)], [(3,), (4,)]]


def test_csv_with_a_byte_order_mark(tmp_path):
    text = "u,v,F1\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n"
    plain = read_csv_grid(text, mode="exact")
    path = tmp_path / "bom.csv"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    for grid in (read_csv_grid("\ufeff" + text, mode="exact"), read_csv_grid(str(path), mode="exact")):
        assert (grid.u_axis, grid.v_axis, grid.values) == (plain.u_axis, plain.v_axis, plain.values)


def _decimal(m: int, k: int) -> str:
    """m / 10^k written as a decimal."""
    sign, digits = ("-" if m < 0 else ""), str(abs(m)).rjust(k + 1, "0")
    return f"{sign}{digits[:len(digits) - k]}.{digits[len(digits) - k:]}" if k else f"{sign}{digits}"


# one axis node, spelled as an int, as p/q (not always reduced) or as a decimal
_SPELLED = st.one_of(
    st.integers(-9, 9).map(str),
    st.tuples(st.integers(-30, 30), st.integers(1, 12)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.tuples(st.integers(-999, 999), st.integers(0, 3)).map(lambda mk: _decimal(*mk)),
)
_EXACT_AXIS = st.lists(_SPELLED, min_size=1, max_size=4, unique_by=Fraction)
_FLOAT_AXIS = st.builds(
    lambda ks, div: [repr(k / div) for k in sorted(ks)],
    st.lists(st.integers(-40, 40), min_size=1, max_size=4, unique=True),
    st.sampled_from([8, 10, 3]),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["exact", "float"]), st.data())
def test_node_table_is_the_node_read_through_evaluate(mode, data):
    us = data.draw(_EXACT_AXIS if mode == "exact" else _FLOAT_AXIS)
    vs = data.draw(_EXACT_AXIS if mode == "exact" else _FLOAT_AXIS)
    n = data.draw(st.integers(1, 3))
    if mode == "exact":
        cell = st.fractions(min_value=-50, max_value=50, max_denominator=40).map(str)
    else:
        cell = st.floats(-1e3, 1e3, allow_nan=False).map(repr)
    rows = [[u, v, *data.draw(st.lists(cell, min_size=n, max_size=n))] for v in vs for u in us]
    rows = data.draw(st.permutations(rows))
    grid = read_csv_grid("\n".join(",".join(r) for r in [["u", "v", *(f"F{i}" for i in range(n))], *rows]) + "\n", mode)
    conv = Fraction if mode == "exact" else float
    assert grid.u_axis == sorted(map(conv, us)) and grid.v_axis == sorted(map(conv, vs))
    table = grid._node_table()
    assert [len(row) for row in table] == [len(us)] * len(vs)
    for iv, v in enumerate(grid.v_axis):
        for iu, u in enumerate(grid.u_axis):
            assert table[iv][iu] == ratfit._node(grid.evaluate, u, v)


def test_node_table_is_built_once():
    grid = GridMapSource([0, 1], [0, 1], [[(1, 2), (3, 4)], [(5, 6), (7, 8)]], mode="exact")
    assert grid._node_table() is grid._node_table()
    assert grid._node_table()[1][0] == ((1, 0, 1), [1, 5, 6], 2)


def test_csv_path_with_a_comma_is_read_as_a_file(tmp_path):
    folder = tmp_path / "d,ir"
    folder.mkdir()
    path = folder / "g.csv"
    path.write_text("u,v,F1\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n")
    grid = read_csv_grid(str(path), mode="exact")
    assert grid.node_value(1, 1) == (Fraction(4),)


def test_hyperplane_accepts_projective_slope_pairs():
    src = ExactMapSource(PARABOLOID)
    affine = hyperplane_for_line(src, (0, 0), 2)
    pair = hyperplane_for_line(src, (0, 0), (2, 1))  # (dv, du)
    vertical = hyperplane_for_line(src, (0, 0), (1, 0))
    assert affine.covector == pair.covector
    assert vertical.covector == hyperplane_for_line(src, (0, 0), "inf").covector
