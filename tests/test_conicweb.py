"""Conic systems, the web classifier, net inversion, sphere maps."""

import json
import re
from fractions import Fraction

import pytest

from planarize import ratfit
from planarize.conicweb import (
    ConicSystem,
    DegreeAnomaly,
    DependentBasis,
    InCircle,
    InConic,
    InverseQuadratic,
    NotALinesToCurvesMap,
    NotCollinear,
    NotOnSphere,
    ProjectiveFitFailed,
    Quadratic,
    QuadricFactor,
    TooFewSamples,
    circle_web,
    classify_web,
    invert_via_net,
    khovanskii_classify,
    lines_to_curves,
    net_through,
    phi_map,
)
from planarize.dualize import CoTrivial, Rational, classify
from planarize.jetplan import CallableSource, ExactMapSource, GridMapSource, read_csv_grid, write_csv_grid
from planarize.poly import RatMap, implicitize, line_base_points, reduce_map, variables
from planarize.projcore import Hyperplane, PLine2, PPoint, cross, normalize, nullspace
from planarize.ratfit import DegreeTooLow
from planarize.seeding import stable_rng

X0, X1, X2 = variables(3)

INVERSION = reduce_map([X1 * X1 + X2 * X2, X0 * X1, X0 * X2])


def F(x):
    return Fraction(x)


# -- systems and their maps ------------------------------------------------------


def test_circle_web_map_is_quadratic_to_rp3():
    m = phi_map(circle_web())
    assert m.degree == 2 and m.codim == 3


def test_net_map_image_in_conic():
    net = ConicSystem([X0 * X0, X0 * X1, X1 * X1])
    m = phi_map(net)
    assert m.codim == 2
    out = implicitize(m, 2)
    assert out is not None and out[0] == 2
    y = variables(3)
    assert out[1] == (y[0] * y[2] - y[1] * y[1]).canonical()


def test_pencil_map_to_rp1():
    pencil = ConicSystem([X1 * X1 - X0 * X2, X2 * X2 - X0 * X1])
    m = phi_map(pencil)
    assert m.codim == 1


def test_dependent_basis_rejected():
    with pytest.raises(DependentBasis):
        ConicSystem([X0 * X0, X0 * X1, X0 * X0 + X0 * X1])


def test_conic_system_json_round_trip():
    web = circle_web()
    assert ConicSystem.from_json(web.to_json()).basis == web.basis


# -- lines_to_curves ----------------------------------------------------------------


def test_inversion_takes_lines_to_circles():
    lines = [PLine2.of(1, 2, 3), PLine2.of(0, 1, 1), PLine2.of(5, -1, 2), PLine2.of(1, 1, 1)]
    found = lines_to_curves(ExactMapSource(INVERSION), circle_web(), lines)
    assert all(lam is not None for lam in found)
    # each reported member must contain sampled image points (exact check)
    web = circle_web()
    for line, lam in zip(lines, found):
        conic = web.conic(list(lam.coords))
        from planarize.poly import line_base_points

        p0, p1 = line_base_points(line)
        for t in (0, 1, -1, 2, 5):
            w = [a + t * b for a, b in zip(p0, p1)]
            img = INVERSION.evaluate(w)
            if img is None:
                continue
            assert conic.evaluate(list(img)) == 0


def test_identity_line_gives_degenerate_member():
    line = PLine2.of(1, 2, 3)
    ident = reduce_map([X0, X1, X2])
    lam = lines_to_curves(ExactMapSource(ident), circle_web(), [line])[0]
    # the member x0*(l.x): coordinates [l0:l1:l2:0] in the circle web basis
    assert lam == PPoint.of(1, 2, 3, 0)
    conic = circle_web().conic(list(lam.coords))
    assert conic == (X0 * (Fraction(1) * X0 + 2 * X1 + 3 * X2)).canonical()


def test_generic_cubic_has_no_containing_conic():
    cubic = reduce_map([X0**3 + X1**3, X1 * X1 * X2, X0 * X1 * X2 + X2**3])
    lam = lines_to_curves(ExactMapSource(cubic), circle_web(), [PLine2.of(1, 2, 3)])[0]
    assert lam is None


ORIGIN_NET = [X1 * X1 + X2 * X2, X0 * X1, X0 * X2]
IN_CONIC = reduce_map([X0 * X0 + X1 * X1, X0 * X0 - X1 * X1, 2 * X0 * X1])


def _det3(A):
    return sum(a * c for a, c in zip(A[0], cross(A[1], A[2])))


def _collineation(rng):
    while True:
        A = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det3(A) != 0:
            return reduce_map([a * X0 + b * X1 + c * X2 for a, b, c in A])


def _chart_source(M):
    # the exact map read point by point in the chart x0 = 1
    return CallableSource(lambda u, v: M.evaluate([1, u, v]), codim=M.codim, mode="exact")


def _sampled_conic(M, system, line):
    """The point-sampling route, oracle for lines_to_curves: the basis forms
    at the images of dim+4 points of the line, then an exact nullspace."""
    p0, p1 = line_base_points(line)
    rows = []
    t = 0
    while len(rows) < system.dimension + 4:
        img = M.evaluate([a + t * b for a, b in zip(p0, p1)])
        if img is not None:
            rows.append([q.evaluate(list(img)) for q in system.basis])
        t = -t if t > 0 else 1 - t
    basis = nullspace(rows)
    return PPoint(normalize(basis[0])) if basis else None


@pytest.mark.parametrize("seed", range(1, 9))
def test_restricted_conics_match_sampled_conics(seed):
    # the restriction route against the sampling route on the same maps
    from planarize.cli import generate_map

    rng = stable_rng(seed, "restricted-vs-sampled")
    A = _collineation(rng)
    maps = [INVERSION.after(A), _collineation(rng), IN_CONIC.after(A),
            generate_map(seed, 2, 2), generate_map(seed, 3, 2)]
    systems = [circle_web(), ConicSystem(ORIGIN_NET + [X0 * X0 + X1 * X1]), ConicSystem(ORIGIN_NET)]
    lines = [PLine2.of(tuple(rng.randint(-9, 9) for _ in range(3))) for _ in range(10)]
    for M in maps:
        for system in systems:
            exact = lines_to_curves(ExactMapSource(M), system, lines)
            assert exact == [_sampled_conic(M, system, line) for line in lines]


def test_line_in_the_indeterminacy_locus_yields_no_samples():
    # an unreduced map whose common factor x1 vanishes on the line x1 = 0
    unreduced = RatMap([X0 * X1, X1 * X1, X1 * X2])
    with pytest.raises(TooFewSamples, match=r"line \(0, 1, 0\) yielded 0 samples"):
        lines_to_curves(ExactMapSource(unreduced), circle_web(), [PLine2.of(0, 1, 0)])


def test_lines_to_curves_needs_an_exact_map():
    with pytest.raises(TypeError, match="exact rational map"):
        lines_to_curves(_chart_source(INVERSION), circle_web(), [PLine2.of(1, 2, 3)])


def test_lines_to_curves_reads_no_point_of_an_exact_map(monkeypatch):
    calls = []

    def count(method):
        def counted(*args):
            calls.append(method.__name__)
            return method(*args)

        return counted

    monkeypatch.setattr(ExactMapSource, "evaluate", count(ExactMapSource.evaluate))
    monkeypatch.setattr(RatMap, "evaluate", count(RatMap.evaluate))
    lines = [PLine2.of(1, 2, 3), PLine2.of(0, 1, 1), PLine2.of(5, -1, 2)]
    assert None not in lines_to_curves(ExactMapSource(INVERSION), circle_web(), lines)
    assert calls == []


# -- classify_web ----------------------------------------------------------------------


def test_classify_web_inversion_is_quadric_factor():
    verdict = classify_web(INVERSION, circle_web())
    assert isinstance(verdict, QuadricFactor)
    y = variables(4)
    assert verdict.quadric == (y[0] * y[3] - y[1] * y[1] - y[2] * y[2]).canonical()
    # case-4 coherence: both maps land on the quadric, as exact identities
    assert verdict.quadric.substitute(list(verdict.system_map.components)).is_zero
    assert verdict.quadric.substitute(list(verdict.composite.components)).is_zero
    assert verdict.composite.degree == 2


def test_classify_web_image_in_member():
    f = reduce_map([X0 * X0 + X1 * X1, X0 * X0 - X1 * X1, 2 * X0 * X1])
    verdict = classify_web(f, circle_web())
    assert isinstance(verdict, InConic)
    assert verdict.member == PPoint.of(-1, 0, 0, 1)


def test_classify_web_projective_input_reports_degree_one_map():
    f = reduce_map([X0 + X1, X1 - 2 * X2, X0 + X2])
    verdict = classify_web(f, circle_web())
    assert isinstance(verdict, Quadratic)
    assert verdict.map.degree == 1
    assert verdict.map.projectively_equal(f)


def test_classify_web_reads_the_degree_of_the_reduced_map():
    # a constructor-built collineation times x0 is still the degree-1 case
    f = reduce_map([X0 + X1, X1 - 2 * X2, X0 + X2])
    verdict = classify_web(RatMap([X0 * c for c in f.components]), circle_web())
    assert verdict == Quadratic(f)


def test_composition_degree_bound():
    # reduce(Phi∘f) has degree <= 4 for degree-2 f; equals 2 for the inversion
    from planarize.cli import generate_map

    web = circle_web()
    comp = reduce_map([q.substitute(list(INVERSION.components)) for q in web.basis])
    assert comp.degree == 2
    for seed in (1, 2, 3):
        f = generate_map(seed, 2, 2)
        comp = reduce_map([q.substitute(list(f.components)) for q in web.basis])
        assert comp.degree <= 4


# -- the rational branch: the system map is birational by degree -----------------------


def _linear(m):
    return [m[i][0] * X0 + m[i][1] * X1 + m[i][2] * X2 for i in range(3)]


B = [[2, 1, 0], [1, 0, 1], [0, 1, 1]]
ADJ_B = [[-1, -1, 1], [-1, 2, -2], [1, -2, -1]]  # B * ADJ_B = det(B) = -3
SIGMA = [X1 * X2, X0 * X2, X0 * X1]
# the conics through the B-images of the coordinate points, and two fourth
# members: one with no base point (quartic image), one through B e2 (cubic)
NET_B = [q.substitute(_linear(ADJ_B)) for q in SIGMA]
QUARTIC_WEB = ConicSystem(NET_B + [X0 * X0 + 2 * X1 * X1 + 3 * X2 * X2 + X0 * X1])
CUBIC_WEB = ConicSystem(NET_B + [(X0 * X0 + X1 * X1 + X0 * X2 + X1 * X2).substitute(_linear(ADJ_B))])


def _preimages(Phi, x):
    """The points of Phi's fiber through x that are not base points, solved
    by sympy in the chart x0 = 1 and on the line x0 = 0."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:3")
    comps = [sum(c * sympy.prod([v**e for v, e in zip(xs, exp)]) for exp, c in p.terms.items())
             for p in Phi.components]
    y = [int(c) for c in Phi.evaluate(x)]
    eqs = [y[j] * comps[i] - y[i] * comps[j] for i in range(4) for j in range(i + 1, 4)]
    found = []
    for chart in ({xs[0]: 1}, {xs[0]: 0, xs[1]: 1}, {xs[0]: 0, xs[1]: 0, xs[2]: 1}):
        free = [v for v in xs if v not in chart]
        rest = [sympy.expand(e.subs(chart)) for e in eqs]
        if free:
            sols = sympy.solve(rest, free, dict=True)
        else:
            sols = [{}] if all(e == 0 for e in rest) else []
        for sol in sols:
            assert set(sol) == set(free)  # no fiber component of positive dimension
            point = [v.subs({**chart, **sol}) for v in xs]
            if any(sympy.expand(c.subs(dict(zip(xs, point)))) != 0 for c in comps):
                found.append(point)
    return found


@pytest.mark.parametrize("web,degree", [(QUARTIC_WEB, 4), (CUBIC_WEB, 3), (circle_web(), 2)],
                         ids=["quartic", "cubic", "circle"])
def test_system_map_image_degree_and_single_preimages(web, degree):
    # deg(Phi) * deg(S) <= 4, so an image of degree 3 or 4 forces a birational
    # Phi; sympy counts the fiber through seeded points independently.  Points
    # on the preimage of the image's double curve have two preimages, and
    # small coordinates often land there ((1, 1, 2) does on the quartic web), so
    # the coordinates run to 99
    Phi = phi_map(web)
    assert implicitize(Phi, 4)[0] == degree
    rng = stable_rng(degree, "web-preimages")
    checked = 0
    while checked < 3:
        x = [rng.randint(-99, 99) for _ in range(3)]
        if Phi.evaluate(x) is None:
            continue
        (point,) = _preimages(Phi, x)
        assert PPoint.of(*point) == PPoint.of(*x)
        checked += 1


@pytest.mark.parametrize("web", [QUARTIC_WEB, CUBIC_WEB], ids=["quartic", "cubic"])
@pytest.mark.parametrize("seed", range(6))
def test_classify_web_rational_branch_recovers_the_quadratic_map(monkeypatch, web, seed):
    # no unforced input is known to reach the rational branch, so the
    # trichotomy is forced to Rational; f = B∘σ∘A takes lines to conics of
    # the net through the B e_i, hence to web members
    from planarize import dualize

    monkeypatch.setattr(dualize, "_classify", lambda F, seed: dualize.Rational(F.degree))
    A = [[1, 1, 0], [0, 1, 1], [1, 0, 2]]
    f = reduce_map([c.substitute([q.substitute(_linear(A)) for q in SIGMA]) for c in _linear(B)])
    assert f.degree == 2
    verdict = classify_web(f, web, seed=seed)
    assert isinstance(verdict, Quadratic) and verdict.map == f


@pytest.mark.parametrize("call", [lambda f: classify_web(f, circle_web()),
                                  lambda f: invert_via_net(f, ConicSystem(list(INVERSION.components)))],
                         ids=["classify_web", "invert_via_net"])
def test_web_maps_must_go_into_the_plane(call):
    with pytest.raises(ValueError, match="must go into RP\\^2, got RP\\^3"):
        call(reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2]))


# -- net inversion ----------------------------------------------------------------------


def test_invert_via_net_inversion_fixture():
    net = ConicSystem([X1 * X1 + X2 * X2, X0 * X1, X0 * X2])
    W = invert_via_net(INVERSION, net)
    assert W.projectively_equal(INVERSION)
    # the witness composes with f to the identity at validation points
    for x in [(1, 2, 3), (5, -1, 2), (2, 1, 1)]:
        fx = INVERSION.evaluate(x)
        wx = W.evaluate(fx)
        n1 = 3
        for i in range(n1):
            for j in range(i + 1, n1):
                assert wx[i] * x[j] == wx[j] * x[i]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_invert_via_net_sampled_matches_symbolic(seed):
    # inversion∘A for a seeded nonsingular A: the black-box route fits the
    # map from samples and must give the symbolic route's inverse
    rng = stable_rng(seed, "net-sampled")
    while True:
        A = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if _det3(A) != 0:
            break
    f = INVERSION.after(reduce_map([a * X0 + b * X1 + c * X2 for a, b, c in A]))
    net = ConicSystem(list(INVERSION.components))

    def fsample(u, v):
        return f.evaluate([Fraction(1), Fraction(u), Fraction(v)])

    W = invert_via_net(f, net, seed=seed)
    assert invert_via_net(CallableSource(fsample, codim=2, mode="exact"), net, seed=seed) == W
    assert W.after(f).projectively_equal(reduce_map([X0, X1, X2]))


def test_invert_via_net_identity_with_degenerate_net():
    net = ConicSystem([X0 * X0, X0 * X1, X0 * X2])
    ident = reduce_map([X0, X1, X2])
    W = invert_via_net(ident, net)
    assert W.degree == 1
    assert W.projectively_equal(ident)


def test_invert_via_net_rejects_non_collineation():
    net = ConicSystem([X0 * X0, X0 * X1, X0 * X2])  # net map reduces to identity
    q = reduce_map([X0 * X0 + X1 * X2, X1 * X1 - X0 * X2, X2 * X2 + X0 * X1])
    with pytest.raises(NotCollinear):
        invert_via_net(q, net)


def test_invert_via_net_rejects_sampled_non_collineation():
    net = ConicSystem([X0 * X0, X0 * X1, X0 * X2])
    q = reduce_map([X0 * X0 + X1 * X2, X1 * X1 - X0 * X2, X2 * X2 + X0 * X1])

    def qsample(u, v):
        return q.evaluate([Fraction(1), Fraction(u), Fraction(v)])

    with pytest.raises(NotCollinear):
        invert_via_net(CallableSource(qsample, codim=2, mode="exact"), net)


def test_invert_via_net_rejects_singular_collineation():
    # the net map reduces to the identity, so the collineation is f itself,
    # whose matrix has two equal rows
    net = ConicSystem([X0 * X0, X0 * X1, X0 * X2])
    f = reduce_map([X0, X1, X1])

    def fsample(u, v):
        return f.evaluate([Fraction(1), Fraction(u), Fraction(v)])

    with pytest.raises(ProjectiveFitFailed):
        invert_via_net(f, net)
    with pytest.raises(ProjectiveFitFailed):
        invert_via_net(CallableSource(fsample, codim=2, mode="exact"), net)


def test_invert_via_net_composes_an_exact_map(monkeypatch):
    # an exact map's collineation is the composite itself: no line screening
    # and no refit from samples
    from planarize import conicweb, ratfit

    def refuse(*args, **kwargs):
        raise AssertionError("an exact map needs no sampling")

    monkeypatch.setattr(ratfit, "fit_map", refuse)
    monkeypatch.setattr(conicweb, "lines_to_curves", refuse)
    net = ConicSystem([X1 * X1 + X2 * X2, X0 * X1, X0 * X2])
    W = invert_via_net(INVERSION, net)
    assert W.after(INVERSION).projectively_equal(reduce_map([X0, X1, X2]))


def test_net_through_center():
    web = circle_web()
    net = net_through(web, PPoint.of(1, 0, 0, 0))
    assert net.dimension == 2
    # members of the net: lambda.o = 0 means no x0^2 component
    for q in net.basis:
        assert q.terms.get((2, 0, 0), Fraction(0)) == 0


# -- sphere maps -----------------------------------------------------------------------


def stereo(u, v):
    u, v = Fraction(u), Fraction(v)
    s = u * u + v * v + 1
    return (2 * u / s, 2 * v / s, (u * u + v * v - 1) / s)


def test_khovanskii_stereographic_is_quadratic():
    verdict = khovanskii_classify(CallableSource(stereo, codim=3, mode="exact"))
    assert isinstance(verdict, Quadratic)
    planted = reduce_map(
        [X0 * X0 + X1 * X1 + X2 * X2, 2 * X0 * X1, 2 * X0 * X2, X1 * X1 + X2 * X2 - X0 * X0]
    )
    assert verdict.map.projectively_equal(planted)


def test_khovanskii_equator_valued_map_in_circle():
    def equator(u, v):
        t = Fraction(u) + Fraction(v) * Fraction(v)
        den = 1 + t * t
        return (Fraction(1 - t * t) / den, Fraction(2 * t) / den, Fraction(0))

    verdict = khovanskii_classify(CallableSource(equator, codim=3, mode="exact"))
    assert isinstance(verdict, InCircle)
    assert verdict.plane.covector == (0, 0, 0, 1)


def test_khovanskii_off_sphere_rejected():
    def off(u, v):
        x, y, z = stereo(u, v)
        return (x + Fraction(1, 1000), y, z)

    with pytest.raises(NotOnSphere):
        khovanskii_classify(CallableSource(off, codim=3, mode="exact"))


def test_classify_web_sampled_inversion():
    # the evaluator-only path: f is fitted, then composed symbolically
    def fsample(u, v):
        return INVERSION.evaluate([Fraction(1), Fraction(u), Fraction(v)])

    verdict = classify_web(CallableSource(fsample, codim=2, mode="exact"), circle_web())
    assert isinstance(verdict, QuadricFactor)
    assert verdict.composite.degree == 2


def test_identity_against_circle_web_many_lines():
    # every line yields the degenerate member x0*(l.x), exactly
    ident = reduce_map([X0, X1, X2])
    web = circle_web()
    rng = stable_rng(77, "identity_lines")
    lines = []
    while len(lines) < 6:
        cov = tuple(rng.randint(-7, 7) for _ in range(3))
        if cov != (0, 0, 0):
            lines.append(PLine2.of(cov))
    for line, lam in zip(lines, lines_to_curves(ExactMapSource(ident), web, lines)):
        assert lam is not None
        expected = X0 * (
            Fraction(line.covector[0]) * X0
            + Fraction(line.covector[1]) * X1
            + Fraction(line.covector[2]) * X2
        )
        assert web.conic(list(lam.coords)).canonical() == expected.canonical()


def test_classify_web_inverse_quadratic_branch():
    # a web extending the circles-through-origin net: the composite with
    # inversion is quartic and co-trivial, the image surface is NOT a
    # quadric (degree 4, the cap), and the net route recovers the witness
    web = ConicSystem([X1 * X1 + X2 * X2, X0 * X1, X0 * X2, X0 * X0 + X1 * X1])
    out = implicitize(phi_map(web), 4)
    assert out is not None and out[0] == 4  # image surface attains the degree cap
    composite = reduce_map([q.substitute(list(INVERSION.components)) for q in web.basis])
    assert composite.degree == 4
    assert isinstance(classify(composite), CoTrivial)
    verdict = classify_web(INVERSION, web)
    assert isinstance(verdict, InverseQuadratic)
    assert verdict.witness.projectively_equal(INVERSION)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quartic_web_composites_of_inversion_after_a_collineation_stay_co_trivial(seed):
    # the composite is a quartic into RP^3 (d >= n), so the dual's span check
    # restricts it to a line first; as a planarization it goes on to the dual
    web = ConicSystem([X1 * X1 + X2 * X2, X0 * X1, X0 * X2, X0 * X0 + X1 * X1])
    f = INVERSION.after(_collineation(stable_rng(seed, "inversion-after-collineation")))
    composite = reduce_map([q.substitute(list(f.components)) for q in web.basis])
    assert composite.degree == 4
    assert isinstance(classify(composite, seed=seed), CoTrivial)
    verdict = classify_web(f, web, seed=seed)
    assert isinstance(verdict, InverseQuadratic)
    assert verdict.witness.after(f).projectively_equal(reduce_map([X0, X1, X2]))


def test_khovanskii_float_equator_grid():
    # genuinely float samples on the equator: the plane test works in float
    import math

    us = [k / 10.0 for k in range(16)]
    values = []
    for v in us:
        row = []
        for u in us:
            g = 0.7 * u - 0.3 * v * v
            row.append((math.cos(g), math.sin(g), 0.0))
        values.append(row)
    from planarize.jetplan import GridMapSource

    grid = GridMapSource(us, us, values, mode="float")
    verdict = khovanskii_classify(grid)
    assert isinstance(verdict, InCircle)
    assert verdict.plane.covector == (0, 0, 0, 1)


def test_sampled_map_passes_screening_at_seed_26():
    # seed 26 once drew the line x0 = 0 among the screening lines of a sampled
    # map, where a source bound to the affine chart has no point
    # (TooFewSamples); a sampled map is now fitted, not screened
    def inversion(u, v):
        s = u * u + v * v
        return None if s == 0 else (s, F(u), F(v))

    verdict = classify_web(CallableSource(inversion, codim=2, mode="exact"), circle_web(), seed=26)
    assert isinstance(verdict, QuadricFactor)


def test_khovanskii_fits_a_callable_once(monkeypatch):
    # a degree-1 model has its image in a plane, which the plane test has
    # already reported, so the degree search starts at 2
    from planarize import ratfit

    degrees = []
    fit_map = ratfit.fit_map

    def counted(source, d, seed=0):
        degrees.append(d)
        return fit_map(source, d, seed=seed)

    monkeypatch.setattr(ratfit, "fit_map", counted)
    verdict = khovanskii_classify(CallableSource(stereo, codim=3, mode="exact"))
    assert isinstance(verdict, Quadratic)
    assert degrees == [2]


def test_khovanskii_reads_each_point_once_across_both_fits(monkeypatch):
    # stereographic after a generic quadratic map of the plane is a sphere
    # map of degree 4: the fits at degree 2 and at degree 3 both reject it,
    # and they read the sphere callable through one table
    from planarize import ratfit

    degrees = []
    fit_map = ratfit.fit_map

    def counted(source, d, seed=0):
        degrees.append(d)
        return fit_map(source, d, seed=seed)

    reads = []

    def quartic(u, v):
        reads.append((F(u), F(v)))
        return stereo(F(u) * F(u) - F(v), F(u) + F(v) * F(v))

    monkeypatch.setattr(ratfit, "fit_map", counted)
    with pytest.raises(DegreeTooLow) as exc:
        khovanskii_classify(CallableSource(quartic, codim=3, mode="exact"))
    assert str(exc.value) == "no rational model of degree <= 3 fits: no map of degree <= 3 fits the lattice samples"
    assert degrees == [2, 3]
    assert reads and len(reads) == len(set(reads))


INTEGER_NODES = {(F(u), F(v)) for u in range(6) for v in range(6)}


def test_khovanskii_plane_test_reads_the_fits_nodes():
    # the plane test reads the integer nodes 0..5, the degree-2 fit's check
    # block, so the fit adds only its 20 held-out points
    reads = []

    def counted(u, v):
        reads.append((F(u), F(v)))
        return stereo(u, v)

    assert isinstance(khovanskii_classify(CallableSource(counted, codim=3, mode="exact")), Quadratic)
    assert len(reads) == len(set(reads)) == 56
    assert INTEGER_NODES <= set(reads)


def test_khovanskii_in_circle_reads_only_the_integer_nodes():
    reads = []

    def equator(u, v):
        reads.append((F(u), F(v)))
        t = F(u) + F(v) * F(v)
        return ((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t), F(0))

    assert isinstance(khovanskii_classify(CallableSource(equator, codim=3, mode="exact")), InCircle)
    assert len(reads) == len(set(reads)) == 36
    assert set(reads) == INTEGER_NODES


def _sphere_grid(fn, n):
    from planarize.jetplan import GridMapSource

    axis = [Fraction(k, 3) for k in range(n)]
    return GridMapSource(axis, axis, [[fn(u, v) for u in axis] for v in axis], mode="exact")


def test_khovanskii_small_grids_keep_their_verdicts():
    # 7 nodes per axis fit no degree above 1, 11 fit degree 2 but not 3
    too_small = "no rational model of degree <= 3 fits: grid too small for degree 3: need 15 nodes per axis"
    with pytest.raises(DegreeTooLow) as exc:
        khovanskii_classify(_sphere_grid(stereo, 7))
    assert str(exc.value) == too_small
    verdict = khovanskii_classify(_sphere_grid(stereo, 11))
    assert isinstance(verdict, Quadratic) and verdict.map.degree == 2

    def quartic(u, v):  # stereographic after a quadratic map of the plane
        return stereo(F(u) * F(u) - F(v), F(u) + F(v) * F(v))

    for n in (7, 11):
        with pytest.raises(DegreeTooLow) as exc:
            khovanskii_classify(_sphere_grid(quartic, n))
        assert str(exc.value) == too_small


# -- each verdict of the fitted sphere model, and its CLI report -----------------------


def _khovanskii_cli(tmp_path, capsys, grid):
    from planarize.cli import main

    path = tmp_path / "sphere.csv"
    path.write_text(write_csv_grid(grid))
    code = main(["khovanskii", "--in", str(path), "--mode", grid.mode])
    return code, capsys.readouterr().out


def test_khovanskii_in_circle_from_the_model_when_a_base_point_node_is_off_its_circle(tmp_path, capsys):
    # the circle map (a^2 - b^2, 2ab, 0) / (a^2 + b^2), a = u - 1, b = v - 1,
    # except at its base point (1, 1), where the grid holds the pole: the
    # samples span RP^3, but the fitted model vanishes at that node, so the
    # fit passes and the model's own plane is the verdict
    def value(u, v):
        a, b = u - 1, v - 1
        if a == b == 0:
            return (F(0), F(0), F(1))
        return (Fraction(a * a - b * b, a * a + b * b), Fraction(2 * a * b, a * a + b * b), F(0))

    axis = [F(k) for k in range(11)]
    grid = GridMapSource(axis, axis, [[value(u, v) for u in axis] for v in axis], mode="exact")
    rows = [[1, *value(u, v)] for v in axis for u in axis]
    assert nullspace(rows) == []  # the plane test finds no plane
    assert khovanskii_classify(grid) == InCircle(Hyperplane.of(0, 0, 0, 1))
    assert _khovanskii_cli(tmp_path, capsys, grid) == (0, '{"case":"InCircle","diagnostics":null,"witness":[0,0,0,1]}\n')


def _near_pole_grid(x, z=lambda u, v: 0):
    """Float samples (x, v d, 1 - d^2 (u^2 + v^2) / 2 + z) on the nodes
    0..14, d = 2^-12: within SPHERE_RTOL of the sphere, and exact binary
    fractions, so a fit reads them as the rational map they are."""
    d = Fraction(1, 2**12)
    axis = list(range(15))
    values = []
    for v in axis:
        row = []
        for u in axis:
            exact = (d * x(F(u), F(v)), d * v, 1 - d * d * (u * u + v * v) / 2 + z(F(u), F(v)))
            assert all(F(float(c)) == c for c in exact)
            assert abs(sum(c * c for c in exact) - 1) < Fraction(1, 10**9)
            row.append(tuple(float(c) for c in exact))
        values.append(row)
    return GridMapSource([float(k) for k in axis], [float(k) for k in axis], values, mode="float")


def test_khovanskii_float_grid_of_a_cubic_graph_is_co_trivial(tmp_path, capsys):
    # a graph over the (x, y) plane, cubic in u: every line goes into a
    # vertical plane, all through the point at infinity (0, 0, 0, 1)
    grid = _near_pole_grid(lambda u, v: u, z=lambda u, v: Fraction(u**3, 2**44))
    assert ratfit.fit_map(grid, 3).degree == 3
    assert khovanskii_classify(grid) == CoTrivial(PPoint.of(0, 0, 0, 1))
    assert _khovanskii_cli(tmp_path, capsys, grid) == (0, '{"case":"CoTrivial","diagnostics":null,"witness":[0,0,0,1]}\n')


def test_khovanskii_float_grid_of_a_rational_quadratic_is_quadratic(tmp_path, capsys):
    # a paraboloid bent by u^2 / 2^20 in x: a quadratic map, no longer
    # co-trivial, so the rational verdict at degree 2 gives the model
    grid = _near_pole_grid(lambda u, v: u + u * u / 2**20)
    model = ratfit.fit_map(grid, 2)
    assert classify(model) == Rational(2)
    assert khovanskii_classify(grid) == Quadratic(model)
    code, out = _khovanskii_cli(tmp_path, capsys, grid)
    assert code == 0
    assert json.loads(out) == {"case": "Quadratic", "witness": model.to_json(), "diagnostics": None}


def test_khovanskii_float_grid_of_no_planarization_is_a_degree_anomaly(tmp_path, capsys):
    # the bend u^2 v / 2^24 in x makes a cubic whose line images span RP^3
    grid = _near_pole_grid(lambda u, v: u + u * u * v / 2**24)
    message = "unclassifiable sphere map: the image of line (7, 9, 2) spans RP^3, so no hyperplane contains it"
    with pytest.raises(DegreeAnomaly) as info:
        khovanskii_classify(grid)
    assert str(info.value) == message
    code, out = _khovanskii_cli(tmp_path, capsys, grid)
    assert code == 2
    assert json.loads(out) == {"case": "DegreeAnomaly", "witness": None, "diagnostics": message}


def test_khovanskii_callable_sphere_valued_only_where_tested_is_a_degree_anomaly():
    # stereographic at the integer nodes {0..5}^2, the only reads tested for
    # the sphere, and no value at the other integer nodes of those rows;
    # elsewhere the dual of a quadratic map, a rational planarization of
    # degree 3.  The degree-2 fit finds the stereographic map on those rows
    # and fails its held-out draws; the degree-3 fit, whose blocks need 7
    # values a row, reads the later rows and finds the dual
    from planarize.cli import _case_report, generate_map
    from planarize.dualize import dual_map

    G = dual_map(generate_map(1, 2, 3))
    assert G.degree == 3 and classify(G) == Rational(3)

    def fn(u, v):
        if F(u).denominator == F(v).denominator == 1 and v <= 5:
            return stereo(u, v) if u <= 5 else None
        g = G.evaluate([F(1), F(u), F(v)])
        return None if g is None or g[0] == 0 else tuple(c / g[0] for c in g[1:])

    message = "rational verdict at degree 3 violates the lines-to-circles classification"
    with pytest.raises(DegreeAnomaly) as info:
        khovanskii_classify(CallableSource(fn, codim=3, mode="exact"))
    assert str(info.value) == message
    # the CLI reads grids only; this is the report it gives the exception
    assert _case_report(info.value) == ({"case": "DegreeAnomaly", "witness": None, "diagnostics": message}, 2)


@pytest.mark.parametrize("call,error,message", [
    (lambda: classify_web(INVERSION, ConicSystem(ORIGIN_NET)), ValueError, "classification needs a web (dimension 3)"),
    (lambda: invert_via_net(INVERSION, circle_web()), ValueError, "inversion needs a net (dimension 2)"),
    (lambda: khovanskii_classify(_chart_source(INVERSION)), ValueError, "expected a map into 3-space"),
    (lambda: khovanskii_classify(CallableSource(lambda u, v: None, codim=3)), TooFewSamples, "not enough sphere samples"),
], ids=["web-needs-a-web", "inversion-needs-a-net", "sphere-needs-rp3", "sphere-needs-samples"])
def test_calls_outside_the_contract_are_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# -- exact maps are certified, not screened or sampled ---------------------------------

ORIGIN_WEB = ConicSystem(ORIGIN_NET + [X0 * X0 + X1 * X1])


def _refuse(*args, **kwargs):
    raise AssertionError("an exact map is not screened or sampled")


@pytest.mark.parametrize(
    "f,web,case",
    [(INVERSION, circle_web(), QuadricFactor), (INVERSION, ORIGIN_WEB, InverseQuadratic),
     (IN_CONIC, circle_web(), InConic), (reduce_map([X0 + X1, X1 - 2 * X2, X0 + X2]), circle_web(), Quadratic)],
    ids=["quadric-factor", "inverse-quadratic", "in-conic", "quadratic"],
)
def test_classify_web_reaches_every_case_of_an_exact_map_without_a_screen(monkeypatch, f, web, case):
    from planarize import conicweb

    monkeypatch.setattr(conicweb, "lines_to_curves", _refuse)
    assert isinstance(classify_web(f, web), case)


def test_an_exact_map_taking_a_line_to_no_conic_is_refused_by_the_dual(monkeypatch):
    # the message is the dual's: here the span witness of the composite, a
    # sextic into RP^3 whose named line's image spans RP^3
    from planarize import conicweb
    from planarize.cli import generate_map
    from planarize.dualize import NotPlanar, dual_map

    monkeypatch.setattr(conicweb, "lines_to_curves", _refuse)
    f = generate_map(5, 3, 2)
    composite = reduce_map([q.substitute(list(f.components)) for q in circle_web().basis])
    with pytest.raises(NotPlanar) as dual_info:
        dual_map(composite)
    with pytest.raises(NotALinesToCurvesMap) as info:
        classify_web(f, circle_web())
    assert str(info.value) == str(dual_info.value)
    assert re.fullmatch(r"the image of line \([-\d, ]+\) spans RP\^3, so no hyperplane contains it", str(info.value))


def _screen_lines(seed):
    # 25 seeded lines, none of them x0 = 0, on which a chart-bound source has no point
    rng = stable_rng(seed, "web_screen")
    lines = []
    while len(lines) < 25:
        cov = tuple(rng.randint(-9, 9) for _ in range(3))
        if cov[1:] != (0, 0):
            lines.append(PLine2.of(cov))
    return lines


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_the_dual_refuses_exactly_the_maps_the_line_screen_refuses(seed):
    from planarize.cli import generate_map

    rng = stable_rng(seed, "dual-vs-screen")
    A = _collineation(rng)
    maps = [INVERSION.after(A), _collineation(rng), IN_CONIC.after(A),
            generate_map(seed, 2, 2), generate_map(seed, 3, 2)]
    for M in maps:
        for web in (circle_web(), ORIGIN_WEB):
            screened = None in lines_to_curves(ExactMapSource(M), web, _screen_lines(seed))
            try:
                classify_web(M, web, seed=seed)
                refused = False
            except NotALinesToCurvesMap:
                refused = True
            assert refused == screened, (M, web.basis)


def test_invert_via_net_evaluates_no_point_of_an_exact_map(monkeypatch):
    f = INVERSION.after(_collineation(stable_rng(4, "net-exact-no-points")))
    net = ConicSystem(ORIGIN_NET)
    monkeypatch.setattr(RatMap, "evaluate", _refuse)
    W = invert_via_net(f, net)
    assert W.after(f).projectively_equal(reduce_map([X0, X1, X2]))


def test_invert_via_net_refuses_a_corrupted_adjugate(monkeypatch):
    from planarize import conicweb

    real = conicweb._adjugate3

    def corrupted(m):
        adj = real(m)
        adj[0][1] += 1
        return adj

    f = INVERSION.after(_collineation(stable_rng(4, "net-exact-no-points")))
    monkeypatch.setattr(conicweb, "_adjugate3", corrupted)
    with pytest.raises(ProjectiveFitFailed, match="W∘f is not the identity"):
        invert_via_net(f, ConicSystem(ORIGIN_NET))


# -- a sampled map is fitted once, then takes the exact route ---------------------------


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_sampled_map_gets_the_verdict_of_the_exact_map(seed):
    # the verdict class and witness, or the exception class, of each call
    from planarize.cli import generate_map

    rng = stable_rng(seed, "sampled-vs-exact")
    A = _collineation(rng)
    maps = [INVERSION.after(A), _collineation(rng), IN_CONIC.after(A),
            generate_map(seed, 2, 2), generate_map(seed, 3, 2)]
    calls = [lambda f: classify_web(f, circle_web(), seed=seed),
             lambda f: classify_web(f, ORIGIN_WEB, seed=seed),
             lambda f: invert_via_net(f, ConicSystem(ORIGIN_NET), seed=seed)]
    for M in maps:
        for call in calls:
            exact = _outcome(lambda: call(M))
            assert _outcome(lambda: call(_chart_source(M))) == exact, (M, exact)
    # inversion∘A in the origin web: its composite is a quartic, which a fit
    # of the composite at degree <= 3 could not reach
    assert isinstance(classify_web(_chart_source(maps[0]), ORIGIN_WEB, seed=seed), InverseQuadratic)


def test_an_exact_grid_of_the_inversion_is_classified_and_inverted():
    # the grid has no node at the origin, where the inversion is undefined;
    # 15 nodes per axis are what a fit of degree 3 needs
    axis = [Fraction(k, 3) + Fraction(1, 5) for k in range(15)]
    values = [[(u / (u * u + v * v), v / (u * u + v * v)) for u in axis] for v in axis]
    grid = read_csv_grid(write_csv_grid(GridMapSource(axis, axis, values, mode="exact")), mode="exact")
    verdict = classify_web(grid, circle_web())
    assert isinstance(verdict, QuadricFactor)
    assert verdict == classify_web(INVERSION, circle_web())
    assert invert_via_net(grid, ConicSystem(ORIGIN_NET)) == invert_via_net(INVERSION, ConicSystem(ORIGIN_NET))


@pytest.mark.parametrize("call", [lambda f: classify_web(f, circle_web()),
                                  lambda f: invert_via_net(f, ConicSystem(ORIGIN_NET))],
                         ids=["classify_web", "invert_via_net"])
def test_a_sampled_map_of_degree_above_three_is_refused_by_the_fit(call):
    from planarize.cli import generate_map

    f = generate_map(1, 4, 2)
    assert f.degree == 4
    with pytest.raises(DegreeTooLow) as info:
        call(_chart_source(f))
    assert str(info.value) == "no map of degree <= 3 fits the lattice samples"
