"""Dual planarizations and the trichotomy classifier."""

import functools
import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from planarize import dualize, poly, projcore
from planarize.cli import generate_map, main
from planarize.conicweb import circle_web
from planarize.dualize import (
    CoTrivial,
    EverywhereDegenerate,
    Indeterminate,
    NotPlanar,
    Rational,
    Trivial,
    _PRECHECK_POINTS,
    classify,
    component_dependence,
    dual_map,
)
from planarize.jetplan import ExactMapSource, OnIndeterminacy, nondegenerate_at
from planarize.poly import (
    HPoly,
    RatMap,
    _canonical_scale,
    _line_rows,
    _monomials,
    implicitize,
    line_base_points,
    reduce_map,
    variables,
)
from planarize.projcore import Hyperplane, PLine2, PPoint
from planarize.seeding import stable_rng

X0, X1, X2 = variables(3)

SEGRE = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2])


def test_dual_of_segre_type_map_is_linear():
    Fh = dual_map(SEGRE)
    expect = reduce_map([X0, X1, X2, HPoly.zero(3, 1)])
    assert Fh.degree == 1
    assert Fh.projectively_equal(expect)
    # the defining identity: l0*x0^2 + l1*x0x1 + l2*x0x2 = x0*(l.x) vanishes
    # on the line l.x = 0, so the image plane of L_l has covector [l:0]
    rng = stable_rng(5, "segre_lines")
    for _ in range(10):
        ell = tuple(rng.randint(-9, 9) for _ in range(3))
        if ell == (0, 0, 0):
            continue
        hyper = Fh.evaluate(ell)
        # a point on the line
        p = (ell[1], -ell[0], 0) if (ell[0], ell[1]) != (0, 0) else (ell[2], 0, -ell[0])
        img = SEGRE.evaluate(p)
        if img is None or hyper is None:
            continue
        assert sum(a * b for a, b in zip(hyper, img)) == 0


def test_dual_of_generic_quadratic_is_cubic():
    # duals of generic quadratic maps have degree exactly 3
    for seed in (1, 2, 3):
        F = generate_map(seed, 2, 3)
        verdict = classify(F, seed=seed)
        if not isinstance(verdict, Rational):
            continue
        Fh = dual_map(F, seed=seed)
        assert Fh.degree == 3


def test_dual_of_affine_linear_everywhere_degenerate():
    L = reduce_map([3 * X0, X1, X2, X1 + 2 * X2])
    with pytest.raises(EverywhereDegenerate):
        dual_map(L)


def test_dual_degree_bound_for_quadratics_and_their_duals():
    for seed in (4, 5):
        F = generate_map(seed, 2, 3)
        Fh = dual_map(F, seed=seed)
        assert Fh.degree <= 3
        Fhh = dual_map(Fh, seed=seed)  # a cubic planarization
        assert Fhh.degree <= 3


def test_containment_invariant():
    # for seeded lines and points on them, the exact pairing vanishes
    F = generate_map(8, 2, 3)
    Fh = dual_map(F, seed=8)
    rng = stable_rng(8, "containment_lines")
    checked = 0
    while checked < 10:
        ell = tuple(rng.randint(-9, 9) for _ in range(3))
        if ell == (0, 0, 0):
            continue
        hyper = Fh.evaluate(ell)
        if hyper is None:
            continue
        inner = 0
        for _ in range(5):
            r = tuple(rng.randint(-9, 9) for _ in range(3))
            p = (
                ell[1] * r[2] - ell[2] * r[1],
                ell[2] * r[0] - ell[0] * r[2],
                ell[0] * r[1] - ell[1] * r[0],
            )
            if p == (0, 0, 0):
                continue
            img = F.evaluate(p)
            if img is None:
                continue
            assert sum(a * b for a, b in zip(hyper, img)) == 0
            inner += 1
        if inner:
            checked += 1


def test_biduality():
    for seed in (1, 2):
        F = generate_map(seed, 2, 3)
        if not isinstance(classify(F, seed=seed), Rational):
            continue
        Fhh = dual_map(dual_map(F, seed=seed), seed=seed)
        assert Fhh.projectively_equal(F)
        # pointwise agreement at 20 seeded rational points
        rng = stable_rng(seed, "bidual_points")
        checked = 0
        while checked < 20:
            x = tuple(rng.randint(-9, 9) for _ in range(3))
            if x == (0, 0, 0):
                continue
            a = F.evaluate(x)
            b = Fhh.evaluate(x)
            if a is None or b is None:
                continue
            n1 = len(a)
            for i in range(n1):
                for j in range(i + 1, n1):
                    assert a[i] * b[j] == a[j] * b[i]
            checked += 1


# -- classify -------------------------------------------------------------------


def test_classify_trivial_with_explicit_relation():
    F = RatMap([X0 * X0, X0 * X1, X0 * X2, X0 * X0 + X0 * X1])
    verdict = classify(F)
    assert isinstance(verdict, Trivial)
    # witness: y3 = y0 + y1
    assert verdict.hyperplane.covector == (1, 1, 0, -1)


def test_classify_cotrivial_segre():
    verdict = classify(SEGRE)
    assert isinstance(verdict, CoTrivial)
    assert verdict.center == PPoint.of(0, 0, 0, 1)


def test_classify_generic_quadratic_rational_two():
    F = generate_map(1, 2, 3)
    verdict = classify(F, seed=1)
    assert verdict == Rational(2)


def test_classify_reads_the_degree_of_the_reduced_map():
    # the constructor keeps a common factor; the verdict is the map's
    assert classify(RatMap([X0 * X0, X0 * X1, X0 * X2])) == Rational(1)
    F = generate_map(1, 2, 3)
    assert classify(RatMap([X0 * c for c in F.components]), seed=1) == Rational(2)


def test_classify_closing_reduction_skips_a_map_reduce_map_returned(monkeypatch):
    # the closing reduction bounds the common factor of a constructor-built
    # map and passes a map that reduce_map returned through
    G = generate_map(1, 2, 3)
    bounds = []
    real = poly._common_degree_bound
    monkeypatch.setattr(poly, "_common_degree_bound", lambda forms: bounds.append(tuple(forms)) or real(forms))
    assert dualize._classify(G, 1) == Rational(2)
    assert G.components not in bounds
    bounds.clear()
    assert dualize._classify(RatMap(G.components), 1) == Rational(2)
    assert bounds.count(G.components) == 1


def test_classify_soundness_matches_implicitize_at_one():
    rng = stable_rng(44, "soundness")
    for seed in range(6):
        F = generate_map(seed + 100, 2, 3)
        verdict = classify(F, seed=seed)
        linear = implicitize(F, 1)
        assert isinstance(verdict, Trivial) == (linear is not None)
    T = RatMap([X0 * X0, X0 * X1, X0 * X2, X0 * X0 - 2 * X0 * X2])
    assert isinstance(classify(T), Trivial) and implicitize(T, 1) is not None


def test_classify_non_planarization_is_indeterminate():
    # factors through a degree-3 map of RP^1: generic lines map onto the whole
    # twisted cubic, which spans RP^3, so no containing hyperplane exists
    C = reduce_map([X0**3, X0 * X0 * X1, X0 * X1 * X1, X1**3])
    verdict = classify(C)
    assert isinstance(verdict, Indeterminate)


def test_component_dependence_none_for_independent():
    assert component_dependence(SEGRE) is None


def _full_monomial_dependence(F):
    """component_dependence from one row per monomial of F's degree."""
    matrix = [[c.terms.get(m, 0) for c in F.components] for m in _monomials(F.domain_vars, F.degree)]
    basis = projcore.nullspace(matrix)
    return projcore.normalize(basis[0]) if basis else None


@st.composite
def dependence_maps(draw):
    """Maps of degree 1-4 into RP^1..RP^4 of sparse components with Fraction
    coefficients, zero components and planted linear relations (a
    component that is a combination of the ones before it)."""
    degree = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["sparse", "zero", "relation"]), min_size=2, max_size=5))
    rng = stable_rng(draw(st.integers(0, 10**6)), "dependence_maps")
    monos = _monomials(3, degree)
    comps = []
    for kind in kinds:
        if kind == "zero":
            comps.append(HPoly.zero(3, degree))
        elif kind == "relation" and comps:
            comps.append(sum((Fraction(rng.randint(-3, 3), rng.randint(1, 2)) * c for c in comps), HPoly.zero(3, degree)))
        else:
            chosen = rng.sample(monos, rng.randint(1, min(4, len(monos))))
            comps.append(HPoly(3, degree, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for e in chosen}))
    if all(c.is_zero for c in comps):
        comps[0] = HPoly.monomial([degree, 0, 0])
    return RatMap(comps)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(dependence_maps())
def test_component_dependence_reads_only_the_monomials_that_occur(F):
    got = component_dependence(F)
    assert got == _full_monomial_dependence(F)
    if got is not None:
        assert sum((c * comp for c, comp in zip(got, F.components)), HPoly.zero(3, F.degree)).is_zero


def test_component_dependence_of_a_sparse_map_of_degree_1000_is_fast():
    # C(1002, 2) = 501,501 monomials of degree 1000, four of which occur
    D = 1000
    F = RatMap([HPoly.monomial(e) for e in [(D, 0, 0), (0, D, 0), (0, 0, D), (D - 1, 1, 0)]])
    t0 = time.perf_counter()
    assert component_dependence(F) is None
    assert time.perf_counter() - t0 < 0.5


def test_fit_then_classify_a_sampled_map():
    # black-box samples of a quadratic map: fit at the theorem bound, then classify
    from planarize.jetplan import CallableSource
    from planarize.ratfit import fit_map

    def sample(u, v):
        return SEGRE.evaluate([Fraction(1), Fraction(u), Fraction(v)])

    model = fit_map(CallableSource(sample, codim=3, mode="exact"), 3)
    verdict = classify(model)
    assert isinstance(verdict, CoTrivial)
    assert verdict.center == PPoint.of(0, 0, 0, 1)
    assert model.projectively_equal(SEGRE)


def test_dual_map_agrees_with_jet_hyperplanes():
    # two independent routes to the per-line hyperplane: the symbolic dual
    # (the wedge on the principal lattice) and the jet construction at a
    # point of the line with the matching slope
    from planarize.jetplan import ExactMapSource, hyperplane_for_line
    from planarize.projcore import Hyperplane, cross, normalize

    for seed in (2, 3):
        F = generate_map(seed, 2, 3)
        Fh = dual_map(F, seed=seed)
        src = ExactMapSource(F)
        rng = stable_rng(seed, "dual_vs_jet")
        checked = 0
        attempts = 0
        while checked < 5 and attempts < 60:
            attempts += 1
            u0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            v0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            lam = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            # line through [1:u0:v0] with direction [0:1:lam]
            line = cross((1, u0, v0), (0, 1, lam))
            dual_val = Fh.evaluate(line)
            if dual_val is None:
                continue
            try:
                jet_plane = hyperplane_for_line(src, (u0, v0), lam)
            except Exception:
                continue
            assert Hyperplane.of(dual_val) == jet_plane
            checked += 1
        assert checked == 5


def test_cubic_dual_planarizations_classify_rational_three():
    # degree-3 maps are not planarizations in general, but duals of generic
    # quadratics are; they classify as the rational case with their degree
    F = generate_map(1, 2, 3)
    Fh = dual_map(F, seed=1)
    assert Fh.degree == 3
    assert classify(Fh, seed=1) == Rational(3)


def test_generic_cubics_are_not_planarizations():
    for seed in (11, 12):
        C = generate_map(seed, 3, 3)
        assert isinstance(classify(C, seed=seed), Indeterminate)



# -- equivariance under collineations, against sympy's matrix algebra -------------


def _fraction(c) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def _linear_map(M) -> RatMap:
    """The collineation x -> M x of a sympy matrix, one linear form per row."""
    n = M.cols
    unit = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    return RatMap([HPoly(n, 1, {e: _fraction(c) for e, c in zip(unit, M.row(i))}) for i in range(M.rows)])


def _invertible(rng, n):
    sympy = pytest.importorskip("sympy")
    while True:
        M = sympy.Matrix(n, n, [rng.randint(-4, 4) for _ in range(n * n)])
        if M.det() != 0:
            return M


def _sympy_plane_through_image(F, ell):
    """The plane spanned by F at three points of the line ell, by sympy."""
    sympy = pytest.importorskip("sympy")
    p, q = sympy.Matrix([ell]).nullspace()
    imgs = [F.evaluate([_fraction(c) for c in x]) for x in (p, q, p + q)]
    (plane,) = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in y] for y in imgs]).nullspace()
    return [_fraction(c) for c in plane]


def _parallel(a, b):
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dual_map_sends_a_line_to_the_plane_of_its_image(seed):
    # the convention the identities below rest on: a line is its covector
    # ell (points x with ell . x = 0), a plane its covector h
    F = generate_map(seed, 2, 3)
    Fh = dual_map(F, seed=seed)
    rng = stable_rng(seed, "dual_sympy_lines")
    for _ in range(4):
        ell = [rng.randint(-9, 9) for _ in range(3)]
        if any(ell):
            assert _parallel(Fh.evaluate(ell), _sympy_plane_through_image(F, ell))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dual_of_a_precomposition(seed):
    # A maps the line ell onto the line adj(A)^T ell, so dual(F A) = dual(F) adj(A)^T
    sympy = pytest.importorskip("sympy")
    F = generate_map(seed, 2, 3)
    A = _invertible(stable_rng(seed, "dual_pre"), 3)
    adjT = A.adjugate().T
    ell = sympy.Matrix([2, -3, 5])
    for x in sympy.Matrix([ell.T]).nullspace():
        assert (adjT * ell).dot(A * x) == 0
    lhs = dual_map(F.after(_linear_map(A)), seed=seed)
    rhs = dual_map(F, seed=seed).after(_linear_map(adjT))
    assert lhs.projectively_equal(rhs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dual_of_a_postcomposition(seed):
    # L maps the plane h onto the plane L^-T h, so dual(L F) = L^-T dual(F)
    sympy = pytest.importorskip("sympy")
    F = generate_map(seed, 2, 3)
    L = _invertible(stable_rng(seed, "dual_post"), 4)
    invT = L.inv().T
    h = sympy.Matrix([1, -2, 0, 3])
    for y in sympy.Matrix([h.T]).nullspace():
        assert (invT * h).dot(L * y) == 0
    lhs = dual_map(_linear_map(L).after(F), seed=seed)
    rhs = _linear_map(invT).after(dual_map(F, seed=seed))
    assert lhs.projectively_equal(rhs)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_biduality_property(seed):
    F = generate_map(seed, 2, 3)
    assert dual_map(dual_map(F, seed=seed), seed=seed).projectively_equal(F)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(st.integers(-5, 5), min_size=6, max_size=6), min_size=4, max_size=4),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
def test_reduce_map_is_idempotent(coeffs, h):
    # quadratics times a common linear factor h (possibly zero, then all-zero
    # tuples are skipped)
    monos = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    H = HPoly(3, 1, {(1, 0, 0): h[0], (0, 1, 0): h[1], (0, 0, 1): h[2]})
    comps = [HPoly(3, 2, dict(zip(monos, row))) * H for row in coeffs]
    if all(c.is_zero for c in comps):
        return
    once = reduce_map(comps)
    twice = reduce_map(once.components)
    assert twice == once
    assert twice.to_json() == once.to_json()


# -- preconditions from the span bound, against sympy and the jets ---------------

TWISTED_CUBIC = reduce_map([X0**3, X0**2 * X1, X0 * X1**2, X1**3])
# on a line through a coordinate point two of its components restrict to
# proportional forms, so such a line is no witness
SPARSE_QUARTIC = reduce_map([X0**4, X1**4, X2**4, X0**3 * X1])


def _sympy_line_rank(F, cov):
    """Rank of the coefficient matrix of F restricted to the line `cov`, by
    sympy: the line is spanned by its sympy nullspace basis, each component
    substituted as an expression and read off as a binary form in s, t."""
    sympy = pytest.importorskip("sympy")
    s, t = sympy.symbols("s t")
    p, q = sympy.Matrix([list(cov)]).nullspace()
    x = [s * p[i] + t * q[i] for i in range(3)]
    rows = []
    for comp in F.components:
        expr = sum(
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * x[0] ** e[0] * x[1] ** e[1] * x[2] ** e[2]
            for e, c in comp.terms.items()
        )
        form = sympy.Poly(sympy.expand(expr), s, t)
        rows.append([form.coeff_monomial(s ** (F.degree - j) * t**j) for j in range(F.degree + 1)])
    return sympy.Matrix(rows).rank()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.sampled_from([(0, 2), (1, 3), (1, 4), (2, 4)]))
def test_maps_whose_lines_span_too_little_are_everywhere_degenerate(seed, dn):
    # d + 1 < n: the degree bound alone decides, and the jets agree
    d, n = dn
    F = generate_map(seed, d, n)
    with pytest.raises(EverywhereDegenerate, match=rf"at most d\+1 = {d + 1} < n = {n}"):
        dual_map(F, seed=seed)
    src = ExactMapSource(F)
    for a in _PRECHECK_POINTS:
        try:
            assert not nondegenerate_at(src, a)
        except OnIndeterminacy:
            pass
    rng = stable_rng(seed, "span_too_little_lines")
    for _ in range(2):
        cov = tuple(rng.randint(-9, 9) for _ in range(3))
        if cov == (0, 0, 0):
            continue
        rank = _sympy_line_rank(F, cov)
        assert rank <= d + 1
        rows = _line_rows([c.terms for c in F.components], *line_base_points(PLine2.of(cov)), d)
        assert rank == projcore.rank(rows)


def _witness_line(exc) -> tuple:
    found = re.search(r"line \(([-\d, ]+)\) spans RP\^", str(exc))
    assert found, str(exc)
    return tuple(int(c) for c in found.group(1).split(","))


@pytest.mark.parametrize(
    "F",
    [generate_map(11, 3, 3), generate_map(12, 3, 3), generate_map(1, 2, 2), generate_map(2, 2, 2), TWISTED_CUBIC,
     SPARSE_QUARTIC],
    ids=["cubic-rp3-11", "cubic-rp3-12", "quadratic-rp2-1", "quadratic-rp2-2", "twisted-cubic", "sparse-quartic"],
)
def test_a_line_whose_image_spans_rp_n_witnesses_not_planar(F):
    # d >= n: the named line's image spans all of RP^n by sympy's rank
    for seed in (0, 3):
        with pytest.raises(NotPlanar) as info:
            dual_map(F, seed=seed)
        assert _sympy_line_rank(F, _witness_line(info.value)) == F.codim + 1
        assert classify(F, seed=seed) == Indeterminate(str(info.value))


def test_the_span_bound_decides_before_any_jet(monkeypatch):
    calls = []

    def counting(source, a):
        calls.append(a)
        return nondegenerate_at(source, a)

    monkeypatch.setattr(dualize, "nondegenerate_at", counting)
    for d, n in ((1, 3), (2, 4), (2, 5), (3, 5)):
        F = generate_map(5, d, n)
        with pytest.raises(EverywhereDegenerate):
            dual_map(F, seed=5)
        expect = Indeterminate("everywhere degenerate but components are independent")
        if component_dependence(F) is not None:
            expect = Trivial(Hyperplane(component_dependence(F)))
        assert classify(F, seed=5) == expect
    with pytest.raises(NotPlanar):
        dual_map(generate_map(5, 3, 3), seed=5)
    assert calls == []
    # d + 1 = n still goes through the jets
    dual_map(generate_map(5, 2, 3), seed=5)
    assert calls


def test_a_sparse_degree_1000_map_is_refused_by_one_line_span():
    # the span witness reads the map modulo a prime at 4 points of the line,
    # one pow per monomial: full rank there is the answer
    D = 1000
    F = RatMap([X0**D, X1**D, X2**D, X0 ** (D - 1) * X1])
    start = time.perf_counter()
    assert classify(F) == Indeterminate("the image of line (7, 9, 2) spans RP^3, so no hyperplane contains it")
    assert time.perf_counter() - start < 3


@st.composite
def small_maps(draw):
    n = draw(st.integers(2, 3))
    d = draw(st.integers(1, 4))
    monos = _monomials(3, d)
    comps = []
    for _ in range(n + 1):
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=4, unique=True))
        comps.append(HPoly(3, d, {e: draw(st.integers(-3, 3)) for e in chosen}))
    assume(any(not c.is_zero for c in comps))
    return RatMap(comps)


nonzero_lines = st.tuples(*[st.integers(-9, 9)] * 3).filter(lambda c: c != (0, 0, 0)).map(PLine2.of)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_maps(), nonzero_lines)
def test_the_span_witness_modulo_a_prime_is_a_proof(F, line):
    if dualize._spans_modulo_prime(F, line):
        assert _sympy_line_rank(F, line.covector) == F.codim + 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-projcore._PRIMES[0], projcore._PRIMES[0]), min_size=n + 1, max_size=n + 1),
    min_size=n + 1, max_size=n + 1)), st.booleans())
def test_the_span_witness_decides_rank_modulo_the_prime_as_rref_mod_does(C, singular_mod_p):
    # F_i = sum_k C[i][k] x0^(n-k) x1^k on the line x2 = 0, whose base points
    # are (1, 0, 0) and (0, 1, 0): the residue matrix at t = 0..n is V C^T, V
    # a Vandermonde matrix invertible modulo p.  A last row C[0] + p C[1] is
    # dependent modulo p only.
    np = pytest.importorskip("numpy")
    p, n = projcore._PRIMES[0], len(C) - 1
    if singular_mod_p:
        C[n] = [a + p * b for a, b in zip(C[0], C[1])]
    assume(any(map(any, C)))
    F = RatMap([HPoly(3, n, {(n - k, k, 0): c for k, c in enumerate(row)}) for row in C])
    residues = [[sum(c * t**k for k, c in enumerate(row)) % p for row in C] for t in range(n + 1)]
    full = len(projcore._rref_mod(np.array(residues, dtype=np.int64), p)[1]) == n + 1
    assert dualize._spans_modulo_prime(F, PLine2.of(0, 0, 1)) == full
    if singular_mod_p:
        assert not full


@functools.cache
def _planarizations_of_degree_at_least_3(seed):
    """A dual of a quadratic (a cubic), its bidual, and the quartic
    composite of the circles-through-origin web with inversion after a
    collineation: planarizations into RP^3 with d >= n."""
    dual = dual_map(generate_map(seed, 2, 3))
    A = _linear_map(_invertible(stable_rng(seed, "span-witness-composite"), 3))
    f = reduce_map([X1 * X1 + X2 * X2, X0 * X1, X0 * X2]).after(A)
    web = [X1 * X1 + X2 * X2, X0 * X1, X0 * X2, X0 * X0 + X1 * X1]
    composite = reduce_map([q.substitute(list(f.components)) for q in web])
    return dual, dual_map(dual_map(dual)), composite


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), nonzero_lines)
def test_the_span_witness_never_fires_on_a_planarization(seed, line):
    maps = _planarizations_of_degree_at_least_3(seed)
    assert [(m.degree, m.codim) for m in maps] == [(3, 3), (3, 3), (4, 3)]
    for F in maps:
        assert not dualize._spans_modulo_prime(F, line)


def test_a_span_the_prime_cannot_see_is_left_to_the_lattice():
    # the last component vanishes modulo the prime, so the seeded line's
    # images have rank 3 there; over Q they span RP^3, and the lattice
    # refuses the map at a line (a, b, 1) of its own
    p = projcore._PRIMES[0]
    F = RatMap([X0**3, X1**3, X2**3, p * X0 * X0 * X1])
    line = PLine2.of(7, 9, 2)
    assert not dualize._spans_modulo_prime(F, line)
    assert _sympy_line_rank(F, line.covector) == 4
    with pytest.raises(NotPlanar, match=r"the image of line \(\d+, \d+, 1\) "):
        dual_map(F)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_cubic_duals_pass_the_span_check_and_keep_their_verdict(seed):
    # the dual of a generic quadratic is a cubic into RP^3 (d >= n), a
    # planarization: no line's image spans RP^3, its dual is F again, and it
    # classifies as rational of degree 3
    F = generate_map(seed, 2, 3)
    Fh = dual_map(F, seed=seed)
    assert (Fh.degree, Fh.codim) == (3, 3)
    rng = stable_rng(seed, "cubic_dual_lines")
    for _ in range(3):
        cov = tuple(rng.randint(-9, 9) for _ in range(3))
        if cov != (0, 0, 0):
            assert _sympy_line_rank(Fh, cov) <= 3
    assert dual_map(Fh, seed=seed).projectively_equal(F)
    assert classify(Fh, seed=seed) == Rational(3)


# -- the containment identity, the lattice certificate and the lattice limit ---------


def _sympy_pairing_along_lines(F, Fh):
    """sum_i Fh_i(l) * F_i(s*(l x e0) + t*(l x e1)), expanded by sympy in the
    five variables (l0, l1, l2, s, t)."""
    sympy = pytest.importorskip("sympy")
    l0, l1, l2, s, t = sympy.symbols("l0:3 s t")

    def expr(poly, xs):
        return sum(
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sympy.prod([x**k for x, k in zip(xs, e)])
            for e, c in poly.terms.items()
        )

    # l x e0 = (0, l2, -l1) and l x e1 = (-l2, 0, l0) span the line l when l2 != 0
    point = [-t * l2, s * l2, -s * l1 + t * l0]
    return sympy.expand(
        sum(expr(h, (l0, l1, l2)) * expr(c, point) for h, c in zip(Fh.components, F.components))
    )


def _differential_maps():
    maps = [("segre", SEGRE, 0)]
    for seed in (1, 2, 3):
        F = generate_map(seed, 2, 3)
        A = _linear_map(_invertible(stable_rng(seed, "dual_pre"), 3))
        L = _linear_map(_invertible(stable_rng(seed, "dual_post"), 4))
        maps += [
            (f"quadratic-{seed}", F, seed),
            (f"cubic-dual-{seed}", dual_map(F, seed=seed), seed),
            (f"precomposed-{seed}", F.after(A), seed),
            (f"postcomposed-{seed}", L.after(F), seed),
        ]
    return maps


def test_every_differential_dual_pairs_to_zero_along_its_lines():
    # the certificate's identity, expanded independently by sympy on every
    # dual the differential tests above compute
    for name, F, seed in _differential_maps():
        Fh = dual_map(F, seed=seed)
        assert _sympy_pairing_along_lines(F, Fh) == 0, name


def _logged(log, fn, *args):
    log.append(args)
    return fn(*args)


def test_the_lattice_refuses_a_cubic_into_rp3_for_d_at_least_n(monkeypatch):
    # past the seeded span line, a generic cubic into RP^3 is refused on the
    # lattice: the image of the first lattice line (0, 0, 1) spans RP^3
    monkeypatch.setattr(dualize, "_check_preconditions", lambda F, seed: None)
    F = generate_map(11, 3, 3)
    with pytest.raises(NotPlanar, match=r"^the image of line \(0, 0, 1\) spans RP\^3"):
        dual_map(F)
    # with the last component x2 q, the line x2 = 0 has its image in y3 = 0,
    # so the wedge of its rows gives a candidate, which the certificate
    # refuses at a lattice line whose image spans RP^3
    q = generate_map(11, 2, 1).components[0]
    G = reduce_map(list(F.components[:3]) + [X2 * q])
    assert dualize._spanning_rows(dualize._row_reader(G), 3, 6) == [0, 1, 2]
    with pytest.raises(NotPlanar, match="leaves the hyperplane the reduced wedge gives it") as info:
        dual_map(G)
    assert _sympy_line_rank(G, _certificate_line(info.value)) == 4
    # x0 G: x0 is -t on every line, so its wedge is l2^3 times that of G.
    # The pencil bound is positive, no kernel below D = 9 exists, and the
    # wedge, reduce_map and the certificate refuse the map in the same words
    xG = RatMap([X0 * c for c in G.components])
    rows = dualize._row_reader(xG)
    assert dualize._pencil_bound(dualize._pencil_minors(rows, [1, 2, 3], 9), 9) >= 3
    wedges, kernels = [], []
    for name, log in (("_wedge_forms", wedges), ("_pairing_kernel", kernels)):
        monkeypatch.setattr(dualize, name, functools.partial(_logged, log, getattr(dualize, name)))
    with pytest.raises(NotPlanar, match=r"^the image of line \(0, 1, 1\) leaves the hyperplane the reduced wedge"):
        dual_map(xG)
    assert len(wedges) == 1 and kernels and all(k < 9 for _, _, k in kernels)


def _certificate_line(exc) -> tuple:
    found = re.search(r"line \(([-\d, ]+)\) leaves", str(exc))
    assert found, str(exc)
    return tuple(int(c) for c in found.group(1).split(","))


def _degree_12_relation_map():
    """A dense degree-12 map into RP^3 with the linear relation y0 + 2 y1 - 3 y2
    = y3.  x0^12 and x1^12 share no factor, so the map is built reduced
    without a gcd (a generated degree-12 map spends tens of seconds in
    reduce_map)."""
    rng = stable_rng(3, "degree_12_relation")
    g = [X0**12, X1**12, HPoly(3, 12, {m: rng.randint(-9, 9) for m in _monomials(3, 12)})]
    return RatMap(g + [g[0] + 2 * g[1] - 3 * g[2]])


def test_a_degree_12_map_with_a_linear_relation_has_its_witness_as_dual():
    # d >= n: the lattice has C(35, 2) = 595 points; the dual is the
    # constant witness hyperplane
    Fh = dual_map(_degree_12_relation_map(), seed=3)
    assert Fh.degree == 0
    assert Fh.projectively_equal(RatMap([HPoly(3, 0, {(0, 0, 0): c}) for c in (1, 2, -3, -1)]))


# -- the pairing system against the wedge of section rows ------------------------------


def _section_directions(count: int) -> list[tuple[int, int, int]]:
    """The coordinate points, then (1, k, k^2) for k = 1, 2, ...: `count`
    pairwise independent directions, the sparse ones first."""
    coordinate = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return (coordinate + [(1, k, k * k) for k in range(1, count - 2)])[:count]


def _section_row(F, direction):
    """F at the point l x c of the moving line l, one polynomial in l per component."""
    section = list(projcore.cross(variables(3), direction))
    return [comp.substitute(section) for comp in F.components]


def _pairing_nullspace(rows, D):
    """Nullspace of the pairing system at degree D: the unknowns are the
    coefficients of n+1 forms G_i of degree D, form by form, and the
    equations the coefficients of sum_i G_i * row_i, one per monomial and
    row.  On a line the pairing is a degree-d binary form, zero at the d+1
    points l x c of d+1 section rows, so a solution contains every line's
    image."""
    monos = _monomials(3, D)
    ncols = len(rows[0]) * len(monos)
    matrix = []
    for row in rows:
        equations: dict = {}
        for i, comp in enumerate(row):
            for j, mu in enumerate(monos):
                col = i * len(monos) + j
                for e, c in comp.terms.items():
                    key = (mu[0] + e[0], mu[1] + e[1], mu[2] + e[2])
                    equations.setdefault(key, [0] * ncols)[col] = c
        matrix.extend(equations.values())
    return projcore.nullspace(matrix)


def _oracle_maps():
    """The differential maps, cubics into RP^4, circle-web composites, a
    stereographic sphere map and the degree-12 relation map."""
    maps = [(name, F) for name, F, _ in _differential_maps()]
    maps += [(f"cubic-rp4-{seed}", generate_map(seed, 3, 4)) for seed in (1, 2)]
    for seed in (1, 2):
        A = _linear_map(_invertible(stable_rng(seed, "dual_pre"), 3))
        maps.append((f"circle-web-{seed}", RatMap(circle_web().basis).after(A)))
    sphere = RatMap([X0 * X0 + X1 * X1 + X2 * X2, 2 * X0 * X1, 2 * X0 * X2, X1 * X1 + X2 * X2 - X0 * X0])
    maps.append(("stereographic", sphere.after(_linear_map(_invertible(stable_rng(3, "dual_pre"), 3)))))
    maps.append(("degree-12-relation", _degree_12_relation_map()))
    return maps


def _wedge_dual(F):
    """The dual by the wedge: the reduced signed minors of the first window
    of n consecutive section rows whose minors are not all zero."""
    n = F.codim
    directions = _section_directions(n + 6)
    for start in range(len(directions) - n + 1):
        minors = projcore.signed_minors([_section_row(F, c) for c in directions[start : start + n]])
        if not all(m.is_zero for m in minors):
            return reduce_map(minors)
    raise AssertionError("every window collapses")


ORACLE_MAPS = _oracle_maps()


@pytest.mark.parametrize("name, F", ORACLE_MAPS, ids=[name for name, _ in ORACLE_MAPS])
def test_the_pairing_dual_is_the_reduced_wedge_and_its_nullity_grows_as_the_multiples(name, F):
    # every solution of degree deg(Fh) + k is g * Fh with g of degree k
    Fh = dual_map(F)
    assert repr(Fh) == repr(_wedge_dual(F))
    rows = [_section_row(F, c) for c in _section_directions(F.degree + 1)]
    nullities = [len(_pairing_nullspace(rows, D)) for D in range(max(Fh.degree - 1, 0), Fh.degree + 2)]
    assert nullities == ([0] if Fh.degree else []) + [1, 3]


# -- the wedge route against the pairing system ------------------------------------------


def _pairing_dual(F):
    """The lowest solution of the pairing system on d+1 section rows, solved
    at D = 0, 1, 2, ... until one exists: the oracle of the wedge route."""
    rows = [_section_row(F, c) for c in _section_directions(F.degree + 1)]
    for D in range(F.codim * F.degree + 1):
        basis = _pairing_nullspace(rows, D)
        if basis:
            assert len(basis) == 1, f"nullity {len(basis)} at the lowest degree {D}"
            monos = _monomials(3, D)
            forms = [HPoly(3, D, dict(zip(monos, basis[0][i * len(monos) :]))) for i in range(F.codim + 1)]
            return RatMap(_canonical_scale(forms))
    raise AssertionError("the pairing system has no solution")


SPHERE = RatMap([X0 * X0 + X1 * X1 + X2 * X2, 2 * X0 * X1, 2 * X0 * X2, X1 * X1 + X2 * X2 - X0 * X0])


ORIGIN_WEB = [X1 * X1 + X2 * X2, X0 * X1, X0 * X2, X0 * X0 + X1 * X1]
INVERSION = RatMap([X1 * X1 + X2 * X2, X0 * X1, X0 * X2])


def _wedge_route_map(kind, seed, fractions):
    """A map with d + 1 >= n of the given kind, its components scaled by
    seeded Fractions when `fractions` is set (a diagonal collineation after
    the map, so the kind is kept).  The kinds with d >= n are biduals
    (cubics into RP^3), duals of cubics into RP^4 (sextics), the quartic
    composites of the origin web with the inversion after a collineation,
    and the degree-12 map with a linear relation."""
    rng = stable_rng(seed, "wedge_route_maps")
    if kind == "generic":
        d = rng.choice((1, 2, 3))
        F = generate_map(seed, d, d + 1)
    elif kind == "trivial":
        d = rng.choice((2, 3))
        G = list(generate_map(seed, d, d).components)
        relation = sum((rng.randint(-3, 3) * g for g in G[1:]), rng.randint(1, 3) * G[0])
        F = RatMap(G + [relation])
    elif kind == "circle-web":
        F = RatMap(circle_web().basis).after(_linear_map(_invertible(rng, 3)))
    elif kind == "sphere":
        F = SPHERE.after(_linear_map(_invertible(rng, 3)))
    elif kind == "bidual":
        F = _pairing_dual(generate_map(seed, 2, 3))
    elif kind == "cubic-dual-rp4":
        F = _pairing_dual(generate_map(seed, 3, 4))
    elif kind == "web-inverse":
        f = INVERSION.after(_linear_map(_invertible(rng, 3)))
        F = reduce_map([q.substitute(list(f.components)) for q in ORIGIN_WEB])
    else:
        F = _degree_12_relation_map()
    if fractions:
        F = RatMap([Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9)) * c for c in F.components])
    return F


WEDGE_ROUTE_KINDS = ["generic", "trivial", "circle-web", "sphere", "bidual", "cubic-dual-rp4", "web-inverse",
                     "degree-12-relation"]


@settings(max_examples=32, deadline=None, derandomize=True)
@given(st.sampled_from(WEDGE_ROUTE_KINDS), st.integers(0, 10**6), st.booleans())
@example("bidual", 1, False)
@example("cubic-dual-rp4", 2, True)
@example("web-inverse", 3, False)
@example("degree-12-relation", 0, True)
def test_the_wedge_route_gives_the_pairing_dual_byte_for_byte(kind, seed, fractions):
    F = _wedge_route_map(kind, seed, fractions)
    assert F.degree + 1 >= F.codim
    if kind in WEDGE_ROUTE_KINDS[4:]:
        assert F.degree >= F.codim
    assert repr(dual_map(F, seed=seed)) == repr(_pairing_dual(F))


# -- the pencil bound and the pairing kernel against the wedge route ---------------------


def _wedge_reduce_certify(F):
    """(G, H, b): the dual G by the wedge route alone, the wedge H of the
    chosen rows interpolated on the whole lattice, then `reduce_map` and,
    for d >= n, the lattice certificate; and the pencil bound b."""
    n, d = F.codim, F.degree
    D = n * d - n * (n - 1) // 2
    rows = dualize._row_reader(F)
    chosen = dualize._spanning_rows(rows, n, D)
    pencil = dualize._pencil_minors(rows, chosen, D)
    H = dualize._wedge_forms(rows, chosen, D, pencil)
    G = reduce_map(H)
    if d >= n:
        dualize._certify(G, rows, d)
    return G, H, dualize._pencil_bound(pencil, D)


def _sympy_gcd_degree(forms):
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:3")
    exprs = [sum(c * sympy.prod([x**k for x, k in zip(xs, e)]) for e, c in h.terms.items()) for h in forms if h.terms]
    return sympy.Poly(functools.reduce(sympy.gcd, exprs), *xs).total_degree()


def _kernel_route_map(kind, seed):
    """A map whose wedge has a common factor: a bidual (the dual of a
    quadratic into RP^3, a cubic), a circle-web composite, a web composite
    with the inversion after a collineation, x0 times a map with d+1 = n,
    or a map with a linear relation, whose dual is constant."""
    if kind == "bidual":
        return dual_map(generate_map(seed, 2, 3), seed=seed)
    if kind == "x0-times":
        d = stable_rng(seed, "kernel_route_maps").choice((1, 2))
        return RatMap([X0 * c for c in generate_map(seed, d, d + 1).components])
    return _wedge_route_map(kind, seed, False)


KERNEL_ROUTE_KINDS = ["bidual", "circle-web", "web-inverse", "x0-times", "trivial"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(KERNEL_ROUTE_KINDS), st.integers(0, 10**6))
@example("bidual", 1)
@example("circle-web", 2)
@example("web-inverse", 3)
@example("x0-times", 4)
@example("trivial", 5)
def test_the_pairing_kernel_gives_the_wedge_route_dual(kind, seed):
    F = _kernel_route_map(kind, seed)
    G, H, b = _wedge_reduce_certify(F)
    # the kernel route runs: the wedge has a factor, and the pencil sees it
    assert b >= _sympy_gcd_degree(H) > 0
    Fh = dual_map(F, seed=seed)
    assert repr(Fh) == repr(G)
    assert _sympy_pairing_along_lines(F, Fh) == 0
    if kind == "trivial":
        assert Fh.degree == 0


def test_the_kernel_route_reads_no_wedge_and_reduces_nothing(monkeypatch):
    maps = [_kernel_route_map(kind, 1) for kind in ("bidual", "circle-web", "web-inverse")]
    calls: list = []
    for module, name in ((poly, "_parallel_forms"), (poly, "_common_degree_bound"), (dualize, "_wedge_forms")):
        monkeypatch.setattr(module, name, functools.partial(_logged, calls, getattr(module, name)))
    for F in maps:
        dual_map(F, seed=1)
    assert calls == []


def test_a_reduced_wedge_is_interpolated_and_not_reduced_again(monkeypatch):
    # the pencil bound of a generic quadratic's wedge is 0, which proves it
    # reduced: the wedge is interpolated once and reduce_map bounds nothing
    F = generate_map(1, 2, 3)
    wedges, bounds = [], []
    monkeypatch.setattr(dualize, "_wedge_forms", functools.partial(_logged, wedges, dualize._wedge_forms))
    monkeypatch.setattr(poly, "_common_degree_bound", functools.partial(_logged, bounds, poly._common_degree_bound))
    Fh = dual_map(F, seed=1)
    assert len(wedges) == 1 and bounds == [] and Fh.degree == 3 and Fh._reduced
    assert reduce_map(Fh) is Fh


def _degenerate_wedge_maps():
    """Maps with d + 1 = n whose every line's image spans less than a
    hyperplane: cones, maps through a curve and maps with a base curve."""
    rng = stable_rng(0, "degenerate_wedge_maps")

    def form(degree):
        return HPoly(3, degree, {m: rng.randint(-5, 5) for m in _monomials(3, degree)})

    k, g0, g1, f = form(2), form(1), form(1), form(4)
    q0, q1, c0, c1 = form(2), form(2), form(3), form(3)
    return [
        # the cone over a conic with vertex (0, 0, 0, 1, 1, 2): a line's image spans 4 < 5
        ("cone", RatMap([k * g0 * g0, k * g0 * g1, k * g1 * g1, f, f + k * g0 * g0, 2 * f - k * g1 * g1])),
        # [q0 : q1] followed by a line or a conic of RP^n
        ("through-a-line", RatMap([q0, q1, q0 + 2 * q1, 3 * q0 - q1])),
        ("through-a-cubic-pencil", RatMap([c0, c1, c0 + c1, c0 - c1, 2 * c0 + 3 * c1])),
        ("through-a-conic", RatMap([q0 * q0, q0 * q1, q1 * q1, q0 * q0 + q1 * q1, q0 * q1 - q1 * q1, 2 * q0 * q0])),
        # h * R: the lines of R span too little for its own degree
        ("base-line", RatMap([g0 * c for c in generate_map(2, 2, 4).components])),
        ("base-conic", RatMap([k * c for c in generate_map(3, 2, 5).components])),
        ("base-line-linear", RatMap([g1 * c for c in generate_map(4, 1, 3).components])),
    ]


DEGENERATE_WEDGE_MAPS = _degenerate_wedge_maps()


@pytest.mark.parametrize("name, F", DEGENERATE_WEDGE_MAPS, ids=[name for name, _ in DEGENERATE_WEDGE_MAPS])
def test_a_zero_wedge_never_passes_the_jet_precheck(monkeypatch, name, F):
    n = F.codim
    assert F.degree + 1 == n
    assert dualize._spanning_rows(dualize._row_reader(F), n, n * F.degree - n * (n - 1) // 2) is None
    with pytest.raises(EverywhereDegenerate, match=rf"^no line's image spans a hyperplane of RP\^{n}$"):
        dual_map(F, seed=2)
    src = ExactMapSource(F)
    for a in _PRECHECK_POINTS:
        try:
            assert not nondegenerate_at(src, a)
        except OnIndeterminacy:
            pass
    # past the precheck, the lattice refuses the map by itself: no lattice
    # line's image spans a hyperplane, so every n x n minor is zero
    monkeypatch.setattr(dualize, "_check_preconditions", lambda F, seed: None)
    with pytest.raises(EverywhereDegenerate, match=rf"^no line's image spans a hyperplane of RP\^{F.codim}$"):
        dual_map(F, seed=2)


def test_the_lattice_limit_guards_maps_of_degree_at_least_n(monkeypatch):
    # the dual of a generic quadratic is a cubic into RP^3 (d >= n): its
    # lattice has D = 3 * 3 - 3 = 6, C(8, 2) = 28 points of 4 x 4 entries
    Fh = dual_map(generate_map(1, 2, 3), seed=1)
    calls = []
    monkeypatch.setattr(dualize, "nondegenerate_at", lambda source, a: calls.append(a))
    monkeypatch.setattr(dualize, "MAX_DUAL_LATTICE_CELLS", 447)
    with pytest.raises(ValueError) as info:
        dual_map(Fh, seed=1)
    assert str(info.value) == (
        "the dual of a degree-3 map into RP^3 needs 28 lattice points of 4 x 4 entries, 448 cells, "
        "more than MAX_DUAL_LATTICE_CELLS = 447"
    )
    # the limit comes after the span line and before the precheck
    with pytest.raises(NotPlanar):
        dual_map(generate_map(11, 3, 3), seed=1)
    assert calls == []
    monkeypatch.setattr(dualize, "MAX_DUAL_LATTICE_CELLS", 448)
    monkeypatch.setattr(dualize, "nondegenerate_at", nondegenerate_at)
    assert dual_map(Fh, seed=1).projectively_equal(generate_map(1, 2, 3))


def test_the_lattice_limit_admits_the_septic_and_the_degree_12_map_and_refuses_the_octic():
    # 14,168, 31,320 and 30,940 cells pass every precondition; 63,270 do not
    for F in (generate_map(1, 6, 7), generate_map(1, 7, 8), _degree_12_relation_map()):
        dualize._check_preconditions(F, 1)
    with pytest.raises(ValueError, match=r"703 lattice points of 9 x 10 entries, 63270 cells"):
        dualize._check_preconditions(generate_map(1, 8, 9), 1)


def _quadratic_times_a_sextic_through_the_old_precheck():
    """(G, h G): G a quadratic into RP^3 and h a sextic through the 25 points
    that the nondegeneracy precheck once sampled at seed 0, a fixed 3x3 grid
    plus 16 draws of the stream "dual_precheck", so h G is undefined at all
    of them."""
    pts = [(Fraction(i, 4), Fraction(j, 4)) for i in range(1, 4) for j in range(1, 4)]
    rng = stable_rng(0, "dual_precheck")
    for _ in range(16):
        pts.append(tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 19)) for _ in range(2)))
    monos = _monomials(3, 6)
    basis = projcore.nullspace([[u ** e[1] * v ** e[2] for e in monos] for u, v in pts])
    assert len(basis) == 3
    h = HPoly(3, 6, {e: c for e, c in zip(monos, basis[0]) if c})
    G = generate_map(1, 2, 3)
    return G, RatMap([h * g for g in G.components])


def test_a_map_undefined_at_every_old_precheck_point_is_still_rational():
    # the precheck once called h G everywhere degenerate at seed 0; only the
    # lattice decides that now, and it finds the dual of G
    G, F = _quadratic_times_a_sextic_through_the_old_precheck()
    assert F.degree == 8 and reduce_map(F.components) == G
    Gh = dual_map(G)
    for seed in range(4):
        assert classify(F, seed=seed) == Rational(2)
        assert dual_map(F, seed=seed).projectively_equal(Gh)


def test_the_cli_classifies_and_dualizes_a_map_undefined_at_the_old_precheck_points(tmp_path, capsys):
    G, F = _quadratic_times_a_sextic_through_the_old_precheck()
    path = tmp_path / "hG.json"
    path.write_text(json.dumps(F.to_json()))
    assert main(["classify", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["class"], report["degree"]) == ("Rational", 2)
    assert main(["dualize", "--in", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert RatMap.from_json(report["dual"]).projectively_equal(dual_map(G))
