"""Tests of the benchmark's own code: every check rejects a corrupted answer,
and the tracer wraps a function at every name it is imported under.

    python3 -m pytest -q bench
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import corpus  # noqa: E402
from checks import CheckFailed  # noqa: E402

import planarize.dualize  # noqa: E402
import planarize.jetplan  # noqa: E402
from planarize.poly import HPoly, reduce_map  # noqa: E402

SEED = 5


def ratmap(F):
    deg = sum(next(iter(F[0])))
    return reduce_map([HPoly(3, deg, c) for c in F])


def generic(label, degree, target_dim):
    return corpus.random_map(corpus.rng_for(SEED, label), degree, target_dim)


def bumped(F, index=0, by=1):
    """F with one coefficient of component `index` changed."""
    G = [dict(c) for c in F]
    e = min(G[index])
    G[index][e] = G[index][e] + by
    return G


def test_dual_check_rejects_perturbed_coefficient():
    F = generic("dual", 2, 3)
    D = checks.terms_of(planarize.dualize.dual_map(ratmap(F), seed=SEED))
    checks.check_dual(F, D, SEED)
    with pytest.raises(CheckFailed):
        checks.check_dual(F, bumped(D, 2), SEED)


def test_dual_degree_bound():
    F = generic("dual", 2, 3)
    checks.check_dual_degree(checks.terms_of(planarize.dualize.dual_map(ratmap(F))), 3)
    with pytest.raises(CheckFailed):
        checks.check_dual_degree([{(4, 0, 0): 1}, {(0, 4, 0): 1}, {(0, 0, 4): 1}, {(2, 2, 0): 1}], 3)


def test_cotrivial_check_rejects_wrong_centre():
    rng = corpus.rng_for(SEED, "cotrivial")
    A = corpus.collineation(rng)
    T = corpus.collineation(rng, size=4, lo=-2, hi=2)
    F = corpus.apply_target(T, corpus.compose(corpus.SEGRE, corpus.linear_map(A)))
    verdict = planarize.dualize.classify(ratmap(F), seed=SEED)
    checks.check_cotrivial(verdict.center.coords, T)
    with pytest.raises(CheckFailed):
        checks.check_cotrivial([row[2] for row in T], T)


def test_trivial_check_rejects_wrong_witness():
    F = [{(2, 0, 0): 1}, {(1, 1, 0): 1}, {(2, 0, 0): 2, (1, 1, 0): -1}]
    checks.check_trivial((2, -1, -1), F)
    with pytest.raises(CheckFailed):
        checks.check_trivial((2, -1, 1), F)


def test_span_bound_rejects_indeterminate_on_a_planarization():
    checks.check_not_planar("Indeterminate", generic("q5", 2, 5), SEED)
    checks.check_not_planar("Indeterminate", generic("c3", 3, 3), SEED)
    with pytest.raises(CheckFailed):
        checks.check_not_planar("Indeterminate", generic("q3", 2, 3), SEED)
    with pytest.raises(CheckFailed):
        checks.check_not_planar("Rational", generic("c3", 3, 3), SEED)


def test_model_check_rejects_model_off_by_one_term():
    F = generic("model", 2, 3)
    checks.check_model([{e: 3 * c for e, c in comp.items()} for comp in F], F)
    G = [dict(c) for c in F]
    G[1][(0, 0, 2)] = G[1].get((0, 0, 2), 0) + 1
    with pytest.raises(CheckFailed):
        checks.check_model(G, F)


def test_fit_report_check_rejects_residual_and_node_count():
    F = generic("model", 2, 3)
    report = {"map": corpus.map_json(F), "residuals": {"max_cross_residual": 0.0, "nodes_checked": 121}}
    checks.check_fit_report(report, F, 121)
    with pytest.raises(CheckFailed):
        checks.check_fit_report(report, F, 120)
    report["residuals"]["max_cross_residual"] = 1e-30
    with pytest.raises(CheckFailed):
        checks.check_fit_report(report, F, 121)


def test_plane_checks_reject_wrong_plane():
    R = corpus.rotation(corpus.rng_for(SEED, "plane"))
    plane = corpus.plane_of_rotated_equator(R)
    checks.check_plane(plane, plane)
    with pytest.raises(CheckFailed):
        checks.check_plane((1, *plane[1:]), plane)
    fn = corpus.great_circle_float_fn(R)
    samples = [fn(k / 10.0, k / 7.0) for k in range(10)]
    checks.check_float_plane(plane, samples, 1e-9)
    with pytest.raises(CheckFailed):
        checks.check_float_plane((plane[0], plane[1] + Fraction(1, 1000), *plane[2:]), samples, 1e-9)


def test_quadric_check_rejects_wrong_quadric():
    comp = corpus.compose(corpus.CIRCLE_WEB, corpus.INVERSION)
    checks.check_quadric(corpus.CIRCLE_QUADRIC, corpus.CIRCLE_WEB, comp)
    wrong = dict(corpus.CIRCLE_QUADRIC)
    wrong[(0, 2, 0, 0)] = -2
    with pytest.raises(CheckFailed):
        checks.check_quadric(wrong, corpus.CIRCLE_WEB, comp)


def test_in_conic_check_rejects_wrong_member():
    checks.check_in_conic(corpus.IN_CONIC_MEMBER, corpus.CIRCLE_WEB, corpus.IN_CONIC)
    with pytest.raises(CheckFailed):
        checks.check_in_conic((1, 0, 0, 1), corpus.CIRCLE_WEB, corpus.IN_CONIC)


def test_inverse_check_rejects_wrong_inverse():
    # the inversion is its own inverse; the Cremona map is not its inverse
    checks.check_inverse(corpus.INVERSION, corpus.INVERSION, SEED)
    cremona = [{(0, 1, 1): 1}, {(1, 0, 1): 1}, {(1, 1, 0): 1}]
    with pytest.raises(CheckFailed):
        checks.check_inverse(cremona, corpus.INVERSION, SEED)


def test_relation_check_rejects_relation_of_too_high_degree():
    checks.check_relation(corpus.CIRCLE_WEB, 2, corpus.CIRCLE_QUADRIC)
    higher = corpus.p_mul(corpus.CIRCLE_QUADRIC, {(1, 0, 0, 0): 1})
    with pytest.raises(CheckFailed):
        checks.check_relation(corpus.CIRCLE_WEB, 3, higher)
    with pytest.raises(CheckFailed):
        checks.check_relation(corpus.CIRCLE_WEB, 2, {(1, 0, 0, 1): 1, (0, 2, 0, 0): -1})


def test_tracer_wraps_every_import_site_and_restores_it():
    from tracing import Tracer

    original = planarize.jetplan.nondegenerate_at
    M = ratmap(generic("trace", 2, 3))
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = planarize.dualize.nondegenerate_at
        assert wrapped is planarize.jetplan.nondegenerate_at
        assert wrapped.__wrapped__ is original
        planarize.dualize.classify(M, seed=SEED)
    finally:
        tracer.uninstall()
    assert planarize.dualize.nondegenerate_at is original
    stats = tracer.snapshot()
    assert stats["jetplan.nondegenerate_at.calls"] >= 1
    assert stats["jetplan.nondegenerate_at.accepted"] >= 1
    assert stats["dualize.classify.calls"] == 1
    assert 0 < stats["dualize.classify.self_s"]
    assert tracer.spans and tracer.spans[0][0] == "dualize.classify"
