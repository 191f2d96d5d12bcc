"""Acceptance gate: the ten theorem-anchored criteria, exact tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import itertools
import time
from fractions import Fraction

import sympy

from planarize import projcore, univar
from planarize.cli import generate_map
from planarize.conicweb import (
    InCircle,
    Quadratic,
    QuadricFactor,
    ConicSystem,
    circle_web,
    classify_web,
    invert_via_net,
    khovanskii_classify,
    phi_map,
)
from planarize.dualize import CoTrivial, Rational, Trivial, classify, dual_map
from planarize.jetplan import CallableSource, ExactMapSource, jet_of, omega
from planarize.poly import (
    HPoly,
    RatMap,
    implicitize,
    reduce_map,
    variables,
    p_mul,
    p_sub,
)
from planarize.projcore import PPoint
from planarize.ratfit import fit_bi, fit_uni
from planarize.seeding import stable_rng

X0, X1, X2 = variables(3)
INVERSION = reduce_map([X1 * X1 + X2 * X2, X0 * X1, X0 * X2])
SEGRE = reduce_map([X0 * X0, X0 * X1, X0 * X2, X1 * X2])


def report(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def generic_quadratics():
    """Seeds 1..10, rejecting maps that classify Trivial/CoTrivial."""
    out = []
    for seed in range(1, 11):
        for attempt in range(8):
            m = generate_map(seed if attempt == 0 else seed * 1009 + attempt, 2, 3)
            verdict = classify(m, seed=seed)
            if isinstance(verdict, Rational):
                out.append((seed, m))
                break
    return out


_CACHE = {}


def criterion1_maps():
    if "maps" not in _CACHE:
        _CACHE["maps"] = generic_quadratics()
    return _CACHE["maps"]


def test_criterion_1_cubic_duals():
    t0 = time.time()
    maps = criterion1_maps()
    assert len(maps) == 10
    duals = {}
    exactly_three = 0
    for seed, m in maps:
        fh = dual_map(m, seed=seed)
        duals[seed] = fh
        assert fh.degree <= 3
        if fh.degree == 3:
            exactly_three += 1
    _CACHE["duals"] = duals
    elapsed = time.time() - t0
    report(
        1,
        exactly_three >= 8 and elapsed < 60.0,
        f"dual degrees <= 3 for 10 seeded quadratics, == 3 for {exactly_three} "
        f"(need >= 8), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_degree_bound():
    failures = 0
    points = [
        (Fraction(2 * i + 1, 10) + Fraction(1, 7), Fraction(2 * j + 1, 10) + Fraction(1, 11))
        for i in range(5)
        for j in range(5)
    ]
    cases = 0
    for n in (3, 4):
        bound = n * (n - 1) // 2
        for d in range(1, n):
            for pick in (0, 1):
                m = generate_map(500 + 10 * n + 2 * d + pick, d, n)
                src = ExactMapSource(m)
                for a in points:
                    try:
                        om = omega(jet_of(src, a, n - 1))
                    except Exception:
                        failures += 1
                        continue
                    cases += 1
                    if om.degree > bound:
                        failures += 1
    report(2, failures == 0, f"omega degree <= n(n-1)/2 over {cases} jets (n = 3, 4), 0 failures")


def test_criterion_3_biduality():
    maps = criterion1_maps()
    duals = _CACHE.get("duals") or {seed: dual_map(m, seed=seed) for seed, m in maps}
    checked_maps = 0
    for seed, m in maps:
        fhh = dual_map(duals[seed], seed=seed)
        rng = stable_rng(seed, "acc_bidual")
        checked = 0
        while checked < 20:
            x = tuple(rng.randint(-9, 9) for _ in range(3))
            if x == (0, 0, 0):
                continue
            a = m.evaluate(x)
            b = fhh.evaluate(x)
            if a is None or b is None:
                continue
            for i in range(4):
                for j in range(i + 1, 4):
                    assert a[i] * b[j] == a[j] * b[i]
            checked += 1
        checked_maps += 1
    report(3, checked_maps >= 8, f"bidual equals original at 20 points for {checked_maps} maps")


def test_criterion_4_span_bound():
    rng = stable_rng(4, "acc_span")
    total = 0
    equal = 0
    while total < 30:
        d = rng.randint(1, 3)
        n = rng.randint(d, 5)
        comps = []
        for _ in range(n + 1):
            terms = {(d - j, j): Fraction(rng.randint(-9, 9)) for j in range(d + 1)}
            comps.append(HPoly(2, d, {e: c for e, c in terms.items() if c}))
        if all(c.is_zero for c in comps):
            continue
        s = projcore.rank([[c.terms.get((d - j, j), 0) for c in comps] for j in range(d + 1)])
        assert s <= d + 1
        if s == d + 1:
            equal += 1
        total += 1
    report(4, equal >= 25, f"span <= d+1 for 30 seeded tuples, equality in {equal} (need >= 25)")


def _plant_unirat(rng, d):
    while True:
        p = [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)]
        q = [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)]
        p, q = univar.trim(p), univar.trim(q)
        if not p or not q or max(univar.degree(p), univar.degree(q)) != d:
            continue
        g = univar.gcd(p, q)
        if univar.degree(g) > 0:
            p, q = univar.divexact(p, g), univar.divexact(q, g)
            if max(univar.degree(p), univar.degree(q)) != d:
                continue
        return p, q


def _to_sympy_uv(a):
    u, v = sympy.symbols("u v")
    return sum(sympy.Rational(c.numerator, c.denominator) * u**i * v**j for (i, j), c in a.items())


def test_criterion_5_rational_fitting():
    # 50 planted univariate recoveries per degree
    for d in (1, 2, 3):
        rng = stable_rng(d, "acc_uni")
        for _ in range(50):
            p, q = _plant_unirat(rng, d)
            samples = []
            node = 0
            while len(samples) < 2 * d + 1:
                qv = univar.evaluate(q, node)
                if qv != 0:
                    samples.append((Fraction(node), univar.evaluate(p, node) / qv))
                node += 1
            got = fit_uni(samples, d)
            lhs = univar.mul(list(got.num), q)
            rhs = univar.mul(list(got.den), p)
            assert univar.sub(lhs, rhs) == []
    # 10 planted bivariate recoveries, each fitted by fit_map as the graph map [1 : f]
    rng = stable_rng(55, "acc_bi")
    recovered = 0
    while recovered < 10:
        monos = [(i, j) for i in range(3) for j in range(3 - i)]
        num = {m: Fraction(rng.randint(-5, 5)) for m in monos}
        den = {m: Fraction(rng.randint(-5, 5)) for m in monos}
        num = {m: c for m, c in num.items() if c}
        den = {m: c for m, c in den.items() if c}
        if not num or not den:
            continue
        if sympy.gcd(_to_sympy_uv(num), _to_sympy_uv(den)).free_symbols:
            continue

        def f(u, v, num=num, den=den):
            from planarize.poly import p_eval

            qv = p_eval(den, [u, v])
            if qv == 0:
                return None
            return p_eval(num, [u, v]) / qv

        try:
            got = fit_bi(f, 2)
        except Exception:
            continue  # a pathological plant (e.g. denominator mostly zero)
        assert p_sub(p_mul(got.num, den), p_mul(got.den, num)) == {}
        recovered += 1
    report(5, True, "150 univariate and 10 bivariate planted functions recovered exactly")


def test_criterion_6_trichotomy():
    trivial = RatMap([X0 * X0, X0 * X1, X0 * X2, X0 * X0 + X0 * X1])
    v1 = classify(trivial)
    ok1 = isinstance(v1, Trivial)
    v2 = classify(SEGRE)
    ok2 = isinstance(v2, CoTrivial) and v2.center == PPoint.of(0, 0, 0, 1)
    ok3 = all(classify(m, seed=s) == Rational(2) for s, m in criterion1_maps())
    report(6, ok1 and ok2 and ok3, "Trivial / CoTrivial [0:0:0:1] / Rational(2) verdicts exact")


def test_criterion_7_web_pipeline():
    web = circle_web()
    phi = phi_map(web)
    out = implicitize(phi)
    y = variables(4)
    expected = (y[0] * y[3] - y[1] * y[1] - y[2] * y[2]).canonical()
    ok_imp = out is not None and out[0] == 2 and out[1] == expected
    verdict = classify_web(INVERSION, web)
    ok_case = isinstance(verdict, QuadricFactor)
    ok_identities = (
        ok_case
        and verdict.quadric.substitute(list(verdict.system_map.components)).is_zero
        and verdict.quadric.substitute(list(verdict.composite.components)).is_zero
    )
    report(7, ok_imp and ok_case and ok_identities,
           "circle-web implicitization degree 2 and inversion -> QuadricFactor with exact identities")


def test_criterion_8_net_inversion():
    net = ConicSystem([X1 * X1 + X2 * X2, X0 * X1, X0 * X2])
    W = invert_via_net(INVERSION, net)
    rng = stable_rng(8, "acc_net")
    checked = 0
    while checked < 20:
        x = tuple(rng.randint(-9, 9) for _ in range(3))
        if x == (0, 0, 0):
            continue
        fx = INVERSION.evaluate(x)
        if fx is None:
            continue
        wx = W.evaluate(fx)
        if wx is None:
            continue
        for i in range(3):
            for j in range(i + 1, 3):
                assert wx[i] * x[j] == wx[j] * x[i]
        checked += 1
    report(8, checked == 20, "net inverse satisfies W∘f = id at 20 validation points, exact")


def test_criterion_9_khovanskii():
    def stereo(u, v):
        u, v = Fraction(u), Fraction(v)
        s = u * u + v * v + 1
        return (2 * u / s, 2 * v / s, (u * u + v * v - 1) / s)

    verdict = khovanskii_classify(CallableSource(stereo, codim=3, mode="exact"))
    planted = reduce_map(
        [X0 * X0 + X1 * X1 + X2 * X2, 2 * X0 * X1, 2 * X0 * X2, X1 * X1 + X2 * X2 - X0 * X0]
    )
    ok_quad = isinstance(verdict, Quadratic) and verdict.map.projectively_equal(planted)

    def equator(u, v):
        t = Fraction(u) + Fraction(v) * Fraction(v)
        den = 1 + t * t
        return (Fraction(1 - t * t) / den, Fraction(2 * t) / den, Fraction(0))

    v2 = khovanskii_classify(CallableSource(equator, codim=3, mode="exact"))
    ok_circ = isinstance(v2, InCircle)
    report(9, ok_quad and ok_circ,
           "stereographic -> Quadratic with planted map; equator-valued -> InCircle")


def _planted_degenerate_trivial_maps():
    """Everywhere-degenerate maps whose image lies in a hyperplane:
    degree-1 embeddings and quadruples spanning a projective line."""
    maps = [
        reduce_map([X0, X1, X2, X1 + 2 * X2]),
        reduce_map([X0 + X1, X1 - X2, X0 + X2, 3 * X0]),
    ]
    rng = stable_rng(10, "acc_degenerate")
    monos = [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]
    while len(maps) < 5:
        q0 = HPoly(3, 2, {m: Fraction(rng.randint(-5, 5)) for m in monos})
        q1 = HPoly(3, 2, {m: Fraction(rng.randint(-5, 5)) for m in monos})
        q0 = HPoly(3, 2, {m: c for m, c in q0.terms.items() if c})
        q1 = HPoly(3, 2, {m: c for m, c in q1.terms.items() if c})
        if q0.is_zero or q1.is_zero:
            continue
        a, b, c, d = (rng.randint(1, 5) for _ in range(4))
        try:
            m = reduce_map([q0, q1, a * q0 + b * q1, c * q0 + d * q1])
        except Exception:
            continue
        if m.degree == 2:
            maps.append(m)
    return maps


def test_criterion_10_degeneracy_consistency():
    points = [
        (Fraction(2 * i + 1, 10) + Fraction(1, 13), Fraction(2 * j + 1, 10) + Fraction(1, 17))
        for i in range(5)
        for j in range(5)
    ]
    for m in _planted_degenerate_trivial_maps():
        src = ExactMapSource(m)
        n = m.codim
        for a in points:
            om = omega(jet_of(src, a, n - 1))
            assert om.is_zero
        verdict = classify(m)
        assert isinstance(verdict, Trivial)
    report(10, True, "5 planted degenerate hyperplane-image maps: omega ≡ 0 at 25 points, Trivial")
