"""Rational interpolation from exact samples.

fit_uni recovers a bounded-degree univariate rational function from 2d+1
nodes by solving the linearized homogeneous system p(u) - f(u) q(u) = 0 and
validating on every spare node.  fit_bi lifts this to two variables in two
independent ways (line-by-line fits whose coefficients are again rational in
the line parameter, and a direct bivariate nullspace fit) and insists the
routes agree.  fit_map applies fit_bi per affine component of a projective
map and reassembles the homogeneous result.

All fitting here is exact: data either comes from a rational function of
the stated degree or the fit is rejected (DegreeTooLow).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import projcore, univar
from .jetplan import ChartOverflow, GridMapSource
from .poly import (
    HPoly,
    PolyDict,
    RatMap,
    coef_div,
    p_canonical,
    p_divexact,
    p_eval,
    p_gcd,
    p_lcm,
    p_mul,
    p_sub,
    p_total_degree,
    reduce_map,
)
from .seeding import stable_rng


class DegreeTooLow(ValueError):
    """The samples are inconsistent with a rational function of this degree."""


class AmbiguousFit(ValueError):
    """The fit system left genuinely inequivalent candidates (add nodes)."""


class NormalizationFailure(ValueError):
    """No probe node keeps every per-line denominator nonzero."""


@dataclass(frozen=True)
class UniRat:
    """Reduced univariate rational function; denominator monic, coprime."""

    num: tuple
    den: tuple

    @property
    def degree(self) -> int:
        return max(univar.degree(list(self.num)), univar.degree(list(self.den)))

    def evaluate(self, x) -> Optional[Fraction]:
        q = univar.evaluate(list(self.den), x)
        if q == 0:
            return None
        return univar.evaluate(list(self.num), x) / q

    def __repr__(self):
        return f"UniRat(num={list(self.num)}, den={list(self.den)})"


@dataclass(frozen=True)
class SampleSet:
    """Distinct (node, value) pairs feeding a univariate fit."""

    pairs: tuple

    @classmethod
    def of(cls, pairs) -> "SampleSet":
        pairs = tuple((Fraction(u), Fraction(f)) for u, f in pairs)
        nodes = [u for u, _ in pairs]
        if len(set(nodes)) != len(nodes):
            raise ValueError("sample nodes must be distinct")
        return cls(pairs)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _solve_linearized(pairs: Sequence, d: int) -> tuple[int, list, list]:
    """First nullspace element of p(u_i) - f_i q(u_i) = 0 on 2d+1 nodes.

    Returns (nullspace dimension, raw numerator, raw denominator)."""
    rows = []
    for u, f in pairs[: 2 * d + 1]:
        pu = [u**k for k in range(d + 1)]
        rows.append(pu + [-f * u**k for k in range(d + 1)])
    basis = projcore.nullspace(rows)
    if not basis:
        raise DegreeTooLow("linearized system has no nonzero solution")
    praw = univar.trim(list(basis[0][: d + 1]))
    qraw = univar.trim(list(basis[0][d + 1 :]))
    return len(basis), praw, qraw


def _validate_raw(pairs: Sequence, praw: list, qraw: list) -> None:
    """Raw-solution validation: a vanishing denominator is accepted at a node
    only if the numerator vanishes there too (before gcd removal)."""
    for u, f in pairs:
        qv = univar.evaluate(qraw, u)
        pv = univar.evaluate(praw, u)
        if qv == 0:
            if pv != 0:
                raise DegreeTooLow(f"pole mismatch at node {u}")
        elif pv != f * qv:
            raise DegreeTooLow(f"residual at node {u}")


def fit_uni(samples, d: int) -> UniRat:
    """Fit a degree-<=d rational function through exact samples.

    Needs at least 2d+1 distinct nodes; the first 2d+1 build the linear
    system, every remaining node validates the raw solution.  The reduced
    (coprime, monic-denominator) function is returned.
    """
    pairs = list(SampleSet.of(samples)) if not isinstance(samples, SampleSet) else list(samples)
    if len(pairs) < 2 * d + 1:
        raise ValueError(f"need at least {2 * d + 1} nodes for degree {d}")
    _, praw, qraw = _solve_linearized(pairs, d)
    if not qraw:
        # q == 0 forces p == 0 on 2d+1 > d nodes, impossible for a nonzero vector
        raise AmbiguousFit("denominator vanished identically")
    _validate_raw(pairs, praw, qraw)
    g = univar.gcd(praw, qraw)
    if univar.degree(g) > 0:
        praw = univar.divexact(praw, g)
        qraw = univar.divexact(qraw, g)
    lead = qraw[-1]
    praw = [c / lead for c in praw]
    qraw = [c / lead for c in qraw]
    return UniRat(tuple(praw), tuple(qraw))


# ---------------------------------------------------------------------------
# bivariate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiRat:
    """Reduced bivariate rational function in exponent-dict form."""

    num: dict
    den: dict

    @property
    def degree(self) -> int:
        return max(p_total_degree(self.num), p_total_degree(self.den))

    def evaluate(self, u, v) -> Optional[Fraction]:
        q = p_eval(self.den, [u, v])
        if q == 0:
            return None
        return p_eval(self.num, [u, v]) / q


def _default_nodes(d: int) -> list[Fraction]:
    return [Fraction(k) for k in range(4 * d + 3)]


def _gather_line(f: Callable, c: Fraction, u_nodes: Sequence, want: int, d: int):
    """Collect `want` pole-free nodes on the line v = c, replacing failures
    with the next unused integers."""
    pairs = []
    used = set()
    for u in u_nodes:
        used.add(u)
        val = f(u, c)
        if val is not None:
            pairs.append((Fraction(u), Fraction(val)))
        if len(pairs) >= want:
            return pairs
    extra = max((int(u) for u in u_nodes), default=0) + 1
    budget = 4 * (d + 2)
    while len(pairs) < want and budget > 0:
        u = Fraction(extra)
        extra += 1
        budget -= 1
        if u in used:
            continue
        val = f(u, c)
        if val is not None:
            pairs.append((u, Fraction(val)))
    return pairs


def fit_bi(
    f: Callable,
    d: int,
    u_nodes: Optional[Sequence] = None,
    v_nodes: Optional[Sequence] = None,
) -> BiRat:
    """Reconstruct a bivariate rational function of total degree <= d.

    The evaluator returns an exact value or None at a pole.  Stage one fits
    each horizontal line v = c; lines whose restriction degenerates (poles
    everywhere, or degree below the generic line degree) are skipped and
    replaced.  After a common projective normalization at a probe node, each
    coefficient is itself a degree-<=d rational function of c (stage two).
    A direct two-variable nullspace fit cross-checks the result; the routes
    must agree projectively.  If the axes are unlucky, retry after a seeded
    affine change of the domain.
    """
    base_u = list(u_nodes) if u_nodes is not None else _default_nodes(d)
    base_v = list(v_nodes) if v_nodes is not None else _default_nodes(d)
    want_lines = 4 * d + 3
    want_nodes = min(len(base_u), 4 * d + 3)

    # stage 0: reduced per-line fits establish the generic line degree
    lines = []
    pool = list(base_v)
    extra = max((int(v) for v in base_v), default=0) + 1
    budget = len(base_v) + 4 * (d + 2)
    while len(lines) < want_lines and pool and budget > 0:
        c = Fraction(pool.pop(0))
        budget -= 1
        if not pool:
            pool = [Fraction(extra)]
            extra += 1
        pairs = _gather_line(f, c, base_u, want_nodes, d)
        if len(pairs) < 2 * d + 1:
            continue
        fit = fit_uni(pairs, d)  # DegreeTooLow propagates: not rational on a line
        lines.append((c, pairs, fit.degree))
    if len(lines) < 2 * d + 2:
        raise DegreeTooLow("too few usable lines")
    d_u = max(deg for _, _, deg in lines)
    kept = [(c, pairs) for c, pairs, deg in lines if deg == d_u]
    if len(kept) < 2 * d + 2:
        raise DegreeTooLow("generic line degree reached on too few lines")

    # stage 1: raw (unreduced) minimal-degree solutions, one scale per line
    raw = []
    for c, pairs in kept:
        dim, praw, qraw = _solve_linearized(pairs, d_u)
        if dim != 1 or not qraw:
            continue  # unexpected degeneracy: drop the line
        _validate_raw(pairs, praw, qraw)
        praw = praw + [Fraction(0)] * (d_u + 1 - len(praw))
        qraw = qraw + [Fraction(0)] * (d_u + 1 - len(qraw))
        raw.append((c, praw, qraw))
    if len(raw) < 2 * d + 2:
        raise DegreeTooLow("too few nondegenerate lines")

    # probe node: every line's raw denominator must be nonzero there
    probe = None
    for u in base_u:
        if all(univar.evaluate(qraw, u) != 0 for _, _, qraw in raw):
            probe = Fraction(u)
            break
    if probe is None:
        raise NormalizationFailure("no node keeps every line denominator nonzero")

    # stage 2: each coefficient slot is rational of degree <= d in c
    slot_fits = []
    for slot in range(2 * (d_u + 1)):
        samples = []
        for c, praw, qraw in raw:
            scale = Fraction(1) / univar.evaluate(qraw, probe)
            coef = (praw[slot] if slot <= d_u else qraw[slot - d_u - 1]) * scale
            samples.append((c, coef))
        slot_fits.append(fit_uni(samples, d))

    dens = [list(sf.den) for sf in slot_fits]
    D = [Fraction(1)]
    for q in dens:
        D = univar.lcm(D, q)
    num_bi: PolyDict = {}
    den_bi: PolyDict = {}
    for slot, sf in enumerate(slot_fits):
        coef_poly = univar.mul(list(sf.num), univar.divexact(D, list(sf.den)))
        target = num_bi if slot <= d_u else den_bi
        upow = slot if slot <= d_u else slot - d_u - 1
        for k, cc in enumerate(coef_poly):
            if cc:
                key = (upow, k)
                target[key] = target.get(key, Fraction(0)) + cc
    num_bi = {e: c for e, c in num_bi.items() if c}
    den_bi = {e: c for e, c in den_bi.items() if c}
    if not den_bi:
        raise DegreeTooLow("assembled denominator vanished")
    g = p_gcd(num_bi, den_bi)
    if p_total_degree(g) > 0:
        num_bi = p_divexact(num_bi, g)
        den_bi = p_divexact(den_bi, g)
    scale_ref = p_canonical(den_bi)
    lead = max(den_bi)
    s = coef_div(scale_ref[lead], den_bi[lead])
    num_bi = {e: c * s for e, c in num_bi.items()}
    den_bi = scale_ref
    result = BiRat(num_bi, den_bi)
    if result.degree > d:
        raise DegreeTooLow(f"assembled degree {result.degree} exceeds bound {d}")

    # full-grid validation, including lines skipped above
    for v in base_v:
        for u in base_u:
            val = f(Fraction(u), Fraction(v))
            if val is None:
                continue
            q = p_eval(den_bi, [Fraction(u), Fraction(v)])
            p = p_eval(num_bi, [Fraction(u), Fraction(v)])
            if q == 0:
                if p != 0:
                    raise DegreeTooLow(f"pole mismatch at {(u, v)}")
            elif p != val * q:
                raise DegreeTooLow(f"residual at {(u, v)}")

    direct = _fit_bi_direct(f, d, base_u, base_v)
    cross = p_sub(p_mul(result.num, direct.den), p_mul(direct.num, result.den))
    if cross:
        raise AmbiguousFit("two-stage and direct fits disagree")
    return result


def _fit_bi_direct(f: Callable, d: int, base_u, base_v) -> BiRat:
    """One-shot bivariate nullspace fit over every evaluable grid node."""
    monos = [(i, j) for i in range(d + 1) for j in range(d + 1 - i) if i + j <= d]
    monos.sort()
    rows = []
    samples = []
    for v in base_v:
        for u in base_u:
            val = f(Fraction(u), Fraction(v))
            if val is None:
                continue
            samples.append((Fraction(u), Fraction(v), val))
            uu, vv = Fraction(u), Fraction(v)
            row = [uu**i * vv**j for i, j in monos]
            row += [-val * uu**i * vv**j for i, j in monos]
            rows.append(row)
    if len(rows) < 2 * len(monos):
        raise DegreeTooLow("too few samples for the direct fit")
    basis = projcore.nullspace(rows)
    if not basis:
        raise DegreeTooLow("direct fit: no rational function of this degree")
    vec = basis[0]
    num = {m: c for m, c in zip(monos, vec[: len(monos)]) if c}
    den = {m: c for m, c in zip(monos, vec[len(monos) :]) if c}
    if not den:
        raise DegreeTooLow("direct fit denominator vanished")
    for u, v, val in samples:
        q = p_eval(den, [u, v])
        p = p_eval(num, [u, v])
        if q == 0:
            if p != 0:
                raise DegreeTooLow(f"direct fit pole mismatch at {(u, v)}")
        elif p != val * q:
            raise DegreeTooLow(f"direct fit residual at {(u, v)}")
    g = p_gcd(num, den)
    if p_total_degree(g) > 0:
        num = p_divexact(num, g)
        den = p_divexact(den, g)
    return BiRat(num, den)


# ---------------------------------------------------------------------------
# whole-map fitting
# ---------------------------------------------------------------------------


def fit_map(source, d: int, seed: int = 0) -> RatMap:
    """Reconstruct a rational map RP^2 -> RP^n from a sampled source.

    Each affine component (relative to the largest-coordinate chart at a
    base sample) is fitted with fit_bi; the components are put over a common
    denominator, homogenized, reduced, and validated projectively at 20
    held-out points.  Every read of the source goes through one table, so
    each distinct (u, v) is evaluated once per call.
    """
    if d < 0:
        raise ValueError(f"degree bound must be at least 0, got {d}")
    evaluate = functools.cache(source.evaluate)
    # only a grid is bound to its lattice; other sources are read anywhere
    lattice = (source.u_axis, source.v_axis) if isinstance(source, GridMapSource) else None
    if lattice is None:
        u_nodes = v_nodes = _default_nodes(d)
    elif min(len(lattice[0]), len(lattice[1])) < 4 * d + 3:
        raise DegreeTooLow(f"grid too small for degree {d}: need {4 * d + 3} nodes per axis")
    else:
        u_nodes, v_nodes = lattice
    base_val = None
    for v in v_nodes:
        for u in u_nodes:
            base_val = evaluate(u, v)
            if base_val is not None:
                break
        if base_val is not None:
            break
    if base_val is None:
        raise ChartOverflow("no evaluable sample found")
    chart = max(range(len(base_val)), key=lambda i: (abs(base_val[i]), -i))
    n1 = len(base_val)

    def component(i: int) -> Callable:
        def fi(u, v):
            y = evaluate(u, v)
            if y is None or y[chart] == 0:
                return None
            return Fraction(y[i]) / Fraction(y[chart])

        return fi

    fits = []
    for i in range(n1):
        if i == chart:
            continue
        fits.append((i, fit_bi(component(i), d, u_nodes, v_nodes)))

    D: PolyDict = {(0, 0): Fraction(1)}
    for _, fit in fits:
        D = p_lcm(D, fit.den)
    affine: dict[int, PolyDict] = {chart: D}
    for i, fit in fits:
        affine[i] = p_mul(fit.num, p_divexact(D, fit.den))
    E = max(p_total_degree(a) for a in affine.values() if a)
    comps = []
    for i in range(n1):
        terms = {}
        for (eu, ev), c in affine[i].items():
            terms[(E - eu - ev, eu, ev)] = c
        comps.append(HPoly(3, E, terms) if terms else HPoly.zero(3, E))
    model = reduce_map(comps)
    if model.degree > d:
        raise DegreeTooLow(f"fitted degree {model.degree} exceeds bound {d}")

    # held-out validation: a grid draws from its lattice, other sources get
    # off-lattice rationals never seen by the fit
    rng = stable_rng(seed, "fit_map_validate")
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 400:
        attempts += 1
        if lattice is not None:
            u = lattice[0][rng.randrange(len(lattice[0]))]
            v = lattice[1][rng.randrange(len(lattice[1]))]
        else:
            u = Fraction(rng.randint(0, 8 * d + 4), 2) + Fraction(1, 3)
            v = Fraction(rng.randint(0, 8 * d + 4), 2) + Fraction(1, 7)
        y = evaluate(u, v)
        if y is None:
            continue
        m = model.evaluate([Fraction(1), Fraction(u), Fraction(v)])
        if m is None:
            continue
        for i in range(n1):
            for j in range(i + 1, n1):
                if Fraction(y[i]) * m[j] != Fraction(y[j]) * m[i]:
                    raise DegreeTooLow("held-out validation failed")
        checked += 1
    if checked == 0:
        raise ChartOverflow("validation found no evaluable points")
    return model
