"""Rational interpolation from exact samples.

fit_uni recovers a bounded-degree univariate rational function from 2d+1
nodes by solving the linearized homogeneous system p(u) - f(u) q(u) = 0 and
validating on every spare node.  fit_bi lifts this to two variables in two
independent ways (one reduced fit per line, whose coefficients are again
rational in the line parameter, and a direct bivariate nullspace fit) and
insists the routes agree.  Both routes and the full-grid validation share
one read of the grid and one sample check.

fit_map fits a whole projective map in one piece, not component by
component: for k = 0, 1, ..., d it solves one integer system for the map
G of degree k with G(x) parallel to the sample at each node, on the first
2k+1 evaluable nodes of the first 2k+1 lattice rows (enough to certify a
degree-k answer), checks the reduced solution in integers at every
evaluable lattice node, and validates the accepted model the same way at
20 held-out points.

Samples are used in integers through poly's evaluation kernel: a node is
integer coordinates X over their common denominator L, each linear-system
row is scaled by L^d and by the value's (positive) denominator, and the
sample check compares p and q at X with every denominator cleared.

All fitting here is exact: data either comes from a rational function of
the stated degree or the fit is rejected (DegreeTooLow).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from . import projcore, univar
from .jetplan import ChartOverflow, GridMapSource
from .poly import (
    HPoly,
    PolyDict,
    RatMap,
    coef_div,
    p_canonical,
    p_eval,
    p_mul,
    p_sub,
    p_total_degree,
    reduce_map,
    _int_terms,
    _monomial_values,
    _p_eval_int,
    _p_from_univar,
)
from .seeding import stable_rng


class DegreeTooLow(ValueError):
    """The samples are inconsistent with a rational function of this degree."""


class AmbiguousFit(ValueError):
    """The fit system left genuinely inequivalent candidates (add nodes)."""


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


def _solve_linearized(pairs: Sequence, d: int) -> tuple[list, list]:
    """First nullspace element of p(u_i) - f_i q(u_i) = 0 on 2d+1 nodes,
    as (raw numerator, raw denominator).  Row i is the equation times
    L_i^d f_i.den for the node u_i = U_i / L_i, so it is integer; the
    factor is positive and leaves the nullspace unchanged."""
    exps = [(k,) for k in range(d + 1)]
    rows = []
    for u, f in pairs[: 2 * d + 1]:
        w = _monomial_values(exps, [u.numerator], u.denominator, d)
        rows.append([f.denominator * x for x in w] + [-f.numerator * x for x in w])
    basis = projcore.nullspace(rows)
    if not basis:
        raise DegreeTooLow("linearized system has no nonzero solution")
    praw = univar.trim(list(basis[0][: d + 1]))
    qraw = univar.trim(list(basis[0][d + 1 :]))
    return praw, qraw


def _check_samples(samples: Sequence, p: PolyDict, q: PolyDict, what: str = "") -> None:
    """Every (node, value) sample equals p/q at its node, and where q
    vanishes p vanishes too.  A univariate node is named `node u`, a grid
    node by its pair (u, v); `what` prefixes the message.

    The test runs in integers: with p = P / m_p, q = Q / m_q, the node
    X / L and D = max(deg p, deg q), write P_L = L^D P(X / L) and likewise
    Q_L; then p = val q reads P_L m_q val.den = val.num Q_L m_p."""
    P, m_p = _int_terms(p)
    Q, m_q = _int_terms(q)
    D = max(p_total_degree(p), p_total_degree(q), 0)
    for node, val in samples:
        tup = isinstance(node, tuple)
        X, L = projcore._cleared(node if tup else (node,))
        qv = _p_eval_int(Q, X, L, D)
        pv = _p_eval_int(P, X, L, D)
        where = node if tup else f"node {node}"
        if qv == 0:
            if pv != 0:
                raise DegreeTooLow(f"{what}pole mismatch at {where}")
        elif pv * m_q * val.denominator != val.numerator * qv * m_p:
            raise DegreeTooLow(f"{what}residual at {where}")


def fit_uni(samples, d: int) -> UniRat:
    """Fit a degree-<=d rational function through exact samples.

    Needs at least 2d+1 distinct nodes; the first 2d+1 build the linear
    system, every remaining node validates the raw solution.  The reduced
    (coprime, monic-denominator) function is returned.
    """
    pairs = list(SampleSet.of(samples)) if not isinstance(samples, SampleSet) else list(samples)
    if len(pairs) < 2 * d + 1:
        raise ValueError(f"need at least {2 * d + 1} nodes for degree {d}")
    praw, qraw = _solve_linearized(pairs, d)
    if not qraw:
        # q == 0 forces p == 0 on 2d+1 > d nodes, impossible for a nonzero vector
        raise AmbiguousFit("denominator vanished identically")
    # before the gcd, a common root of the raw solution makes both vanish
    _check_samples(pairs, _p_from_univar(praw, 0, 1), _p_from_univar(qraw, 0, 1))
    g = univar.gcd(praw, qraw)
    if univar.degree(g) > 0:
        praw = univar.divexact(praw, g)
        qraw = univar.divexact(qraw, g)
    # the gcd kernel returns ints, and int / int would be a float
    lead = qraw[-1]
    praw = [Fraction(c) / lead for c in praw]
    qraw = [Fraction(c) / lead for c in qraw]
    return UniRat(tuple(praw), tuple(qraw))


# ---------------------------------------------------------------------------
# bivariate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiRat:
    """Bivariate rational function in exponent-dict form (reduced from fit_bi)."""

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


def _nodes(base: Sequence, extra: int) -> Iterator:
    """The base nodes, then the next `extra` integers, all above every base
    node (int() truncates, so max(int(x)) + 1 exceeds each x)."""
    yield from base
    start = max((int(x) for x in base), default=0) + 1
    for k in range(start, start + extra):
        yield Fraction(k)


def _gather_line(f: Callable, c: Fraction, u_nodes: Sequence, want: int, d: int):
    """Collect `want` pole-free nodes on the line v = c, replacing failures
    with the next integers."""
    pairs = []
    for u in _nodes(u_nodes, 4 * (d + 2)):
        if len(pairs) >= want:
            break
        val = f(u, c)
        if val is not None:
            pairs.append((Fraction(u), Fraction(val)))
    return pairs


def fit_bi(
    f: Callable,
    d: int,
    u_nodes: Optional[Sequence] = None,
    v_nodes: Optional[Sequence] = None,
) -> BiRat:
    """Reconstruct a bivariate rational function of total degree <= d.

    The evaluator returns an exact value or None at a pole.  Stage one fits
    each horizontal line v = c once; lines whose restriction degenerates
    (poles everywhere, or degree below the generic line degree d_u) are
    skipped and replaced.  After a common projective normalization at a
    probe node, each coefficient is itself a degree-<=d rational function of
    c (stage two).  The probe always exists: the kept lines' denominators
    are nonzero of degree <= d_u, so together they have at most lines * d_u
    roots, and the u nodes are searched followed by lines * d_u + 1 further
    integers.  A direct two-variable nullspace fit over the same grid
    samples cross-checks the result; the routes must agree projectively.
    """
    base_u = list(u_nodes) if u_nodes is not None else _default_nodes(d)
    base_v = list(v_nodes) if v_nodes is not None else _default_nodes(d)
    want_lines = 4 * d + 3
    want_nodes = min(len(base_u), 4 * d + 3)

    # stage 0: reduced per-line fits establish the generic line degree
    lines = []
    for c in _nodes(base_v, 4 * (d + 2)):
        if len(lines) >= want_lines:
            break
        c = Fraction(c)
        pairs = _gather_line(f, c, base_u, want_nodes, d)
        if len(pairs) < 2 * d + 1:
            continue
        fit = fit_uni(pairs, d)  # DegreeTooLow propagates: not rational on a line
        lines.append((c, pairs, fit))
    if len(lines) < 2 * d + 2:
        raise DegreeTooLow("too few usable lines")
    d_u = max(fit.degree for _, _, fit in lines)
    kept = [(c, pairs, fit) for c, pairs, fit in lines if fit.degree == d_u]
    if len(kept) < 2 * d + 2:
        raise DegreeTooLow("generic line degree reached on too few lines")

    # stage 1: every solution of degree <= d_u through 2 d_u + 1 nodes of a
    # line is a scalar multiple of its reduced fit, and the probe
    # normalization cancels that scale, so the reduced fit is the line's
    # solution.  Coprime num and den never vanish together, so the check
    # rejects any node at a pole of the reduced fit.
    raw = []
    for c, pairs, fit in kept:
        num, den = list(fit.num), list(fit.den)
        _check_samples(pairs, _p_from_univar(num, 0, 1), _p_from_univar(den, 0, 1))
        num += [Fraction(0)] * (d_u + 1 - len(num))
        den += [Fraction(0)] * (d_u + 1 - len(den))
        raw.append((c, num, den))

    # probe node: every line's denominator must be nonzero there
    probe = next(
        Fraction(u)
        for u in _nodes(base_u, len(raw) * d_u + 1)
        if all(univar.evaluate(den, u) != 0 for _, _, den in raw)
    )

    # stage 2: each coefficient slot is rational of degree <= d in c.  As in
    # stage 1, the reduced fit is checked, so it has no pole at a kept line
    # and takes its sample there.
    slot_fits = []
    for slot in range(2 * (d_u + 1)):
        samples = []
        for c, num, den in raw:
            scale = Fraction(1) / univar.evaluate(den, probe)
            coef = (num[slot] if slot <= d_u else den[slot - d_u - 1]) * scale
            samples.append((c, coef))
        sf = fit_uni(samples, d)
        _check_samples(samples, _p_from_univar(list(sf.num), 0, 1), _p_from_univar(list(sf.den), 0, 1))
        slot_fits.append(sf)

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
    scale_ref = p_canonical(den_bi)
    lead = max(den_bi)
    s = coef_div(scale_ref[lead], den_bi[lead])
    num_bi = {e: c * s for e, c in num_bi.items()}
    den_bi = scale_ref
    result = BiRat(num_bi, den_bi)
    if result.degree > d:
        raise DegreeTooLow(f"assembled degree {result.degree} exceeds bound {d}")
    # The pair P = num_bi, Q = den_bi needs no reduction: it is coprime.
    # Each slot fit N_s / Q_s takes its sample at every kept line c, so D(c)
    # != 0 and (P, Q)(u, c) is a nonzero multiple of the line's coprime fit.
    # * Q(probe, c) = D(c): the den slots at the probe sum to 1 at every kept
    #   line; deg Q <= d (checked above), and deg D <= d + deg Q_s <= 2d, as the
    #   coefficient N_s D / Q_s of a nonzero slot has degree <= d; and there
    #   are at least 2d + 2 kept lines.
    # * No factor h(c) alone: if h divides D, the slot whose Q_s holds the
    #   highest power of h has a coefficient N_s D / Q_s prime to h;
    #   otherwise h divides every N_s, so h divides Q(probe, c) = D.
    # * No factor g involving u: at each kept line g(u, c) divides a coprime
    #   pair, so it is constant in u; each u^k-coefficient of g, k >= 1, has
    #   degree <= d and vanishes at 2d + 2 points, so it is zero.

    # one read of the grid serves the full validation (it covers the lines
    # skipped above) and the direct route
    grid = []
    for v in base_v:
        for u in base_u:
            node = (Fraction(u), Fraction(v))
            val = f(*node)
            if val is not None:
                grid.append((node, Fraction(val)))
    _check_samples(grid, num_bi, den_bi)

    direct = _fit_bi_direct(grid, d)
    cross = p_sub(p_mul(result.num, direct.den), p_mul(direct.num, result.den))
    if cross:
        raise AmbiguousFit("two-stage and direct fits disagree")
    return result


def _fit_bi_direct(grid: Sequence, d: int) -> BiRat:
    """One-shot bivariate nullspace fit over every evaluable grid sample,
    not reduced."""
    monos = [(i, j) for i in range(d + 1) for j in range(d + 1 - i) if i + j <= d]
    monos.sort()
    if len(grid) < 2 * len(monos):
        raise DegreeTooLow("too few samples for the direct fit")
    rows = []
    for node, val in grid:
        X, L = projcore._cleared(node)
        w = _monomial_values(monos, X, L, d)
        rows.append([val.denominator * x for x in w] + [-val.numerator * x for x in w])
    basis = projcore.nullspace(rows)
    if not basis:
        raise DegreeTooLow("direct fit: no rational function of this degree")
    vec = basis[0]
    num = {m: c for m, c in zip(monos, vec[: len(monos)]) if c}
    den = {m: c for m, c in zip(monos, vec[len(monos) :]) if c}
    if not den:
        raise DegreeTooLow("direct fit denominator vanished")
    _check_samples(grid, num, den, "direct fit ")
    # its one use, the cross-check, is blind to a common factor of num and den
    return BiRat(num, den)


# ---------------------------------------------------------------------------
# whole-map fitting
# ---------------------------------------------------------------------------


def fit_map(source, d: int, seed: int = 0) -> RatMap:
    """Reconstruct a rational map RP^2 -> RP^n from a sampled source.

    The components are fitted together as one projective map.  For k = 0,
    1, ..., d one integer system asks for a map G of degree k with G(x)
    parallel to the sample Y at each node x: Y_c G_i(x) - Y_i G_c(x) = 0
    for every i != c, c the chart of the node (its largest |Y_c|).  It is
    built on the first 2k+1 evaluable nodes of the first 2k+1 lattice rows
    that have that many, which certifies the answer: two degree-k maps
    that agree there have 2x2 minors of degree <= 2k vanishing on 2k+1
    points of 2k+1 rows, so the minors are 0 and the maps are equal.  The
    first nullspace vector is reduced, and the reduced model is checked in
    integers at every evaluable node of the lattice; if some node fails,
    no map of degree k fits and the search goes on to k + 1.

    AmbiguousFit is never raised.  A nullspace of more than one dimension
    is made of h * G' for the forms h through some nodes, and it arises
    when G' fails at those nodes; its reduced first vector then fails the
    lattice check and the search goes on, ending in DegreeTooLow.  A
    reduced model that passes the check spans the one-dimensional
    nullspace at its own degree, where the search stops first.

    The accepted model is validated by the same integer check at 20
    held-out points: lattice draws for a grid, off-lattice rationals the
    fit never read for other sources; a draw where the model vanishes is
    skipped.  Every read of the source goes through one table, so
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
    # the evaluable nodes of each lattice row
    rows = [[n for n in (_node(evaluate, u, v) for u in u_nodes) if n] for v in v_nodes]
    nodes = [node for row in rows for node in row]
    if not nodes:
        raise ChartOverflow("no evaluable sample found")
    n1 = len(nodes[0][2])

    for k in range(d + 1):
        G = _solve_projective(rows, k, n1)
        if G is None:
            continue
        model = reduce_map(G)
        comps = [c.terms for c in model.components]
        if all(_parallel(comps, model.degree, node) for node in nodes):
            break
    else:
        raise DegreeTooLow(f"no map of degree <= {d} fits the lattice samples")

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
        node = _node(evaluate, u, v)
        if node is None:
            continue
        X, L = node[:2]
        if not any(_p_eval_int(a, (L, *X), 1, model.degree) for a in comps):
            continue  # the model vanishes here
        if not _parallel(comps, model.degree, node):
            raise DegreeTooLow("held-out validation failed")
        checked += 1
    if checked == 0:
        raise ChartOverflow("validation found no evaluable points")
    return model


def _node(evaluate: Callable, u, v) -> Optional[tuple]:
    """The node (u, v) as (X, L, Y, c): the node X / L in integers, its
    value cleared to the integer vector Y and its chart c, the first index
    of largest |Y_c|; None if the value is None or all zeros."""
    y = evaluate(u, v)
    if y is None:
        return None
    Y, _ = projcore._cleared(y)
    if not any(Y):
        return None
    X, L = projcore._cleared((u, v))
    return X, L, Y, max(range(len(Y)), key=lambda i: (abs(Y[i]), -i))


def _solve_projective(rows: Sequence, k: int, n1: int) -> Optional[list]:
    """The first nullspace vector of the degree-k system on the certificate
    nodes, as n1 forms of degree k in (x0, x1, x2), or None if it has none.
    Node X / L is the point (L, X) and a monomial x0^(k-i-j) x1^i x2^j is
    L^(k-i-j) X^(i, j) there."""
    need = 2 * k + 1
    cert = [row[:need] for row in rows if len(row) >= need][:need]
    if len(cert) < need:
        raise DegreeTooLow(f"fewer than {need} lattice rows with {need} evaluable nodes")
    monos = [(i, j) for i in range(k + 1) for j in range(k + 1 - i)]
    m = len(monos)
    system = []
    for X, L, Y, c in (node for row in cert for node in row):
        w = _monomial_values(monos, X, L, k)
        for i in range(n1):
            if i == c:
                continue
            eq = [0] * (n1 * m)
            eq[i * m : (i + 1) * m] = [Y[c] * x for x in w]
            eq[c * m : (c + 1) * m] = [-Y[i] * x for x in w]
            system.append(eq)
    basis = projcore.nullspace(system)
    if not basis:
        return None
    vec = basis[0]
    return [
        HPoly(3, k, {(k - i - j, i, j): vec[b * m + t] for t, (i, j) in enumerate(monos)})
        for b in range(n1)
    ]


def _parallel(comps: Sequence[PolyDict], D: int, node) -> bool:
    """The int-coefficient forms of degree D are parallel to the sample Y at
    the node (or all vanish there): Y_c G_i(x) = Y_i G_c(x) for every i."""
    X, L, Y, c = node
    G = [_p_eval_int(a, (L, *X), 1, D) for a in comps]
    return all(Y[c] * g == y * G[c] for g, y in zip(G, Y))
