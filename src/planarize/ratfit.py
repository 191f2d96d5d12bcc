"""Rational interpolation from exact samples.

fit_map fits a whole projective map in one piece, not component by
component: for k = 0, 1, ..., d it solves one integer system for the map
G of degree k with G(x) parallel to the sample at each node, on the first
2k+1 evaluable nodes of the first 2k+1 lattice rows (enough to certify a
degree-k answer), and checks the reduced solution in integers on the block
of side k+d+2 (a grid at every evaluable lattice node).  A source that is
not a grid is read only as far as these blocks need, and the accepted
model is validated the same way at 20 held-out points.

A univariate rational function p / q is the map [q : p] from RP^1 to
RP^1, so fit_uni solves the same system on its first 2k+1 nodes and
checks the reduced solution at every node.  A bivariate rational function
P / Q is the map [Q : P] from the plane to RP^1, so fit_bi is fit_map of
the graph map [1 : f], read in the chart x0 = 1.

Samples are used in integers through poly's evaluation kernel: a node is
integer coordinates X over their common denominator L, and every sample
value is read as a positive multiple of itself with integer entries.  An
exact source is read in integers from the start: its components are
cleared once by one common multiplier m, and the node reads as
m L^d F(X / L) from one monomial table.  Other values are cleared of their
(positive) denominators, a grid's once per node in its own node table.
The model checks evaluate all components at a node from one plan.

All fitting here is exact: data either comes from a rational function of
the stated degree or the fit is rejected (DegreeTooLow).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import projcore, univar
from .jetplan import CallableSource, ChartOverflow, ExactMapSource, GridMapSource, _charted
from .poly import (
    HPoly,
    RatMap,
    coef_div,
    p_canonical,
    p_eval,
    reduce_map,
    _forms_eval_int,
    _forms_plan,
    _int_components,
    _monomial_values,
)
from .seeding import stable_rng


class DegreeTooLow(ValueError):
    """The samples are inconsistent with a rational function of this degree."""


@dataclass(frozen=True)
class UniRat:
    """Reduced univariate rational function; denominator monic, coprime."""

    num: tuple
    den: tuple

    def evaluate(self, x) -> Optional[Fraction]:
        q = univar.evaluate(list(self.den), x)
        if q == 0:
            return None
        return univar.evaluate(list(self.num), x) / q

    def __repr__(self):
        return f"UniRat(num={list(self.num)}, den={list(self.den)})"


def fit_uni(samples, d: int) -> UniRat:
    """Fit a degree-<=d rational function through exact samples.

    Needs at least 2d+1 distinct nodes.  p / q is the map [q : p] from RP^1,
    fitted on fit_map's kernel: for k = 0, 1, ..., d the degree-k system on
    the first 2k+1 nodes is solved (2k+1 equations in 2k+2 unknowns, so it
    always has a solution), its solution reduced, and the reduced model
    checked at every node.  Two functions of degree <= d that agree at 2d+1
    nodes are equal, so a model that passes is the sampled function.  If
    the model of degree d fails too, its first failing node is named: a
    pole mismatch where its denominator vanishes, a residual elsewhere.
    The reduced (coprime, monic-denominator) function is returned.
    """
    pairs = [(Fraction(u), Fraction(f)) for u, f in samples]
    if len({u for u, _ in pairs}) != len(pairs):
        raise ValueError("sample nodes must be distinct")
    if len(pairs) < 2 * d + 1:
        raise ValueError(f"need at least {2 * d + 1} nodes for degree {d}")
    # the node u is the point (1, u), and its value f the point (1, f)
    nodes = [_charted((u.denominator, u.numerator), [f.denominator, f.numerator]) for u, f in pairs]
    for k in range(d + 1):
        model = reduce_map(_solve_projective(nodes[: 2 * k + 1], k))
        plan = _forms_plan([c.terms for c in model.components])
        failed = next((node for node in nodes if not _parallel(_forms_eval_int(plan, node[0], 1, model.degree), node)), None)
        if failed is None:
            break
    else:
        (L, X), _, _ = failed
        what = "pole mismatch" if _forms_eval_int(plan, (L, X), 1, model.degree)[0] == 0 else "residual"
        raise DegreeTooLow(f"{what} at node {Fraction(X, L)}")
    q, p = (univar.trim([c.terms.get((model.degree - j, j), 0) for j in range(model.degree + 1)])
            for c in model.components)
    return UniRat(tuple(Fraction(c, q[-1]) for c in p), tuple(Fraction(c, q[-1]) for c in q))


# ---------------------------------------------------------------------------
# bivariate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiRat:
    """Bivariate rational function in exponent-dict form (reduced from fit_bi)."""

    num: dict
    den: dict

    def evaluate(self, u, v) -> Optional[Fraction]:
        q = p_eval(self.den, [u, v])
        if q == 0:
            return None
        return p_eval(self.num, [u, v]) / q


def fit_bi(f: Callable, d: int) -> BiRat:
    """Reconstruct a bivariate rational function of total degree <= d.

    The evaluator returns an exact value or None at a pole.  P / Q is the
    map [Q : P] from the plane to RP^1, so fit_map of the graph map [1 : f]
    fits it, with every check fit_map makes.  Its reduced components, read
    in the chart x0 = 1, are the coprime pair (Q, P), returned with Q
    p_canonical and P scaled by the same factor.
    """

    def graph(u, v):
        val = f(u, v)
        return None if val is None else (1, val)

    model = fit_map(CallableSource(graph, codim=1), d)
    Q, P = (dict(sorted((e[1:], c) for e, c in comp.terms.items())) for comp in model.components)
    den = p_canonical(Q)
    lead = max(Q)
    s = coef_div(den[lead], Q[lead])
    return BiRat({e: Fraction(c * s) for e, c in P.items()}, den)


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
    first nullspace vector is reduced and the reduced model is checked in
    integers; if some checked node fails, no map of degree k fits and the
    search goes on to k + 1.

    A source that is not a grid is checked on a block: the first k+d+2
    evaluable nodes of the first k+d+2 lattice rows that have that many.
    For a source of degree <= d this is a proof.  The minors
    G_i Y_j - G_j Y_i have degree <= k+d in the chart x0 = 1.  On each row
    v = v_r a minor that vanishes at k+d+1 nodes is a univariate
    polynomial of degree <= k+d with k+d+1 roots, so v - v_r divides it;
    k+d+1 rows give a divisor of degree k+d+1, so the minor is 0.  The
    block has one row and one column more than the proof needs: they
    guard a black box that is not of degree <= d, whose values the
    argument does not bind.
    A grid is not evaluated: the certificate blocks and the check walk its
    integer node table (`GridMapSource._node_table`) by index.  A grid
    keeps the check at every node, and so does any source whose lattice
    has fewer than k+d+2 rows with k+d+2 evaluable nodes.  The lattice of
    any other source has 4d+3 nodes per axis, and it is read on demand: a
    row, and a node within it, only as far as a block needs.

    A nullspace of more than one dimension is made of h * G' for the forms
    h through some nodes, and it arises when G' fails at those nodes; its
    reduced first vector then fails the check and the search goes on.  A
    reduced model that passes the check spans the one-dimensional
    nullspace at its own degree, where the search stops first.

    A grid's model has passed at every sample the grid holds, so it is
    returned.  A source read on demand has samples the fit never read, so
    its model is validated by the same integer check at 20 held-out
    points, off-lattice rationals; a draw where the model vanishes is
    skipped.  Every read of such a source goes through one table, so
    each distinct (u, v) is evaluated once per call.  An ExactMapSource is
    read in integers (`_exact_reader`), never through its `evaluate`; every
    check evaluates the model's components through one plan per degree.
    """
    if d < 0:
        raise ValueError(f"degree bound must be at least 0, got {d}")
    # only a grid is bound to its lattice, which it walks by index; other
    # sources are read anywhere
    grid = isinstance(source, GridMapSource)
    if grid:
        if min(len(source.u_axis), len(source.v_axis)) < 4 * d + 3:
            raise DegreeTooLow(f"grid too small for degree {d}: need {4 * d + 3} nodes per axis")
        table = source._node_table()
        u_nodes, v_nodes = range(len(source.u_axis)), range(len(source.v_axis))

        def node_at(iu, iv):
            return table[iv][iu]

    else:
        u_nodes = v_nodes = [Fraction(k) for k in range(4 * d + 3)]
        if isinstance(source, ExactMapSource):
            node_at = functools.cache(_exact_reader(source.ratmap))
        else:
            node_at = functools.cache(functools.partial(_node, source.evaluate))
    block = functools.partial(_block, node_at, u_nodes, v_nodes)
    if not block(1):
        raise ChartOverflow("no evaluable sample found")

    for k in range(d + 1):
        need = 2 * k + 1
        cert = block(need)
        if len(cert) < need:
            raise DegreeTooLow(f"fewer than {need} lattice rows with {need} evaluable nodes")
        G = _solve_projective([node for row in cert for node in row], k)
        if G is None:
            continue
        model = reduce_map(G)
        plan = _forms_plan([c.terms for c in model.components])
        side = k + d + 2
        rows = table if grid else block(side)
        if len(rows) < side:
            # a lattice with no such block: every lattice node
            rows = [[node_at(u, v) for u in u_nodes] for v in v_nodes]
        nodes = [node for row in rows for node in row if node]
        if all(_parallel(_forms_eval_int(plan, node[0], 1, model.degree), node) for node in nodes):
            break
    else:
        raise DegreeTooLow(f"no map of degree <= {d} fits the lattice samples")

    if grid:
        return model  # the check read every sample the grid holds
    # held-out validation at off-lattice rationals the fit never read
    rng = stable_rng(seed, "fit_map_validate")
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 400:
        attempts += 1
        u = Fraction(rng.randint(0, 8 * d + 4), 2) + Fraction(1, 3)
        v = Fraction(rng.randint(0, 8 * d + 4), 2) + Fraction(1, 7)
        node = node_at(u, v)
        if node is None:
            continue
        G = _forms_eval_int(plan, node[0], 1, model.degree)
        if not any(G):
            continue  # the model vanishes here
        if not _parallel(G, node):
            raise DegreeTooLow("held-out validation failed")
        checked += 1
    if checked == 0:
        raise ChartOverflow("validation found no evaluable points")
    return model


def _exact_reader(M: RatMap) -> Callable:
    """Read the exact map M at (u, v) in integers, as the node `_node`
    gives: the components are cleared once, by one common multiplier m, and
    the point u, v = X / L, cleared once, reads as Y = m L^d M(1, X / L), a
    positive multiple of the value."""
    plan = _forms_plan(_int_components(M.components))

    def read(u, v) -> Optional[tuple]:
        X, L = projcore._cleared((u, v))
        P = (L, *X)
        return _charted(P, _forms_eval_int(plan, P, 1, M.degree))

    return read


def _node(evaluate: Callable, u, v) -> Optional[tuple]:
    """The node (u, v) as (P, Y, c): P = (L, *X) the point (1, u, v) in
    integers, the value cleared to the integer vector Y and its chart c
    (`_charted`); None if the value is None or all zeros."""
    y = evaluate(u, v)
    if y is None:
        return None
    X, L = projcore._cleared((u, v))
    return _charted((L, *X), projcore._cleared(y)[0])


def _block(node_at: Callable, u_nodes: Sequence, v_nodes: Sequence, m: int) -> list:
    """The first m evaluable nodes of each of the first m lattice rows that
    have m, read row by row and node by node only as far as that needs;
    fewer rows if the lattice has fewer."""
    rows = []
    for v in v_nodes:
        row = list(itertools.islice(filter(None, (node_at(u, v) for u in u_nodes)), m))
        if len(row) == m:
            rows.append(row)
            if len(rows) == m:
                break
    return rows


def _solve_projective(nodes: Sequence, k: int) -> Optional[list]:
    """The first nullspace vector of the degree-k system on the nodes
    (`_charted`), up to a positive factor, as one form of degree k in the
    node's point coordinates per value coordinate, or None if it has none.
    A node's point P = (L, X) is X / L in integers, and a monomial x^e is
    P^e there; the monomials run over the exponents of x1, x2, ... with the
    first outermost, x0 taking the rest of the degree."""
    P0, Y0, _ = nodes[0]
    n1 = len(Y0)
    monos = [(k - sum(e), *e) for e in itertools.product(range(k + 1), repeat=len(P0) - 1) if sum(e) <= k]
    m = len(monos)
    system = []
    for P, Y, c in nodes:
        w = _monomial_values(monos, P, 1, k)
        for i in range(n1):
            if i == c:
                continue
            eq = [0] * (n1 * m)
            eq[i * m : (i + 1) * m] = [Y[c] * x for x in w]
            eq[c * m : (c + 1) * m] = [-Y[i] * x for x in w]
            system.append(eq)
    basis = projcore._nullspace_int(system)
    if not basis:
        return None
    vec = basis[0]
    return [HPoly(len(P0), k, dict(zip(monos, vec[b * m : (b + 1) * m]))) for b in range(n1)]


def _parallel(G: Sequence[int], node) -> bool:
    """The values G of a map's forms at the node are parallel to the sample
    Y there (or all vanish there): Y_c G_i = Y_i G_c for every i."""
    _, Y, c = node
    return all(Y[c] * g == y * G[c] for g, y in zip(G, Y))
