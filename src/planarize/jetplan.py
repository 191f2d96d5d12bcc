"""Jets of maps into projective space and per-line hyperplane extraction.

A map source is an exact rational map (jets by an integer shift of the
components on the polynomial kernel and an exact term-by-term quotient, no
rounding), a rectangular CSV sample grid (jets by central finite
differences on evenly spaced nodes) or a black-box callable (no jets;
fitting reads it point by point).  From an order-(n-1)
jet at a base point we build the slope-indexed family of vectors B_l, lift
them to homogeneous coordinates and wedge them into a covector-valued
polynomial in the slope; its value at a slope is the hyperplane containing
the image of the line with that slope (checked against the map restricted
to the line for an exact map, against the Taylor curve for a grid), and its
identical vanishing signals degeneracy.

Whether a point is degenerate is decided for an exact map without jets:
the first n coefficient vectors of the map along a line through the point
are a triangular transform of the lifted jet rows, so one integer rank per
slope, at n(n-1)/2 + 1 slopes, settles it (`nondegenerate_at`).
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import projcore, univar
from .poly import RatMap, line_base_points, variables, _int_components, _line_rows
from .projcore import Hyperplane, PLine2

#: float-mode relative threshold for "this covector polynomial is zero"
DEGENERACY_RTOL = 1e-7
#: float-mode relative containment residual for per-line hyperplanes
CONTAINMENT_RTOL = 1e-6
#: float-mode absolute distance within which a point is a grid node
NODE_ATOL = 1e-12
#: float-mode relative deviation of a grid step from the pitch
SPACING_RTOL = 1e-9


class OnIndeterminacy(ValueError):
    """The map is undefined (all components vanish) at the requested point."""


class ChartOverflow(ValueError):
    """No affine chart keeps the local image finite (bad grid data)."""


class OrderMismatch(ValueError):
    """A jet of the wrong order was fed to the hyperplane construction."""


class DegenerateSlope(ValueError):
    """The hyperplane family vanishes at this slope (but not identically)."""


class DegeneratePoint(ValueError):
    """The map is degenerate at the base point (no line gives a hyperplane)."""


class ExactMapSource:
    """Exact evaluator of a rational map on the chart (u, v) -> [1:u:v]."""

    mode = "exact"

    def __init__(self, ratmap: RatMap):
        if ratmap.domain_vars != 3:
            raise ValueError("map sources have domain RP^2")
        self.ratmap = ratmap

    @property
    def codim(self) -> int:
        return self.ratmap.codim

    def evaluate(self, u, v) -> Optional[tuple[Fraction, ...]]:
        """Homogeneous image coordinates, or None at an indeterminacy point."""
        return self.ratmap.evaluate([Fraction(1), Fraction(u), Fraction(v)])


class CallableSource:
    """Black-box evaluator (used for composites and embeddings).

    `fn(u, v)` returns homogeneous image coordinates or None.  It must be a
    pure function of (u, v): a fit reads each point once and reuses the value.
    """

    def __init__(self, fn: Callable, codim: int, mode: str = "exact"):
        self._fn = fn
        self.codim = codim
        self.mode = mode

    def evaluate(self, u, v):
        return self._fn(u, v)


class GridMapSource:
    """Rectangular sample grid of an affine map (u, v) -> R^n.

    Values are stored per node; homogeneous coordinates prepend a 1, so the
    chart index is always 0.  Axes must be strictly increasing, with no
    infinite or NaN float node, and on a float grid no two nodes closer
    than NODE_ATOL, within which a lookup takes them for one.  Lookups by
    value (`evaluate`, `node_index`) serve jets and external callers: one
    scan of each axis takes the node equal to the coordinate, so any number
    equal to a node (a Fraction, an int or a float) finds it, and on a
    float grid also a node within NODE_ATOL of it.  A pass over the grid's
    own nodes reads them by index from one integer node table
    (`_node_table`), built on first use.
    """

    def __init__(self, u_axis: Sequence, v_axis: Sequence, values, mode: str = "float"):
        self.u_axis = list(u_axis)
        self.v_axis = list(v_axis)
        for name, ax in (("u", self.u_axis), ("v", self.v_axis)):
            bad = next((a for a in ax if isinstance(a, float) and not math.isfinite(a)), None)
            if bad is not None:
                raise ValueError(f"grid axis node {name}={bad} is not finite")
            if any(not (b > a) for a, b in zip(ax, ax[1:])):
                raise ValueError("grid axes must be strictly increasing")
            if mode == "float":  # node_index finds a node within NODE_ATOL: closer nodes would be one
                close = next(((a, b) for a, b in zip(ax, ax[1:]) if float(b) - float(a) < NODE_ATOL), None)
                if close is not None:
                    raise ValueError(
                        f"grid axis nodes {name}={close[0]} and {name}={close[1]} are closer than "
                        f"NODE_ATOL = {NODE_ATOL}"
                    )
        self.values = values  # values[iv][iu] = tuple of n numbers
        self.mode = mode
        self.codim = len(values[0][0])
        self._table = None

    @property
    def pitch(self) -> tuple:
        return self.u_axis[1] - self.u_axis[0], self.v_axis[1] - self.v_axis[0]

    def node_index(self, u, v) -> tuple[int, int]:
        near = self.mode == "float"

        def find(axis, x):
            if isinstance(x, numbers.Real):  # anything else is no node
                try:
                    fx = float(x)
                except OverflowError:  # beyond every float node
                    fx = math.inf
                for i, a in enumerate(axis):
                    if a == x or near and abs(float(a) - fx) < NODE_ATOL:
                        return i
            raise KeyError(f"{x!r} is not a grid node")

        return find(self.u_axis, u), find(self.v_axis, v)

    def node_value(self, iu: int, iv: int) -> tuple:
        return self.values[iv][iu]

    def evaluate(self, u, v) -> Optional[tuple]:
        """Affine value at a grid node, prefixed with 1 (homogeneous).

        Off-grid points evaluate to None (a grid knows nothing there)."""
        try:
            iu, iv = self.node_index(u, v)
        except KeyError:
            return None
        val = self.values[iv][iu]
        one = Fraction(1) if self.mode == "exact" else 1.0
        return (one, *val)

    def _node_table(self) -> list:
        """table[iv][iu] = (P, Y, c) for every node: P = (L, *X) the point
        (1, u, v) in integers, Y the value (1, *val) cleared to integers and
        c its chart (`_charted`), as `ratfit._node` reads the node through
        `evaluate`.  Each axis is cleared once; built on first use."""
        if self._table is None:
            us = [(a.numerator, a.denominator) for a in map(Fraction, self.u_axis)]
            vs = [(a.numerator, a.denominator) for a in map(Fraction, self.v_axis)]
            table = []
            for (nv, dv), row in zip(vs, self.values):
                line = []
                for (nu, du), val in zip(us, row):
                    L = math.lcm(du, dv)
                    line.append(_charted((L, nu * (L // du), nv * (L // dv)), projcore._cleared((1, *val))[0]))
                table.append(line)
            self._table = table
        return self._table


def _charted(P: tuple, Y: list) -> Optional[tuple]:
    """(P, Y, c) with c the first index of largest |Y_c|, or None if Y is
    all zeros.  Y may be any positive multiple of the value at P."""
    if not any(Y):
        return None
    return P, Y, max(range(len(Y)), key=lambda i: (abs(Y[i]), -i))


MapSource = Union[ExactMapSource, GridMapSource, CallableSource]


def read_csv_grid(text_or_path: str, mode: str = "float") -> GridMapSource:
    """Parse the grid CSV format: header u,v,F1..Fn, rows v-major then u.

    A leading UTF-8 byte order mark is dropped.  Each distinct axis string
    is converted once, and a row is keyed by the node's place on each axis
    in order of first appearance, so two spellings of one node ("1/2" and
    "0.5") are one node."""
    if "\n" not in text_or_path:
        with open(text_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = text_or_path
    rows = list(csv.reader(io.StringIO(text.removeprefix("\ufeff"))))
    header = rows[0] if rows else []
    if header[:2] != ["u", "v"]:
        raise ValueError("grid CSV must start with columns u,v")
    n = len(header) - 2
    if n < 1:
        raise ValueError("grid CSV has no value columns after u,v")
    conv = projcore.scalar_from_str if mode == "exact" else float
    # per axis: the distinct values in order of first appearance, the place
    # of each value and of each string already seen
    axes = ([], {}, {}), ([], {}, {})

    def place(axis, s):
        seen, by_value, by_str = axis
        i = by_str.get(s)
        if i is None:
            x = conv(s)
            i = by_value.get(x)
            if i is None:
                i = by_value[x] = len(seen)
                seen.append(x)
            if x == x:  # a NaN is a new node at every read
                by_str[s] = i
        return i

    data: dict = {}
    for number, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) < 2:
            raise ValueError(f"grid CSV row {number} has fewer than two cells")
        key = place(axes[0], row[0]), place(axes[1], row[1])
        if key in data:
            raise ValueError(f"grid CSV has two rows for the node u={conv(row[0])}, v={conv(row[1])}")
        data[key] = tuple(conv(x) for x in row[2:])
    if not data:
        raise ValueError("grid CSV has no data rows")
    # the axes in increasing order, with the place of each node there
    (u_seen, _, _), (v_seen, _, _) = axes
    u_order = sorted(range(len(u_seen)), key=u_seen.__getitem__)
    v_order = sorted(range(len(v_seen)), key=v_seen.__getitem__)
    missing = next(((iu, iv) for iv in v_order for iu in u_order if (iu, iv) not in data), None)
    if missing is not None:
        raise ValueError(f"grid CSV has no row for the node u={u_seen[missing[0]]}, v={v_seen[missing[1]]}")
    values = [[data[(iu, iv)] for iu in u_order] for iv in v_order]
    if any(len(val) != n for line in values for val in line):
        raise ValueError("ragged grid CSV")
    return GridMapSource([u_seen[i] for i in u_order], [v_seen[i] for i in v_order], values, mode=mode)


def write_csv_grid(source: GridMapSource) -> str:
    n = source.codim
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["u", "v"] + [f"F{i+1}" for i in range(n)])
    fmt = projcore.scalar_to_str if source.mode == "exact" else repr
    for v, row in zip(source.v_axis, source.values):
        for u, val in zip(source.u_axis, row):
            w.writerow([fmt(u), fmt(v)] + [fmt(x) for x in val])
    return out.getvalue()


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet:
    """Taylor data of a map at a base point, in a fixed target chart.

    coeffs[(i, j)] is the vector of scaled mixed partials
    (1/(i! j!)) d^{i+j}F/du^i dv^j at the base, for i + j <= order.
    `chart` is the dehomogenizing target coordinate.
    """

    base: tuple
    order: int
    chart: int
    coeffs: dict
    mode: str = "exact"

    @property
    def codim(self) -> int:
        return len(self.coeffs[(0, 0)])

    def transposed(self) -> "Jet":
        """Swap the roles of u and v (used for vertical lines)."""
        swapped = {(j, i): vec for (i, j), vec in self.coeffs.items()}
        return Jet((self.base[1], self.base[0]), self.order, self.chart, swapped, self.mode)

    def scale(self) -> float:
        return max(abs(float(x)) for vec in self.coeffs.values() for x in vec) or 1.0


_STENCILS = {
    0: ((0, Fraction(1)),),
    1: ((-1, Fraction(-1, 2)), (1, Fraction(1, 2))),
    2: ((-1, Fraction(1)), (0, Fraction(-2)), (1, Fraction(1))),
    3: ((-2, Fraction(-1, 2)), (-1, Fraction(1)), (1, Fraction(-1)), (2, Fraction(1, 2))),
}


def jet_of(source: MapSource, a: tuple, m: int) -> Jet:
    """Order-m jet of a map source at an affine base point.

    Exact sources: each component is shifted to the base point with one
    integer `HPoly.substitute` and truncated at order m; the chart is the
    component of largest absolute value there, and each other component's
    quotient by it is solved term by term, so the coefficients are exact
    rationals.  Grid sources: central differences of matched order (m <= 3)
    on the stored pitch.
    """
    if isinstance(source, ExactMapSource):
        return _jet_exact(source, a, m)
    if isinstance(source, GridMapSource):
        return _jet_grid(source, a, m)
    raise TypeError("jets need an exact rational map or a sample grid")


def _jet_exact(source: ExactMapSource, a: tuple, m: int) -> Jet:
    u0, v0 = Fraction(a[0]), Fraction(a[1])
    # one integer shift per component: with (u0, v0) = (U, V) / L,
    # x -> [L x0 : U x0 + L x1 : V x0 + L x2] gives L^d F(1, u0 + s, v0 + t),
    # and L^d cancels in every quotient below
    (U, V), L = projcore._cleared((u0, v0))
    x0, x1, x2 = variables(3)
    shift = [L * x0, U * x0 + L * x1, V * x0 + L * x2]
    series = []
    for comp in source.ratmap.components:
        terms = comp.substitute(shift).terms
        series.append({(e[1], e[2]): c for e, c in terms.items() if e[1] + e[2] <= m})
    values = [s.get((0, 0), 0) for s in series]
    if not any(values):
        raise OnIndeterminacy(f"map undefined at {a}")
    chart = max(range(len(values)), key=lambda i: (abs(values[i]), -i))
    c0 = values[chart]
    rest = [(k, c) for k, c in series[chart].items() if k != (0, 0)]
    # lexicographic order visits every (k, l) <= (i, j) before (i, j)
    coeffs: dict = {(i, j): [] for i in range(m + 1) for j in range(m + 1 - i)}
    for idx, num in enumerate(series):
        if idx == chart:
            continue
        # q = num / series[chart], term by term: c0 q(i, j) is num(i, j) less
        # the chart's other terms times the q terms already known
        q: dict = {}
        for (i, j), vec in coeffs.items():
            acc = num.get((i, j), 0)
            for (k, l), c in rest:
                if k <= i and l <= j:
                    acc -= q[(i - k, j - l)] * c
            q[(i, j)] = Fraction(acc) / c0
            vec.append(q[(i, j)])
    return Jet((u0, v0), m, chart, {k: tuple(v) for k, v in coeffs.items()}, "exact")


def _jet_grid(source: GridMapSource, a: tuple, m: int) -> Jet:
    if m > 3:
        raise OrderMismatch("grid jets support order <= 3")
    iu, iv = source.node_index(a[0], a[1])
    margin = 2 if m >= 3 else 1
    # before the pitch, which an axis of one node does not have
    if not (margin <= iu < len(source.u_axis) - margin and margin <= iv < len(source.v_axis) - margin):
        raise ChartOverflow("base point too close to the grid edge for the stencil")
    hu, hv = source.pitch
    # the difference weights assume evenly spaced nodes at the pitch
    for axis, i, h in ((source.u_axis, iu, hu), (source.v_axis, iv, hv)):
        for lo, hi in zip(axis[i - margin : i + margin], axis[i - margin + 1 : i + margin + 1]):
            step = hi - lo
            if (step != h) if source.mode == "exact" else abs(step - h) > SPACING_RTOL * abs(h):
                raise ChartOverflow(f"grid step {step} near the base point is not the pitch {h}")
    n = source.codim
    coeffs: dict = {}
    for i in range(m + 1):
        for j in range(m + 1 - i):
            vec = []
            for comp in range(n):
                acc = 0.0
                for du, wu in _STENCILS[i]:
                    for dv, wv in _STENCILS[j]:
                        val = source.node_value(iu + du, iv + dv)[comp]
                        fval = float(val)
                        if not math.isfinite(fval):
                            raise ChartOverflow("non-finite sample near the base point")
                        acc += float(wu) * float(wv) * fval
                acc /= float(hu) ** i * float(hv) ** j
                acc /= math.factorial(i) * math.factorial(j)
                vec.append(acc)
            coeffs[(i, j)] = tuple(vec)
    return Jet((a[0], a[1]), m, 0, coeffs, "float")


# ---------------------------------------------------------------------------
# the per-slope hyperplane polynomial
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovectorPoly:
    """Covector-valued polynomial in the line slope."""

    coeffs: tuple  # tuple of covectors (tuples), index = slope power
    mode: str = "exact"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(all(x == 0 for x in vec) for vec in self.coeffs)

    def max_abs(self) -> float:
        return max((abs(float(x)) for vec in self.coeffs for x in vec), default=0.0)

    def evaluate(self, lam) -> tuple:
        if not self.coeffs:
            return ()
        width = len(self.coeffs[0])
        if self.mode == "exact":
            lam = Fraction(lam)
            acc = [Fraction(0)] * width
        else:
            lam = float(lam)
            acc = [0.0] * width
        for vec in reversed(self.coeffs):
            acc = [a * lam + c for a, c in zip(acc, vec)]
        return tuple(acc)


def omega(jet: Jet) -> CovectorPoly:
    """Hyperplane-family polynomial of an order-(n-1) jet.

    B_l(slope) collects the jet coefficients along the line direction; the
    base value lifts with a 1 in the chart slot and the direction terms with
    a 0, and the wedge complement of the lifted rows gives, per slope, the
    covector of the hyperplane containing the image of that line.  The zero
    polynomial is a valid output: the point is degenerate.
    """
    n = jet.codim
    if jet.order != n - 1:
        raise OrderMismatch(f"jet order {jet.order} != codomain dim {n} minus 1")
    zero = Fraction(0) if jet.mode == "exact" else 0.0
    one = Fraction(1) if jet.mode == "exact" else 1.0

    def lifted(vec: tuple, fill) -> list:
        out = list(vec)
        out.insert(jet.chart, fill)
        return out

    # rows[l][col] = slope-polynomial entry (list low-to-high)
    rows = []
    for l in range(n):
        entries = [[] for _ in range(n + 1)]
        for j in range(l + 1):
            vec = lifted(jet.coeffs[(l - j, j)], one if l == 0 else zero)
            for col in range(n + 1):
                while len(entries[col]) <= j:
                    entries[col].append(zero)
                entries[col][j] = entries[col][j] + vec[col]
        rows.append(entries)
    cov_polys = projcore.signed_minors(rows, univar.mul, univar.add, lambda p: [-c for c in p])
    if jet.mode == "exact":
        # divide out the common polynomial factor in the slope: this is the
        # rational continuation of the hyperplane family (slopes where the
        # raw minors all vanish get their limiting hyperplane)
        content: list = []
        for p in cov_polys:
            content = univar.gcd(content, univar.trim(p))
        if univar.degree(content) > 0:
            # divexact gives ints for integral quotients; the family stays in Fractions
            cov_polys = [
                [Fraction(c) for c in univar.divexact(p, content)] for p in cov_polys
            ]
    top = max((len(p) for p in cov_polys), default=0)
    coeffs = []
    for k in range(top):
        coeffs.append(tuple(p[k] if k < len(p) else zero for p in cov_polys))
    while coeffs and all(x == 0 for x in coeffs[-1]):
        coeffs.pop()
    return CovectorPoly(tuple(coeffs), jet.mode)


def nondegenerate_at(source: MapSource, a: tuple) -> bool:
    """Whether some line through the point determines a unique hyperplane.

    Exact sources build no jet: with the base point cleared to P = (L, U, V),
    the first n coefficient vectors A_0..A_{n-1} of F(P + t (0, 1, lam)) are
    a lower-triangular transform of omega's lifted jet rows, with diagonal
    c0 L^(d-r) (c0 the chart value at the base), so their maximal minors
    are a nonzero constant times omega's raw minors as polynomials in the
    slope lam.  Those have degree at most n(n-1)/2, so the point is
    nondegenerate exactly when the integer rows have rank n at one of
    lam = 0, 1, ..., n(n-1)/2.  A_0 = 0 means the map is undefined there.
    Grid sources compare omega of the float jet with DEGENERACY_RTOL.
    """
    if isinstance(source, ExactMapSource):
        return _nondegenerate_exact(source.ratmap, a)
    n = source.codim
    jet = jet_of(source, a, n - 1)
    return omega(jet).max_abs() > DEGENERACY_RTOL * jet.scale() ** n


def _nondegenerate_exact(F: RatMap, a: tuple) -> bool:
    n = F.codim
    comps = _int_components(F.components)
    (U, V), L = projcore._cleared(a)
    for lam in range(n * (n - 1) // 2 + 1):
        rows = _line_rows(comps, (L, U, V), (0, 1, lam), F.degree)[:n]
        if not any(rows[0]):  # A_0 = L^d F(1, a), the same for every lam
            raise OnIndeterminacy(f"map undefined at {a}")
        if projcore.rank(rows) == n:
            return True
    return False


def _slope_parts(slope) -> tuple:
    """Accept an affine slope, the string "inf", or a projective pair."""
    if isinstance(slope, str):
        if slope in ("inf", "vertical"):
            return (1, 0)
        return (Fraction(slope), 1)
    if isinstance(slope, tuple):
        num, den = slope
        if num == 0 and den == 0:
            raise ValueError("slope [0:0] is not a direction")
        return (num, den)
    return (Fraction(slope), 1)


def hyperplane_for_line(source: MapSource, a: tuple, slope) -> Hyperplane:
    """Hyperplane containing the image of the line through `a` with `slope`.

    The slope may be affine (v = slope * u relative to the base point),
    "inf" for the vertical line, or a projective pair (dv, du).  For an
    exact map the hyperplane must contain every coefficient vector of the
    map restricted to the line; a grid's Taylor curve along the line is
    checked against CONTAINMENT_RTOL.
    """
    n = source.codim
    jet = jet_of(source, a, n - 1)
    num, den = _slope_parts(slope)
    if den == 0:
        om = omega(jet.transposed())
        value = om.evaluate(0)
    else:
        om = omega(jet)
        value = om.evaluate(Fraction(num, den) if jet.mode == "exact" else num / den)
    if om.is_zero or (jet.mode == "float" and om.max_abs() <= DEGENERACY_RTOL * jet.scale() ** n):
        raise DegeneratePoint(f"map degenerate at {a}")
    if all(x == 0 for x in value):
        raise DegenerateSlope(f"hyperplane family vanishes at slope {slope}")
    if isinstance(source, ExactMapSource):
        plane = Hyperplane.of(value)
        # the line through [1 : a] in the direction [0 : du : dv]
        line = PLine2.of(projcore.cross((1, *jet.base), (0, den, num)))
        F = source.ratmap
        rows = _line_rows([c.terms for c in F.components], *line_base_points(line), F.degree)
        if not all(map(plane.contains, rows)):
            raise DegenerateSlope(f"image of the line with slope {slope} leaves the hyperplane")
        return plane
    _validate_containment(jet, (num, den), value, n)
    return Hyperplane(projcore.rationalize_direction(value, max_den=10**9))


def _validate_containment(jet, direction, covector, n):
    """Check a grid jet's Taylor curve along the line against the covector."""
    num, den = direction
    scale = math.sqrt(sum(float(c) ** 2 for c in covector)) or 1.0
    lam = None if den == 0 else num / den
    use = jet.transposed() if den == 0 else jet
    for t in [x / 7.0 for x in range(-n, n + 1) if x]:
        point = [0.0] * (use.codim)
        for l in range(use.order + 1):
            b = [0.0] * use.codim
            for j in range(l + 1):
                w = (lam**j) if lam is not None else (1.0 if j == 0 else 0.0)
                vec = use.coeffs[(l - j, j)]
                b = [x + w * y for x, y in zip(b, vec)]
            point = [x + (t**l) * y for x, y in zip(point, b)]
        lifted = list(point)
        lifted.insert(use.chart, 1.0)
        norm = math.sqrt(sum(x * x for x in lifted)) or 1.0
        resid = abs(sum(float(c) * x for c, x in zip(covector, lifted))) / (scale * norm)
        if resid > CONTAINMENT_RTOL:
            raise DegenerateSlope(f"containment residual {resid:.2e} too large")
