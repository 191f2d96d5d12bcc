"""Golden report bytes: canonical `planarize` reports for a fixed seeded set.

Each case runs one subcommand in process on a seeded input and pins the
SHA-256 of its exit code and its report bytes.  A change that keeps the
verdicts and the canonical serialization keeps every hash; a change that
moves one must say why.  One float-grid per-line hyperplane is pinned too,
with the bit patterns of the slope polynomial it comes from, and so are the
models `fit_map` recovers from an exact and from a black-box source.
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from planarize.cli import generate_map, main
from planarize.conicweb import circle_web
from planarize.jetplan import (
    CallableSource,
    ExactMapSource,
    GridMapSource,
    hyperplane_for_line,
    jet_of,
    omega,
    write_csv_grid,
)
from planarize.poly import HPoly, reduce_map, variables
from planarize.ratfit import fit_map

X0, X1, X2 = variables(3)


def _map_file(tmp_path, name, F):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(F.to_json()))
    return str(path)


def _exact_grid_file(tmp_path, F, us=tuple(Fraction(k) for k in range(12))):
    """F on the grid us x us (by default the 12x12 lattice 0..11) in the
    affine chart x0 = 1, as exact CSV."""
    values = []
    for v in us:
        row = []
        for u in us:
            y = F.evaluate([Fraction(1), u, v])
            row.append(tuple(c / y[0] for c in y[1:]))
        values.append(row)
    path = tmp_path / "grid.csv"
    path.write_text(write_csv_grid(GridMapSource(us, us, values, mode="exact")))
    return str(path)


def _exact_sphere_file(tmp_path, us=tuple(Fraction(k) for k in range(12)), off=None):
    """Inverse stereographic projection on the grid us x us (by default the
    12x12 lattice 0..11), as exact CSV; at the node `off`, a pair of
    indices, the first coordinate is moved by 1/7, off the sphere."""
    values = []
    for iv, v in enumerate(us):
        row = []
        for iu, u in enumerate(us):
            s = u * u + v * v + 1
            shift = Fraction(1, 7) if (iu, iv) == off else 0
            row.append((2 * u / s + shift, 2 * v / s, (u * u + v * v - 1) / s))
        values.append(row)
    path = tmp_path / "sphere.csv"
    path.write_text(write_csv_grid(GridMapSource(us, us, values, mode="exact")))
    return str(path)


def _float_circle_file(tmp_path):
    """A float grid on the great circle cut by the plane x + 2y + 2z = 0."""
    a = (2 / 3, 1 / 3, -2 / 3)  # orthonormal basis of that plane
    b = (-2 / 3, 2 / 3, -1 / 3)
    lines = ["u,v,F1,F2,F3"]
    for j in range(12):
        for i in range(12):
            u, v = i / 10.0, j / 10.0
            g = 0.7 * u - 0.3 * v * v
            p = tuple(math.cos(g) * x + math.sin(g) * y for x, y in zip(a, b))
            lines.append(",".join(repr(x) for x in (u, v, *p)))
    path = tmp_path / "circle.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _fractional_map_file(tmp_path):
    """generate_map(3, 2, 3) with its components scaled by 1/2, -3/7, 1 and 5/3,
    so the JSON carries non-integral coefficients."""
    data = generate_map(3, 2, 3).to_json()
    for comp, s in zip(data["components"], (Fraction(1, 2), Fraction(-3, 7), Fraction(1), Fraction(5, 3))):
        for t in comp["terms"]:
            t["coef"] = str(Fraction(t["coef"]) * s)
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(data))
    return str(path)


def _origin_web_map():
    """The web of circles through the origin (extended by x0^2 + x1^2) after a
    fixed collineation: its image relation has degree 4."""
    A = [[1, 2, -1], [0, 1, 3], [2, -1, 1]]
    lin = [HPoly(3, 1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}) for a, b, c in A]
    web = [X1 * X1 + X2 * X2, X0 * X1, X0 * X2, X0 * X0 + X1 * X1]
    return reduce_map([q.substitute(lin) for q in web])


def _argv(case, tmp_path):
    if case == "gen-quadratic-rp3":
        return ["gen", "--seed", "7", "--kind", "quadratic-rp3"]
    if case == "classify-quadratic-rp3":
        return ["classify", "--in", _map_file(tmp_path, "q3", generate_map(3, 2, 3))]
    if case == "dualize-quadratic-rp3":
        return ["dualize", "--in", _map_file(tmp_path, "q3", generate_map(3, 2, 3))]
    if case == "dualize-cubic-rp4":
        return ["dualize", "--in", _map_file(tmp_path, "c4", generate_map(11, 3, 4))]
    if case == "classify-cubic-rp3":
        return ["classify", "--in", _map_file(tmp_path, "c3", generate_map(7, 3, 3))]
    if case == "dualize-fractional-coefficients":
        return ["dualize", "--in", _fractional_map_file(tmp_path)]
    if case == "implicitize-origin-web":
        return ["implicitize", "--in", _map_file(tmp_path, "ow", _origin_web_map())]
    if case == "implicitize-quadratic-rp3":
        return ["implicitize", "--in", _map_file(tmp_path, "q3", generate_map(3, 2, 3))]
    if case == "fit-exact-grid":
        return ["fit", "--in", _exact_grid_file(tmp_path, generate_map(5, 2, 3)), "--degree", "2"]
    if case == "fit-exact-grid-thirds":
        # the nodes k/3 + 1/5: every node's point and value need clearing
        us = [Fraction(k, 3) + Fraction(1, 5) for k in range(12)]
        return ["fit", "--in", _exact_grid_file(tmp_path, generate_map(5, 2, 3), us), "--degree", "2"]
    if case == "web-classify-circle-web":
        inv = reduce_map([X1 * X1 + X2 * X2, X0 * X1, X0 * X2])
        web = tmp_path / "web.json"
        web.write_text(json.dumps(circle_web().to_json()))
        return ["web-classify", "--in", _map_file(tmp_path, "inv", inv), "--web", str(web)]
    if case == "khovanskii-float":
        return ["khovanskii", "--in", _float_circle_file(tmp_path), "--mode", "float"]
    if case == "khovanskii-exact-grid":
        return ["khovanskii", "--in", _exact_sphere_file(tmp_path)]
    if case == "khovanskii-exact-grid-fractional":
        # the nodes (2k - 11) / 4, negative and fractional
        return ["khovanskii", "--in", _exact_sphere_file(tmp_path, [Fraction(2 * k - 11, 4) for k in range(12)])]
    if case == "khovanskii-exact-grid-off-sphere":
        # one node off the sphere: the report names its distance^2 as a fraction
        axis = [Fraction(2 * k - 11, 4) for k in range(12)]
        return ["khovanskii", "--in", _exact_sphere_file(tmp_path, axis, off=(5, 7))]
    raise KeyError(case)


def report_digest(case, tmp_path):
    """SHA-256 of "<exit code>\\n" followed by the report bytes."""
    out = tmp_path / "report.json"
    code = main(_argv(case, tmp_path) + ["--seed", "0", "--out", str(out)])
    return hashlib.sha256(f"{code}\n".encode() + out.read_bytes()).hexdigest()


GOLDEN = {
    "gen-quadratic-rp3": "406092e603812c3d14a52a2d9558d50f7978c1048b453e0b93ef25bbdae3655f",
    "classify-quadratic-rp3": "2c8683bc055efe7e41ece55858f1f8f4fca5defb093db603f3f487063900f502",
    "dualize-quadratic-rp3": "470952f1302f40b6806d9b2d7c0fc51fe935605e19a5dd6de0f0ee2aebbbbfac",
    "dualize-fractional-coefficients": "dc22ddea991113f53b14e259bd789e6b365b26ecd623afba619b45f3101e21f2",
    "dualize-cubic-rp4": "076152a3ffac428aa675f3c48ee5470f9daa2bd683cb16c782c373ed62a678ca",
    "classify-cubic-rp3": "227c8db9d39206f30573081c87233e04f98b9fde47ac61fe3d02fc036f7d8018",
    "implicitize-quadratic-rp3": "308f5d7d939c1ff2247dc5fb648c383906988978ac8b6249ce321aa201a7f79e",
    "implicitize-origin-web": "0b81242189c6eb682853fde7cb5496bfdce9999d257f2ce9fba217acaeee0e48",
    "fit-exact-grid": "572e8d74fa5835b2cc87e35d9d665842ea29e50d6347ee22e1086f9ac08f5736",
    # the same map on other nodes: the same report
    "fit-exact-grid-thirds": "572e8d74fa5835b2cc87e35d9d665842ea29e50d6347ee22e1086f9ac08f5736",
    "web-classify-circle-web": "0dcb0d3a2648c732fda0c304703ec103fb4d91d25ceb7d434038de112c13571c",
    "khovanskii-float": "89356a581c86ef16977ffc5449cfd1d54ccf8c4d343547b4f406adfb6cfaa7b6",
    "khovanskii-exact-grid": "132f6c37f13571ab7a021b3f3e2ba82088634f098bc18aa84355a1b597821465",
    "khovanskii-exact-grid-fractional": "132f6c37f13571ab7a021b3f3e2ba82088634f098bc18aa84355a1b597821465",
    "khovanskii-exact-grid-off-sphere": "3685dbb36540293d86950f434c363c86e08223cca08410371f82fa4222a34e35",
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_report_bytes(case, tmp_path):
    assert report_digest(case, tmp_path) == GOLDEN[case]


def float_grid_line():
    """(covector, bit patterns of omega) for one line of a float sample grid."""
    F = generate_map(3, 2, 3)
    h = 1 / 256
    axis = [k * h for k in range(-3, 4)]
    values = []
    for v in axis:
        row = []
        for u in axis:
            y = F.evaluate([Fraction(1), Fraction(1, 5) + Fraction(u), Fraction(1, 7) + Fraction(v)])
            row.append(tuple(float(c / y[0]) for c in y[1:]))
        values.append(row)
    grid = GridMapSource(axis, axis, values, mode="float")
    a = (axis[3], axis[3])
    plane = hyperplane_for_line(grid, a, Fraction(2, 3))
    bits = [[float(x).hex() for x in vec] for vec in omega(jet_of(grid, a, 2)).coeffs]
    return plane.covector, hashlib.sha256(json.dumps(bits).encode()).hexdigest()


FLOAT_COVECTOR = (
    173235203370107873645306136,
    352037724614162519508441270,
    -76902411996302841192838435,
    -635746477268156558680526385,
)
FLOAT_OMEGA_BITS = "fafa006ccda6e3962d02fc5240bab9f9d67ce780593e4b9d07ea8d7682d312a0"


def test_float_grid_hyperplane():
    covector, bits = float_grid_line()
    assert covector == FLOAT_COVECTOR
    assert bits == FLOAT_OMEGA_BITS


def _fit_source(kind):
    F = generate_map(3, 2, 3)
    if kind == "exact":
        return ExactMapSource(F)
    return CallableSource(lambda u, v: F.evaluate([Fraction(1), Fraction(u), Fraction(v)]), codim=3)


def model_digest(kind):
    """SHA-256 of the canonical JSON of the degree-2 fit of generate_map(3, 2, 3)."""
    text = json.dumps(fit_map(_fit_source(kind), 2).to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


FIT_MODELS = {
    "exact": "59280a335a2b7166f6d6dc9c3459f49ae4468a587d2ab9e6341c8a41508ecb9b",
    "callable": "59280a335a2b7166f6d6dc9c3459f49ae4468a587d2ab9e6341c8a41508ecb9b",
}


@pytest.mark.parametrize("kind", sorted(FIT_MODELS))
def test_fit_map_model_bytes(kind):
    assert model_digest(kind) == FIT_MODELS[kind]
