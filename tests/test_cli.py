"""Command-line pipeline: determinism, round trips, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from planarize import cli, conicweb, dualize
from planarize.cli import MAX_GEN_DEGREE, MAX_GEN_TARGET_DIM, MAX_IMPLICITIZE_CELLS, generate_map, main
from planarize.conicweb import ConicSystem, circle_web
from planarize.dualize import MAX_DUAL_LATTICE_CELLS, CoTrivial
from planarize.jetplan import GridMapSource, write_csv_grid
from planarize.poly import HPoly, RatMap, reduce_map, variables
from planarize.projcore import PPoint

X0, X1, X2 = variables(3)

SEGRE_JSON = {
    "components": [
        {"nvars": 3, "degree": 2, "terms": [{"exp": [2, 0, 0], "coef": "1"}]},
        {"nvars": 3, "degree": 2, "terms": [{"exp": [1, 1, 0], "coef": "1"}]},
        {"nvars": 3, "degree": 2, "terms": [{"exp": [1, 0, 1], "coef": "1"}]},
        {"nvars": 3, "degree": 2, "terms": [{"exp": [0, 1, 1], "coef": "1"}]},
    ]
}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_gen_deterministic_bytes(tmp_path, capsys):
    code1, out1 = run(capsys, "gen", "--seed", "7", "--kind", "quadratic-rp3")
    code2, out2 = run(capsys, "gen", "--seed", "7", "--kind", "quadratic-rp3")
    assert code1 == code2 == 0
    assert out1 == out2
    m = RatMap.from_json(json.loads(out1))
    assert m.degree == 2 and m.codim == 3


def test_gen_respects_requested_degree(capsys):
    for kind, degree in [("linear-rp3", 1), ("quadratic-rp3", 2), ("cubic-rp3", 3)]:
        code, out = run(capsys, "gen", "--seed", "3", "--kind", kind)
        assert code == 0
        assert RatMap.from_json(json.loads(out)).degree == degree


def test_dualize_segre(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(SEGRE_JSON))
    code, out = run(capsys, "dualize", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 1
    dual = RatMap.from_json(report["dual"])
    assert dual.projectively_equal(RatMap.from_json(SEGRE_JSON)) is False
    assert [t["coef"] for t in report["dual"]["components"][0]["terms"]] == ["1"]


def test_classify_trivial_and_exit_codes(tmp_path, capsys):
    trivial = {
        "components": SEGRE_JSON["components"][:3]
        + [
            {
                "nvars": 3,
                "degree": 2,
                "terms": [{"exp": [2, 0, 0], "coef": "1"}, {"exp": [1, 1, 0], "coef": "1"}],
            }
        ]
    }
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(trivial))
    code, out = run(capsys, "classify", "--in", str(path))
    assert code == 0
    assert json.loads(out)["class"] == "Trivial"


def test_classify_cotrivial_witness(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(SEGRE_JSON))
    code, out = run(capsys, "classify", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["class"] == "CoTrivial"
    assert report["witness"] == [0, 0, 0, 1]


def test_classify_indeterminate_exits_two(tmp_path, capsys):
    twisted = reduce_map([X0**3, X0 * X0 * X1, X0 * X1 * X1, X1**3])
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(twisted.to_json()))
    code, out = run(capsys, "classify", "--in", str(path))
    assert code == 2
    assert json.loads(out)["class"] == "Indeterminate"


def test_missing_input_exits_one(capsys):
    code = main(["classify", "--in", "/nonexistent/nowhere.json"])
    assert code == 1


def test_usage_error_exits_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("exc,line", [
    (MemoryError("cannot allocate the restriction"), "planarize: MemoryError: cannot allocate the restriction"),
    (MemoryError(), "planarize: MemoryError: out of memory in classify"),
], ids=["with text", "bare"])
def test_memory_error_exits_one_with_one_line(tmp_path, capsys, monkeypatch, exc, line):
    # a map such as [x0^(10^6) : x1^(10^6) : x2^(10^6)] can exhaust memory
    # inside a command; the error is stood in for here, nothing is allocated.
    # Python raises a bare MemoryError, so the line then names the command
    def exhausted(F, seed=0):
        raise exc

    monkeypatch.setattr(dualize, "classify", exhausted)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(SEGRE_JSON))
    assert main(["classify", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_implicitize_cli(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(SEGRE_JSON))
    code, out = run(capsys, "implicitize", "--in", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 2


def test_fit_cli_round_trip(tmp_path, capsys):
    F = RatMap.from_json(SEGRE_JSON)
    us = [Fraction(k) for k in range(12)]
    values = []
    for v in us:
        row = []
        for u in us:
            y = F.evaluate([Fraction(1), u, v])
            row.append(tuple(c / y[0] for c in y[1:]))
        values.append(row)
    csv_path = tmp_path / "grid.csv"
    csv_path.write_text(write_csv_grid(GridMapSource(us, us, values, mode="exact")))
    code, out = run(capsys, "fit", "--in", str(csv_path), "--degree", "2")
    assert code == 0
    report = json.loads(out)
    assert report["residuals"]["max_cross_residual"] == 0.0
    assert RatMap.from_json(report["map"]).projectively_equal(F)


def test_fit_cli_component_vanishing_on_every_grid_line(tmp_path, capsys):
    # (u, v) -> (u + v - 6, u) on the 7x7 grid 0..6: the first component
    # vanishes at one node of every row and every column
    us = [Fraction(k) for k in range(7)]
    values = [[(u + v - 6, u) for u in us] for v in us]
    path = tmp_path / "affine.csv"
    path.write_text(write_csv_grid(GridMapSource(us, us, values, mode="exact")))
    code, out = run(capsys, "fit", "--in", str(path), "--degree", "1")
    assert code == 0
    report = json.loads(out)
    assert report["residuals"]["max_cross_residual"] == 0.0
    model = RatMap.from_json(report["map"])
    assert model.degree == 1
    assert model.projectively_equal(reduce_map([X0, X1 + X2 - 6 * X0, X1]))


def test_report_json_reparses_canonically(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(SEGRE_JSON))
    code, out = run(capsys, "dualize", "--in", str(path))
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_emit_curves(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(SEGRE_JSON))
    curves = tmp_path / "curves.csv"
    code, _ = run(capsys, "dualize", "--in", str(path), "--emit-curves", str(curves))
    assert code == 0
    lines = curves.read_text().splitlines()
    assert lines[0] == "curve,param,y0,y1,y2,y3"
    assert len(lines) > 10


def test_khovanskii_cli_quadratic(tmp_path, capsys):
    from planarize.jetplan import GridMapSource, write_csv_grid

    def stereo(u, v):
        s = u * u + v * v + 1
        return (2 * u / s, 2 * v / s, (u * u + v * v - 1) / s)

    us = [Fraction(k) for k in range(15)]
    values = [[stereo(u, v) for u in us] for v in us]
    path = tmp_path / "sphere.csv"
    path.write_text(write_csv_grid(GridMapSource(us, us, values, mode="exact")))
    code, out = run(capsys, "khovanskii", "--in", str(path), "--mode", "exact")
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "Quadratic"
    planted = reduce_map(
        [X0 * X0 + X1 * X1 + X2 * X2, 2 * X0 * X1, 2 * X0 * X2, X1 * X1 + X2 * X2 - X0 * X0]
    )
    assert RatMap.from_json(report["witness"]).projectively_equal(planted)


def test_fit_cli_rejects_inconsistent_grid(tmp_path, capsys):
    from planarize.jetplan import GridMapSource, write_csv_grid

    us = [Fraction(k) for k in range(12)]
    values = []
    for v in us:
        row = []
        for u in us:
            val = Fraction(u) / (1 + v)
            if (u, v) == (3, 2):
                val += 1  # one poisoned node
            row.append((val,))
        values.append(row)
    path = tmp_path / "bad.csv"
    path.write_text(write_csv_grid(GridMapSource(us, us, values, mode="exact")))
    code, out = run(capsys, "fit", "--in", str(path), "--degree", "2")
    assert code == 2
    assert json.loads(out)["error"] == "DegreeTooLow"


def test_web_classify_cli(tmp_path, capsys):
    from planarize.conicweb import circle_web

    inv = reduce_map([X1 * X1 + X2 * X2, X0 * X1, X0 * X2])
    fpath = tmp_path / "inv.json"
    fpath.write_text(json.dumps(inv.to_json()))
    wpath = tmp_path / "web.json"
    wpath.write_text(json.dumps(circle_web().to_json()))
    code, out = run(capsys, "web-classify", "--in", str(fpath), "--web", str(wpath))
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "QuadricFactor"
    assert report["witness"]["quadric"]["degree"] == 2


def _stereo_grid(tmp_path):
    def stereo(u, v):
        s = u * u + v * v + 1
        return (2 * u / s, 2 * v / s, (u * u + v * v - 1) / s)

    us = [Fraction(k) for k in range(15)]
    path = tmp_path / "sphere.csv"
    path.write_text(write_csv_grid(GridMapSource(us, us, [[stereo(u, v) for u in us] for v in us], mode="exact")))
    return str(path)


def test_khovanskii_cotrivial_report(tmp_path, capsys, monkeypatch):
    # khovanskii_classify answers CoTrivial only for a model of degree 3
    # (test_conicweb reaches it with a float grid near the pole); here the
    # verdict is planted on a stereographic grid, and the report's witness
    # is the centre
    monkeypatch.setattr(conicweb, "khovanskii_classify", lambda source, seed=0: CoTrivial(PPoint.of(0, 0, 0, 1)))
    code, out = run(capsys, "khovanskii", "--in", _stereo_grid(tmp_path))
    assert code == 0
    assert out == '{"case":"CoTrivial","diagnostics":null,"witness":[0,0,0,1]}\n'


def _json_file(tmp_path, data, name="bad"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


NULL_NVARS = {"components": [{**SEGRE_JSON["components"][0], "nvars": None}]}


def _segre_with_first_component(tmp_path, **fields):
    # SEGRE_JSON with fields of its first component replaced
    data = json.loads(json.dumps(SEGRE_JSON))
    data["components"][0].update(fields)
    return _json_file(tmp_path, data)


def _map_with_coefficient(tmp_path, coef):
    data = json.loads(json.dumps(SEGRE_JSON))
    data["components"][0]["terms"][0]["coef"] = coef
    return _json_file(tmp_path, data)


def _sparse_grid(tmp_path):
    path = tmp_path / "sparse.csv"
    path.write_text("u,v,F1\n0,0,1\n1,0,2\n0,1,3\n")
    return str(path)


def _square_grid(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text("u,v,F1\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n")
    return str(path)


def _empty_grid(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    return str(path)


def _grid_file(tmp_path, text):
    path = tmp_path / "grid.csv"
    path.write_text(text)
    return str(path)


def _web_with_dimension(tmp_path, dimension):
    data = circle_web().to_json()
    data["dimension"] = dimension
    return _json_file(tmp_path, data, "web")


# name, argv (given tmp_path), start of the last stderr line (only usage
# errors print more than that line)
MALFORMED = [
    ("negative degree", lambda t: ["gen", "--degree", "-1"],
     "planarize: ValueError: degree must be at least 0"),
    ("target dim zero", lambda t: ["gen", "--target-dim", "0"],
     "planarize: ValueError: target dimension must be at least 1"),
    ("degree over the limit", lambda t: ["gen", "--degree", str(MAX_GEN_DEGREE + 1)],
     f"planarize: ValueError: degree must be at least 0 and at most {MAX_GEN_DEGREE}, got {MAX_GEN_DEGREE + 1}"),
    ("target dim over the limit", lambda t: ["gen", "--target-dim", str(MAX_GEN_TARGET_DIM + 1)],
     "planarize: ValueError: target dimension must be at least 1 and at most "
     f"{MAX_GEN_TARGET_DIM}, got {MAX_GEN_TARGET_DIM + 1}"),
    ("zero denominator", lambda t: ["classify", "--in", _map_with_coefficient(t, "1/0")],
     "planarize: ValueError: scalar '1/0' has a zero denominator"),
    ("map is a list", lambda t: ["classify", "--in", _json_file(t, SEGRE_JSON["components"])],
     "planarize: ValueError: a map is a JSON object with a list of components"),
    ("null coefficient", lambda t: ["classify", "--in", _map_with_coefficient(t, None)],
     "planarize: ValueError: scalar None is not a rational number"),
    ("components a string", lambda t: ["classify", "--in", _json_file(t, {"components": "abc"})],
     "planarize: ValueError: a map is a JSON object with a list of components"),
    ("nvars null", lambda t: ["classify", "--in", _json_file(t, NULL_NVARS)],
     "planarize: ValueError: a polynomial is a JSON object with integer nvars and degree"),
    ("fractional exponent",
     lambda t: ["dualize", "--in", _segre_with_first_component(t, terms=[{"exp": [2.5, 0, 0], "coef": "1"}])],
     "planarize: ValueError: exponent must be an integer, got 2.5"),
    ("fractional degree", lambda t: ["dualize", "--in", _segre_with_first_component(t, degree=2.9)],
     "planarize: ValueError: degree must be an integer, got 2.9"),
    ("repeated exponent",
     lambda t: ["dualize", "--in", _segre_with_first_component(
         t, terms=[{"exp": [2, 0, 0], "coef": "1"}, {"exp": [2, 0, 0], "coef": "3"}])],
     "planarize: ValueError: two terms have the exponent [2, 0, 0]"),
    ("web is a list",
     lambda t: ["web-classify", "--in", _json_file(t, SEGRE_JSON, "map"), "--web", _json_file(t, [])],
     "planarize: ValueError: a conic system is a JSON object with a list of basis forms"),
    ("sparse grid", lambda t: ["fit", "--in", _sparse_grid(t)],
     "planarize: ValueError: grid CSV has no row for the node u=1, v=1"),
    ("empty grid", lambda t: ["fit", "--in", _empty_grid(t)],
     "planarize: ValueError: grid CSV must start with columns u,v"),
    ("header-only grid", lambda t: ["fit", "--in", _grid_file(t, "u,v,F1\n")],
     "planarize: ValueError: grid CSV has no data rows"),
    ("khovanskii header-only grid", lambda t: ["khovanskii", "--in", _grid_file(t, "u,v,F1,F2,F3\n")],
     "planarize: ValueError: grid CSV has no data rows"),
    ("grid without value columns", lambda t: ["fit", "--in", _grid_file(t, "u,v\n0,0\n1,0\n0,1\n1,1\n")],
     "planarize: ValueError: grid CSV has no value columns after u,v"),
    ("khovanskii grid without value columns",
     lambda t: ["khovanskii", "--in", _grid_file(t, "u,v\n0,0\n1,0\n0,1\n1,1\n")],
     "planarize: ValueError: grid CSV has no value columns after u,v"),
    ("short grid row", lambda t: ["fit", "--in", _grid_file(t, "u,v,F1\n0,0,1\n1\n")],
     "planarize: ValueError: grid CSV row 3 has fewer than two cells"),
    ("khovanskii short grid row",
     lambda t: ["khovanskii", "--in", _grid_file(t, "u,v,F1,F2,F3\n0,0,1,0,0\n1\n"), "--mode", "float"],
     "planarize: ValueError: grid CSV row 3 has fewer than two cells"),
    ("web dimension null",
     lambda t: ["web-classify", "--in", _json_file(t, SEGRE_JSON, "map"), "--web", _web_with_dimension(t, None)],
     "planarize: ValueError: dimension must be an integer, got None"),
    ("web dimension a list",
     lambda t: ["web-classify", "--in", _json_file(t, SEGRE_JSON, "map"), "--web", _web_with_dimension(t, [3])],
     "planarize: ValueError: dimension must be an integer, got [3]"),
    ("web dimension fractional",
     lambda t: ["web-classify", "--in", _json_file(t, SEGRE_JSON, "map"), "--web", _web_with_dimension(t, 3.7)],
     "planarize: ValueError: dimension must be an integer, got 3.7"),
    ("web map into RP^3",
     lambda t: ["web-classify", "--in", _generated(t, 3, 2, 3), "--web", _web_with_dimension(t, 3)],
     "planarize: ValueError: a map taking lines to conics must go into RP^2, got RP^3"),
    ("one-component web map",
     lambda t: ["web-classify", "--in", _json_file(t, {"components": SEGRE_JSON["components"][:1]}, "map"),
                "--web", _web_with_dimension(t, 3)],
     "planarize: ValueError: a map taking lines to conics must go into RP^2, got RP^0"),
    ("fit negative degree", lambda t: ["fit", "--in", _square_grid(t), "--degree", "-1"],
     "planarize: ValueError: degree bound must be at least 0, got -1"),
    ("kmax zero", lambda t: ["implicitize", "--in", _json_file(t, SEGRE_JSON), "--kmax", "0"],
     "planarize: ValueError: kmax must be at least 1, got 0"),
    ("kmax negative", lambda t: ["implicitize", "--in", _json_file(t, SEGRE_JSON), "--kmax", "-1"],
     "planarize: ValueError: kmax must be at least 1, got -1"),
    ("kmax over the cell limit", lambda t: ["implicitize", "--in", _generated(t, 1, 3, 3), "--kmax", "12"],
     "planarize: ValueError: kmax 12 needs a system of 319865 cells, more than "
     f"MAX_IMPLICITIZE_CELLS = {MAX_IMPLICITIZE_CELLS}"),
    ("mode off khovanskii", lambda t: ["classify", "--in", "m.json", "--mode", "exact"],
     "planarize: error: unrecognized arguments: --mode exact"),
]


@pytest.mark.parametrize("name,argv,expect", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_input_exit_codes(tmp_path, capsys, name, argv, expect):
    assert main(argv(tmp_path)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith(expect)
    assert len(lines) == 1 or lines[0].startswith("usage: planarize")


#: address-space cap of a `_planarize` child: a run that needs more fails
#: with MemoryError instead of pressing on the machine
CHILD_MEMORY_BYTES = 2 * 2**30


def _cap_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


def _planarize(*argv, timeout):
    """`python -m planarize` in its own interpreter, its address space capped
    at CHILD_MEMORY_BYTES (in the child only) and killed after `timeout` s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "planarize", *argv], env=env, capture_output=True, text=True, timeout=timeout,
        preexec_fn=_cap_memory,
    )


@pytest.mark.parametrize("argv", [
    ["--degree", "16", "--target-dim", "3"],
    ["--degree", "100000", "--target-dim", "3"],
    ["--degree", "3", "--target-dim", "100000"],
])
def test_gen_over_a_limit_exits_1_at_once(argv):
    run = _planarize("gen", "--seed", "1", *argv, timeout=30)
    assert run.returncode == 1
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line.startswith("planarize: ValueError: ") and "at most" in line


def test_implicitize_over_the_cell_limit_exits_1_at_once(tmp_path):
    # the image of a generic cubic into RP^3 has degree 9, so no relation
    # ends the search early
    path = _generated(tmp_path, 1, 3, 3)
    run = _planarize("implicitize", "--in", path, "--kmax", "12", timeout=30)
    assert run.returncode == 1
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line.startswith("planarize: ValueError: ") and "MAX_IMPLICITIZE_CELLS" in line


def test_classify_over_the_lattice_limit_exits_1_at_once(tmp_path):
    # an octic into RP^9 (d + 1 = n) would read its wedge on the principal
    # lattice of degree 36: C(38, 2) = 703 points of 9 x 10 entries
    path = _generated(tmp_path, 1, 8, 9)
    run = _planarize("classify", "--in", path, timeout=30)
    assert run.returncode == 1
    assert run.stdout == ""
    (line,) = run.stderr.splitlines()
    assert line == ("planarize: ValueError: the dual of a degree-8 map into RP^9 needs 703 lattice points of "
                    f"9 x 10 entries, 63270 cells, more than MAX_DUAL_LATTICE_CELLS = {MAX_DUAL_LATTICE_CELLS}")


def test_khovanskii_float_grid_of_16384_nodes_fits_under_the_cap(tmp_path):
    # the plane test's SVD of a 16384 x 4 matrix builds no 16384 x 16384 U
    # (2 GiB, past CHILD_MEMORY_BYTES with the interpreter)
    path = tmp_path / "circle.csv"
    path.write_text(_circle_grid_text([k / 4 for k in range(128)], repr))
    run = _planarize("khovanskii", "--in", str(path), "--mode", "float", timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["case"] == "InCircle"


def _sparse_map_file(tmp_path, D, n):
    """[x0^D : x1^D : x2^D], with x0^(D-1) x1 appended into RP^3: a line with
    no zero entry has an image that spans RP^n."""
    exps = [(D, 0, 0), (0, D, 0), (0, 0, D), (D - 1, 1, 0)][: n + 1]
    return _json_file(tmp_path, RatMap([HPoly.monomial(e) for e in exps]).to_json(), "map")


@pytest.mark.parametrize("D,n", [(10**4, 3), (10**5, 3), (10**6, 2)], ids=["1e4-rp3", "1e5-rp3", "1e6-rp2"])
@pytest.mark.parametrize("command", ["classify", "dualize"])
def test_a_sparse_map_of_huge_degree_is_refused_by_the_span_line_at_once(tmp_path, command, D, n):
    # the seeded line is read modulo a prime, one pow per monomial, so the
    # degree costs nothing; the child runs under the memory cap
    run = _planarize(command, "--in", _sparse_map_file(tmp_path, D, n), timeout=10)
    assert run.returncode == 2, run.stderr
    reason = f"the image of line (7, 9, 2) spans RP^{n}, so no hyperplane contains it"
    expect = ({"class": "Indeterminate", "degree": None, "reason": reason, "witness": None} if command == "classify"
              else {"error": "NotPlanar", "detail": reason})
    (line,) = run.stdout.splitlines()
    assert json.loads(line) == expect
    assert run.stderr == ""


def test_classify_of_a_sextic_into_rp7_is_rational(tmp_path):
    # 14,168 cells, well inside the lattice limit
    path = _generated(tmp_path, 1, 6, 7)
    run = _planarize("classify", "--in", path, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["class"] == "Rational"


@pytest.mark.parametrize("kmax,code", [(9, 0), (10, 1)])
def test_implicitize_cell_limit_is_checked_before_the_search(tmp_path, capsys, monkeypatch, kmax, code):
    # kmax 9 on a cubic into RP^3 is 220 x 406 = 89,320 cells, kmax 10 is
    # 286 x 496 = 141,856
    searched = []
    monkeypatch.setattr(cli, "implicitize", lambda F, k: searched.append(k))
    assert main(["implicitize", "--in", _generated(tmp_path, 1, 3, 3), "--kmax", str(kmax)]) == code
    assert searched == ([kmax] if code == 0 else [])
    capsys.readouterr()


def test_gen_at_the_limits_finishes():
    for degree, target_dim in ((MAX_GEN_DEGREE, 3), (2, MAX_GEN_TARGET_DIM)):
        run = _planarize("gen", "--seed", "1", "--degree", str(degree), "--target-dim", str(target_dim), timeout=60)
        assert run.returncode == 0, run.stderr
        m = RatMap.from_json(json.loads(run.stdout))
        assert (m.degree, m.codim) == (degree, target_dim)


def _stereo_grid_text(axis, fmt):
    """Inverse stereographic projection on axis x axis, as grid CSV text."""
    lines = ["u,v,F1,F2,F3"]
    for v in axis:
        for u in axis:
            s = u * u + v * v + 1
            lines.append(",".join(fmt(x) for x in (u, v, 2 * u / s, 2 * v / s, (u * u + v * v - 1) / s)))
    return "\n".join(lines) + "\n"


def _circle_grid_text(axis, fmt):
    """The equator at t = u + v, rationally parameterized, on axis x axis,
    as grid CSV text."""
    lines = ["u,v,F1,F2,F3"]
    for v in axis:
        for u in axis:
            t = u + v
            lines.append(",".join(fmt(x) for x in (u, v, (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t), 0 * t)))
    return "\n".join(lines) + "\n"


def _segre_grid_text(axis):
    F = RatMap.from_json(SEGRE_JSON)
    values = []
    for v in axis:
        row = []
        for u in axis:
            y = F.evaluate([Fraction(1), u, v])
            row.append(tuple(c / y[0] for c in y[1:]))
        values.append(row)
    return write_csv_grid(GridMapSource(axis, axis, values, mode="exact"))


@pytest.mark.parametrize("argv", [["fit", "--degree", "2"], ["khovanskii"]], ids=["fit", "khovanskii"])
def test_grid_with_a_byte_order_mark(tmp_path, capsys, argv):
    axis = [Fraction(k, 3) + Fraction(1, 5) for k in range(12)]
    text = _segre_grid_text(axis) if argv[0] == "fit" else _stereo_grid_text(axis, str)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    code, out = run(capsys, argv[0], "--in", str(plain), *argv[1:])
    assert code == 0
    assert run(capsys, argv[0], "--in", str(marked), *argv[1:]) == (code, out)


def test_fit_residuals_of_a_model_that_does_not_fit():
    # the worst ratio, kept as an integer pair, is the largest of the
    # per-node ratios computed here in Fractions; the model vanishes at the
    # node (1/5, 1/5), which is not counted
    F = RatMap.from_json(SEGRE_JSON)
    axis = [Fraction(k, 3) + Fraction(1, 5) for k in range(5)]
    values = [[tuple(c / y[0] for c in y[1:]) for y in (F.evaluate([1, u, v]) for u in axis)] for v in axis]
    grid = GridMapSource(axis, axis, values, mode="exact")
    a, b = 5 * X1 - X0, 5 * X2 - X0
    model = RatMap([a * X0, b * X1, a * X2, b * X0 + a * X1])
    worst, checked = Fraction(0), 0
    for v, row in zip(axis, values):
        for u, val in zip(axis, row):
            M = model.evaluate([1, u, v])
            if M is None:
                continue
            Y = (1, *val)
            cross = max(abs(Y[i] * M[j] - Y[j] * M[i]) for i in range(4) for j in range(i + 1, 4))
            worst = max(worst, cross / (max(map(abs, Y)) * max(map(abs, M))))
            checked += 1
    assert worst > 0 and checked == 24
    assert cli._fit_residuals(grid, model) == {"max_cross_residual": float(worst), "nodes_checked": checked}


def test_grid_commands_read_the_grid_by_index(tmp_path, capsys, monkeypatch):
    # fit and khovanskii walk a grid's node table (or a float grid's values),
    # never looking a node up by value
    calls = []
    for name in ("evaluate", "node_index"):

        def counted(self, *args, _orig=getattr(GridMapSource, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(GridMapSource, name, counted)
    thirds = [Fraction(k, 3) + Fraction(1, 5) for k in range(12)]
    floats = [k / 4 for k in range(12)]
    grids = {
        "sphere.csv": (_stereo_grid_text(thirds, str), "exact", "Quadratic"),
        "circle.csv": (_circle_grid_text(thirds, str), "exact", "InCircle"),
        "float-circle.csv": (_circle_grid_text(floats, repr), "float", "InCircle"),
        # rounded values: the fits read the float grid's node table and fail
        "float-sphere.csv": (_stereo_grid_text(floats, repr), "float", "DegreeTooLow"),
    }
    path = tmp_path / "fit.csv"
    path.write_text(_segre_grid_text(thirds))
    code, out = run(capsys, "fit", "--in", str(path), "--degree", "2")
    assert code == 0 and json.loads(out)["residuals"]["nodes_checked"] == 144
    for name, (text, mode, case) in grids.items():
        path = tmp_path / name
        path.write_text(text)
        code, out = run(capsys, "khovanskii", "--in", str(path), "--mode", mode)
        assert json.loads(out)["case"] == case, (name, out)
    assert calls == []


def _degree_one_grid_text():
    """The map [x0 + x1 : 2 x0 - x2 : x1 + 3 x2 + x0] on the 7x7 lattice 0..6."""
    lines = ["u,v,F1,F2"]
    for v in range(7):
        for u in range(7):
            y0 = 1 + u
            lines.append(",".join(map(str, (u, v, Fraction(2 - v, y0), Fraction(u + 3 * v + 1, y0)))))
    return "\n".join(lines) + "\n"


# (argv, valid grid CSV text): each exits 0 as it stands
_FUZZ_BASES = [
    (["fit", "--degree", "1"], _degree_one_grid_text()),
    (["khovanskii"], _stereo_grid_text([Fraction(k, 2) for k in range(11)], str)),
    (["khovanskii", "--mode", "float"], _circle_grid_text([k / 2 for k in range(4)], repr)),
]
_JUNK = ["", "abc", "nan", "inf", "-inf", "1/0", "1e999", "0x10", "1/2/3", "--1", "\ufeff0"]
_MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 99), st.integers(0, 9)),
    st.tuples(st.just("repeat"), st.integers(0, 99)),
    st.tuples(st.just("junk"), st.integers(0, 99), st.integers(0, 9), st.sampled_from(_JUNK)),
)


def _mutated(text, mutations, bom, crlf):
    rows = [line.split(",") for line in text.splitlines()]
    for kind, i, *rest in mutations:
        i %= len(rows)
        if kind == "repeat":
            rows.insert(i, list(rows[i]))
        elif rows[i]:
            j = rest[0] % len(rows[i])
            if kind == "drop":
                del rows[i][j]
            else:
                rows[i][j] = rest[1]
    eol = "\r\n" if crlf else "\n"
    return ("\ufeff" if bom else "") + eol.join(",".join(r) for r in rows) + eol


def test_fuzz_bases_are_valid(tmp_path, capsys):
    for argv, text in _FUZZ_BASES:
        path = tmp_path / "grid.csv"
        path.write_text(text)
        assert run(capsys, argv[0], "--in", str(path), *argv[1:])[0] == 0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from(_FUZZ_BASES),
    st.lists(_MUTATION, max_size=3),
    st.booleans(),
    st.booleans(),
)
def test_mutated_grid_csv_ends_with_a_documented_exit_code(base, mutations, bom, crlf):
    # dropped cells, repeated rows, junk cells, a byte order mark and CRLF
    # line ends: every run ends with exit 0, 1 or 2, and a bad input with
    # one planarize: line
    argv, text = base
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "grid.csv"
        path.write_bytes(_mutated(text, mutations, bom, crlf).encode())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([argv[0], "--in", str(path), "--out", str(Path(folder) / "report.json"), *argv[1:]])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("planarize: ") and err.getvalue().count("\n") == 1


def test_khovanskii_float_grid_with_an_infinite_axis_node_exits_1(tmp_path, capsys):
    # the row v = inf holds the north pole of the stereographic map: a node
    # with no exact point is refused when the grid is built, not by an
    # OverflowError in the fit
    axis = [k / 2 for k in range(11)]
    lines = ["u,v,F1,F2,F3"]
    for v in axis[:-1]:
        for u in axis:
            s = u * u + v * v + 1
            lines.append(",".join(map(repr, (u, v, 2 * u / s, 2 * v / s, (u * u + v * v - 1) / s))))
    lines += [",".join(map(repr, (u, float("inf"), 0.0, 0.0, 1.0))) for u in axis]
    path = tmp_path / "sphere.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["khovanskii", "--in", str(path), "--mode", "float"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "planarize: ValueError: grid axis node v=inf is not finite\n")


def test_a_float_grid_with_nodes_closer_than_node_atol_exits_1(tmp_path, capsys):
    lines = _circle_grid_text([0.0, 1e-13, 0.5, 1.0], repr)
    path = tmp_path / "circle.csv"
    path.write_text(lines)
    assert main(["khovanskii", "--in", str(path), "--mode", "float"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "planarize: ValueError: grid axis nodes u=0.0 and u=1e-13 are closer than NODE_ATOL = 1e-12\n"
    )


def test_khovanskii_float_grid_with_a_nan_cell_is_off_the_sphere(tmp_path, capsys):
    # NaN compares false with everything, so it must fail the sphere check
    # rather than reach the SVD of the plane test
    lines = ["u,v,F1,F2,F3"]
    for j in range(8):
        for i in range(8):
            u, v = i / 4.0, j / 4.0
            s = u * u + v * v + 1
            cells = [2 * u / s, 2 * v / s, (u * u + v * v - 1) / s]
            if (i, j) == (3, 5):
                cells[2] = float("nan")
            lines.append(",".join(repr(x) for x in [u, v, *cells]))
    path = tmp_path / "sphere.csv"
    path.write_text("\n".join(lines) + "\n")
    code, out = run(capsys, "khovanskii", "--in", str(path), "--mode", "float")
    assert code == 2
    assert json.loads(out)["case"] == "NotOnSphere"


def _generated(tmp_path, seed, degree, target_dim):
    return _json_file(tmp_path, generate_map(seed, degree, target_dim).to_json(), "map")


def _map_file(tmp_path, components):
    return _json_file(tmp_path, reduce_map(components).to_json(), "map")


def _web_file(tmp_path, basis=None):
    web = circle_web() if basis is None else ConicSystem(basis)
    return _json_file(tmp_path, web.to_json(), "web")


INVERSION = [X1 * X1 + X2 * X2, X0 * X1, X0 * X2]
COLLINEATION = [X0, X1 + X2, X2]


def test_a_map_with_a_common_factor_gets_the_verdict_of_its_reduced_map(tmp_path, capsys):
    # the identity times x0 is the identity: Rational of degree 1, and Quadratic
    # on the circle web with the identity as its witness
    web = _web_file(tmp_path)
    reports = []
    for name, components in (("times-x0", [X0 * X0, X0 * X1, X0 * X2]), ("identity", [X0, X1, X2])):
        path = _json_file(tmp_path, RatMap(components).to_json(), name)
        reports.append([run(capsys, "classify", "--in", path), run(capsys, "web-classify", "--in", path, "--web", web)])
    assert reports[0] == reports[1]
    (code, out), (web_code, web_out) = reports[1]
    assert (code, json.loads(out)["class"], json.loads(out)["degree"]) == (0, "Rational", 1)
    assert (web_code, json.loads(web_out)["case"]) == (0, "Quadratic")
    assert json.loads(web_out)["witness"] == reduce_map([X0, X1, X2]).to_json()


# name, argv (given tmp_path), exit code, fields of the report
REPORTS = [
    ("dualize everywhere degenerate", lambda t: ["dualize", "--in", _generated(t, 5, 2, 4)], 2,
     {"error": "EverywhereDegenerate"}),
    ("web-classify not lines to conics",
     lambda t: ["web-classify", "--in", _generated(t, 5, 3, 2), "--web", _web_file(t)], 2,
     {"case": "NotALinesToCurvesMap", "witness": None}),
    ("implicitize no relation up to kmax",
     lambda t: ["implicitize", "--in", _generated(t, 5, 2, 3), "--kmax", "1"], 0,
     {"degree": None, "relation": None}),
    ("web-classify in conic with curves",
     lambda t: ["web-classify", "--in", _map_file(t, [X0 * X0 + X1 * X1, X0 * X0 - X1 * X1, 2 * X0 * X1]),
                "--web", _web_file(t), "--emit-curves", str(t / "curves.csv")], 0,
     {"case": "InConic", "witness": [1, 0, 0, -1], "diagnostics": None}),
    ("web-classify inverse quadratic",
     lambda t: ["web-classify", "--in", _map_file(t, INVERSION),
                "--web", _web_file(t, INVERSION + [X0 * X0 + X1 * X1])], 0,
     {"case": "InverseQuadratic", "witness": reduce_map(INVERSION).to_json(), "diagnostics": None}),
    ("web-classify collineation",
     lambda t: ["web-classify", "--in", _map_file(t, COLLINEATION), "--web", _web_file(t)], 0,
     {"case": "Quadratic", "witness": reduce_map(COLLINEATION).to_json(), "diagnostics": None}),
]


@pytest.mark.parametrize("name,argv,code,fields", REPORTS, ids=[r[0] for r in REPORTS])
def test_report_paths(tmp_path, capsys, name, argv, code, fields):
    args = argv(tmp_path)
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert {k: report[k] for k in fields} == fields
    if "--emit-curves" in args:
        assert (tmp_path / "curves.csv").read_text().startswith("curve,param,y0,y1,y2\n")
