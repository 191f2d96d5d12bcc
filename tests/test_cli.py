"""Command-line pipeline: determinism, round trips, exit codes."""

import json
from fractions import Fraction

import pytest

from planarize import ratfit
from planarize.cli import main
from planarize.jetplan import GridMapSource, write_csv_grid
from planarize.poly import RatMap, reduce_map, variables

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


def _json_file(tmp_path, data, name="bad"):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


NULL_NVARS = {"components": [{**SEGRE_JSON["components"][0], "nvars": None}]}


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


def _failing_fit(exc):
    def fit_map(*args, **kwargs):
        raise exc("planted fit failure")

    return fit_map


# name, argv (given tmp_path), fit_map stand-in, exit code, start of the last
# stderr line (exit 1; only usage errors print more than that line) or the
# report's case (exit 2)
MALFORMED = [
    ("negative degree", lambda t: ["gen", "--degree", "-1"], None, 1,
     "planarize: ValueError: degree must be at least 0"),
    ("target dim zero", lambda t: ["gen", "--target-dim", "0"], None, 1,
     "planarize: ValueError: target dimension must be at least 1"),
    ("zero denominator", lambda t: ["classify", "--in", _map_with_coefficient(t, "1/0")], None, 1,
     "planarize: ValueError: scalar '1/0' has a zero denominator"),
    ("map is a list", lambda t: ["classify", "--in", _json_file(t, SEGRE_JSON["components"])], None, 1,
     "planarize: ValueError: a map is a JSON object with a list of components"),
    ("null coefficient", lambda t: ["classify", "--in", _map_with_coefficient(t, None)], None, 1,
     "planarize: ValueError: scalar None is not a rational number"),
    ("components a string", lambda t: ["classify", "--in", _json_file(t, {"components": "abc"})], None, 1,
     "planarize: ValueError: a map is a JSON object with a list of components"),
    ("nvars null", lambda t: ["classify", "--in", _json_file(t, NULL_NVARS)], None, 1,
     "planarize: ValueError: a polynomial is a JSON object with integer nvars and degree"),
    ("web is a list",
     lambda t: ["web-classify", "--in", _json_file(t, SEGRE_JSON, "map"), "--web", _json_file(t, [])],
     None, 1, "planarize: ValueError: a conic system is a JSON object with a list of basis forms"),
    ("sparse grid", lambda t: ["fit", "--in", _sparse_grid(t)], None, 1,
     "planarize: ValueError: grid CSV has no row for the node u=1, v=1"),
    ("empty grid", lambda t: ["fit", "--in", _empty_grid(t)], None, 1,
     "planarize: ValueError: grid CSV must start with columns u,v"),
    ("fit negative degree", lambda t: ["fit", "--in", _square_grid(t), "--degree", "-1"], None, 1,
     "planarize: ValueError: degree bound must be at least 0, got -1"),
    ("kmax zero", lambda t: ["implicitize", "--in", _json_file(t, SEGRE_JSON), "--kmax", "0"], None, 1,
     "planarize: ValueError: kmax must be at least 1, got 0"),
    ("kmax negative", lambda t: ["implicitize", "--in", _json_file(t, SEGRE_JSON), "--kmax", "-1"], None, 1,
     "planarize: ValueError: kmax must be at least 1, got -1"),
    ("mode off khovanskii", lambda t: ["classify", "--in", "m.json", "--mode", "exact"], None, 1,
     "planarize: error: unrecognized arguments: --mode exact"),
    ("khovanskii ambiguous fit", lambda t: ["khovanskii", "--in", _stereo_grid(t)],
     ratfit.AmbiguousFit, 2, "AmbiguousFit"),
    ("khovanskii normalization", lambda t: ["khovanskii", "--in", _stereo_grid(t)],
     ratfit.NormalizationFailure, 2, "NormalizationFailure"),
]


@pytest.mark.parametrize("name,argv,fit_failure,code,expect", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_input_exit_codes(tmp_path, capsys, monkeypatch, name, argv, fit_failure, code, expect):
    if fit_failure:
        monkeypatch.setattr(ratfit, "fit_map", _failing_fit(fit_failure))
    assert main(argv(tmp_path)) == code
    captured = capsys.readouterr()
    if code == 1:
        lines = captured.err.splitlines()
        assert lines[-1].startswith(expect)
        assert len(lines) == 1 or lines[0].startswith("usage: planarize")
    else:
        assert captured.err == ""
        assert json.loads(captured.out) == {"case": expect, "witness": None, "diagnostics": "planted fit failure"}
