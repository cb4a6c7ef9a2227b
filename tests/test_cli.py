"""CLI: parsing, reports, determinism, exit codes."""

import json
from math import comb
from pathlib import Path

import pytest

from convexval import bodygroup as bg
from convexval import polytope as pk
from convexval import verify_suite as vs
from convexval.cli import parse_polytope, parse_polytope_with_notices, run
from convexval.errors import ParseError


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
            }
        )
    )
    return str(path)


@pytest.fixture()
def padded_square_file(tmp_path):
    path = tmp_path / "padded.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "vertices": [
                    ["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"], ["1/4", "1/4"],
                ],
            }
        )
    )
    return str(path)


def test_parse_polytope_triangle(tmp_path):
    path = tmp_path / "tri.json"
    path.write_text('{"dim":2,"vertices":[["0","0"],["1","0"],["0","1"]]}')
    P = parse_polytope(str(path))
    assert P == pk.hull([(0, 0), (1, 0), (0, 1)])


def test_parse_polytope_accepts_rational_strings(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"dim":1,"vertices":[["1/3"],["2/3"]]}')
    P = parse_polytope(str(path))
    assert P == pk.hull([("1/3",), ("2/3",)])


def test_parse_polytope_prunes_with_notice(padded_square_file):
    P, notices = parse_polytope_with_notices(padded_square_file)
    assert P == pk.unit_cube(2)
    assert notices and "pruned" in notices[0]


def test_parse_polytope_round_trip(square_file):
    P = parse_polytope(square_file)
    assert pk.polytope_from_obj(pk.polytope_to_obj(P)) == P


def test_parse_polytope_error_has_context(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "vertices": [["0"]]}')
    with pytest.raises(ParseError) as err:
        parse_polytope(str(path))
    assert "vertex 0" in str(err.value)


def test_expand_report(square_file, capsys):
    code = run(["expand", "--input", square_file, "--valuation", "volume"])
    out = capsys.readouterr().out
    assert code == 0
    assert "f_0=0 f_1=0 f_2=1" in out


def test_components_report(square_file, capsys):
    code = run(["components", "--input", square_file, "--panel", "volume,euler"])
    out = capsys.readouterr().out
    assert code == 0
    assert "e_2" in out and "signature.volume = 1" in out


def test_decompose_report(capsys):
    code = run(["decompose", "--basis", "1,0;0,1", "--a", "1", "--b", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cell_0.volume = 1/2" in out
    assert "cell_1.volume = 1" in out
    assert "result = pass" in out


def test_ehrhart_report(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(pk.polytope_to_obj(pk.unit_cube(2))))
    code = run(["ehrhart", "--input", str(path), "--lambda", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "counts.4 = 25" in out
    assert "f_2 = 1" in out


def test_mixed_report(square_file, tmp_path, capsys):
    tri = tmp_path / "tri.json"
    tri.write_text('{"dim":2,"vertices":[["0","0"],["1","0"],["0","1"]]}')
    code = run(["mixed", "--input", square_file, "--input", str(tri)])
    out = capsys.readouterr().out
    assert code == 0
    assert "cross_check = pass" in out


def test_compare_reports(square_file, tmp_path, capsys):
    s1 = tmp_path / "s1.json"
    s2 = tmp_path / "s2.json"
    s3 = tmp_path / "s3.json"
    square = bg.class_of(pk.unit_cube(2))
    moved = bg.class_of(pk.translate(pk.unit_cube(2), (4, 5)))
    point = bg.class_of(pk.origin_polytope(2))
    s1.write_text(json.dumps(bg.sum_to_obj(square)))
    s2.write_text(json.dumps(bg.sum_to_obj(moved)))
    s3.write_text(json.dumps(bg.sum_to_obj(point)))

    code = run(["compare", "--input", str(s1), "--input", str(s2)])
    assert code == 0
    assert "equal_on_panel" in capsys.readouterr().out

    code = run(["compare", "--input", str(s1), "--input", str(s3)])
    out = capsys.readouterr().out
    assert code == 1
    assert "distinguished" in out and "witness.valuation = volume" in out


def test_json_format_mirrors_text(square_file, capsys):
    run(["expand", "--input", square_file, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"] == {"f_0": "0", "f_1": "0", "f_2": "1"}


def test_report_determinism(square_file, capsys):
    run(["components", "--input", square_file])
    first = capsys.readouterr().out
    run(["components", "--input", square_file])
    second = capsys.readouterr().out
    assert first == second


def test_exit_code_usage_error(capsys):
    assert run(["expand"]) == 2  # missing --input
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run(["expand", "--input", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


def test_exit_code_missing_file(capsys):
    assert run(["expand", "--input", "/no/such/file.json"]) == 2
    capsys.readouterr()


def _assert_usage_error(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert any("error:" in line for line in err.splitlines())


@pytest.mark.parametrize("option", [["--probe", "nope"], ["--valuation", "probe:nope"]],
                         ids=["probe", "valuation"])
def test_unknown_probe_lists_the_choices(option, square_file, capsys):
    code = run(["expand", "--input", square_file] + option)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("error: unknown probe 'nope'; choose from"
                   " ['asym_simplex', 'std_simplex', 'unit_cube']\n")


def test_exit_code_ehrhart_fractional_lambda(square_file, capsys):
    _assert_usage_error(["ehrhart", "--input", square_file, "--lambda", "1/2"], capsys)


def test_exit_code_ehrhart_negative_lambda(square_file, capsys):
    _assert_usage_error(["ehrhart", "--input", square_file, "--lambda", "-3"], capsys)


@pytest.mark.parametrize("command", ["expand", "components", "ehrhart"])
def test_exit_code_negative_degree(command, square_file, capsys):
    _assert_usage_error([command, "--input", square_file, "--degree", "-1"], capsys)


@pytest.mark.parametrize("body, degree", [("square", "1"), ("square", "0"), ("cube", "2")])
def test_exit_code_components_degree_below_dimension(body, degree, tmp_path, capsys):
    path = tmp_path / f"{body}.json"
    path.write_text(json.dumps(pk.polytope_to_obj(pk.unit_cube(2 if body == "square" else 3))))
    _assert_usage_error(["components", "--input", str(path), "--degree", degree], capsys)


@pytest.mark.parametrize("body, degree", [("segment", ["--degree", "9"]), ("cube9", [])],
                         ids=["segment-degree9", "cube9-default-degree"])
def test_exit_code_components_degree_above_guard(body, degree, tmp_path, capsys):
    path = tmp_path / f"{body}.json"
    P = pk.hull([(0,), (1,)]) if body == "segment" else pk.unit_cube(9)
    path.write_text(json.dumps(pk.polytope_to_obj(P)))
    _assert_usage_error(["components", "--input", str(path)] + degree, capsys)


@pytest.mark.parametrize("source", ["input-vertex", "decompose-a"])
def test_exit_code_zero_denominator_names_it(source, tmp_path, capsys):
    if source == "input-vertex":
        path = tmp_path / "f.json"
        path.write_text('{"dim": 1, "vertices": [["1/0"], ["1"]]}')
        argv = ["expand", "--input", str(path)]
    else:
        argv = ["decompose", "--basis", "1,0;0,1", "--a", "1/0"]
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "zero denominator" in err
    assert "Fraction(" not in err


def test_reconstruction_error_prints_the_probe_as_a_number(tmp_path, capsys):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(pk.polytope_to_obj(pk.unit_cube(3))))
    code = run(["expand", "--input", str(path), "--degree", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert "at probe 2;" in errors[0] and "Fraction(" not in errors[0]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("expand", {"dim": True, "vertices": [["0"], ["2"]]}),
        ("expand", {"dim": 1, "vertices": [[True], [2]]}),
        ("compare", [{"coef": True, "polytope": {"dim": 1, "vertices": [["0"]]}}]),
    ],
)
def test_exit_code_json_boolean_as_number(command, payload, tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(payload))
    inputs = ["--input", str(path)] * (2 if command == "compare" else 1)
    _assert_usage_error([command, *inputs], capsys)


@pytest.mark.parametrize("command", ["expand", "components", "ehrhart", "mixed", "compare"])
def test_exit_code_input_not_utf8(command, tmp_path, capsys):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe{")
    inputs = ["--input", str(path)] * (2 if command in ("mixed", "compare") else 1)
    _assert_usage_error([command, *inputs], capsys)


LONG_INT = "1" * 5000  # beyond the interpreter's 4,300-digit limit for int()


@pytest.mark.parametrize(
    "command, text",
    [
        ("expand", "[" * 100_000),
        ("expand", '{"dim": 1, "vertices": [[%s], [0]]}' % LONG_INT),
        ("expand", '{"dim": %s, "vertices": [[1], [0]]}' % LONG_INT),
        ("compare", "[" * 100_000),
        ("compare", '[{"coef": %s, "polytope": {"dim": 1, "vertices": [[0]]}}]' % LONG_INT),
    ],
    ids=["expand-deep", "expand-long-vertex", "expand-long-dim", "compare-deep",
         "compare-long-coef"],
)
def test_exit_code_json_beyond_interpreter_limits(command, text, tmp_path, capsys):
    path = tmp_path / "limits.json"
    path.write_text(text)
    inputs = ["--input", str(path)] * (2 if command == "compare" else 1)
    code = run([command, *inputs])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1


SEGMENT_SUM = [{"coef": 1, "polytope": {"dim": 1, "vertices": [["0"], ["1"]]}}]
SQUARE_SUM = [{"coef": 1, "polytope": pk.polytope_to_obj(pk.unit_cube(2))}]
CUBE_SUM = [{"coef": 2, "polytope": pk.polytope_to_obj(pk.unit_cube(3))}]


@pytest.mark.parametrize(
    "left, right, panel",
    [
        (SEGMENT_SUM, SQUARE_SUM, ["--panel", "volume,euler"]),
        (SQUARE_SUM, SEGMENT_SUM, []),
        (CUBE_SUM, SQUARE_SUM, ["--panel", "euler"]),
        (SEGMENT_SUM + SQUARE_SUM, SEGMENT_SUM, ["--panel", "volume,euler"]),
        # the square terms cancel, but a sum may not mix dimensions at all
        (SEGMENT_SUM + SQUARE_SUM + [{"coef": -1, "polytope": SQUARE_SUM[0]["polytope"]}],
         SEGMENT_SUM, []),
        (SEGMENT_SUM, CUBE_SUM + [{"coef": -1, "polytope": SEGMENT_SUM[0]["polytope"]}], []),
    ],
)
def test_exit_code_compare_across_dimensions(left, right, panel, tmp_path, capsys):
    paths = []
    for name, obj in (("left", left), ("right", right)):
        paths += ["--input", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    _assert_usage_error(["compare", *paths, *panel], capsys)


@pytest.mark.parametrize("panel", ["", ",", " ", " , "])
@pytest.mark.parametrize("command", ["compare", "components"])
def test_exit_code_panel_naming_no_valuation(command, panel, tmp_path, capsys):
    # sums of volumes 1/2 and 15/2, which an empty panel would call equal
    triangle = {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}
    rectangle = {"dim": 2, "vertices": [["0", "0"], ["5", "0"], ["0", "3/2"], ["5", "3/2"]]}
    if command == "compare":
        paths = []
        for name, body in (("left", triangle), ("right", rectangle)):
            (tmp_path / f"{name}.json").write_text(json.dumps([{"coef": 1, "polytope": body}]))
            paths += ["--input", str(tmp_path / f"{name}.json")]
    else:
        (tmp_path / "body.json").write_text(json.dumps(triangle))
        paths = ["--input", str(tmp_path / "body.json")]
    _assert_usage_error([command, *paths, "--panel", panel], capsys)


@pytest.mark.parametrize("other, code", [([], 0), (SEGMENT_SUM, 1), (SQUARE_SUM, 1), (CUBE_SUM, 1)])
def test_compare_zero_sum_with_any_dimension(other, code, tmp_path, capsys):
    zero, path = tmp_path / "zero.json", tmp_path / "other.json"
    zero.write_text("[]")
    path.write_text(json.dumps(other))
    for argv in (["--input", str(zero), "--input", str(path)],
                 ["--input", str(path), "--input", str(zero)]):
        assert run(["compare", *argv]) == code
        out, err = capsys.readouterr()
        assert err == "" and "result = " in out


def test_verify_stats_times_each_suite_on_stderr_only(monkeypatch, capsys):
    def stub(name, ok):
        def suite(seed):
            result = vs.SuiteResult(name)
            result.count(ok, f"seed {seed}")
            return result
        return suite

    monkeypatch.setattr(vs, "SUITES", (stub("first suite", True), stub("second suite", False)))
    assert run(["verify", "--seed", "3"]) == 1
    plain = capsys.readouterr()
    assert run(["verify", "--seed", "3", "--stats"]) == 1
    timed = capsys.readouterr()
    assert plain.err == "" and timed.out == plain.out
    assert "first suite" in plain.out and "seed 3" in plain.out
    lines = [line.split(" ", 3) for line in timed.err.splitlines()]
    assert [(tag, unit, name) for tag, _, unit, name in lines] == [
        ("stats:", "s", "first suite"), ("stats:", "s", "second suite")]
    assert all(float(seconds) >= 0 for _, seconds, _, _ in lines)


# ---------------------------------------------------------------------------
# golden output of the README examples


GOLDEN_FILES = {
    "square.json": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]},
    "cube.json": {"dim": 3, "vertices": [[x, y, z] for x in "01" for y in "01" for z in "01"]},
    "p.json": {"dim": 2, "vertices": [["0", "0"], ["2", "0"], ["0", "1"], ["1/2", "1/4"]]},
    "q.json": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]},
    "s1.json": [
        {"coef": 2, "polytope": {"dim": 2, "vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}},
        {"coef": -1, "polytope": {"dim": 2, "vertices": [["0", "0"]]}},
    ],
    "s2.json": [
        {"coef": 1, "polytope": {"dim": 2, "vertices": [["3", "3"], ["4", "3"], ["3", "4"], ["4", "4"]]}},
        {"coef": 1, "polytope": {"dim": 2, "vertices": [["5", "5"]]}},
    ],
}

# (argv, exit code, stdout) for each README example except `verify --seed 0`
# (about 20 s; its suites run in test_acceptance), plus a 3D `decompose`
# with fractional a and b.
GOLDEN = [
    (
        ["expand", "--input", "square.json", "--valuation", "volume"],
        0,
        """\
command = expand
input = square.json
valuation = volume
degree = 2
coefficients.f_0 = 0
coefficients.f_1 = 0
coefficients.f_2 = 1
summary = f_0=0 f_1=0 f_2=1
""",
    ),
    (
        ["components", "--input", "square.json", "--panel", "volume,euler"],
        0,
        """\
command = components
input = square.json
dimension = 2
components.e_0.sum = [(0,0)]
components.e_0.signature.volume = 0
components.e_0.signature.euler = 1
components.e_1.sum = -3*[(0,0)] + 4*[(0,0);(0,1/2);(1/2,0);(1/2,1/2)] - [(0,0);(0,1);(1,0);(1,1)]
components.e_1.signature.volume = 0
components.e_1.signature.euler = 0
components.e_2.sum = 2*[(0,0)] - 4*[(0,0);(0,1/2);(1/2,0);(1/2,1/2)] + 2*[(0,0);(0,1);(1,0);(1,1)]
components.e_2.signature.volume = 1
components.e_2.signature.euler = 0
""",
    ),
    (
        ["decompose", "--basis", "1,0;0,1", "--a", "1", "--b", "1"],
        0,
        """\
command = decompose
basis: 1,0
basis: 0,1
a = 1
b = 1
cells.cell_0.vertices = Polytope[(0,0); (1,0); (1,1)]
cells.cell_0.volume = 1/2
cells.cell_1.vertices = Polytope[(1,0); (1,1); (2,0); (2,1)]
cells.cell_1.volume = 1
cells.cell_2.vertices = Polytope[(1,1); (2,1); (2,2)]
cells.cell_2.volume = 1/2
seams.seam_1 = Polytope[(1,0); (1,1)]
seams.seam_2 = Polytope[(1,1); (2,1)]
checks.volume_additive = True
checks.cover = True
checks.cells_inside = True
checks.seams_match = True
checks.seams_lower_dim = True
result = pass
""",
    ),
    (
        ["decompose", "--basis", "1,0,0;1,2,0;0,-1,3", "--a", "1/2", "--b", "5/3"],
        0,
        """\
command = decompose
basis: 1,0,0
basis: 1,2,0
basis: 0,-1,3
a = 1/2
b = 5/3
cells.cell_0.vertices = Polytope[(0,0,0); (5/3,0,0); (10/3,5/3,5); (10/3,10/3,0)]
cells.cell_0.volume = 125/27
cells.cell_1.vertices = Polytope[(5/3,0,0); (13/6,0,0); (10/3,5/3,5); (10/3,10/3,0); (23/6,5/3,5); (23/6,10/3,0)]
cells.cell_1.volume = 25/6
cells.cell_2.vertices = Polytope[(10/3,5/3,5); (10/3,10/3,0); (23/6,5/3,5); (23/6,10/3,0); (13/3,8/3,5); (13/3,13/3,0)]
cells.cell_2.volume = 5/4
cells.cell_3.vertices = Polytope[(10/3,5/3,5); (23/6,5/3,5); (13/3,13/6,13/2); (13/3,8/3,5)]
cells.cell_3.volume = 1/8
seams.seam_1 = Polytope[(5/3,0,0); (10/3,5/3,5); (10/3,10/3,0)]
seams.seam_2 = Polytope[(10/3,5/3,5); (10/3,10/3,0); (23/6,5/3,5); (23/6,10/3,0)]
seams.seam_3 = Polytope[(10/3,5/3,5); (23/6,5/3,5); (13/3,8/3,5)]
checks.volume_additive = True
checks.cover = True
checks.cells_inside = True
checks.seams_match = True
checks.seams_lower_dim = True
result = pass
""",
    ),
    (
        ["ehrhart", "--input", "cube.json", "--lambda", "6"],
        0,
        """\
command = ehrhart
input = cube.json
counts.0 = 1
counts.1 = 8
counts.2 = 27
counts.3 = 64
counts.4 = 125
counts.5 = 216
counts.6 = 343
coefficients.f_0 = 1
coefficients.f_1 = 3
coefficients.f_2 = 3
coefficients.f_3 = 1
""",
    ),
    (
        ["mixed", "--input", "p.json", "--input", "q.json"],
        0,
        """\
command = mixed
inputs: p.json
inputs: q.json
mixed_volume = 3/2
expansion_linear_coefficient = 3
cross_check = pass
""",
    ),
    (
        ["compare", "--input", "s1.json", "--input", "s2.json"],
        1,
        """\
command = compare
inputs: s1.json
inputs: s2.json
panel: volume
panel: euler
panel: probe_vol:unit_cube
panel: probe_vol:std_simplex
panel: probe_vol:asym_simplex
result = distinguished
witness.valuation = euler
witness.left = 1
witness.right = 2
""",
    ),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_readme_examples_golden(argv, code, stdout, tmp_path, monkeypatch, capsys):
    for name, obj in GOLDEN_FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == code
    assert capsys.readouterr().out == stdout


# stdout of `components --format json`, recorded before the components came
# from the per-degree coefficient table
COMPONENTS_GOLDEN = {
    "tet.json": {"dim": 3, "vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "2", "0"], ["1/2", "1/3", "1"]]},
    "p.json": GOLDEN_FILES["p.json"],
    "pt.json": {"dim": 2, "vertices": [["3", "-1/2"]]},
}


@pytest.mark.parametrize("argv, golden", [
    (["--input", "tet.json"], "components-tet.json"),
    (["--input", "p.json", "--degree", "3"], "components-p-degree3.json"),
    (["--input", "pt.json"], "components-point.json"),
])
def test_components_json_golden(argv, golden, tmp_path, monkeypatch, capsys):
    expected = (Path(__file__).parent / "golden" / golden).read_text()
    for name, obj in COMPONENTS_GOLDEN.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    assert run(["components", "--format", "json", *argv]) == 0
    assert capsys.readouterr().out == expected


# stdout of `decompose --format json` at the three (a, b) of the verify suite,
# recorded before the pieces were built at their final position
DECOMPOSE_BASES = {1: "3/2", 2: "1,1;-1,2", 3: "1,0,0;1,2,0;0,-1,3"}


@pytest.mark.parametrize("a, b", [(str(a), str(b)) for a, b in vs.AB_PAIRS])
@pytest.mark.parametrize("d", sorted(DECOMPOSE_BASES))
def test_decompose_json_golden(d, a, b, capsys):
    golden = f"decompose-d{d}-a{a.replace('/', '_')}-b{b.replace('/', '_')}.json"
    expected = (Path(__file__).parent / "golden" / golden).read_text()
    argv = ["decompose", "--format", "json", "--basis", DECOMPOSE_BASES[d], "--a", a, "--b", b]
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv", [
    ["expand", "--valuation", "lattice"],
    ["expand", "--valuation", "support:1"],
    ["components", "--panel", "lattice"],
    ["components", "--panel", "support:1"],
    ["compare", "--panel", "lattice"],
    ["compare", "--panel", "support:1"],
])
def test_exit_code_tokens_without_translation_invariance(argv, square_file, tmp_path, capsys):
    if argv[0] == "compare":
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(SQUARE_SUM))
        inputs = ["--input", str(path)] * 2
    else:
        inputs = ["--input", square_file]
    _assert_usage_error([argv[0], *inputs, *argv[1:]], capsys)


# input bodies and expected stdout of the extraction regression runs, kept
# next to the goldens so that CI can run the same commands
GOLDEN_DIR = Path(__file__).parent / "golden"


def test_expand_segment_degree8_golden(monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN_DIR.parent.parent)
    assert run(["expand", "--input", "tests/golden/segment.json", "--degree", "8"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "expand-segment-degree8.txt").read_text()


def test_ehrhart_width3_tetrahedron(capsys):
    # conv(0, 3e1, 3e2, 3e3): its k-dilate holds C(3k+3, 3) lattice points
    code = run(["ehrhart", "--input", str(GOLDEN_DIR / "tet-width3.json"), "--lambda", "6"])
    out = capsys.readouterr().out
    assert code == 0
    for k in range(7):
        assert f"counts.{k} = {comb(3 * k + 3, 3)}\n" in out
    assert out.endswith(
        "coefficients.f_0 = 1\ncoefficients.f_1 = 11/2\n"
        "coefficients.f_2 = 9\ncoefficients.f_3 = 9/2\n"
    )
