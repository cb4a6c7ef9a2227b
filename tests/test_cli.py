"""CLI: parsing, reports, determinism, exit codes."""

import json

import pytest

from convexval import bodygroup as bg
from convexval import polytope as pk
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


def test_exit_code_ehrhart_fractional_lambda(square_file, capsys):
    _assert_usage_error(["ehrhart", "--input", square_file, "--lambda", "1/2"], capsys)


def test_exit_code_ehrhart_negative_lambda(square_file, capsys):
    _assert_usage_error(["ehrhart", "--input", square_file, "--lambda", "-3"], capsys)


@pytest.mark.parametrize("command", ["expand", "components", "ehrhart"])
def test_exit_code_negative_degree(command, square_file, capsys):
    _assert_usage_error([command, "--input", square_file, "--degree", "-1"], capsys)
