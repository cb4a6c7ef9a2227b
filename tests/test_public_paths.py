"""Public paths of the library and CLI that the other tests never reach."""

import json
import pickle
from fractions import Fraction as F

import pytest

from convexval import bodygroup as bg
from convexval import polytope as pk
from convexval import valuations as vv
from convexval.cli import run
from convexval.errors import (
    DependentBasis,
    DimensionMismatch,
    EmptyInput,
    MixedDimensions,
    ParseError,
    UnsupportedDimension,
)


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(pk.polytope_to_obj(pk.unit_cube(2))))
    return str(path)


def _usage_error(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [err.strip()]
    return err


def test_expand_with_a_named_probe(square_file, capsys):
    # vol(tS + D) = t^2 + 2 V(S, D) t + vol(D), with V(S, D) = 1 for the unit
    # square S and the standard triangle D
    assert run(["expand", "--input", square_file, "--probe", "std_simplex"]) == 0
    out = capsys.readouterr().out
    assert "degree = 2\n" in out
    assert "summary = f_0=1/2 f_1=2 f_2=1\n" in out


def test_components_with_a_named_probe_panel(square_file, capsys):
    argv = ["components", "--input", square_file, "--panel", "volume,probe:unit_cube"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    # e_i[S] through vol and vol(. + S): 0, 0, 1 and 1, 2, 1
    for i, (vol, probe) in enumerate([("0", "1"), ("0", "2"), ("1", "1")]):
        assert f"components.e_{i}.signature.volume = {vol}\n" in out
        assert f"components.e_{i}.signature.probe_vol:unit_cube = {probe}\n" in out


@pytest.mark.parametrize("basis, message", [
    (";", "error: --basis needs at least one vector\n"),
    ("1,0;2,0", "error: --basis: basis vectors are linearly dependent\n"),
], ids=["empty", "dependent"])
def test_decompose_rejects_an_empty_or_dependent_basis(basis, message, capsys):
    assert _usage_error(["decompose", "--basis", basis], capsys) == message


@pytest.mark.parametrize("command", ["mixed", "compare"])
def test_two_input_commands_reject_one_input(command, square_file, capsys):
    _usage_error([command, "--input", square_file], capsys)


@pytest.mark.parametrize("obj", [[["0"], ["1"]], "square", None], ids=["list", "str", "null"])
def test_polytope_from_obj_rejects_a_non_object(obj):
    with pytest.raises(ParseError, match="must be a JSON object"):
        pk.polytope_from_obj(obj)


def test_polytope_from_obj_rejects_no_vertices():
    with pytest.raises(ParseError, match="non-empty list"):
        pk.polytope_from_obj({"dim": 2, "vertices": []})


def test_contains_rejects_a_point_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        pk.contains(pk.unit_cube(2), (0, 0, 0))


def test_lattice_count_beyond_r3():
    with pytest.raises(UnsupportedDimension):
        pk.lattice_count(pk.unit_cube(4))


def test_volume_and_contains_of_a_general_body_beyond_r3():
    # the standard simplex in R^4 with one more vertex: full-dimensional, but
    # neither a simplex nor a box
    verts = [tuple(F(int(j == i)) for j in range(4)) for i in range(-1, 4)]
    P = pk.Polytope(4, tuple(sorted(verts + [(F(1),) * 4])))
    with pytest.raises(UnsupportedDimension):
        pk.volume(P)
    with pytest.raises(UnsupportedDimension):
        pk.contains(P, (0, 0, 0, 0))


def test_polytope_needs_a_vertex_of_its_dimension():
    with pytest.raises(EmptyInput):
        pk.Polytope(2, ())
    with pytest.raises(MixedDimensions):
        pk.Polytope(2, ((F(0), F(0)), (F(1),)))


def test_simplex_basis_of_mixed_lengths():
    with pytest.raises(MixedDimensions):
        pk.simplex_basis([(1, 0), (0, 1, 0)])
    with pytest.raises(DependentBasis):
        pk.simplex_basis([])


@pytest.mark.parametrize("points", [
    [(0, 0), (2, 0), (0, 3)],
    [(F(1, 2), 0), (F(7, 2), F(1, 3))],
    [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
    [(F(-3, 2), F(1, 2), 0), (1, 2, 0), (0, F(5, 2), 0)],
])
def test_lattice_valuation_is_the_lattice_count(points):
    P = pk.hull(points)
    assert vv.evaluate(vv.lattice_valuation(), P) == pk.lattice_count(P)


def test_formal_sum_pickles():
    s = 3 * bg.class_of(pk.hull([(F(1, 2), 0), (2, 1)])) + -1 * bg.class_of(pk.unit_cube(2))
    copy = pickle.loads(pickle.dumps(s))
    assert type(copy) is bg.FormalSum
    assert copy == s and str(copy) == str(s)
    assert copy.is_zero() is False and (copy - s).is_zero()
