"""The library's record types: hashes, equality, immutability and reprs.

Bodies, bases, formal sums, reports and carrier records are immutable
values. Their hashes are those of the tuple of their fields, so cache keys
and set orders stay put; equal values compare equal; assigning a field
raises `AttributeError`; and the reprs read `Name(field=value, ...)`.
`verify_suite.SuiteResult` is left out: it is a mutable tally.

The last test imports the CLI in a fresh interpreter and checks that the
library pulls in no module that only introspection needs.
"""

import operator
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from convexval import bodygroup as bg
from convexval import diffcalc as dc
from convexval import polytope as pk
from convexval import valuations as vv

SQUARE = pk.hull([(0, 0), (1, 0), (0, 1), (1, 1)])
BASIS_VECTORS = [(1, 0), (0, 1)]


def _records():
    """(record, an equal record built again, a field name) for every
    immutable record type of the library."""
    fn = lambda a: a * a  # noqa: E731
    pieces = pk.decomposition_pieces(pk.simplex_basis(BASIS_VECTORS), 1, 1)
    report = pk.verify_decomposition(pk.simplex_basis(BASIS_VECTORS), 1, 1)
    component = dc.ExpansionComponent(1, fn, F(1))
    expansion = dc.PolynomialExpansion(1, F(0), (component,))
    signature = bg.panel_signature(bg.class_of(SQUARE), [vv.volume_valuation()])
    return [
        (SQUARE, pk.Polytope(2, SQUARE.vertices), "vertices"),
        (pk.simplex_basis(BASIS_VECTORS), pk.simplex_basis(BASIS_VECTORS), "vectors"),
        (pieces, pk.DecompositionPieces(F(1), F(1), pieces.cells, pieces.seams), "cells"),
        (report, pk.DecompositionReport(True, True, True, True, True), "failures"),
        (dc.NATURALS, dc.SemigroupOps(operator.add, 0, None, 1), "zero"),
        (dc.QQ, dc.GroupOps(dc.QQ.add, F(0), dc.QQ.neg, dc.QQ.scale, dc.QQ.div), "scale"),
        (dc.FunctionHandle(fn), dc.FunctionHandle(fn, dc.QQ_NONNEG, dc.QQ), "fn"),
        (component, dc.ExpansionComponent(1, fn, F(1)), "at_ones"),
        (expansion, dc.PolynomialExpansion(1, F(0), (component,), dc.QQ), "codomain"),
        (bg.class_of(SQUARE), bg.FormalSum(((SQUARE, 1),)), "terms"),
        (signature, bg.PanelSignature(signature.entries), "entries"),
        (bg.PanelComparison(True), bg.PanelComparison(True, None, None, None), "witness"),
        (bg.CheckRow("law", True), bg.CheckRow("law", True, ""), "ok"),
        (bg.Report("laws", ()), bg.Report("laws", ()), "rows"),
        (vv.volume_valuation(), vv.ValuationDescriptor("volume"), "kind"),
    ]


@pytest.mark.parametrize("record, again, name", _records(),
                         ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_records_are_immutable_values(record, again, name):
    assert record == again and hash(record) == hash(again)
    assert not record != again
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    assert getattr(record, name) == getattr(again, name)


def test_record_hash_is_the_hash_of_its_fields():
    probe = vv.probe_volume(SQUARE, label="square")
    assert hash(probe) == hash(("probe_volume", SQUARE, None, "square"))
    assert hash(vv.volume_valuation()) == hash(("volume", None, None, None))
    s = bg.class_of(SQUARE)
    assert hash(s) == hash((((SQUARE, 1),),))
    assert hash(bg.FormalSum.zero()) == hash(((),))
    assert hash(bg.CheckRow("law", False, "1 != 2")) == hash(("law", False, "1 != 2"))
    basis = pk.simplex_basis(BASIS_VECTORS)
    assert hash(basis) == hash((basis.vectors,))
    cmp = bg.PanelComparison(False, "volume", F(1), F(2))
    assert hash(cmp) == hash((False, "volume", F(1), F(2)))
    assert hash(SQUARE) == hash((2, SQUARE.vertices))


def test_records_differ_by_value_and_by_type():
    assert bg.class_of(SQUARE) != bg.FormalSum.zero()
    assert bg.class_of(SQUARE) != ((SQUARE, 1),)
    assert pk.simplex_basis(BASIS_VECTORS) != pk.simplex_basis([(1, 0), (1, 1)])
    assert pk.simplex_basis(BASIS_VECTORS) != pk.simplex_basis(BASIS_VECTORS).vectors
    assert bg.CheckRow("law", True) != bg.CheckRow("law", False)
    assert vv.volume_valuation() != vv.euler_valuation()


def test_record_reprs():
    report = pk.verify_decomposition(pk.simplex_basis(BASIS_VECTORS), 1, 1)
    assert repr(report) == (
        "DecompositionReport(volume_additive=True, cover=True, cells_inside=True,"
        " seams_match=True, seams_lower_dim=True, failures=())")
    assert repr(bg.CheckRow("law", False, "1 != 2")) == (
        "CheckRow(name='law', ok=False, detail='1 != 2')")
    assert repr(bg.PanelComparison(False, "volume", F(1), F(2))) == (
        "PanelComparison(equal_on_panel=False, witness='volume',"
        " left=Fraction(1, 1), right=Fraction(2, 1))")
    # the codomain's operations are left out
    group = dc.GroupOps(operator.add, 0, operator.neg, operator.mul)
    assert repr(dc.PolynomialExpansion(2, F(1, 2), (), group)) == (
        "PolynomialExpansion(degree=2, constant=Fraction(1, 2), components=())")
    assert repr(pk.simplex_basis([(1, 0)])) == (
        "SimplexBasis(vectors=((Fraction(1, 1), Fraction(0, 1)),))")
    assert repr(bg.FormalSum.zero()) == "FormalSum(terms=())"


IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import convexval.cli
print(" ".join(sorted(m for m in sys.argv[2:] if m in sys.modules)))
"""


def test_cli_import_pulls_in_no_introspection_modules():
    # -S: no site hook can import any of them first
    src = os.path.dirname(os.path.dirname(pk.__file__))
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, src, *heavy],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
