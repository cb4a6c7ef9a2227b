"""Valuation panel: evaluation, linearity, expansions, mixed volumes."""

import random
from fractions import Fraction as F

import pytest

from convexval import bodygroup as bg
from convexval import polytope as pk
from convexval import valuations as vv
from convexval.errors import (
    GuardExceeded,
    NonInvariantOnClasses,
    ReconstructionFailure,
    WrongDimension,
)


SQUARE = pk.unit_cube(2)
TRIANGLE = pk.hull([(0, 0), (1, 0), (0, 1)])


def test_euler_is_constantly_one():
    for P in (SQUARE, pk.origin_polytope(2), pk.dilate(SQUARE, F(7, 2))):
        assert vv.evaluate(vv.euler_valuation(), P) == 1


def test_probe_volume_on_point_gives_probe():
    val = vv.probe_volume(SQUARE, "unit_square")
    assert vv.evaluate(val, pk.origin_polytope(2)) == 1


def test_support_examples():
    val = vv.support_valuation((1, 0))
    assert vv.evaluate(val, SQUARE) == 1
    assert vv.evaluate(val, pk.translate(SQUARE, (3, 0))) == 4
    assert not val.translation_invariant


def test_translation_invariance_of_flagged_valuations():
    rng = random.Random(4)
    vals = (
        vv.volume_valuation(),
        vv.euler_valuation(),
        vv.probe_volume(TRIANGLE, "tri"),
    )
    for _ in range(5):
        t = tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(2))
        for val in vals:
            assert vv.evaluate(val, pk.translate(SQUARE, t)) == vv.evaluate(val, SQUARE)


def test_evaluate_sum_linearity():
    s = 2 * bg.class_of(SQUARE) + -1 * bg.class_of(SQUARE)
    assert vv.evaluate_sum(vv.volume_valuation(), s) == 1
    # -[X] + 4[(1/2)X] - 3[p] has Euler value -1 + 4 - 3 = 0
    s2 = (
        -1 * bg.class_of(SQUARE)
        + 4 * bg.class_of(pk.dilate(SQUARE, F(1, 2)))
        + -3 * bg.class_of(pk.origin_polytope(2))
    )
    assert vv.evaluate_sum(vv.euler_valuation(), s2) == 0
    # e_2[square] = 2[X] - 4[(1/2)X] + 2[p] has volume 2 - 4/4 + 0 = 1
    s3 = (
        2 * bg.class_of(SQUARE)
        + -4 * bg.class_of(pk.dilate(SQUARE, F(1, 2)))
        + 2 * bg.class_of(pk.origin_polytope(2))
    )
    assert vv.evaluate_sum(vv.volume_valuation(), s3) == 1


def test_evaluate_sum_matches_the_termwise_fraction_sum():
    # the reference adds coef * value term by term in Fractions; the sums
    # mix denominators up to 10^6, negative coefficients and the empty sum
    rng = random.Random(1807)
    for n in (1, 2, 3):
        bodies = [pk.hull([tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 7, 10**6)))
                                 for _ in range(n)) for _ in range(n + 2)]) for _ in range(6)]
        vals = vv.default_panel(n)
        for _ in range(20):
            s = bg.FormalSum.zero()
            for _ in range(rng.randint(0, 4)):
                s = s + rng.choice((-3, -1, 1, 2, 5)) * bg.class_of(rng.choice(bodies))
            for val in vals:
                want = sum((coef * vv.evaluate(val, rep) for rep, coef in s.terms), F(0))
                got = vv.evaluate_sum(val, s)
                assert type(got) is F and got == want


def test_evaluate_sum_rejects_non_invariant():
    s = bg.class_of(SQUARE)
    with pytest.raises(NonInvariantOnClasses):
        vv.evaluate_sum(vv.support_valuation((1, 0)), s)
    with pytest.raises(NonInvariantOnClasses):
        vv.evaluate_sum(vv.lattice_valuation(), s)


def test_valuation_law_on_decomposition_unions():
    """Inclusion-exclusion on the witnessed convex unions of the tiling.

    The union of the first i cells is convex (it is the dilate cut by a
    staircase-coordinate halfspace), meets the next cell in a seam, and
    together they form the union of the first i+1 cells.
    """
    cases = [
        (pk.simplex_basis([(1, 0), (0, 1)]), F(1), F(1)),
        (pk.simplex_basis([(1, 1), (-1, 1)]), F(1, 2), F(3, 2)),
        (pk.simplex_basis([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), F(2), F(1, 3)),
    ]
    vals = (vv.volume_valuation(), vv.euler_valuation())
    for basis, a, b in cases:
        pieces = pk.decomposition_pieces(basis, a, b)
        prefix_vertices = list(pieces.cells[0].vertices)
        prefix = pieces.cells[0]
        for i in range(1, len(pieces.cells)):
            cell = pieces.cells[i]
            seam = pieces.seams[i - 1]
            prefix_vertices.extend(cell.vertices)
            union = pk.hull(prefix_vertices)
            for val in vals:
                assert vv.evaluate(val, union) + vv.evaluate(val, seam) == vv.evaluate(
                    val, prefix
                ) + vv.evaluate(val, cell)
            prefix = union


def test_dilated_simplex_valuation_identity_d2():
    # frozen hand computation for the unit staircase basis, a = b = 1:
    # euler: 1 = (1+1+1) - (1+1); volume: 2 = (1/2+1+1/2) - 0
    basis = pk.simplex_basis([(1, 0), (0, 1)])
    dilate = pk.dilate(pk.simplex_from_basis(basis), 2)
    assert vv.evaluate(vv.euler_valuation(), dilate) == 1
    assert vv.evaluate(vv.volume_valuation(), dilate) == 2
    panel = (vv.euler_valuation(), vv.volume_valuation(),
             vv.probe_volume(pk.unit_cube(2), "unit_cube"))
    assert bg.simplex_identity_as_classes(basis, F(1), F(1), panel).ok


def test_dilation_volume_vanishes_at_degree_two():
    from convexval.diffcalc import FunctionHandle, verify_vanishing

    fn = FunctionHandle(lambda t: vv.evaluate(vv.volume_valuation(), pk.dilate(SQUARE, t)))
    assert verify_vanishing(fn, 2, [F(1), F(1, 2), F(2)], [F(0), F(1, 3)])
    assert not verify_vanishing(fn, 1, [F(1), F(1, 2), F(2)], [F(0)])


def test_expansion_of_dilation_volume_square():
    expansion = vv.expansion_of_dilation(vv.volume_valuation(), SQUARE)
    assert expansion.scalar_coefficients() == [F(0), F(0), F(1)]


def test_expansion_of_dilation_with_probe():
    # vol(t*square + square) = (t+1)^2 = 1 + 2t + t^2
    expansion = vv.expansion_of_dilation(vv.volume_valuation(), SQUARE, probe=SQUARE)
    assert expansion.scalar_coefficients() == [F(1), F(2), F(1)]
    for t in (F(0), F(1), F(3), F(1, 2)):
        assert expansion.value(t) == (t + 1) ** 2


def test_expansion_of_dilation_euler():
    expansion = vv.expansion_of_dilation(vv.euler_valuation(), SQUARE)
    assert expansion.scalar_coefficients() == [F(1), F(0), F(0)]


def test_expansion_rejects_non_invariant():
    with pytest.raises(NonInvariantOnClasses):
        vv.expansion_of_dilation(vv.support_valuation((1, 0)), SQUARE)


def test_mixed_volume_examples():
    assert vv.mixed_volume_2d(SQUARE, SQUARE) == 1
    assert vv.mixed_volume_2d(SQUARE, pk.origin_polytope(2)) == 0
    seg = pk.hull([(0, 0), (1, 0)])
    assert vv.mixed_volume_2d(SQUARE, seg) == F(1, 2)
    with pytest.raises(WrongDimension):
        vv.mixed_volume_2d(pk.unit_cube(3), pk.unit_cube(3))


def test_mixed_volume_symmetry_and_coefficient():
    rng = random.Random(17)
    for _ in range(5):
        P = pk.hull(
            [tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(2)) for _ in range(4)]
        )
        Q = pk.hull(
            [tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(2)) for _ in range(4)]
        )
        mv = vv.mixed_volume_2d(P, Q)
        assert mv == vv.mixed_volume_2d(Q, P)
        expansion = vv.expansion_of_dilation(vv.volume_valuation(), P, probe=Q)
        assert expansion.components[0].at_ones == 2 * mv


def test_mixed_volume_bilinearity_diagonal_collapse():
    from convexval.diffcalc import verify_diagonal_collapse

    P = pk.hull([(0, 0), (2, 0), (0, 1)])
    Q = pk.hull([(0, 0), (1, 1), (-1, 1)])

    def f(x, y):
        return vv.mixed_volume_2d(pk.dilate(P, x), pk.dilate(Q, y))

    grid = [(x, y) for x in (F(1, 2), F(1), F(2)) for y in (F(1, 2), F(1), F(2))]
    assert verify_diagonal_collapse(f, grid)


def test_ehrhart_expansion_cube():
    for d in (1, 2, 3):
        expansion = vv.ehrhart_expansion(pk.unit_cube(d))
        from math import comb

        assert expansion.scalar_coefficients() == [F(comb(d, k)) for k in range(d + 1)]


def test_ehrhart_expansion_rejects_quasi_polynomial():
    # a half-open-ish rational polytope: counts follow a quasi-polynomial
    P = pk.hull([(0,), ("1/2",)])
    with pytest.raises(ReconstructionFailure):
        vv.ehrhart_expansion(P)


@pytest.mark.parametrize(
    "points",
    [
        # (k+1)(k+2)/2 points up to k = 12, then 106 at k = 13
        [(0, 0, 0), ("1/13", 0, 0), (0, 1, 0), (0, 0, 1)],
        # k + 1 points up to k = 9, then 12 at k = 10
        [(0, 0), ("1/10", 0), (0, 1)],
        # one point up to k = 6, then two at k = 7
        [("11/13",), (1,)],
    ],
    ids=["tet-e1/13", "triangle-e1/10", "segment-11/13"],
)
def test_ehrhart_expansion_rejects_late_quasi_polynomial(points):
    # the counts are polynomial on every dilate extraction reads and leave
    # the polynomial only further out
    with pytest.raises(ReconstructionFailure):
        vv.ehrhart_expansion(pk.hull(points))


@pytest.mark.parametrize(
    "den, expected", [(2, [1, F(3, 2), F(1, 2)]), (3, [1, 2, 1])]
)
def test_ehrhart_expansion_accepts_rational_polynomial_count(den, expected):
    # conv((0,0), (1, (den-1)/den), (den, 0)) has a non-integral vertex, yet
    # its counting function is a polynomial (period collapse)
    P = pk.hull([(0, 0), (1, F(den - 1, den)), (den, 0)])
    assert vv.ehrhart_expansion(P).scalar_coefficients() == expected
    for k in range(6 * den):
        assert pk.lattice_count(pk.dilate(P, k)) == sum(
            c * k**i for i, c in enumerate(expected)
        )


def test_descriptor_keys():
    assert vv.volume_valuation().key() == "volume"
    assert vv.euler_valuation().key() == "euler"
    assert vv.probe_volume(pk.unit_cube(2), "unit_cube").key() == "probe_vol:unit_cube"
    assert vv.support_valuation((1, 0)).key() == "support:1,0"
    assert vv.lattice_valuation().key() == "lattice"


def test_ehrhart_expansion_refuses_a_scan_past_the_guard_before_counting(monkeypatch):
    counted = []
    monkeypatch.setattr(pk, "lattice_count", lambda P: counted.append(P) or 0)
    # D = 10^6: the check would count the dilates 0..2 * 10^6 - 1
    with pytest.raises(GuardExceeded, match="dilates 0..1999999 scan"):
        vv.ehrhart_expansion(pk.hull([(0,), (F(1, 10 ** 6),)]))
    with pytest.raises(GuardExceeded, match="extraction degree"):
        vv.ehrhart_expansion(pk.unit_cube(1), degree=30)
    assert counted == []


def test_ehrhart_expansion_at_the_scan_guard(monkeypatch):
    # the unit segment's expansion counts the dilates 0..3: 4 dilates and 4 lines
    monkeypatch.setattr(pk, "LATTICE_GUARD", 8)
    assert vv.ehrhart_expansion(pk.unit_cube(1)).scalar_coefficients() == [1, 1]
    monkeypatch.setattr(pk, "LATTICE_GUARD", 7)
    with pytest.raises(GuardExceeded):
        vv.ehrhart_expansion(pk.unit_cube(1))
