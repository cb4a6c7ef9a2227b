"""Formal sums of translation classes and their graded components."""

import json
import random
from fractions import Fraction as F

import pytest

from convexval import bodygroup as bg
from convexval import polytope as pk
from convexval import valuations as vv
from convexval.diffcalc import QQ_NONNEG, FunctionHandle, extract_components
from convexval.errors import GuardExceeded, NegativeFactor, ParseError, ReconstructionFailure

SQUARE = pk.unit_cube(2)
SEGMENT = pk.hull([(0,), (1,)])
PANEL2 = (
    vv.volume_valuation(),
    vv.euler_valuation(),
    vv.probe_volume(pk.unit_cube(2), "unit_cube"),
)


def test_class_of_is_translation_invariant():
    rng = random.Random(3)
    for _ in range(5):
        t = tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(2))
        assert bg.class_of(pk.translate(SQUARE, t)) == bg.class_of(SQUARE)


def test_all_points_share_a_class():
    assert bg.class_of(pk.hull([(5, 5)])) == bg.class_of(pk.origin_polytope(2))


def test_class_rep_anchors_least_vertex():
    P = pk.translate(SQUARE, ("-7/2", 4))
    rep = bg.class_rep(P)
    assert rep.vertices[0] == (F(0), F(0))


def test_combine_group_laws():
    s = bg.class_of(SQUARE)
    assert (1 * s + -1 * s).is_zero()
    assert 1 * s + 1 * s == 2 * s
    assert 1 * (2 * s) + -1 * s == s
    t = bg.class_of(pk.hull([(0, 0), (1, 2), (2, 0)]))
    assert (s + t) - t == s
    assert s + t == t + s


def test_dilate_class_examples():
    s = bg.class_of(SQUARE)
    assert bg.dilate_class(s, 0) == bg.class_of(pk.origin_polytope(2))
    mix = 2 * bg.class_of(SQUARE) - bg.class_of(pk.hull([(0, 0), (1, 2)]))
    assert bg.dilate_class(mix, 1) == mix
    assert bg.dilate_class(bg.class_of(SEGMENT), F(1, 2)) == bg.class_of(
        pk.hull([(0,), ("1/2",)])
    )
    with pytest.raises(NegativeFactor):
        bg.dilate_class(s, -2)


def test_dilate_class_functorial():
    s = 3 * bg.class_of(SQUARE) - 2 * bg.class_of(pk.dilate(SQUARE, 2))
    for lam, mu in [(F(2), F(3)), (F(1, 2), F(1, 3)), (F(0), F(5))]:
        assert bg.dilate_class(bg.dilate_class(s, mu), lam) == bg.dilate_class(
            s, lam * mu
        )


def test_dilate_class_additive():
    s1 = bg.class_of(SQUARE)
    s2 = -2 * bg.class_of(pk.hull([(0, 0), (3, 1)]))
    lam = F(2, 3)
    assert bg.dilate_class(s1 + s2, lam) == bg.dilate_class(s1, lam) + bg.dilate_class(
        s2, lam
    )


def test_components_dim1_closed_form():
    comps = bg.mcmullen_components(SEGMENT)
    pt = bg.class_of(pk.origin_polytope(1))
    assert comps[0] == pt
    assert comps[1] == bg.class_of(SEGMENT) - pt


def test_components_dim2_closed_form():
    comps = bg.mcmullen_components(SQUARE)
    X = bg.class_of(SQUARE)
    half = bg.class_of(pk.dilate(SQUARE, F(1, 2)))
    pt = bg.class_of(pk.origin_polytope(2))
    assert comps[0] == pt
    assert comps[1] == -1 * X + 4 * half - 3 * pt
    assert comps[2] == 2 * X - 4 * half + 2 * pt
    # volume check from the closed form: 2 - 4*(1/4) = 1 = vol(square)
    assert vv.evaluate_sum(vv.volume_valuation(), comps[2]) == 1


def test_components_point():
    comps = bg.mcmullen_components(pk.origin_polytope(2))
    assert comps == [bg.class_of(pk.origin_polytope(2))]


def test_components_sum_and_constant_are_syntactic():
    rng = random.Random(6)
    for d in (1, 2, 3):
        while True:
            pts = [
                tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(d))
                for _ in range(d + 2)
            ]
            P = pk.hull(pts)
            if pk.dim(P) == d:
                break
        comps = bg.mcmullen_components(P)
        total = comps[0]
        for c in comps[1:]:
            total = total + c
        assert total == bg.class_of(P)
        assert comps[0] == bg.class_of(pk.origin_polytope(d))


def test_component_extraction_additive_on_sums():
    P = pk.hull([(0, 0), (2, 0), (0, 1)])
    Q = pk.hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    s = bg.class_of(P) + bg.class_of(Q)
    separate = [
        a + b
        for a, b in zip(
            bg.component_extraction_on_sum(bg.class_of(P), 2),
            bg.component_extraction_on_sum(bg.class_of(Q), 2),
        )
    ]
    assert bg.component_extraction_on_sum(s, 2) == separate


def test_component_extraction_on_point_class():
    pt = bg.class_of(pk.origin_polytope(2))
    slots = bg.component_extraction_on_sum(pt, 2)
    assert slots[0] == pt
    assert slots[1].is_zero() and slots[2].is_zero()


def generic_components(s, degree):
    """Reference: the generic extractor run over the group of formal sums."""
    handle = FunctionHandle(lambda t: bg.dilate_class(s, t), QQ_NONNEG, bg.formal_sum_group())
    probes = [F(0), F(1), F(2), F(1, 2)]
    expansion = extract_components(handle, degree, probes=probes, check_additivity=False)
    return [expansion.constant] + [comp.at_ones for comp in expansion.components]


def _random_body(rng, n):
    return pk.hull([
        tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n))
        for _ in range(rng.randint(1, n + 2))
    ])


def _top_dim(s):
    return max((pk.dim(poly) for poly, _ in s.terms), default=0)


def test_component_table_matches_generic_extractor():
    rng = random.Random(71)
    compared = refused = 0
    for n in (1, 2, 3):
        point = bg.class_of(pk.origin_polytope(n))
        sums = [bg.FormalSum.zero(), point, -2 * point]
        for _ in range(8):
            P, Q = _random_body(rng, n), _random_body(rng, n)
            sums.append(bg.class_of(P))
            sums.append(
                rng.choice((-3, -1, 2)) * bg.class_of(P)
                + rng.choice((-2, 1, 3)) * bg.class_of(Q)
                + rng.randint(-2, 2) * point
            )
        for s in sums:
            for degree in range(5):
                if degree >= _top_dim(s):
                    got = bg.component_extraction_on_sum(s, degree)
                    assert [str(c) for c in got] == [str(c) for c in generic_components(s, degree)]
                    compared += 1
                    continue
                if degree == 0:
                    with pytest.raises(ReconstructionFailure):
                        generic_components(s, degree)
                # below the dimension the generic extractor still rebuilds the
                # probes (each component is a difference of the last residual)
                with pytest.raises(ReconstructionFailure):
                    bg.component_extraction_on_sum(s, degree)
                refused += 1
    assert compared > 150 and refused > 30


def test_component_table_rows():
    # closed forms: e_1 = [X] - [pt] in degree 1, and in degree 2
    # e_1 = -[X] + 4[X/2] - 3[pt], e_2 = 2[X] - 4[X/2] + 2[pt]
    assert bg.component_table(1) == (((F(0), 1),), ((F(0), -1), (F(1), 1)))
    assert bg.component_table(2) == (
        ((F(0), 1),),
        ((F(0), -3), (F(1, 2), 4), (F(1), -1)),
        ((F(0), 2), (F(1, 2), -4), (F(1), 2)),
    )
    free = FunctionHandle(lambda t: {t: 1}, QQ_NONNEG, bg._FACTOR_SUMS)
    for degree in range(6):
        rows = bg.component_table(degree)
        assert len(rows) == degree + 1 and rows[0] == ((F(0), 1),)
        total = {}
        for row in rows:
            for t, coef in row:
                total[t] = total.get(t, 0) + coef
        # sum e_i[X] = [X], where degree 0 only serves points: [0X] = [X]
        assert {t: c for t, c in total.items() if c} == {F(1 if degree else 0): 1}
        # the expansion rebuilds the free dilation function at every probe,
        # so a reconstruction check on a sum (its image) cannot fail
        expansion = extract_components(free, degree, probes=[], check_additivity=False)
        for a in (F(0), F(1), F(2), F(1, 2)):
            assert expansion.value(a) == ({a: 1} if degree else {F(0): 1})


def test_component_extraction_dilates_once_per_factor(monkeypatch):
    calls = []
    real = bg.dilate_class
    monkeypatch.setattr(bg, "dilate_class", lambda s, t: calls.append(t) or real(s, t))
    bg.mcmullen_components(pk.unit_cube(3))
    factors = {t for row in bg.component_table(3) for t, _ in row}
    assert sorted(calls) == sorted(factors)


def test_component_table_refuses_degrees_above_the_guard(monkeypatch):
    # degree 9 took about 90 s; the guard raises before extracting
    def extract(*args, **kwargs):
        raise AssertionError("extraction started above the degree guard")

    monkeypatch.setattr(bg, "extract_components", extract)
    assert pk.DEGREE_GUARD == 8
    for degree in (9, 10, 100):
        with pytest.raises(GuardExceeded):
            bg.component_table(degree)
    # the default degree of a box is its dimension
    with pytest.raises(GuardExceeded):
        bg.mcmullen_components(pk.unit_cube(9))


def test_degree_below_dimension_raises():
    cube = pk.unit_cube(3)
    # the generic extractor returns an e_1 of volume -1/2 at degree 2
    wrong = generic_components(bg.class_of(cube), 2)[1]
    assert vv.evaluate_sum(vv.volume_valuation(), wrong) == F(-1, 2)
    for degree in (0, 1, 2):
        with pytest.raises(ReconstructionFailure):
            bg.mcmullen_components(cube, degree)
    with pytest.raises(ReconstructionFailure):
        bg.mcmullen_components(SQUARE, 1)
    with pytest.raises(ReconstructionFailure):
        bg.component_extraction_on_sum(bg.class_of(pk.hull([(0, 0), (1, 1)])) - bg.class_of(SQUARE), 1)
    assert len(bg.mcmullen_components(cube, 3)) == 4
    assert len(bg.component_extraction_on_sum(bg.class_of(pk.hull([(0, 0), (1, 1)])), 1)) == 2


def test_panel_signature_values():
    pt = bg.class_of(pk.origin_polytope(2))
    sig = bg.panel_signature(pt, PANEL2[:2])
    assert sig.values() == (F(0), F(1))
    empty = bg.panel_signature(bg.FormalSum.zero(), PANEL2[:2])
    assert empty.values() == (F(0), F(0))


def test_panel_signature_additive():
    s1 = bg.class_of(SQUARE)
    s2 = -3 * bg.class_of(pk.dilate(SQUARE, 2))
    lhs = bg.panel_signature(s1 + s2, PANEL2)
    rhs = bg.panel_signature(s1, PANEL2) + bg.panel_signature(s2, PANEL2)
    assert lhs == rhs


def test_panel_compare_soundness_certificate():
    res = bg.panel_compare(
        bg.class_of(SQUARE), bg.class_of(pk.origin_polytope(2)), PANEL2
    )
    assert not res.equal_on_panel
    assert res.witness == "volume"
    assert (res.left, res.right) == (F(1), F(0))


def test_panel_compare_translates_equal():
    res = bg.panel_compare(
        bg.class_of(SQUARE),
        bg.class_of(pk.translate(SQUARE, (9, "1/3"))),
        PANEL2,
    )
    assert res.equal_on_panel


def test_simplex_identity_as_classes():
    basis = pk.simplex_basis([(1, 0), (0, 1)])
    report = bg.simplex_identity_as_classes(basis, 1, 1, PANEL2)
    assert report.ok
    report = bg.simplex_identity_as_classes(pk.simplex_basis([("2/3",)]), 2, "1/3", (
        vv.volume_valuation(), vv.euler_valuation(),
        vv.probe_volume(pk.unit_cube(1), "unit_cube"),
    ))
    assert report.ok


def test_simplex_identity_random_3d():
    rng = random.Random(12)
    while True:
        vecs = [tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(3)) for _ in range(3)]
        try:
            basis = pk.simplex_basis(vecs)
            break
        except Exception:
            continue
    panel = (
        vv.volume_valuation(),
        vv.euler_valuation(),
        vv.probe_volume(pk.unit_cube(3), "unit_cube"),
    )
    assert bg.simplex_identity_as_classes(basis, 1, 1, panel).ok


def test_idempotence_reports():
    assert bg.verify_idempotence(SEGMENT, (
        vv.volume_valuation(), vv.euler_valuation(),
        vv.probe_volume(pk.unit_cube(1), "unit_cube"),
    )).ok
    assert bg.verify_idempotence(SQUARE, PANEL2).ok


def test_homogeneity_reports():
    for lam in (F(0), F(1, 2), F(1), F(2), F(3)):
        assert bg.verify_homogeneity(SQUARE, lam, PANEL2).ok


def test_equal_report_rows_are_one_object():
    # a kept report holds shared rows, so many kept reports cost little
    triangle = pk.hull([(0, 0), (3, 0), (0, F(1, 2))])
    a = bg.verify_homogeneity(SQUARE, 2, PANEL2)
    b = bg.verify_homogeneity(triangle, F(1, 2), PANEL2)
    assert a.ok and b.ok and len(a.rows) == len(b.rows) == 3 * len(PANEL2)
    assert all(x is y for x, y in zip(a.rows, b.rows))
    # rows that differ in any field stay distinct, and ok keeps its type
    rows = [bg._check_row("r", ok, detail) for ok in (True, False, 1, 0) for detail in ("", "x")]
    assert len({id(row) for row in rows}) == 8
    assert [type(row.ok) for row in rows] == [bool] * 4 + [int] * 4
    assert bg._check_row("r", True, "") is rows[0]


def test_homogeneity_volume_row_frozen():
    # vol(e_2[2X]) = 2*vol(2X) - 4*vol(X) + 0 = 8 - 4 = 4 = 2^2 * vol(e_2[X])
    comps = bg.mcmullen_components(pk.dilate(SQUARE, 2), degree=2)
    assert vv.evaluate_sum(vv.volume_valuation(), comps[2]) == 4


def test_formal_sum_serialization_round_trip():
    s = (
        2 * bg.class_of(SQUARE)
        - 4 * bg.class_of(pk.dilate(SQUARE, F(1, 2)))
        + 2 * bg.class_of(pk.origin_polytope(2))
    )
    obj = bg.sum_to_obj(s)
    text = json.dumps(obj)
    again = bg.sum_from_obj(json.loads(text))
    assert again == s
    assert json.dumps(bg.sum_to_obj(again)) == text


def test_formal_sum_parse_canonicalizes_translates():
    obj = [
        {"coef": 1, "polytope": {"dim": 1, "vertices": [["4"], ["5"]]}},
        {"coef": 1, "polytope": {"dim": 1, "vertices": [["0"], ["1"]]}},
    ]
    s = bg.sum_from_obj(obj)
    assert s == 2 * bg.class_of(SEGMENT)


def test_formal_sum_parse_errors():
    with pytest.raises(ParseError):
        bg.sum_from_obj({"coef": 1})
    with pytest.raises(ParseError):
        bg.sum_from_obj([{"coef": "x", "polytope": {"dim": 1, "vertices": [["0"]]}}])
    with pytest.raises(ParseError):
        bg.sum_from_obj([{"polytope": {"dim": 1, "vertices": [["0"]]}}])
    with pytest.raises(ParseError):
        bg.sum_from_obj([{"coef": True, "polytope": {"dim": 1, "vertices": [["0"]]}}])
