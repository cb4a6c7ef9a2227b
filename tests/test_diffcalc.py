"""Difference-operator calculus: laws, extraction, carriers."""

import random
from fractions import Fraction as F

import pytest

from convexval import diffcalc
from convexval import polytope as pk
from convexval import valuations as vv
from convexval.diffcalc import (
    NATURALS,
    QQ,
    QQ_NONNEG,
    FunctionHandle,
    GroupOps,
    component_value,
    extract_components,
    iterated_delta,
    vector_group,
    verify_cocycle,
    verify_diagonal_collapse,
    verify_vanishing,
)
from convexval.errors import DivisionUnsupported, GuardExceeded, ReconstructionFailure
from convexval.verify_suite import _fit_polynomial, random_polytope


def delta_oracle(fn, us, base):
    """Independent oracle: apply (delta_u f)(a) = f(a+u) - f(a) recursively."""
    if not us:
        return fn(base)
    head, rest = us[0], us[1:]
    return delta_oracle(lambda a: fn(a + head) - fn(a), rest, base)


def poly(coeffs):
    def fn(a):
        acc = F(0)
        for c in reversed(coeffs):
            acc = acc * a + c
        return acc

    return fn


def test_iterated_delta_of_square_is_twice_product():
    f = FunctionHandle(lambda a: a * a)
    u, v = F(3, 2), F(5, 7)
    assert iterated_delta(f, [u, v], F(0)) == 2 * u * v


def test_iterated_delta_overshoot_vanishes():
    f = FunctionHandle(lambda a: a * a)
    assert iterated_delta(f, [F(1), F(2), F(3)], F(11, 3)) == 0


def test_iterated_delta_of_constant_vanishes():
    f = FunctionHandle(lambda a: F(42))
    assert iterated_delta(f, [F(5)], F(1)) == 0


def test_iterated_delta_matches_recursive_oracle():
    rng = random.Random(11)
    for _ in range(40):
        coeffs = [F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(5)]
        fn = poly(coeffs)
        p = rng.randint(1, 4)
        us = [F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(p)]
        base = F(rng.randint(0, 3), rng.choice((1, 2)))
        assert iterated_delta(FunctionHandle(fn), us, base) == delta_oracle(fn, us, base)


def test_iterated_delta_order_invariance():
    rng = random.Random(13)
    f = FunctionHandle(poly([F(1), F(-2), F(3), F(5, 2)]))
    us = [F(1), F(1, 2), F(2), F(1, 3)]
    base = F(1, 5)
    reference = iterated_delta(f, us, base)
    for _ in range(10):
        shuffled = us[:]
        rng.shuffle(shuffled)
        assert iterated_delta(f, shuffled, base) == reference


def test_iterated_delta_requires_an_increment():
    with pytest.raises(ValueError):
        iterated_delta(FunctionHandle(lambda a: a), [], F(0))


@pytest.mark.parametrize(
    "fn,u,v,base",
    [
        (lambda a: a * a, F(1), F(2), F(0)),
        (lambda a: F(9), F(4), F(17, 5), F(2)),
        (lambda a: a ** 3, F(1, 2), F(1, 3), F(1)),
    ],
)
def test_cocycle_identity(fn, u, v, base):
    assert verify_cocycle(FunctionHandle(fn), u, v, base)


def test_cocycle_both_sides_value():
    # both sides equal 2*u*v for f(a) = a^2; frozen: 2*1*2 = 4
    f = FunctionHandle(lambda a: a * a)
    assert iterated_delta(f, [F(1), F(2)], F(0)) == 4


def test_verify_vanishing_degree_two_polynomial():
    f = FunctionHandle(poly([F(3), F(2), F(5)]))
    samples = [F(1), F(1, 2), F(2)]
    assert verify_vanishing(f, 2, samples, [F(0)])
    assert not verify_vanishing(f, 1, samples, [F(0)])


def test_verify_vanishing_checks_every_multiset():
    # cubic vanishes under 4-fold but not 3-fold differences
    f = FunctionHandle(poly([F(0), F(0), F(0), F(1)]))
    samples = [F(1), F(2)]
    assert verify_vanishing(f, 3, samples, [F(0), F(1, 3)])
    assert not verify_vanishing(f, 2, samples, [F(0), F(1, 3)])


def test_extract_components_quadratic():
    f = FunctionHandle(poly([F(3), F(2), F(5)]))
    expansion = extract_components(f, 2)
    assert expansion.scalar_coefficients() == [F(3), F(2), F(5)]
    for a in (F(0), F(1), F(2), F(1, 2)):
        assert expansion.value(a) == f(a)


def test_extract_components_degree_zero():
    f = FunctionHandle(lambda a: F(7, 3))
    expansion = extract_components(f, 0)
    assert expansion.constant == F(7, 3)
    assert expansion.components == ()


def test_extract_components_top_component_bilinear():
    # f(a) = 5a^2: f_2(u, v) = (2!)^1 h(u/2, v/2) with h(u, v) = 10uv, so 5uv
    f = FunctionHandle(lambda a: 5 * a * a)
    assert component_value(f, 2, 2, (F(1, 3), F(7, 2))) == 5 * F(1, 3) * F(7, 2)
    assert component_value(f, 2, 2, (F(0), F(5))) == 0
    assert component_value(f, 2, 1, (F(4),)) == 0


def test_component_value_linear():
    f = FunctionHandle(lambda a: 2 * a)
    assert component_value(f, 1, 1, (F(9, 4),)) == F(9, 2)


def test_component_symmetry_and_additivity():
    f = FunctionHandle(poly([F(1), F(0), F(0), F(4)]))
    expansion = extract_components(f, 3)
    top = expansion.components[2].evaluate
    u, v, w = F(1, 2), F(2), F(5, 3)
    assert top(u, v, w) == top(w, u, v) == top(v, w, u)
    assert top(u + v, w, w) == top(u, w, w) + top(v, w, w)


def test_extraction_base_does_not_matter():
    f = FunctionHandle(poly([F(-1), F(4), F(0), F(2)]))
    first = extract_components(f, 3, base=F(1))
    second = extract_components(f, 3, base=F(1, 3))
    assert first.scalar_coefficients() == second.scalar_coefficients()


def test_reconstruction_failure_on_wrong_degree():
    with pytest.raises(ReconstructionFailure):
        extract_components(FunctionHandle(lambda a: a ** 3), 2)


def test_division_unsupported_without_divisible_carrier():
    import operator

    int_group = GroupOps(add=operator.add, zero=0, neg=operator.neg, scale=operator.mul)
    f = FunctionHandle(lambda k: k * k, NATURALS, int_group)
    with pytest.raises(DivisionUnsupported):
        extract_components(f, 2)


def test_naturals_domain_divides_in_codomain():
    # Ehrhart-style carrier: domain has no division, codomain does
    f = FunctionHandle(lambda k: F((k + 1) ** 2), NATURALS, QQ)
    expansion = extract_components(f, 2)
    assert expansion.scalar_coefficients() == [F(1), F(2), F(1)]


def test_vector_codomain():
    group = vector_group(2)
    f = FunctionHandle(lambda a: (2 * a, 3 * a * a), QQ_NONNEG, group)
    expansion = extract_components(f, 2)
    assert expansion.scalar_coefficients() == [
        (F(0), F(0)),
        (F(2), F(0)),
        (F(0), F(3)),
    ]


def test_diagonal_collapse():
    assert verify_diagonal_collapse(
        lambda x, y: 7 * x * y, [(F(2, 3), F(3, 2)), (F(1), F(1)), (F(1, 2), F(2))]
    )
    assert not verify_diagonal_collapse(lambda x, y: x + y, [(F(2), F(3))])


def test_reconstruction_at_twenty_points_per_case():
    rng = random.Random(31)
    for _ in range(10):
        degree = rng.randint(0, 4)
        coeffs = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(degree + 1)]
        fn = poly(coeffs)
        expansion = extract_components(FunctionHandle(fn), degree)
        for _ in range(20):
            a = F(rng.randint(0, 12), rng.choice((1, 2, 3, 4)))
            assert expansion.value(a) == fn(a)


def test_extraction_matches_vandermonde_fit():
    rng = random.Random(53)
    cases = []
    for degree in range(1, 6):
        for _ in range(4):
            coeffs = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(degree + 1)]
            cases.append((poly(coeffs), degree, coeffs))
    for n in (1, 2, 3):
        for _ in range(3):
            P, Q = random_polytope(rng, n), random_polytope(rng, n)
            for probe in (vv.volume_valuation(), vv.probe_volume(Q)):
                fn = lambda t, P=P, val=probe: vv.evaluate(val, pk.dilate(P, t))
                cases.append((fn, n, None))
    for fn, degree, coeffs in cases:
        # one node more than the degree: the fit's top coefficient is 0, and
        # up to degree 3 the extraction bound is one too high as well
        bound = degree + 1 if degree <= 3 else degree
        for domain, step in ((QQ_NONNEG, F(1, 2)), (NATURALS, 1)):
            nodes = [k * step for k in range(degree + 2)]
            fitted = list(_fit_polynomial([(F(x), fn(x)) for x in nodes]))
            assert fitted[-1] == 0
            extracted = extract_components(FunctionHandle(fn, domain, QQ), bound).scalar_coefficients()
            assert extracted == fitted[:bound + 1]
            if coeffs is not None:
                assert extracted[:degree + 1] == coeffs


# QQ in every field but not the `QQ` record itself: extract_components then
# re-expands each component through iterated differences, as it does for
# every carrier other than the rational scalars
QQ_GENERIC = QQ._replace()

ORACLE_CARRIERS = [
    (QQ_NONNEG, F(0)),
    (QQ_NONNEG, F(1)),
    (QQ_NONNEG, F(1, 3)),
    (NATURALS, 0),
]


def _random_argument(rng, domain):
    if domain is NATURALS:
        return rng.randint(0, 4)
    return F(rng.randint(0, 9), rng.choice((1, 2, 3)))


@pytest.mark.parametrize("degree", range(7))
@pytest.mark.parametrize("domain, base", ORACLE_CARRIERS, ids=["qq-0", "qq-1", "qq-1_3", "nat-0"])
def test_scalar_extraction_matches_generic_recursion(domain, base, degree):
    rng = random.Random(101 + 7 * degree)
    coeffs = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))) for _ in range(degree + 1)]
    fn = poly(coeffs)
    fast = extract_components(FunctionHandle(fn, domain, QQ), degree, base=base)
    generic = extract_components(FunctionHandle(fn, domain, QQ_GENERIC), degree, base=base)
    assert fast.scalar_coefficients() == generic.scalar_coefficients() == coeffs
    for fast_comp, generic_comp in zip(fast.components, generic.components):
        for _ in range(3):
            args = [_random_argument(rng, domain) for _ in range(fast_comp.arity)]
            assert fast_comp.evaluate(*args) == generic_comp.evaluate(*args)


def _ehrhart_of_half_segment(k):
    return F(pk.lattice_count(pk.dilate(pk.hull([(0,), ("1/2",)]), k)))


NOT_POLYNOMIAL = {
    "quartic-n3": (QQ_NONNEG, lambda a: a ** 4, 3),
    "reciprocal-n2": (QQ_NONNEG, lambda a: 1 / (1 + a), 2),
    "reciprocal-n4": (QQ_NONNEG, lambda a: 1 / (1 + a), 4),
    "abs-n1": (QQ_NONNEG, lambda a: abs(a - 1), 1),
    "abs-n2": (QQ_NONNEG, lambda a: abs(a - 1), 2),
    "floor-half-n1": (NATURALS, lambda k: F(k // 2), 1),
    "floor-half-n2": (NATURALS, lambda k: F(k // 2), 2),
    "floor-half-n3": (NATURALS, lambda k: F(k // 2), 3),
    "power-of-two-n2": (NATURALS, lambda k: F(2 ** k), 2),
    "power-of-two-n3": (NATURALS, lambda k: F(2 ** k), 3),
    "mod-3-n1": (NATURALS, lambda k: F(k % 3), 1),
    "mod-3-n2": (NATURALS, lambda k: F(k % 3), 2),
    "square-plus-parity-n2": (NATURALS, lambda k: F(k * k + k % 2), 2),
    "half-segment-n1": (NATURALS, _ehrhart_of_half_segment, 1),
}


@pytest.mark.parametrize("domain, fn, n", NOT_POLYNOMIAL.values(), ids=NOT_POLYNOMIAL.keys())
def test_both_extraction_paths_reject_non_polynomials(domain, fn, n):
    for codomain in (QQ, QQ_GENERIC):
        with pytest.raises(ReconstructionFailure):
            extract_components(FunctionHandle(fn, domain, codomain), n)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("domain", [QQ_NONNEG, NATURALS], ids=["qq", "nat"])
def test_scalar_extraction_evaluates_only_the_difference_nodes(domain, n):
    points = []

    def fn(a):
        points.append(a)
        return F(a) ** n + 2

    expansion = extract_components(FunctionHandle(fn, domain, QQ), n, probes=[])
    assert expansion.scalar_coefficients() == [F(2)] + [F(0)] * (n - 1) + [F(1)]
    assert len(points) == len(set(points))
    if domain is NATURALS:
        assert sorted(points) == list(range(n + 1))
    else:
        assert len(points) <= (n + 1) * (n + 2) // 2


def _outcome(f, n):
    """The expansion's coefficients and some component values, or the type
    of the failure it raises."""
    rng = random.Random(n)
    try:
        expansion = extract_components(f, n)
    except ReconstructionFailure as exc:
        return type(exc)
    values = [comp.evaluate(*(_random_argument(rng, f.domain) for _ in range(comp.arity)))
              for comp in expansion.components for _ in range(3)]
    return expansion.scalar_coefficients(), values


MEMO_CARRIERS = {
    "qq": (QQ_NONNEG, QQ),
    "qq-generic": (QQ_NONNEG, QQ_GENERIC),
    "nat": (NATURALS, QQ),
    "vector": (QQ_NONNEG, vector_group(2)),
}


@pytest.mark.parametrize("domain, codomain", MEMO_CARRIERS.values(), ids=MEMO_CARRIERS.keys())
def test_memoized_extraction_matches_unmemoized_reference(domain, codomain, monkeypatch):
    rng = random.Random(211)
    cases = []
    # up to degree 4: without the memo the generic recursion is exponential
    for degree in range(4):
        coeffs = [F(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))) for _ in range(degree + 1)]
        cases += [(poly(coeffs), degree), (poly(coeffs), degree + 1)]
        if degree:
            cases.append((poly(coeffs), degree - 1))  # too small a bound
    cases += [(lambda a: 1 / (1 + F(a)), 2), (lambda a: F(abs(a - 1)), 1),
              (lambda a: F(a) ** 5, 3)]
    if codomain is not QQ and codomain is not QQ_GENERIC:
        cases = [(lambda a, fn=fn: (fn(a), 2 * fn(a) - a), n) for fn, n in cases]
    raised = 0
    for fn, n in cases:
        f = FunctionHandle(fn, domain, codomain)
        memoized = _outcome(f, n)
        with monkeypatch.context() as m:
            m.setattr(diffcalc, "_memoized", lambda fn: fn)
            assert _outcome(f, n) == memoized
        raised += memoized is ReconstructionFailure
    assert raised >= 5


def test_extraction_at_the_degree_guard():
    n = diffcalc.EXTRACTION_GUARD
    expansion = extract_components(FunctionHandle(lambda a: a ** n + 1), n, probes=[])
    assert expansion.scalar_coefficients() == [1] + [0] * (n - 1) + [1]


@pytest.mark.parametrize("above", [1, 18])
def test_extraction_above_the_degree_guard_reads_nothing(above):
    n = diffcalc.EXTRACTION_GUARD + above
    reads = []
    f = FunctionHandle(lambda a: reads.append(a) or a)
    with pytest.raises(GuardExceeded, match=f"extraction degree {n} > "):
        extract_components(f, n)
    assert reads == []
