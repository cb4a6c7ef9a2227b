"""Seeded verification suites over a reproducible corpus.

Each suite exercises one family of exact identities end to end and returns a
`SuiteResult`. Everything is deterministic given the seed; the CLI `verify`
command and the acceptance tests both run these.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from . import _linalg
from . import bodygroup as bg
from . import polytope as pk
from . import valuations as vv
from .diffcalc import (
    NATURALS,
    QQ,
    FunctionHandle,
    extract_components,
    iterated_delta,
    verify_cocycle,
    verify_vanishing,
)
from .errors import DependentBasis
from .rationals import point_str


class SuiteResult:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def count(self, ok: bool, message: str):
        self.checks += 1
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# seeded generators


def _rand_rational(rng, lo=-4, hi=4, dens=(1, 2)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _rand_nonzero(rng, lo=-4, hi=4, dens=(1, 2)):
    while True:
        q = _rand_rational(rng, lo, hi, dens)
        if q != 0:
            return q


def _rand_point(rng, n, lo=-3, hi=3):
    return tuple(_rand_rational(rng, lo, hi) for _ in range(n))


def random_polytope(rng, d: int) -> pk.Polytope:
    """A random polytope of exact dimension d in ambient dimension d."""
    while True:
        pts = [_rand_point(rng, d) for _ in range(d + 1)]
        extra = rng.randint(0, 1 if d == 3 else 2)
        pts += [_rand_point(rng, d) for _ in range(extra)]
        P = pk.hull(pts)
        if pk.dim(P) == d:
            return P


def random_basis(rng, d: int) -> pk.SimplexBasis:
    while True:
        vecs = [_rand_point(rng, d) for _ in range(d)]
        try:
            return pk.simplex_basis(vecs)
        except DependentBasis:
            continue


_CORPUS_DIMS = (1, 2, 3, 2)

# the sizes every suite runs at, `convexval verify` and the acceptance tests alike
CORPUS_SIZE = 25
LAW_CASES = 100
BASES_PER_DIM = 25
MIXED_PAIRS = 25
EHRHART_MAX_DIM = 3
EHRHART_MAX_DILATION = 10
UNIQUENESS_CASES = 50


def seeded_corpus(seed: int):
    """Deterministic list of (polytope, probe) pairs with dims cycling 1..3."""
    rng = random.Random(seed)
    out = []
    for i in range(CORPUS_SIZE):
        d = _CORPUS_DIMS[i % len(_CORPUS_DIMS)]
        P = random_polytope(rng, d)
        probe_kind = i % 3
        if probe_kind == 0:
            Q = pk.hull([(0,) * d, tuple(Fraction(1 if j == 0 else 0) for j in range(d))])
        elif probe_kind == 1:
            Q = pk.standard_simplex(d)
        else:
            Q = pk.dilate(pk.standard_simplex(d), Fraction(1, 2))
        out.append((P, Q))
    return out


def random_poly_fn(rng, max_degree=4):
    """A random rational polynomial as a difference-calculus handle."""
    degree = rng.randint(0, max_degree)
    coeffs = [_rand_rational(rng, -5, 5, (1, 2, 3)) for _ in range(degree + 1)]

    def fn(a):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * a + c
        return acc

    return FunctionHandle(fn), degree, coeffs


# ---------------------------------------------------------------------------
# criterion 1: difference-operator laws


def difference_laws(seed: int) -> SuiteResult:
    result = SuiteResult("difference-calculus laws (commutation, cocycle, collapse)")
    rng = random.Random(seed)

    for _ in range(LAW_CASES):
        f, _, _ = random_poly_fn(rng, 3)
        p = rng.randint(2, 3)
        us = [_rand_rational(rng, -3, 3, (1, 2)) for _ in range(p)]
        base = _rand_rational(rng, 0, 3, (1, 2))
        reference = iterated_delta(f, us, base)
        shuffled = list(us)
        rng.shuffle(shuffled)
        ok = iterated_delta(f, shuffled, base) == reference
        if p <= 3:
            ok = ok and all(
                iterated_delta(f, list(perm), base) == reference
                for perm in permutations(us)
            )
        result.count(ok, f"order invariance broke for us={point_str(us)}")

    for _ in range(LAW_CASES):
        f, _, _ = random_poly_fn(rng, 4)
        u = _rand_rational(rng, -3, 3, (1, 2, 3))
        v = _rand_rational(rng, -3, 3, (1, 2, 3))
        base = _rand_rational(rng, 0, 2, (1, 2))
        result.count(verify_cocycle(f, u, v, base), f"cocycle broke at u={u}, v={v}")

    for _ in range(LAW_CASES):
        # symmetric multiadditive map on rationals: c * u_1 * ... * u_k
        k = rng.randint(1, 3)
        c = _rand_nonzero(rng, -4, 4, (1, 2, 3))
        diag = FunctionHandle(lambda a, c=c, k=k: c * a ** k)
        us = [_rand_rational(rng, 1, 3, (1, 2)) for _ in range(k)]
        base = _rand_rational(rng, 0, 2, (1, 2))
        prod = Fraction(1)
        for u in us:
            prod *= u
        exact = iterated_delta(diag, us, base) == factorial(k) * c * prod
        overshoot = iterated_delta(diag, us + [Fraction(1)], base) == 0
        result.count(exact and overshoot, f"collapse broke for k={k}, c={c}")

    return result


# ---------------------------------------------------------------------------
# criterion 2: simplex decomposition and its valuation identity


AB_PAIRS = (
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(2), Fraction(1, 3)),
)


def simplex_decomposition(seed: int) -> SuiteResult:
    result = SuiteResult("simplex decomposition tiling and valuation identity")
    rng = random.Random(seed)
    for d in (1, 2, 3):
        panel = (
            vv.volume_valuation(),
            vv.euler_valuation(),
            vv.probe_volume(pk.unit_cube(d), "unit_cube"),
        )
        for _ in range(BASES_PER_DIM):
            basis = random_basis(rng, d)
            for a, b in AB_PAIRS:
                report = pk.verify_decomposition(basis, a, b)
                result.count(
                    report.ok, f"tiling failed d={d}, a={a}, b={b}: {report.failures[:1]}"
                )
                for row in bg.simplex_identity_as_classes(basis, a, b, panel).rows:
                    result.count(
                        row.ok, f"valuation identity failed d={d}, {row.name}: {row.detail}"
                    )
    return result


# ---------------------------------------------------------------------------
# criterion 3: vanishing of iterated differences of dilation volumes


def dilation_vanishing(seed: int) -> SuiteResult:
    result = SuiteResult("iterated differences of dilation volumes vanish")
    for P, Q in seeded_corpus(seed):
        d = pk.dim(P)
        fn = FunctionHandle(
            lambda t, P=P, Q=Q: vv.evaluate(
                vv.probe_volume(Q), pk.dilate(P, t)
            )
        )
        ok = verify_vanishing(
            fn,
            d,
            [Fraction(1), Fraction(1, 2), Fraction(2)],
            [Fraction(0), Fraction(1, 3)],
        )
        result.count(ok, f"vanishing failed for dim-{d} body {P}")
    return result


# ---------------------------------------------------------------------------
# criterion 4: component identities on the corpus


HOMOGENEITY_FACTORS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def component_identities(seed: int) -> SuiteResult:
    result = SuiteResult("graded components: splitting, idempotence, homogeneity")
    for P, _ in seeded_corpus(seed):
        d = pk.dim(P)
        panel = vv.default_panel(P.ambient_dim)
        comps = bg.mcmullen_components(P)
        total = comps[0]
        for c in comps[1:]:
            total = total + c
        result.count(total == bg.class_of(P), f"sum of components != class for {P}")
        point_class = bg.class_of(pk.origin_polytope(P.ambient_dim))
        result.count(comps[0] == point_class, f"degree-0 component != [point] for {P}")

        X = bg.class_of(P)
        pt = point_class
        if d == 1:
            result.count(
                comps[1] == X - pt, f"dim-1 closed form failed for {P}"
            )
        if d == 2:
            half = bg.class_of(pk.dilate(P, Fraction(1, 2)))
            result.count(
                comps[2] == 2 * X - 4 * half + 2 * pt,
                f"dim-2 degree-2 closed form failed for {P}",
            )
            result.count(
                comps[1] == -1 * X + 4 * half - 3 * pt,
                f"dim-2 degree-1 closed form failed for {P}",
            )

        idem = bg.verify_idempotence(P, panel)
        result.count(idem.ok, f"idempotence failed for {P}: {idem.failures()[:1]}")
        for lam in HOMOGENEITY_FACTORS:
            hom = bg.verify_homogeneity(P, lam, panel)
            result.count(
                hom.ok, f"homogeneity at {lam} failed for {P}: {hom.failures()[:1]}"
            )
    return result


# ---------------------------------------------------------------------------
# criterion 5: planar mixed volume against the expansion coefficient


def mixed_volume_cross_check(seed: int) -> SuiteResult:
    result = SuiteResult("planar mixed volume vs dilation expansion coefficient")
    rng = random.Random(seed + 5)
    vol = vv.volume_valuation()
    for _ in range(MIXED_PAIRS):
        P = random_polytope(rng, 2)
        Q = random_polytope(rng, 2)
        mv = vv.mixed_volume_2d(P, Q)
        result.count(
            mv == vv.mixed_volume_2d(Q, P), f"mixed volume asymmetric for {P}, {Q}"
        )
        expansion = vv.expansion_of_dilation(vol, P, probe=Q)
        coeff = expansion.components[0].at_ones
        result.count(
            coeff == 2 * mv,
            f"linear coefficient {coeff} != 2*V(P,Q) = {2 * mv}",
        )
    return result


# ---------------------------------------------------------------------------
# criterion 6: Ehrhart counting for cubes


def _fit_polynomial(points):
    """Exact coefficients of the polynomial through (x, y) pairs (Vandermonde)."""
    n = len(points)
    columns = [tuple(x ** j for x, _ in points) for j in range(n)]
    target = tuple(y for _, y in points)
    return _linalg.solve(columns, target)


def ehrhart_counts(seed: int) -> SuiteResult:
    """Fixed unit cubes: the seed, taken as by every suite, changes nothing."""
    result = SuiteResult("Ehrhart counting on unit cubes")
    for d in range(1, EHRHART_MAX_DIM + 1):
        cube = pk.unit_cube(d)
        counts = []
        for lam in range(EHRHART_MAX_DILATION + 1):
            body = pk.dilate(cube, lam)
            got = pk.lattice_count(body)
            # brute-force oracle: the facet test on the box widened by one,
            # a route apart from lattice_count's line sweep
            oracle = sum(pk.contains(body, cand) for cand in product(range(-1, lam + 2), repeat=d))
            result.count(
                got == oracle == (lam + 1) ** d,
                f"count mismatch d={d}, lam={lam}: {got} vs oracle {oracle}",
            )
            counts.append((Fraction(lam), Fraction(got)))
        fitted = _fit_polynomial(counts[: d + 1])
        fn = FunctionHandle(
            lambda k, cube=cube: Fraction(pk.lattice_count(pk.dilate(cube, k))),
            NATURALS,
            QQ,
        )
        expansion = extract_components(fn, d)
        extracted = expansion.scalar_coefficients()
        binomials = [
            Fraction(factorial(d) // (factorial(k) * factorial(d - k)))
            for k in range(d + 1)
        ]
        result.count(
            list(fitted) == extracted == binomials,
            f"coefficients d={d}: fitted {point_str(fitted)}, extracted {point_str(extracted)}",
        )
    return result


# ---------------------------------------------------------------------------
# criterion 7: uniqueness of expansions across internal bases


def expansion_uniqueness(seed: int) -> SuiteResult:
    result = SuiteResult("expansion uniqueness across internal evaluation bases")
    rng = random.Random(seed + 7)
    for _ in range(UNIQUENESS_CASES):
        f, degree, _ = random_poly_fn(rng, 3)
        first = extract_components(f, degree, base=Fraction(1))
        second = extract_components(f, degree, base=Fraction(1, 3))
        same = first.scalar_coefficients() == second.scalar_coefficients()
        args = [_rand_rational(rng, 1, 3, (1, 2)) for _ in range(degree)]
        for k in range(1, degree + 1):
            a = first.components[k - 1].evaluate(*args[:k])
            b = second.components[k - 1].evaluate(*args[:k])
            same = same and a == b
        result.count(same, "components differ across evaluation bases")
    return result


# ---------------------------------------------------------------------------
# criterion 8: the subtract-the-constant factorization at panel level


def factorization_consequence(seed: int) -> SuiteResult:
    result = SuiteResult("valuation factorization through positive-degree components")
    for P, _ in seeded_corpus(seed):
        panel = vv.default_panel(P.ambient_dim)
        comps = bg.mcmullen_components(P)
        X = bg.class_of(P)
        pt = bg.class_of(pk.origin_polytope(P.ambient_dim))
        for val in panel:
            lhs = vv.evaluate_sum(val, X) - vv.evaluate_sum(val, pt)
            rhs = sum(
                (vv.evaluate_sum(val, c) for c in comps[1:]), Fraction(0)
            )
            result.count(
                lhs == rhs,
                f"factorization failed for {val.key()} on {P}: {lhs} != {rhs}",
            )
    return result


# ---------------------------------------------------------------------------


# the eight suites, each called with the seed
SUITES = (difference_laws, simplex_decomposition, dilation_vanishing, component_identities,
          mixed_volume_cross_check, ehrhart_counts, expansion_uniqueness,
          factorization_consequence)
