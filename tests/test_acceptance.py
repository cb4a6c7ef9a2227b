"""Acceptance suite: every criterion at full size, exact arithmetic throughout.

Each test prints one PASS/FAIL line (run pytest with -s to see them all even
on success). All comparisons are exact rational equality; there are no
tolerances anywhere.
"""

from convexval import verify_suite as vs

SEED = 20260808


def _report(criterion: str, result: vs.SuiteResult):
    status = "PASS" if result.ok else "FAIL"
    print(f"{status} criterion {criterion}: {result.name} [{result.checks} checks]")
    assert result.ok, f"criterion {criterion}: {result.failures[:3]}"


def test_criterion_1_difference_calculus_laws():
    """Permutation invariance, the cocycle identity, and the multiadditive
    collapse (p = n gives n! times the map, p > n gives 0), 100 seeded
    rational cases each."""
    _report("1", vs.difference_laws(SEED))


def test_criterion_2_simplex_decomposition():
    """For d in {1,2,3}, 25 seeded bases, and three (a,b) pairs: exact volume
    additivity, grid double-inclusion, and the valuation identity for
    volume, Euler, and the unit-cube probe."""
    _report("2", vs.simplex_decomposition(SEED))


def test_criterion_3_vanishing():
    """(dim X + 1)-fold differences of t -> vol(tX + Q) vanish at every
    multiset from {1, 1/2, 2} and bases {0, 1/3}, over 25 seeded bodies."""
    _report("3", vs.dilation_vanishing(SEED))


def test_criterion_4_graded_components():
    """Component sum and point anchoring as syntactic identities, closed
    forms in dimensions 1 and 2, panel-exact idempotence, and homogeneity
    at factors {0, 1/2, 1, 2, 3}, over the same corpus."""
    _report("4", vs.component_identities(SEED))


def test_criterion_5_mixed_volume():
    """For 25 seeded planar pairs: the linear coefficient of
    t -> vol(tP + Q) equals twice the mixed volume, and symmetry is exact."""
    _report("5", vs.mixed_volume_cross_check(SEED))


def test_criterion_6_ehrhart():
    """Unit cubes up to dimension 3, dilations up to 10: counts match the
    brute-force oracle and (lam+1)^d, and extraction over the naturals
    recovers the binomial coefficients of the fitted polynomial."""
    _report("6", vs.ehrhart_counts(SEED))


def test_criterion_7_uniqueness():
    """Extraction with internal evaluation base 1 versus 1/3 yields
    identical components on 50 seeded cases."""
    _report("7", vs.expansion_uniqueness(SEED))


def test_criterion_8_factorization():
    """v([X]) - v([point]) equals the sum of v over the positive-degree
    components, for every panel valuation and corpus body."""
    _report("8", vs.factorization_consequence(SEED))
