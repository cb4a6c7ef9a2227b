"""The kernel's integer paths against their Fraction definitions.

`minkowski_sum` adds the two bodies' integer forms over a common scale and
`contains` compares integer normals with the query point scaled to integers.
Each is checked here against the plain Fraction computation it replaces, on
seeded inputs with denominators up to 10^6, lower-dimensional bodies
included.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from convexval import _geometry as geom
from convexval import _linalg
from convexval import polytope as pk
from convexval.errors import DependentBasis, InvariantViolation, UnsupportedDimension
from test_linalg import fraction_solve


def _planes(P):
    """P's facet planes as (integer normal, Fraction offset)."""
    return [(n, F(c, P._ints[1])) for n, c in zip(P._facets[0], P._offsets)]


def fraction_minkowski_sum(P, Q):
    """The Fraction definition: the hull of all vertex sums."""
    return pk.hull({tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices})


def fraction_contains(P, x):
    """Membership over Fractions: the halfspace test on a full-dimensional
    body; otherwise coordinates in a basis of the vertex differences from
    the first vertex, tested in the hull of the vertices' coordinates."""
    if len(P.vertices) == 1:
        return x == P.vertices[0]
    if pk.dim(P) == P.ambient_dim:
        return all(sum(c * t for c, t in zip(normal, x)) <= rhs for normal, rhs in _planes(P))
    origin = P.vertices[0]
    diffs = [tuple(a - b for a, b in zip(v, origin)) for v in P.vertices]
    solve = _linalg.solver([diffs[i] for i in _linalg.independent_rows(diffs)])
    coords = solve(tuple(a - b for a, b in zip(x, origin)))
    return coords is not None and fraction_contains(pk.hull(map(solve, diffs)), coords)


def _body(rng, n):
    """A seeded body in R^n of affine dimension 0..n.

    The points are a base point plus nonnegative rational combinations of
    0..n random directions, so most bodies are lower-dimensional;
    coordinates have denominators 1, 2, 7 or 10^6.
    """
    den = rng.choice((1, 2, 7, 10**6))

    def coord():
        return F(rng.randint(-3 * den, 3 * den), den)

    base = tuple(coord() for _ in range(n))
    dirs = [tuple(coord() for _ in range(n)) for _ in range(rng.randint(0, n))]
    pts = [base]
    for _ in range(rng.randint(1, 7)):
        ts = [F(rng.randint(0, 3), rng.choice((1, 2, 3))) for _ in dirs]
        pts.append(tuple(b + sum((t * d[i] for t, d in zip(ts, dirs)), F(0))
                         for i, b in enumerate(base)))
    return pk.hull(pts)


def _assert_same_body(S, O):
    """S equals the Fraction result O, and so does each piece of derived data."""
    assert S.vertices == O.vertices
    n = S.ambient_dim
    # the integer form handed over is the canonical one of the vertices
    assert S._ints == O._ints == geom.integerize(S.vertices)
    assert pk.dim(S) == pk.dim(O)
    assert pk.volume(S) == pk.volume(O)
    if pk.dim(S) == n and n <= 3:
        if n == 3 and len(S.vertices) > 4:
            assert "_facets" in vars(S)
        assert _planes(S) == _planes(O)
        # a copy without handed-over data computes the same planes itself
        copy = pk._trusted(n, S.vertices)
        assert set(_planes(copy)) == set(_planes(S))
        if n == 3:
            assert _planes(S) == _planes(O)
            assert pk.volume(copy) == pk.volume(S)


def test_minkowski_sum_matches_fraction_definition():
    rng = random.Random(6006)
    lower = seams = full3 = 0
    for k in range(600):
        n = 1 + k % 3
        P, Q = _body(rng, n), _body(rng, n)
        S = pk.minkowski_sum(P, Q)
        _assert_same_body(S, fraction_minkowski_sum(P, Q))
        lower += pk.dim(P) < n or pk.dim(Q) < n
        seams += pk.dim(S) < n
        full3 += n == 3 and pk.dim(S) == 3
    assert lower >= 400 and seams >= 150 and full3 >= 80


def test_minkowski_sum_staircase_pieces_match_fraction_definition(monkeypatch):
    hulls = []
    real_hull = pk._hull_ints
    monkeypatch.setattr(pk, "_hull_ints", lambda *args: hulls.append(1) or real_hull(*args))
    rng = random.Random(6007)
    mapped = 0
    for _ in range(30):
        d = rng.randint(1, 3)
        basis = None
        while basis is None:
            try:
                basis = pk.simplex_basis(
                    [[F(rng.randint(-4, 4), rng.choice((1, 3, 10**6))) for _ in range(d)]
                     for _ in range(d)])
            except DependentBasis:
                pass
        sums = list(itertools.accumulate(
            basis.vectors, lambda p, v: tuple(a + b for a, b in zip(p, v)), initial=(F(0),) * d))

        def partial(lo, hi, factor):
            verts = (tuple(p - q for p, q in zip(sums[j], sums[lo])) for j in range(lo, hi + 1))
            return pk.dilate(pk._trusted(d, verts), factor)

        def shifted(P, shift):
            return pk.hull(tuple(c + s for c, s in zip(v, shift)) for v in P.vertices)

        # two (a, b) on one basis: the second maps its sums from the first's tables
        seen = set()
        for _ in range(2):
            a, b = (F(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(2))
            # the former definition: cell i = a S(v1..vi) + b S(vi+1..vd) and
            # seam i = a S(v1..vi-1) + b S(vi+1..vd) over relative partial
            # simplices, moved by b (v1+...+vi)
            pairs = [(partial(0, i, a), partial(i, d, b)) for i in range(d + 1)]
            pairs += [(partial(0, i - 1, a), partial(i, d, b)) for i in range(1, d + 1)]
            for head, tail in pairs:
                _assert_same_body(pk.minkowski_sum(head, tail), fraction_minkowski_sum(head, tail))
            shifts = [tuple(b * c for c in p) for p in sums]
            expected = [shifted(fraction_minkowski_sum(*pair), shift)
                        for pair, shift in zip(pairs, shifts + shifts[1:])]
            hulls.clear()
            pieces = pk.decomposition_pieces(basis, a, b)
            # every piece of a 3D basis mapped from a table, with no hull
            mapped += d == 3 and not hulls and (a, b) not in seen
            seen.add((a, b))
            assert len(pieces.cells) == d + 1 and len(pieces.seams) == d
            for S, O in zip(pieces.cells + pieces.seams, expected):
                _assert_same_body(S, O)
    assert mapped >= 5


def test_minkowski_sum_beyond_three_dimensions():
    rng = random.Random(6008)
    for _ in range(20):
        lo = [F(rng.randint(-9, 9), rng.choice((1, 5, 10**6))) for _ in range(4)]
        box = pk.hull(itertools.product(*((c, c + rng.randint(1, 3)) for c in lo)))
        box2 = pk.dilate(pk.unit_cube(4), F(rng.randint(1, 9), 7))
        shift = pk.hull([[F(rng.randint(-9, 9), 10**6 - 1) for _ in range(4)]])
        simplex = pk.dilate(pk.standard_simplex(4), F(rng.randint(1, 9), 2))
        for P, Q in ((box, box2), (simplex, shift), (shift, box)):
            S = pk.minkowski_sum(P, Q)
            O = fraction_minkowski_sum(P, Q)
            assert S.vertices == O.vertices and S._ints == geom.integerize(S.vertices)
            assert pk.volume(S) == pk.volume(O)
    segment = pk.hull([(0, 0, 0, 0), (1, 1, 1, F(1, 3))])
    simplex = pk.standard_simplex(4)
    with pytest.raises(UnsupportedDimension) as fast:
        pk.minkowski_sum(simplex, segment)
    with pytest.raises(UnsupportedDimension) as slow:
        fraction_minkowski_sum(simplex, segment)
    assert str(fast.value) == str(slow.value)


def _membership_points(rng, P):
    """Points on P (vertices, exact boundary points) and points just off them.

    Boundary points are convex combinations of the vertices on one facet
    (or of any vertices, for a lower-dimensional body); each is moved by a
    random integer vector over a large prime denominator, coprime to the
    body's.
    """
    verts = list(P.vertices)
    n = P.ambient_dim
    groups = [verts]
    if pk.dim(P) == n:
        groups = [[v for v in verts if sum(c * t for c, t in zip(normal, v)) == rhs]
                  for normal, rhs in _planes(P)]
    on_body, near = list(verts), []
    for group in groups:
        weights = [F(rng.randint(1, 5)) for _ in group]
        total = sum(weights)
        on = tuple(sum((w * v[i] for w, v in zip(weights, group)), F(0)) / total
                   for i in range(n))
        q = rng.choice((999_983, 1_000_003, 10**9 + 7))
        on_body.append(on)
        for _ in range(2):
            step = [rng.randint(-2, 2) for _ in range(n)]
            near.append(tuple(c + F(s, q) for c, s in zip(on, step)))
    return on_body, near


def test_contains_matches_fraction_halfspace_test():
    rng = random.Random(6009)
    seen = {True: 0, False: 0}
    lower = 0
    for k in range(300):
        n = 1 + k % 3
        P = _body(rng, n)
        lower += pk.dim(P) < n
        on_body, near = _membership_points(rng, P)
        for x in on_body + near:
            expected = fraction_contains(P, x)
            assert pk.contains(P, x) == expected, (P, x)
            seen[expected] += 1
        assert all(pk.contains(P, x) for x in on_body)
    assert lower >= 60 and min(seen.values()) >= 500


def _body_beyond_3d(rng, n, kind):
    """A seeded body of one kind in R^n (n = 4, 5) with its Fraction
    membership oracle: barycentric coordinates for a simplex of full or
    lower rank, the extents for an axis-aligned box (flat along about a
    quarter of the axes), and `fraction_contains` for a cloud of affine rank
    at most 3. Coordinates have denominators 1, 2, 7 or 10^6."""
    den = rng.choice((1, 2, 7, 10**6))

    def coord():
        return F(rng.randint(-3 * den, 3 * den), den)

    base = tuple(coord() for _ in range(n))
    if kind == "box":
        extents = [F(rng.randint(1, 3 * den), den) if rng.randrange(4) else F(0)
                   for _ in range(n)]
        P = pk.hull(itertools.product(*((a, a + e) for a, e in zip(base, extents))))
        return P, lambda x: all(a <= c <= a + e for a, c, e in zip(base, x, extents))
    if kind == "cloud":
        dirs = [tuple(coord() for _ in range(n)) for _ in range(rng.randint(1, 3))]
        pts = [base]
        for _ in range(rng.randint(3, 8)):
            ts = [F(rng.randint(0, 3), rng.choice((1, 2, 3))) for _ in dirs]
            pts.append(tuple(b + sum((t * d[i] for t, d in zip(ts, dirs)), F(0))
                             for i, b in enumerate(base)))
        P = pk.hull(pts)
        return P, lambda x: fraction_contains(P, x)
    rank = n if kind == "simplex" else rng.randint(1, n - 1)
    edges = []
    while len(_linalg.independent_rows(edges)) < rank:
        edges = [tuple(coord() for _ in range(n)) for _ in range(rank)]
    P = pk.hull([base] + [tuple(b + e for b, e in zip(base, edge)) for edge in edges])

    def oracle(x):
        lam = fraction_solve(edges, tuple(c - b for c, b in zip(x, base)))
        return lam is not None and all(t >= 0 for t in lam) and sum(lam) <= 1

    return P, oracle


def test_contains_beyond_three_dimensions_matches_fraction_oracles():
    rng = random.Random(6012)
    seen, kinds = {True: 0, False: 0}, set()
    for k in range(200):
        n = 4 + k % 2
        kind = ("simplex", "box", "flat simplex", "cloud")[k // 2 % 4]
        P, oracle = _body_beyond_3d(rng, n, kind)
        verts = P.vertices
        centroid = tuple(sum(c) / len(verts) for c in zip(*verts))
        on, beyond = [], []
        for _ in range(8):
            p, q = rng.choice(verts), rng.choice(verts)
            if p != q:
                t = F(rng.randint(1, 4), 5)
                on.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
                # past q, which is extreme, away from p
                t = 1 + F(1, rng.choice((2, 7, 999_983)))
                beyond.append(tuple(a + t * (b - a) for a, b in zip(p, q)))
        nudged = []
        for v in rng.sample(verts, min(len(verts), 6)):
            q = rng.choice((999_983, 1_000_003))
            nudged.append(tuple(c + F(rng.randint(-1, 1), q) for c in v))
            # towards and away from the centroid, inside the affine hull
            nudged.append(tuple(c + (g - c) / q for c, g in zip(v, centroid)))
            nudged.append(tuple(c - (g - c) / q for c, g in zip(v, centroid)))
        assert all(pk.contains(P, x) for x in list(verts) + [centroid] + on), (P, kind)
        assert not any(pk.contains(P, x) for x in beyond), (P, kind)
        for x in list(verts) + [centroid] + on + beyond + nudged:
            expected = oracle(x)
            assert pk.contains(P, x) == expected, (P, kind, x)
            seen[expected] += 1
        kinds.add((kind, n, pk.dim(P) < n))
    # full and flat boxes, and every other kind in both dimensions
    assert kinds >= {(kind, n, flat) for n in (4, 5)
                     for kind, flat in (("simplex", False), ("box", False), ("box", True),
                                        ("flat simplex", True), ("cloud", True))}
    assert min(seen.values()) >= 1000


def fraction_volume(P):
    """The Fraction formulas on the vertices of a full-dimensional segment,
    simplex or box."""
    n = P.ambient_dim
    if n == 1:
        return max(v[0] for v in P.vertices) - min(v[0] for v in P.vertices)
    if len(P.vertices) == n + 1:
        base = P.vertices[0]
        rows = [tuple(a - b for a, b in zip(v, base)) for v in P.vertices[1:]]
        return abs(_linalg.det(rows)) / math.factorial(n)
    lo, hi = P.vertices[0], P.vertices[-1]
    return math.prod((h - l for l, h in zip(lo, hi)), start=F(1))


def test_volume_matches_fraction_formulas():
    rng = random.Random(6011)
    seen = {}
    for k in range(300):
        n = 1 + k % 5
        den = rng.choice((1, 2, 7, 10**6))

        def coord():
            return F(rng.randint(-3 * den, 3 * den), den)

        if n >= 4 and k % 2:
            kind = "box"
            corner = [coord() for _ in range(n)]
            P = pk.hull(itertools.product(*((a, a + F(rng.randint(1, 3 * den), den))
                                            for a in corner)))
        else:
            kind = "segment" if n == 1 else "simplex"
            pts = [tuple(coord() for _ in range(n)) for _ in range(n + 1)]
            if _linalg.det([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]) == 0:
                continue
            P = pk.hull(pts)
        shift = [coord() for _ in range(n)]
        H = pk.translate(pk.dilate(P, rng.choice((F(1, 3), F(7, 4), F(5, 999_983)))), shift)
        for body in (P, H):
            assert pk.volume(body) == fraction_volume(body) > 0
        seen[kind, n] = seen.get((kind, n), 0) + 1
    assert len(seen) == 7 and min(seen.values()) >= 20


def test_hull_3d_is_invariant_under_integer_scaling():
    rng = random.Random(6010)
    for _ in range(150):
        g = rng.randint(1, 4)
        pts = []
        while not pts:
            pts = sorted({tuple(rng.randint(-g, g) for _ in range(3))
                          for _ in range(rng.randint(4, 16))})
            diffs = [geom.sub(p, pts[0]) for p in pts[1:]]
            if not any(geom.dot(geom.cross3(a, b), c)
                       for a, b, c in itertools.combinations(diffs, 3)):
                pts = []  # affine rank below 3
        k = rng.choice((2, 3, rng.randint(4, 10**6)))
        facets, vertices = geom.hull_3d(pts)
        scaled, scaled_vertices = geom.hull_3d([tuple(k * c for c in p) for p in pts])
        assert scaled_vertices == vertices
        assert list(scaled) == [(normal, k * c) for normal, c in facets]
        assert list(scaled.values()) == list(facets.values())
        assert all(math.gcd(*normal) == 1 for normal, _ in facets)


def test_facet_scan_checks_that_the_plane_supports():
    # hull_3d checks each facet plane against every point in the scan that
    # collects the facet's points
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert sorted(geom._facet_cycle(cube, (1, 0, 0), 1)) == [4, 5, 6, 7]
    for normal, offset in (((1, 1, 0), 1), ((-1, 0, 0), -1), ((1, 0, 0), 0)):
        with pytest.raises(InvariantViolation, match="plane is not supporting"):
            geom._facet_cycle(cube, normal, offset)
