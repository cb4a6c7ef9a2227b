"""Polytope kernel: hulls, sums, dilation, volume, counting, decomposition."""

import collections
import gc
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import weakref
from fractions import Fraction as F

import pytest

from convexval import _geometry as geom
from convexval import bodygroup as bg
from convexval import polytope as pk
from convexval import valuations as vv
from convexval import verify_suite as vs
from convexval.errors import (
    DependentBasis,
    DimensionMismatch,
    EmptyInput,
    GuardExceeded,
    MixedDimensions,
    NegativeFactor,
    NonpositiveScale,
    UnsupportedDimension,
)


def det3_oracle(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def shoelace_oracle(cycle):
    total = F(0)
    for i in range(len(cycle)):
        x1, y1 = cycle[i]
        x2, y2 = cycle[(i + 1) % len(cycle)]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


# ---------------------------------------------------------------------------
# hull


def test_hull_drops_interior_point():
    # (1/4, 1/4) = 1/2*(0,0) + 1/4*(1,0) + 1/4*(0,1), an exact convex combination
    combo = tuple(
        F(1, 2) * a + F(1, 4) * b + F(1, 4) * c
        for a, b, c in zip((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    )
    assert combo == (F(1, 4), F(1, 4))
    P = pk.hull([(0, 0), (1, 0), (0, 1), combo])
    assert P.vertices == ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))


def test_hull_single_point():
    P = pk.hull([(3, 7)])
    assert P.vertices == ((F(3), F(7)),)


def test_hull_collinear_keeps_endpoints():
    P = pk.hull([(0, 0), (1, 1), (2, 2)])
    assert P.vertices == ((F(0), F(0)), (F(2), F(2)))


def test_hull_idempotent_and_canonical():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice((1, 2, 3))
        pts = [
            tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n))
            for _ in range(rng.randint(1, 8))
        ]
        P = pk.hull(pts)
        assert pk.hull(P.vertices) == P
        assert list(P.vertices) == sorted(set(P.vertices))


def test_hull_errors():
    with pytest.raises(EmptyInput):
        pk.hull([])
    with pytest.raises(MixedDimensions):
        pk.hull([(0, 0), (1, 0, 0)])
    with pytest.raises(UnsupportedDimension):
        pk.hull(
            [tuple(0 for _ in range(4))]
            + [tuple(1 if i == j else 0 for i in range(4)) for j in range(4)]
            + [tuple(F(1, 5) for _ in range(4))]
        )


def test_hull_simplex_any_dimension():
    # affinely independent points are all extreme, even in ambient 5
    pts = [tuple(0 for _ in range(5))] + [
        tuple(1 if i == j else 0 for i in range(5)) for j in range(5)
    ]
    P = pk.hull(pts)
    assert len(P.vertices) == 6
    assert pk.dim(P) == 5


def _hull_cloud(rng):
    """A seeded degenerate cloud in R^3: (points, apexes, affine dimension).

    3D clouds are grid points, so facets hold many points, plus collinear
    runs between them; 1D and 2D clouds are integer combinations of random
    directions. ``apexes`` lie off the affine hull of a lower-dimensional
    cloud and make it full-dimensional without changing which cloud points
    are extreme. One random shear, scale and shift with denominators up to
    10^6 then maps points and apexes alike.
    """
    def vec(lo, hi):
        return tuple(rng.randint(lo, hi) for _ in range(3))

    def diff(p, q):
        return tuple(a - b for a, b in zip(p, q))

    d = rng.choice((1, 2, 3, 3))
    apexes = []
    if d == 3:
        g = rng.randint(1, 3)
        pts = []
        while not pts or det3_oracle(*(diff(p, pts[0]) for p in pts[1:])) == 0:
            pts = [vec(0, g) for _ in range(4)]
        pts += [vec(0, g) for _ in range(rng.randint(2, 10))]
        for _ in range(rng.randint(0, 2)):
            p, q = rng.sample(pts, 2)
            pts += [tuple(a + F(k, 3) * (b - a) for a, b in zip(p, q)) for k in (1, 2, 6)]
    else:
        base = vec(-2, 2)
        units = [tuple(int(i == j) for i in range(3)) for j in range(3)]
        # independent directions, completed to a basis by unit vectors
        completions = []
        while not completions:
            dirs = [vec(-2, 2) for _ in range(d)]
            completions = [e for e in itertools.combinations(units, 3 - d)
                           if det3_oracle(*dirs, *e) != 0]
        steps = [(0,) * d] + [tuple(3 * (i == j) for i in range(d)) for j in range(d)]
        steps += [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(1, 8))]
        pts = [tuple(b + sum(t * v[i] for t, v in zip(ts, dirs)) for i, b in enumerate(base))
               for ts in steps]
        apexes = [tuple(b + c for b, c in zip(base, e)) for e in completions[0]]
    den = rng.choice((1, 7, 10**6))
    scale = F(rng.randint(1, 2 * den), den)
    shift = tuple(F(rng.randint(-3 * den, 3 * den), den) for _ in range(3))
    a, b, c = (rng.randint(-1, 1) for _ in range(3))

    def warp(p):
        x, y, z = p[0] + a * p[1] + b * p[2], p[1] + c * p[2], p[2]
        return tuple(scale * t + s for t, s in zip((x, y, z), shift))

    return [warp(p) for p in pts], [warp(p) for p in apexes], d


def _planes(P):
    """P's facet planes as (integer normal, Fraction offset)."""
    return [(n, F(c, P._ints[1])) for n, c in zip(P._facets[0], P._offsets)]


def brute_hull3(cloud):
    """Facet planes and vertices of a full-dimensional cloud, by enumeration.

    A facet plane passes through a non-collinear point triple and has the
    whole cloud on one side; it is given as (primitive integer outward
    normal, offset). A point is a vertex iff the normals of the facet planes
    through it have rank 3.
    """
    cloud = sorted(set(cloud))
    scale = math.lcm(*(c.denominator for p in cloud for c in p))
    ints = [tuple(int(c * scale) for c in p) for p in cloud]

    def dot(p, q):
        return sum(a * b for a, b in zip(p, q))

    tried = set()
    planes = set()
    for p, q, r in itertools.combinations(ints, 3):
        u = tuple(a - b for a, b in zip(q, p))
        w = tuple(a - b for a, b in zip(r, p))
        n = (u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0])
        if n == (0, 0, 0):
            continue
        g = math.gcd(*n) * (1 if next(x for x in n if x) > 0 else -1)
        n = tuple(x // g for x in n)
        off = dot(n, p)
        if (n, off) in tried:
            continue
        tried.add((n, off))
        values = [dot(n, x) for x in ints]
        if max(values) <= off:
            planes.add((n, off))
        elif min(values) >= off:
            planes.add((tuple(-x for x in n), -off))
    vertices = set()
    for p, x in zip(cloud, ints):
        normals = [n for n, off in planes if dot(n, x) == off]
        if any(det3_oracle(*t) != 0 for t in itertools.combinations(normals, 3)):
            vertices.add(p)
    return {(n, F(off, scale)) for n, off in planes}, vertices


def test_hull_matches_brute_force_enumeration():
    rng = random.Random(3301)
    seeded = 0
    for _ in range(300):
        cloud, apexes, d = _hull_cloud(rng)
        P = pk.hull(cloud)
        if d == 3 and len(set(cloud)) > 4:
            # not a simplex: hull fills in the facets it found
            assert "_facets" in vars(P)
            seeded += 1
        planes, vertices = brute_hull3(cloud + apexes)
        assert pk.dim(P) == d
        assert set(P.vertices) == vertices - set(apexes), cloud
        # a copy of the same vertices computes its own derived data
        Q = pk._trusted(3, P.vertices)
        assert pk.volume(P) == pk.volume(Q)
        if d == 3:
            assert set(_planes(P)) == planes == set(_planes(Q))
            assert pk.lattice_count(P) == pk.lattice_count(Q)
    assert seeded >= 100


def _face_cloud(rng, face):
    """A seeded integer cloud in R^3 whose least point lies alone on the
    plane x = min (``face`` "point"), on a segment of it or on a polygon."""
    while True:
        g = rng.randint(1, 3)
        y, z = rng.randint(0, g), rng.randint(0, g)
        if face == "point":
            on = [(0, y, z)]
        elif face == "segment":
            dy, dz = rng.choice([(0, 1), (1, 0), (1, 1), (1, -1), (2, 1), (1, 2)])
            on = [(0, y + k * dy, z + k * dz) for k in range(rng.randint(2, 4))]
        else:
            on = [(0, rng.randint(0, g), rng.randint(0, g)) for _ in range(rng.randint(3, 8))]
        pts = list(dict.fromkeys(on + [tuple(rng.randint(lo, g + 1) for lo in (1, 0, 0))
                                        for _ in range(rng.randint(1, 9))]))
        diffs = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
        face_diffs = [d for d in diffs if d[0] == 0]
        full = any(det3_oracle(*t) != 0 for t in itertools.combinations(diffs, 3))
        shaped = face != "polygon" or any(d[1] * e[2] != d[2] * e[1]
                                          for d, e in itertools.combinations(face_diffs, 2))
        if full and shaped:
            rng.shuffle(pts)
            return pts


def test_hull_start_on_each_shape_of_the_face_x_min(monkeypatch):
    rng = random.Random(1616)
    turns = []
    real_turn = geom._turn
    monkeypatch.setattr(geom, "_turn", lambda *args: turns.append(args) or real_turn(*args))
    outcomes = collections.Counter()
    for face in ("point", "segment", "polygon"):
        for _ in range(60):
            pts = _face_cloud(rng, face)
            turns.clear()
            geom._first_plane(pts)
            # one turn reaches a facet, or an edge that a second turn leaves
            outcomes[face, len(turns)] += 1
            facets, vertices = geom.hull_3d(pts)
            planes, brute_vertices = brute_hull3(pts)
            assert {(n, F(c)) for n, c in facets} == planes, pts
            assert {pts[i] for i in vertices} == brute_vertices, pts
    assert all(outcomes[face, k] >= 5 for face in ("point", "segment", "polygon")
               for k in (1, 2)), outcomes


def test_hash_and_pickle_with_derived_data():
    rng = random.Random(17)
    bodies = [_oracle_body(rng, 1 + k % 3) for k in range(60)]
    bodies += [pk.hull([(1, 2, 3)]), pk.unit_cube(5), pk.standard_simplex(4)]
    for P in bodies:
        pk.contains(P, P.vertices[0])  # derived data cached before hashing
        assert hash(P) == hash((P.ambient_dim, P.vertices))
        assert pickle.loads(pickle.dumps(P)) == P
    # so a set of bodies iterates in the order of the same set of values
    values = [(P.ambient_dim, P.vertices) for P in bodies]
    assert [(P.ambient_dim, P.vertices) for P in set(bodies)] == list(set(values))
    basis = pk.simplex_basis([(1, 0), (1, 2)])
    assert pk.simplex_coordinates(basis, (2, 2)) == (1, 1)
    assert pickle.loads(pickle.dumps(basis)) == basis


# ---------------------------------------------------------------------------
# dim / dilate / translate / minkowski


def test_dim_examples():
    assert pk.dim(pk.hull([(5, 5)])) == 0
    assert pk.dim(pk.hull([(0, 0), (1, 1)])) == 1
    assert pk.dim(pk.unit_cube(2)) == 2
    assert pk.dim(pk.unit_cube(3)) == 3


def test_dilate_examples():
    sq = pk.unit_cube(2)
    assert pk.dilate(sq, 3) == pk.hull([(0, 0), (3, 0), (0, 3), (3, 3)])
    assert pk.dilate(sq, 0) == pk.origin_polytope(2)
    tri = pk.hull([(0, 0), (1, 0), (0, 1)])
    assert pk.dilate(tri, F(1, 2)) == pk.hull([(0, 0), ("1/2", 0), (0, "1/2")])
    assert pk.dilate(sq, 1) is sq
    with pytest.raises(NegativeFactor):
        pk.dilate(sq, -1)


def test_dilate_composes_multiplicatively():
    P = pk.hull([(0, 0, 0), (1, 2, 0), ("1/2", 0, 3), (1, 1, 1)])
    for lam, mu in [(F(1, 2), F(3)), (F(2), F(2)), (F(0), F(5)), (F(7, 3), F(1, 7))]:
        assert pk.dilate(pk.dilate(P, lam), mu) == pk.dilate(P, lam * mu)


def test_translate_examples():
    sq = pk.unit_cube(2)
    assert pk.translate(sq, (1, 0)) == pk.hull([(1, 0), (2, 0), (1, 1), (2, 1)])
    assert pk.translate(sq, (0, 0)) == sq
    assert pk.translate(pk.origin_polytope(2), (2, 3)) == pk.hull([(2, 3)])
    with pytest.raises(DimensionMismatch):
        pk.translate(sq, (1, 2, 3))


def test_minkowski_segments_make_square():
    s1 = pk.hull([(0, 0), (1, 0)])
    s2 = pk.hull([(0, 0), (0, 1)])
    assert pk.minkowski_sum(s1, s2) == pk.unit_cube(2)


def test_minkowski_point_translates():
    P = pk.hull([(0, 0), (2, 1), (1, 3)])
    t = pk.hull([("1/2", "-1/2")])
    assert pk.minkowski_sum(P, t) == pk.translate(P, ("1/2", "-1/2"))


def test_minkowski_self_sum_is_double():
    tri = pk.hull([(0, 0), (1, 0), (0, 1)])
    assert pk.minkowski_sum(tri, tri) == pk.dilate(tri, 2)


def test_minkowski_commutative_associative():
    rng = random.Random(2)
    for _ in range(5):
        polys = [
            pk.hull(
                [
                    tuple(F(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(2))
                    for _ in range(rng.randint(1, 4))
                ]
            )
            for _ in range(3)
        ]
        P, Q, R = polys
        assert pk.minkowski_sum(P, Q) == pk.minkowski_sum(Q, P)
        assert pk.minkowski_sum(pk.minkowski_sum(P, Q), R) == pk.minkowski_sum(
            P, pk.minkowski_sum(Q, R)
        )
    with pytest.raises(DimensionMismatch):
        pk.minkowski_sum(pk.unit_cube(2), pk.unit_cube(3))


# ---------------------------------------------------------------------------
# simplices and bases


def test_simplex_from_basis_staircase():
    basis = pk.simplex_basis([(1, 0), (0, 1)])
    P = pk.simplex_from_basis(basis)
    assert P.vertices == ((F(0), F(0)), (F(1), F(0)), (F(1), F(1)))


def test_simplex_from_basis_segment():
    basis = pk.simplex_basis([(1,)])
    assert pk.simplex_from_basis(basis) == pk.hull([(0,), (1,)])


def test_simplex_from_basis_volume_det_oracle():
    basis = pk.simplex_basis([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    P = pk.simplex_from_basis(basis)
    assert pk.volume(P) == F(1, 6)
    rng = random.Random(8)
    for _ in range(10):
        vecs = [
            tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(3))
            for _ in range(3)
        ]
        d = det3_oracle(*vecs)
        if d == 0:
            continue
        P = pk.simplex_from_basis(pk.simplex_basis(vecs))
        assert pk.volume(P) == abs(d) / 6


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplex_from_basis_is_kept_on_the_basis(d):
    rng = random.Random(40 + d)
    basis = vs.random_basis(rng, d)
    S = pk.simplex_from_basis(basis)
    assert pk.simplex_from_basis(basis) is S
    partial_sums = [tuple(sum((v[j] for v in basis.vectors[:i]), F(0)) for j in range(d))
                    for i in range(d + 1)]
    assert S == pk.hull(partial_sums)


def test_dependent_basis_rejected():
    with pytest.raises(DependentBasis):
        pk.simplex_basis([(1, 0), (2, 0)])
    with pytest.raises(DependentBasis):
        pk.simplex_basis([])
    # int rows, dependent: 87/203 = 60/140 = 3/7
    with pytest.raises(DependentBasis):
        pk.SimplexBasis(((203, 203, 140), (87, 87, 60)))


# ---------------------------------------------------------------------------
# volume


def test_volume_unit_square():
    assert pk.volume(pk.unit_cube(2)) == 1


def test_volume_lower_dimensional_is_zero():
    assert pk.volume(pk.hull([(0, 0), (1, 1)])) == 0
    assert pk.volume(pk.hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])) == 0


def test_volume_dilation_law():
    bodies = [
        pk.unit_cube(1),
        pk.hull([(0, 0), (2, 0), (1, 3), ("1/2", "1/2")]),
        pk.unit_cube(3),
        pk.simplex_from_basis(pk.simplex_basis([(1, 0, 0), (1, 1, 0), (1, 1, 2)])),
    ]
    for P in bodies:
        n = P.ambient_dim
        base = pk.volume(P)
        for lam in (F(0), F(1, 2), F(1), F(2), F(7, 3)):
            assert pk.volume(pk.dilate(P, lam)) == lam ** n * base


def test_volume_cube_dilate_closed_form():
    assert pk.volume(pk.dilate(pk.unit_cube(3), F(2, 3))) == F(8, 27)


def test_volume_polygon_shoelace_oracle():
    # convex pentagon with a known CCW cycle
    cycle = [(F(0), F(0)), (F(2), F(0)), (F(3), F(2)), (F(1), F(3)), (F(-1), F(1))]
    assert pk.volume(pk.hull(cycle)) == shoelace_oracle(cycle)


def test_volume_box_any_dimension():
    box = pk.hull(list(itertools.product((0, 2), (0, 3), (0, 1), (0, "1/2"))))
    assert pk.volume(box) == 3


def test_volume_3d_matches_tetrahedral_fill():
    # square pyramid: base [0,2]^2, apex (1,1,3): volume = (1/3)*4*3 = 4
    P = pk.hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 3)])
    assert pk.volume(P) == 4


def test_volume_unsupported_dimension():
    pts = [tuple(0 for _ in range(4))] + [
        tuple(1 if i == j else 0 for i in range(4)) for j in range(4)
    ]
    simplex4 = pk.hull(pts)
    assert pk.volume(simplex4) == F(1, 24)  # closed form still fine
    # a 4D cross-polytope-ish body has no closed form here
    cross = [tuple(s if i == j else 0 for i in range(4)) for j in range(4) for s in (1, -1)]
    with pytest.raises(UnsupportedDimension):
        pk.volume(pk.hull(cross))


# ---------------------------------------------------------------------------
# contains / lattice_count


def test_contains_examples():
    sq = pk.unit_cube(2)
    assert pk.contains(sq, ("1/2", "1/2"))
    assert not pk.contains(sq, (2, 2))
    assert pk.contains(sq, (1, 1))
    assert pk.contains(sq, (0, "1/3"))


def test_contains_lower_dimensional():
    seg = pk.hull([(0, 0, 0), (2, 2, 2)])
    assert pk.contains(seg, (1, 1, 1))
    assert not pk.contains(seg, (1, 1, F(3, 2)))
    assert not pk.contains(seg, (3, 3, 3))


def test_lattice_count_examples():
    assert pk.lattice_count(pk.unit_cube(2)) == 4
    assert pk.lattice_count(pk.dilate(pk.unit_cube(2), 3)) == 16
    assert pk.lattice_count(pk.hull([(0,), ("5/2",)])) == 3
    assert pk.lattice_count(pk.origin_polytope(0)) == 1


def test_lattice_count_triangle_oracle():
    # right triangle legs 4: count by row enumeration = sum_{x=0..4} (5-x) = 15
    tri = pk.dilate(pk.hull([(0, 0), (1, 0), (0, 1)]), 4)
    assert pk.lattice_count(tri) == 15


def test_lattice_count_guard():
    with pytest.raises(GuardExceeded):
        pk.lattice_count(pk.dilate(pk.unit_cube(3), 1000))


def test_lattice_count_matches_picks_theorem():
    # independent oracle for lattice polygons: count = area + boundary/2 + 1
    import math
    from math import gcd

    rng = random.Random(777)
    checked = 0
    for _ in range(25):
        pts = [(F(rng.randint(-6, 6)), F(rng.randint(-6, 6))) for _ in range(rng.randint(3, 8))]
        P = pk.hull(pts)
        if pk.dim(P) != 2:
            continue
        cx = sum(v[0] for v in P.vertices) / len(P.vertices)
        cy = sum(v[1] for v in P.vertices) / len(P.vertices)
        cyc = sorted(
            P.vertices, key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx))
        )
        boundary = 0
        for i in range(len(cyc)):
            dx = int(cyc[(i + 1) % len(cyc)][0] - cyc[i][0])
            dy = int(cyc[(i + 1) % len(cyc)][1] - cyc[i][1])
            boundary += gcd(abs(dx), abs(dy))
        assert pk.lattice_count(P) == pk.volume(P) + F(boundary, 2) + 1
        checked += 1
    assert checked >= 10


def _oracle_body(rng, n):
    """A seeded body for the lattice-count oracle, dilated by 1, 2, 3 or 5/2.

    About a fifth are collinear or coplanar clouds and a tenth are boxes,
    whose side facets have last normal coordinate 0; coordinates are
    negative as often as positive, with denominators 1, 2, 3 and 7.
    """
    den = rng.choice((1, 2, 3, 7))
    span = 2 if n < 3 else 1

    def coord():
        return F(rng.randint(-span * den, span * den), den)

    kind = rng.random()
    if kind < 0.2 and n > 1:
        base = tuple(coord() for _ in range(n))
        dirs = [tuple(rng.randint(-1, 1) for _ in range(n))
                for _ in range(rng.randint(1, n - 1))]
        pts = []
        for _ in range(rng.randint(2, 6)):
            ts = [F(rng.randint(0, den), den) for _ in dirs]
            pts.append(tuple(b + sum(t * d[i] for t, d in zip(ts, dirs))
                             for i, b in enumerate(base)))
    elif kind < 0.3:
        corner = [coord() for _ in range(n)]
        pts = itertools.product(*((a, a + F(rng.randint(1, 3 * den), den)) for a in corner))
    else:
        pts = [tuple(coord() for _ in range(n)) for _ in range(rng.randint(n + 1, n + 4))]
    return pk.dilate(pk.hull(pts), rng.choice((1, 2, 3, F(5, 2))))


def brute_lattice_count(P):
    axes = []
    for i in range(P.ambient_dim):
        coords = [v[i] for v in P.vertices]
        axes.append(range(math.ceil(min(coords)), math.floor(max(coords)) + 1))
    return sum(1 for x in itertools.product(*axes) if pk.contains(P, x))


def test_lattice_count_matches_brute_force_scan():
    rng = random.Random(2207)
    lower_dim = vertical = 0
    for k in range(1500):
        n = 1 + k % 3
        P = _oracle_body(rng, n)
        assert pk.lattice_count(P) == brute_lattice_count(P), P
        if pk.dim(P) < n:
            lower_dim += 1
        elif n > 1:
            vertical += any(normal[-1] == 0 for normal in P._facets[0])
    assert lower_dim >= 150 and vertical >= 100


def test_lattice_count_box_with_vertical_facets():
    box = pk.hull(itertools.product(("-3/2", "7/3"), ("-1", "2"), ("-1/7", "5/2")))
    assert any(normal[-1] == 0 for normal in box._facets[0])
    assert pk.lattice_count(box) == 4 * 4 * 3 == brute_lattice_count(box)


def test_caches_stay_within_their_bound():
    bound = pk.CACHE_SIZE
    vol = vv.volume_valuation()
    tet = pk.standard_simplex(3)
    seg = pk.hull([(0, 0), (2, 2)])
    first = pk.translate(tet, (-1, 0, 0))
    flat = pk.translate(seg, (-1, 0))
    expected = (vv.evaluate(vol, first), pk.dim(first), pk.lattice_count(first))
    pk.lattice_count(flat)
    # derived data lives on the bodies, so nothing outlives them once the
    # two module caches have dropped them
    refs = [weakref.ref(first), weakref.ref(flat)]
    del first, flat
    for k in range(bound + 1):
        body = pk.translate(tet, (k, 0, 0))
        vv.evaluate(vol, body)
        pk.lattice_count(body)
        pk.lattice_count(pk.translate(seg, (k, 0)))
    for cache in (pk.dim, vv._evaluate):
        assert cache.cache_info().maxsize == bound
        assert cache.cache_info().currsize <= bound
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    first = pk.translate(tet, (-1, 0, 0))
    misses = pk.dim.cache_info().misses
    assert (vv.evaluate(vol, first), pk.dim(first), pk.lattice_count(first)) == expected
    assert pk.dim.cache_info().misses > misses


# ---------------------------------------------------------------------------
# decomposition


def test_decomposition_pieces_d2_unit():
    basis = pk.simplex_basis([(1, 0), (0, 1)])
    pieces = pk.decomposition_pieces(basis, 1, 1)
    assert pieces.cells[0] == pk.hull([(0, 0), (1, 0), (1, 1)])
    assert pieces.cells[1] == pk.hull([(1, 0), (2, 0), (1, 1), (2, 1)])
    assert pieces.cells[2] == pk.hull([(1, 1), (2, 1), (2, 2)])
    assert pieces.seams[0] == pk.hull([(1, 0), (1, 1)])
    assert pieces.seams[1] == pk.hull([(1, 1), (2, 1)])
    vols = [pk.volume(c) for c in pieces.cells]
    assert vols == [F(1, 2), F(1), F(1, 2)]
    assert sum(vols) == pk.volume(pk.dilate(pk.simplex_from_basis(basis), 2))


def test_decomposition_requires_positive_scales():
    basis = pk.simplex_basis([(1, 0), (0, 1)])
    with pytest.raises(NonpositiveScale):
        pk.decomposition_pieces(basis, 0, 1)
    with pytest.raises(NonpositiveScale):
        pk.decomposition_pieces(basis, 1, "-1/2")
    # the class identity reads the same pieces, so it refuses the same scales
    for a, b in ((0, 1), (1, "-1/2"), (-1, "1/2")):
        with pytest.raises(NonpositiveScale):
            bg.simplex_identity_as_classes(basis, a, b, (vv.volume_valuation(),))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_decomposition_pieces_built_once_per_basis_and_scales(d, monkeypatch):
    calls = []
    real = pk.minkowski_sum
    monkeypatch.setattr(pk, "minkowski_sum", lambda P, Q: calls.append(1) or real(P, Q))
    basis = pk.simplex_basis([[F(j + 1, i + 1) if j <= i else 0 for j in range(d)]
                              for i in range(d)])
    a, b = F(1, 2), F(3, 2)
    # volume and Euler take no Minkowski sum of their own
    panel = (vv.volume_valuation(), vv.euler_valuation())
    assert pk.verify_decomposition(basis, a, b).ok
    assert bg.simplex_identity_as_classes(basis, a, b, panel).ok
    # d + 1 cells and d seams, built by the first reader and kept on the basis
    assert len(calls) == 2 * d + 1
    assert pk.decomposition_pieces(basis, "1/2", "3/2") is pk.decomposition_pieces(basis, a, b)


def _factor_over(P, S):
    """t > 0 with P = t*S + s for a shift s, else None. A positive homothety
    keeps the vertex order, so vertex i of P is the image of vertex i of S."""
    if len(P.vertices) != len(S.vertices):
        return None
    ratios = set()
    for p, s in zip(P.vertices, S.vertices):
        for pc, p0, sc, s0 in zip(p, P.vertices[0], s, S.vertices[0]):
            if sc == s0:
                if pc != p0:
                    return None
            else:
                ratios.add((pc - p0) / (sc - s0))
    return ratios.pop() if len(ratios) == 1 and min(ratios) > 0 else None


def test_staircase_simplex_hulled_at_the_first_scales_only(monkeypatch):
    # the (a+b)-dilate of the staircase simplex, cell 0 and cell d are
    # homothets of the one simplex the basis keeps, so their facets and their
    # sums with the probe come from one 3D hull each, at the first (a, b) only
    basis = pk.simplex_basis([(1, 0, 0), ("1/7", "2/5", 0), (0, "3/11", "5/3")])
    S = pk.simplex_from_basis(basis)
    panel = (vv.volume_valuation(), vv.euler_valuation(),
             vv.probe_volume(pk.unit_cube(3), "unit_cube"))
    hulls = []
    real_hull = pk._HULL_FACETS[3]
    monkeypatch.setitem(pk._HULL_FACETS, 3, lambda pts: hulls.append(1) or real_hull(pts))
    counts = []

    def count_hulls_on_homothets(name):
        real = getattr(pk, name)

        def wrapper(P, *args):
            before = len(hulls)
            result = real(P, *args)
            if _factor_over(P, S) is not None:
                counts[-1][name] += len(hulls) - before
            return result

        monkeypatch.setattr(pk, name, wrapper)

    # `_holds` is the membership test behind `contains`, which
    # verify_decomposition calls directly on points converted once
    count_hulls_on_homothets("_holds")
    count_hulls_on_homothets("minkowski_sum")
    for a, b in vs.AB_PAIRS:
        counts.append({"_holds": 0, "minkowski_sum": 0})
        assert pk.verify_decomposition(basis, a, b).ok
        assert bg.simplex_identity_as_classes(basis, a, b, panel).ok
    first, later = {"_holds": 1, "minkowski_sum": 1}, {"_holds": 0, "minkowski_sum": 0}
    assert counts == [first, later, later]


def test_verify_decomposition_d1():
    report = pk.verify_decomposition(pk.simplex_basis([("3/2",)]), 1, 1)
    assert report.ok


def test_verify_decomposition_d2_d3():
    assert pk.verify_decomposition(pk.simplex_basis([(1, 0), (0, 1)]), 1, 1).ok
    report = pk.verify_decomposition(
        pk.simplex_basis([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), F(1, 2), F(3, 2)
    )
    assert report.ok


@pytest.mark.parametrize("vectors, a, b", [
    ([(1, 0), (0, 1)], F(1), F(1)),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], F(1, 2), F(3, 2)),
])
def test_verify_decomposition_catches_shrunken_seams(vectors, a, b):
    basis = pk.simplex_basis(vectors)
    pieces = pk.decomposition_pieces(basis, a, b)
    assert pk.verify_decomposition(basis, a, b).ok
    # seams shrunk to their first vertex: every sample still lies on the
    # slice and in the adjacent cells, so only the converse check sees it
    shrunk = tuple(pk.hull([seam.vertices[0]]) for seam in pieces.seams)
    basis._pieces[(a, b)] = pieces._replace(seams=shrunk)
    report = pk.verify_decomposition(basis, a, b)
    assert not report.seams_match and report.seams_lower_dim
    assert report.failures and "missing from seam" in report.failures[0]
    assert "Fraction(" not in report.failures[0]
    # tampered pieces, each with the checks it fails; a cell replaced by a
    # dilate, a seam moved off its slice, a full-dimensional seam
    cells, seams = pieces.cells, pieces.seams
    shift = (F(1, 3),) + (0,) * (len(vectors) - 1)
    tampered = [
        ({"cells": (pk.dilate(cells[0], F(1, 2)),) + cells[1:]},
         {"volume_additive", "cover", "seams_match"}),
        ({"cells": (cells[0], pk.dilate(cells[1], 2)) + cells[2:]},
         {"volume_additive", "cover", "cells_inside", "seams_match"}),
        ({"seams": (pk.translate(seams[0], shift),) + seams[1:]}, {"seams_match"}),
        ({"seams": (cells[1],) + seams[1:]}, {"seams_match", "seams_lower_dim"}),
    ]
    checks = [name for name in report._fields if name != "failures"]
    for change, failed in tampered:
        basis._pieces[(a, b)] = pieces._replace(**change)
        report = pk.verify_decomposition(basis, a, b)
        assert {name for name in checks if not getattr(report, name)} == failed
        assert not any("Fraction(" in msg for msg in report.failures), report.failures
        if failed == {"seams_match"}:
            assert report.failures[0] == "seam 1 sample off the slice x_1 = b"


def test_verify_decomposition_random_bases():
    rng = random.Random(21)
    for d in (1, 2, 3):
        for _ in range(3):
            while True:
                vecs = [
                    tuple(F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(d))
                    for _ in range(d)
                ]
                try:
                    basis = pk.simplex_basis(vecs)
                    break
                except DependentBasis:
                    continue
            for a, b in [(F(1), F(1)), (F(1, 2), F(3, 2)), (F(2), F(1, 3))]:
                report = pk.verify_decomposition(basis, a, b)
                assert report.ok, report.failures


# ---------------------------------------------------------------------------
# serialization


def test_canonical_form_independent_of_input_order():
    rng = random.Random(41)
    pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1), ("1/2", "1/2", 0)]
    reference = json.dumps(pk.polytope_to_obj(pk.hull(pts)))
    for _ in range(6):
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert json.dumps(pk.polytope_to_obj(pk.hull(shuffled))) == reference


def test_contains_box_high_dimension():
    box = pk.hull(list(itertools.product((0, 2), (0, 3), (0, 1), (0, 5))))
    assert pk.contains(box, (1, "3/2", "1/2", 4))
    assert not pk.contains(box, (1, "3/2", "3/2", 4))


def test_polytope_json_round_trip_byte_stable():
    P = pk.hull([(0, 0), ("1/3", 1), (1, 0), ("2/3", "2/3")])
    obj = pk.polytope_to_obj(P)
    text = json.dumps(obj)
    again = pk.polytope_from_obj(json.loads(text))
    assert again == P
    assert json.dumps(pk.polytope_to_obj(again)) == text


def test_polytope_from_obj_rejects_bad_fields():
    from convexval.errors import ParseError

    with pytest.raises(ParseError):
        pk.polytope_from_obj({"vertices": [["0"]]})
    with pytest.raises(ParseError):
        pk.polytope_from_obj({"dim": 2, "vertices": [["0"]]})
    with pytest.raises(ParseError):
        pk.polytope_from_obj({"dim": 2, "vertices": [["0", "x"]]})
    # JSON booleans are not numbers, though Python's bool subclasses int
    with pytest.raises(ParseError):
        pk.polytope_from_obj({"dim": True, "vertices": [["0"], ["2"]]})
    with pytest.raises(ParseError):
        pk.polytope_from_obj({"dim": 1, "vertices": [[True], [2]]})


# ---------------------------------------------------------------------------
# kernel invariants


INVARIANT_PROBE = """
from convexval import _geometry as geom
from convexval import polytope as pk
from convexval.errors import InvariantViolation

cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
# a quadrilateral (no simplex, no box) with its edge cycles reversed
reversed_edges = pk.hull([(0, 0), (2, 0), (2, 1), (0, 2)])
normals, cycles = reversed_edges._facets
vars(reversed_edges)["_facets"] = normals, tuple(cycle[::-1] for cycle in cycles)
calls = [
    lambda: geom._facet_cycle(cube, (1, 1, 0), 1),
    lambda: pk.volume(reversed_edges),
]
for call in calls:
    try:
        call()
    except InvariantViolation as exc:
        print("raised:", exc)
    else:
        print("passed")
"""


def test_invariants_raise_typed_errors_under_optimize():
    src = os.path.dirname(os.path.dirname(pk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", INVARIANT_PROBE],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised: plane is not supporting",
        "raised: negative volume from facet cycles",
    ]
