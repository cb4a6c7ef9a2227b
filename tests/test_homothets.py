"""Positive homothets and the Minkowski-sum tables they share.

`dilate` by t > 0 and `translate` map a body's integer form and keep its
vertex order, so a homothet reads the span and facets of its root. The
first sum of a homothet of one root with a homothet of another is a hull;
later sums of positive homothets of the same two roots are mapped from a
table of vertex pairs kept on the first root. Every check here compares
against a computation that does not use the table: the hull of the full sum
cloud, the `_trusted` definitions of the two maps, and a volume found by
brute-force enumeration of supporting planes.
"""

import functools
import gc
import itertools
import math
import pickle
import random
import weakref
from fractions import Fraction as F

from convexval import polytope as pk
from convexval import valuations as vv
from convexval.errors import DependentBasis

DENOMINATORS = (1, 2, 7, 999_983, 10**6)
FACTORS = (F(1, 3), F(2, 5), F(7, 4), F(3), F(5, 999_983))


def _body(rng, n):
    """A seeded body in R^n of affine dimension 0..n: a base point plus
    nonnegative combinations of 0..n random directions."""
    den = rng.choice(DENOMINATORS)

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


def _shift(rng, n):
    den = rng.choice(DENOMINATORS)
    return tuple(F(rng.randint(-2 * den, 2 * den), den) for _ in range(n))


def cloud_sum(P, Q):
    """The reference: the hull of every vertex sum, with no table."""
    return pk.hull({tuple(a + b for a, b in zip(p, q)) for p in P.vertices for q in Q.vertices})


def trusted_dilate(P, t):
    return pk._trusted(P.ambient_dim, (tuple(t * c for c in v) for v in P.vertices))


def trusted_translate(P, s):
    return pk._trusted(P.ambient_dim, (tuple(a + b for a, b in zip(v, s)) for v in P.vertices))


def _facet_map(P):
    """Each facet normal with its vertex cycle, rotated to start at its least index."""
    out = {}
    for normal, cycle in zip(*P._facets):
        k = cycle.index(min(cycle))
        out[normal] = tuple(cycle[k:] + cycle[:k])
    return out


def _off_vertex_points(rng, P):
    """The vertices, the vertex centroid, and points moved off each vertex
    by a small step over a large prime denominator."""
    n = P.ambient_dim
    centroid = tuple(sum(c) / len(P.vertices) for c in zip(*P.vertices))
    out = list(P.vertices) + [centroid]
    for v in P.vertices:
        q = rng.choice((999_983, 1_000_003))
        out.append(tuple(c + F(rng.randint(-2, 2), q) for c in v))
        # halfway to the centroid, then off it along one axis
        mid = tuple((a + b) / 2 for a, b in zip(v, centroid))
        axis = rng.randrange(n)
        out.append(tuple(c + (F(1, q) if i == axis else 0) for i, c in enumerate(mid)))
    return out


def _assert_same_sum(S, O, rng):
    """S, a sum mapped from a table, against O, the hull of the sum cloud."""
    n = S.ambient_dim
    assert S == O and S.vertices == O.vertices
    assert S._ints == O._ints
    assert pk.dim(S) == pk.dim(O)
    assert pk.volume(S) == pk.volume(O)
    if pk.dim(S) == n:
        assert set(S._facets[0]) == set(O._facets[0])
        if n > 1:
            # the facets mapped from the table equal those a fresh copy computes
            copy = pk._trusted(n, S.vertices)
            assert _facet_map(S) == _facet_map(O) == _facet_map(copy)
    points = _off_vertex_points(rng, S)
    assert [pk.contains(S, x) for x in points] == [pk.contains(O, x) for x in points]
    if n == 1 or pk.dim(S) == n:
        assert pk.lattice_count(S) == pk.lattice_count(O)


def _no_hull(*args):
    raise AssertionError("a sum of homothets of summed roots ran the hull")


def test_sum_of_homothets_matches_hull_of_sum_cloud(monkeypatch):
    rng = random.Random(8008)
    mapped = lower_summand = lower_result = full3 = handed2 = 0
    for k in range(600):
        n = 1 + k % 3
        X, Y = _body(rng, n), _body(rng, n)
        for first, second in ((X, Y), (Y, X)):
            # the first sum of the two roots builds the table
            P, Q = pk.dilate(first, rng.choice(FACTORS)), pk.translate(second, _shift(rng, n))
            assert pk.minkowski_sum(P, Q).vertices == cloud_sum(P, Q).vertices
            # a later one, with other factors and shifts, is mapped from it
            a, b = rng.sample(FACTORS, 2)
            P = pk.translate(pk.dilate(first, a), _shift(rng, n))
            Q = pk.dilate(pk.translate(second, _shift(rng, n)), b)
            with monkeypatch.context() as m:
                m.setattr(pk, "_hull_ints", _no_hull)
                S = pk.minkowski_sum(P, Q)
            if n > 1 and pk.dim(S) == n and len(S.vertices) > n + 1:
                # a full-dimensional sum that is no simplex carries its facets,
                # except the translate a point summand makes, which reads them
                # from its root
                if min(len(P.vertices), len(Q.vertices)) == 1:
                    assert S._root() is not S
                else:
                    assert "_facets" in vars(S)
                handed2 += n == 2
            _assert_same_sum(S, cloud_sum(P, Q), rng)
            mapped += 1
            lower_summand += pk.dim(X) < n or pk.dim(Y) < n
            lower_result += pk.dim(S) < n
            full3 += n == 3 and pk.dim(S) == 3
    assert mapped == 1200 and lower_summand >= 900 and lower_result >= 300 and full3 >= 150
    assert handed2 >= 200


def test_point_summand_sum_is_a_translate_of_the_other(monkeypatch):
    rng = random.Random(8014)
    lower = points = 0
    for k in range(300):
        n = 1 + k % 3
        X = _body(rng, n)
        if k % 2:
            X = pk.translate(pk.dilate(X, rng.choice(FACTORS)), _shift(rng, n))
        p = pk.hull([_shift(rng, n)])
        for P, Q in ((X, p), (p, X)):
            with monkeypatch.context() as m:
                m.setattr(pk, "_hull_ints", _no_hull)
                S = pk.minkowski_sum(P, Q)
            # the other summand, or the second when both are points
            other = Q if len(P.vertices) == 1 else P
            assert S._root() is other._root()
            _assert_same_sum(S, cloud_sum(P, Q), rng)
        lower += 0 < pk.dim(X) < n
        points += pk.dim(X) == 0
    assert lower >= 60 and points >= 20


def _random_basis(rng, d, n):
    while True:
        vectors = [[F(rng.randint(-4, 4), rng.choice((1, 2, 7, 999_983))) for _ in range(n)]
                   for _ in range(d)]
        try:
            return pk.simplex_basis(vectors)
        except DependentBasis:
            continue


def test_staircase_end_cells_and_dilate_are_homothets_of_the_simplex():
    rng = random.Random(8015)
    for k in range(60):
        d = 1 + k % 3
        basis = _random_basis(rng, d, rng.randint(d, 3))
        a, b = rng.sample(FACTORS, 2)
        S = pk.simplex_from_basis(basis)
        pieces = pk.decomposition_pieces(basis, a, b)
        outer = pk.dilate(S, a + b)
        for body in (pieces.cells[0], pieces.cells[-1], outer):
            assert body._root() is S
        # cell 0 is b*S, cell d is a*S + b*p_d and the dilate (a+b)*S
        top = [sum(c) for c in zip(*basis.vectors)]
        assert pieces.cells[0] == trusted_dilate(S, b)
        assert pieces.cells[-1] == trusted_translate(trusted_dilate(S, a), [b * c for c in top])
        assert outer == trusted_dilate(S, a + b)
        if k < 12:
            assert pk.verify_decomposition(basis, a, b).ok


def test_dilate_and_translate_equal_trusted_definitions():
    rng = random.Random(8009)
    for k in range(300):
        n = 1 + k % 3
        P = _body(rng, n)
        if rng.random() < 0.5:
            P = pk.translate(pk.dilate(P, rng.choice(FACTORS)), _shift(rng, n))
        t, s = rng.choice(FACTORS), _shift(rng, n)
        for H, O in ((pk.dilate(P, t), trusted_dilate(P, t)),
                     (pk.translate(P, s), trusted_translate(P, s))):
            assert H.vertices == O.vertices and H._ints == O._ints
            assert pk.dim(H) == pk.dim(O) and H._span == O._span
            assert pk.volume(H) == pk.volume(O)
            if pk.dim(H) == n:
                assert set(H._facets[0]) == set(O._facets[0])
            if n == 3 and pk.dim(H) == 3:
                assert _facet_map(H) == _facet_map(O)
    assert pk.dilate(P, 0) == pk.origin_polytope(P.ambient_dim) and pk.dilate(P, 1) is P


def test_homothets_share_the_root_facet_table():
    pk.dim.cache_clear()
    vv._evaluate.cache_clear()
    rng = random.Random(8013)
    checked = 0
    for k in range(150):
        n = 1 + k % 3
        P = _body(rng, n)
        if len(P._span) < n:
            continue
        t, s = rng.choice(FACTORS), _shift(rng, n)
        assert pk.dilate(P, t)._facets is P._facets
        assert pk.translate(P, s)._facets is P._facets
        if n == 1:
            assert P._facets == (((-1,), (1,)), ((0,), (1,)))
        # the constructor does not intern, so R is a new root; H has not read
        # the table while R lived, and computes the same one once R is gone
        R = pk.Polytope(n, P.vertices)
        H = pk.translate(pk.dilate(R, t), s)
        expected = _facet_map(R)
        ref = weakref.ref(R)
        del R
        gc.collect()
        assert ref() is None and H._root() is H
        assert _facet_map(H) == expected
        checked += 1
    assert checked >= 40


def _assert_support_offsets(P):
    """Each offset is the support value of P's integer form at the facet's
    normal, and every vertex of the facet's cycle attains it."""
    ints, _ = P._ints
    normals, cycles = P._facets
    assert len(P._offsets) == len(normals) == len(cycles)
    for normal, cycle, c in zip(normals, cycles, P._offsets):
        values = [sum(a * x for a, x in zip(normal, p)) for p in ints]
        assert c == max(values)
        assert all(values[i] == c for i in cycle)


def test_offsets_are_support_values_of_the_integer_form(monkeypatch):
    rng = random.Random(8014)
    mapped = 0
    for k in range(300):
        n = 1 + k % 3
        X, Y = _body(rng, n), _body(rng, n)
        # the first sum of the two roots builds the table, a later one maps it
        first = pk.minkowski_sum(pk.dilate(X, rng.choice(FACTORS)), pk.translate(Y, _shift(rng, n)))
        P = pk.translate(pk.dilate(X, rng.choice(FACTORS)), _shift(rng, n))
        Q = pk.dilate(pk.translate(Y, _shift(rng, n)), rng.choice(FACTORS))
        with monkeypatch.context() as m:
            m.setattr(pk, "_hull_ints", _no_hull)
            S = pk.minkowski_sum(P, Q)
        if "_facets" in vars(S) and S._root() is S:
            # the mapped sum takes the table's normals, the first sum's own
            assert S._facets[0] is vars(first)["_facets"][0]
            mapped += 1
        for body in (X, Y, first, P, Q, S):
            if pk.dim(body) == n:
                _assert_support_offsets(body)
    assert mapped >= 60


def _answers(H, probe, rng):
    points = _off_vertex_points(rng, H)
    S = pk.minkowski_sum(H, probe)
    count = pk.lattice_count(H) if pk.dim(H) == H.ambient_dim else None
    return (H.vertices, pk.dim(H), pk.volume(H), count,
            [pk.contains(H, x) for x in points], S.vertices, pk.volume(S))


def test_root_dies_once_only_homothets_are_left():
    # the module caches of earlier tests may hold a body equal to a root
    # built here, which hull then returns as that root, alive
    pk.dim.cache_clear()
    vv._evaluate.cache_clear()
    rng = random.Random(8010)
    for k in range(40):
        n = 1 + k % 3
        root, probe = _body(rng, n), _body(rng, n)
        if k % 2:
            # a root with no derived data yet, so its homothets carry none;
            # the constructor does not intern, so this is a new body
            root = pk.Polytope(n, root.vertices)
        moves = [(rng.choice(FACTORS), _shift(rng, n)) for _ in range(4)]
        homothets = [pk.translate(pk.dilate(root, t), s) for t, s in moves]
        # the first two answer while the root lives, so they read its data
        # and its sum table; the last two answer only after it died
        before = [_answers(H, probe, random.Random(k)) for H in homothets[:2]]
        ref = weakref.ref(root)
        del root
        gc.collect()
        assert ref() is None
        assert [_answers(H, probe, random.Random(k)) for H in homothets[:2]] == before
        for H in homothets:
            copy = pk._trusted(n, H.vertices)
            assert _answers(H, probe, random.Random(k)) == _answers(copy, probe, random.Random(k))
    # the table on a root holds the other summand's root weakly, and goes
    # when that root goes
    X, Y = pk.unit_cube(3), pk.standard_simplex(3)
    pk.minkowski_sum(pk.dilate(X, 2), pk.dilate(Y, 3))
    ref = weakref.ref(Y)
    del Y
    gc.collect()
    assert ref() is None and len(vars(X)["_sums"]) == 0


def test_homothet_survives_pickle():
    rng = random.Random(8011)
    for k in range(60):
        n = 1 + k % 3
        root, probe = _body(rng, n), _body(rng, n)
        H = pk.translate(pk.dilate(root, rng.choice(FACTORS)), _shift(rng, n))
        pk.minkowski_sum(pk.dilate(root, 2), probe)
        # a sum with a point summand is a translate, which starts no table
        assert ("_sums" in vars(root)) == (min(len(root.vertices), len(probe.vertices)) > 1)
        assert "_of" in vars(H)
        expected = _answers(H, probe, random.Random(k))
        for body in (H, root):
            copy = pickle.loads(pickle.dumps(body))
            assert copy == body and hash(copy) == hash(body)
        copy = pickle.loads(pickle.dumps(H))
        assert copy._root() is copy
        assert _answers(copy, probe, random.Random(k)) == expected


def test_equality_agrees_with_vertex_tuples():
    rng = random.Random(8012)
    differ = 0
    for k in range(400):
        n = 1 + k % 3
        P = _body(rng, n)
        verts = [list(v) for v in P.vertices]
        i, j = rng.randrange(len(verts)), rng.randrange(n)
        verts[i][j] += rng.choice((F(1), F(1, 2), F(1, 10**6), F(0)))
        # the constructor does not intern, so an equal body is a distinct object
        same = pk.Polytope(n, P.vertices)
        other = pk.Polytope(n, tuple(sorted(set(map(tuple, verts)))))
        moved = pk.translate(pk.dilate(P, rng.choice(FACTORS)), _shift(rng, n))
        for A, B in ((P, same), (same, P), (P, other), (other, P), (P, moved), (moved, P)):
            assert A is not B
            assert (A == B) == ((A.ambient_dim, A.vertices) == (B.ambient_dim, B.vertices))
            assert (A != B) == (not A == B)
            if A == B:
                assert hash(A) == hash(B)
        differ += P != other
    assert differ >= 250
    assert pk.origin_polytope(2) != pk.origin_polytope(3) and pk.origin_polytope(1) != (0,)


# ---------------------------------------------------------------------------
# volume oracle: facets from supporting triples, coned from the vertex centroid


def oracle_volume(P):
    """Volume of a 3D body with no use of the kernel's hull or facets.

    Every triple of vertices spanning a plane with all vertices on one side
    gives a facet plane. The vertices on it, sorted by angle around their
    centroid, fan into triangles; each triangle and the vertex centroid of
    the body span a tetrahedron.
    """
    scale = 1
    for c in itertools.chain.from_iterable(P.vertices):
        scale = math.lcm(scale, c.denominator)
    pts = [tuple(int(c * scale) for c in v) for v in P.vertices]
    planes = set()
    for u, v, w in itertools.combinations(pts, 3):
        normal = cross(sub(v, u), sub(w, u))
        if normal == (0, 0, 0):
            continue
        c = dot(normal, u)
        above = below = False
        for p in pts:
            side = dot(normal, p) - c
            above, below = above or side > 0, below or side < 0
            if above and below:
                break
        else:
            g = math.gcd(*normal)
            normal = tuple(x // g for x in normal)
            planes.add(tuple(-x for x in normal) if above else normal)
    # at scale k the vertex centroid is an integer point
    k = len(pts)
    pts = [tuple(k * c for c in p) for p in pts]
    center = tuple(sum(c) // k for c in zip(*pts))
    total = 0
    for normal in planes:
        top = max(dot(normal, p) for p in pts)
        face = [p for p in pts if dot(normal, p) == top]
        # directions from the facet's centroid, times the facet's point count
        m, mid = len(face), tuple(sum(c) for c in zip(*face))
        rays = {p: tuple(m * a - b for a, b in zip(p, mid)) for p in face}
        first = rays[face[0]]
        face.sort(key=functools.cmp_to_key(
            lambda a, b: _angle_order(normal, first, rays[a], rays[b])))
        for b, c in zip(face[1:-1], face[2:]):
            total += abs(dot(sub(face[0], center), cross(sub(b, center), sub(c, center))))
    return F(total, 6 * (k * scale) ** 3)


def _angle_order(normal, first, da, db):
    """Order of two rays counterclockwise about normal, starting at ray first."""
    ha, hb = _half(normal, first, da), _half(normal, first, db)
    if ha != hb:
        return ha - hb
    return -sign(dot(normal, cross(da, db)))


def _half(normal, first, d):
    """0 for rays in [first, -first) counterclockwise about normal, else 1."""
    turn = dot(normal, cross(first, d))
    return 0 if turn > 0 or (turn == 0 and dot(first, d) > 0) else 1


def sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def dot(p, q):
    return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]


def cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def sign(x):
    return (x > 0) - (x < 0)


def test_volume_matches_supporting_plane_oracle(monkeypatch):
    rng = random.Random(8013)
    bodies = []
    while len(bodies) < 40:
        den = rng.choice((1, 2, 7, 10**6))
        pts = [tuple(F(rng.randint(-3 * den, 3 * den), den) for _ in range(3))
               for _ in range(rng.randint(4, 9))]
        P = pk.hull(pts)
        if pk.dim(P) == 3:
            bodies.append(P)
    for P in bodies:
        assert pk.volume(P) == oracle_volume(P)
    probes = (pk.unit_cube(3), pk.standard_simplex(3), pk.asymmetric_simplex(3))
    for X in bodies[:10]:
        for Q in probes:
            # a body summed as itself starts no table; its homothets do
            S = pk.minkowski_sum(X, Q)
            assert pk.volume(S) == oracle_volume(S)
            assert len(vars(X).get("_sums", ())) == probes.index(Q)
            for t in (F(1, 3), F(1, 2), F(7, 5), F(2)):
                with monkeypatch.context() as m:
                    if t != F(1, 3):
                        # mapped from the table the sum at t = 1/3 started
                        m.setattr(pk, "_hull_ints", _no_hull)
                    S = pk.minkowski_sum(pk.dilate(X, t), Q)
                expected = oracle_volume(S)
                assert pk.volume(S) == expected
                assert pk.volume(pk.translate(S, _shift(rng, 3))) == expected
            assert len(vars(X)["_sums"]) == probes.index(Q) + 1
