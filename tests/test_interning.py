"""Interned roots: equal inputs give one body.

`hull`, `_trusted`, `origin_polytope` and the named probes look their result
up by its reduced integer form in a weak table (`polytope._ROOTS`), so a body
met again is the same object, with its facet table, span and sum tables.
Homothets and sums mapped from a table are fresh bodies that hold their root
weakly. The oracle at the end runs the same calls with the table cleared
before each one, so that no call can find a body made by an earlier one.
"""

import gc
import random
import weakref
from fractions import Fraction as F

from convexval import bodygroup as bg
from convexval import polytope as pk
from convexval import valuations as vv

DENOMINATORS = (1, 2, 7, 10**6 + 3)


def _cloud(rng, n):
    """Seeded points in R^n whose hull is full-dimensional for n <= 3."""
    den = rng.choice(DENOMINATORS)
    pts = {tuple(F(rng.randint(-4 * den, 4 * den), den) for _ in range(n)) for _ in range(n + 4)}
    pts |= {tuple(F(int(i == j), 1) * 9 for j in range(n)) for i in range(n)}
    return sorted(pts)


def _redundant(rng, P):
    """P's vertices shuffled, with duplicates, the vertex centroid, edge
    midpoints and the same values written as strings and integers."""
    verts = list(P.vertices)
    centroid = tuple(sum(c) / len(verts) for c in zip(*verts))
    mids = [tuple((a + b) / 2 for a, b in zip(p, q)) for p, q in zip(verts, verts[1:])]
    spelled = [tuple(int(c) if c.denominator == 1 else str(c) for c in v) for v in verts]
    out = verts + verts[:2] + [centroid] + mids + spelled
    rng.shuffle(out)
    return out


def _no_hull(*args):
    raise AssertionError("a sum of homothets of interned roots ran the hull")


def test_hull_of_equal_points_is_one_body():
    rng = random.Random(1801)
    for k in range(60):
        n = 1 + k % 3
        P = pk.hull(_cloud(rng, n))
        Q = pk.hull(_cloud(rng, n))
        pk.minkowski_sum(pk.dilate(P, 2), pk.dilate(Q, 3))  # starts P's sum table
        facets, span, sums = P._facets, P._span, vars(P)["_sums"]
        for _ in range(3):
            again = pk.hull(_redundant(rng, P))
            assert again is P
            assert vars(again)["_facets"] is facets
            assert vars(again)["_span"] is span and vars(again)["_sums"] is sums
            assert pk.hull(list(reversed(P.vertices))) is P


def test_trusted_constructors_and_named_probes_intern():
    rng = random.Random(1802)
    for k in range(30):
        n = 1 + k % 3
        P = pk.hull(_cloud(rng, n))
        assert pk._trusted(n, P.vertices) is P
        assert pk._trusted(n, reversed(P.vertices)) is P
        # the constructor builds an equal body that is not interned
        other = pk.Polytope(n, P.vertices)
        assert other == P and other is not P and pk.hull(other.vertices) is P
    for n in (1, 2, 3, 5):
        for make in (pk.unit_cube, pk.standard_simplex, pk.asymmetric_simplex,
                     pk.origin_polytope):
            body = make(n)
            assert make(n) is body
            assert pk._trusted(n, body.vertices) is body
            if n <= 3:
                assert pk.hull(list(body.vertices) + [body.vertices[0]]) is body
        assert pk.dilate(pk.unit_cube(n), 0) is pk.origin_polytope(n)
    for n in (1, 2, 3):
        first, second = vv.default_panel(n), vv.default_panel(n)
        probes = [val.probe for val in first if val.probe is not None]
        assert len(probes) == 3
        assert all(a.probe is b.probe for a, b in zip(first, second))


def test_homothet_keeps_the_root_it_was_mapped_from(monkeypatch):
    rng = random.Random(1803)
    for k in range(30):
        n = 1 + k % 3
        pts = _cloud(rng, n)
        R, Q = pk.hull(pts), pk.hull(_cloud(rng, n))
        shift = tuple(F(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for _ in range(n))
        H = pk.translate(pk.dilate(pk.hull(pts), F(7, 3)), shift)
        assert H._root() is R and H is not R
        # a homothet equal to a live root is still a fresh body of its own root
        double = pk.hull([tuple(2 * c for c in v) for v in pts])
        D = pk.dilate(R, 2)
        assert D == double and D is not double and D._root() is R
        # the first sum of homothets of R and Q starts the table on R
        pk.minkowski_sum(H, pk.dilate(Q, 2))
        expected = [pk.hull({tuple(a + b for a, b in zip(p, q))
                             for p in pk.dilate(R, t).vertices for q in pk.dilate(Q, 5).vertices})
                    for t in (F(1, 2), F(3), F(9, 4))]
        with monkeypatch.context() as m:
            m.setattr(pk, "_hull_ints", _no_hull)
            for t, want in zip((F(1, 2), F(3), F(9, 4)), expected):
                S = pk.minkowski_sum(pk.dilate(pk._trusted(n, R.vertices), t), pk.dilate(Q, 5))
                assert S == want and S.vertices == want.vertices
                assert pk.volume(S) == pk.volume(want)


def test_the_table_keeps_no_body_alive():
    rng = random.Random(1804)
    for k in range(30):
        n = 1 + k % 3
        # a denominator no other test uses, so that no cache holds an equal body
        den = 10**9 + 7 + k
        pts = [tuple(F(rng.randint(-5 * den, 5 * den), den) for _ in range(n))
               for _ in range(n + 3)]
        P = pk.hull(pts)
        key = (n, tuple(P._ints[0]), P._ints[1])
        assert pk._ROOTS[key] is P
        H = pk.dilate(P, 3)  # a homothet holds its root weakly too
        ref = weakref.ref(P)
        del P
        gc.collect()
        assert ref() is None and key not in pk._ROOTS
        assert H._root() is H
        assert pk.hull(pts) is not H and pk.hull(pts) == pk.dilate(H, F(1, 3))


def _canon(value):
    """A comparable form of an answer: bodies by their vertices, formal
    sums by their text."""
    if isinstance(value, pk.Polytope):
        return ("body", value.ambient_dim, value.vertices)
    if isinstance(value, list):
        return [str(s) for s in value]
    return value


def _mixed_calls(seed, before_each):
    """Answers of a seeded mix of kernel and grading calls on bodies that
    come back often; ``before_each`` runs before every call."""
    rng = random.Random(seed)
    clouds = {n: [_cloud(rng, n) for _ in range(2)] for n in (1, 2, 3)}
    pools = {n: [] for n in (1, 2, 3)}
    answers = []
    for step in range(150):
        n = 1 + step % 3
        pool = pools[n]
        kind = rng.choice(("hull", "dilate", "sum", "sum", "volume", "contains",
                           "components")) if pool else "hull"
        before_each()
        if kind == "hull":
            P = pk.hull(clouds[n][rng.randrange(2)])
            pool.append(pk.hull(_redundant(rng, P)))
            out = pool[-1]
        elif kind == "dilate":
            # a homothet of a body hulled afresh, which is the pool's root when interned
            P = pk.hull(clouds[n][rng.randrange(2)])
            pool.append(pk.dilate(P, rng.choice((F(1, 2), F(2), F(7, 3)))))
            out = pool[-1]
        elif kind == "sum":
            A = pk.dilate(rng.choice(pool), rng.choice((F(1), F(3, 2), F(5))))
            pool.append(pk.minkowski_sum(A, rng.choice(pool)))
            out = pool[-1]
        elif kind == "volume":
            out = pk.volume(rng.choice(pool))
        elif kind == "contains":
            P = rng.choice(pool)
            x = tuple(F(rng.randint(-40, 40), rng.choice((1, 2, 3))) for _ in range(n))
            out = [pk.contains(P, v) for v in (x, P.vertices[-1])]
        else:
            out = bg.mcmullen_components(rng.choice(pool[:4]))
        answers.append((kind, _canon(out)))
        del pool[:-8]
    return answers


def test_answers_do_not_depend_on_interning():
    for seed in (1805, 1806):
        pk.dim.cache_clear()
        vv._evaluate.cache_clear()
        interned = _mixed_calls(seed, lambda: None)
        pk.dim.cache_clear()
        vv._evaluate.cache_clear()
        fresh = _mixed_calls(seed, pk._ROOTS.clear)
        assert interned == fresh
        assert {kind for kind, _ in interned} == {"hull", "dilate", "sum", "volume",
                                                  "contains", "components"}
