"""Exact rational convex polytopes in vertex representation.

A `Polytope` stores the extreme points of its convex hull, sorted
lexicographically, with every coordinate an exact `Fraction`. All operations
(dilation, translation, Minkowski sum, volume, membership, lattice counting)
are exact; there is no floating point anywhere in this module. Hulls, sums,
volumes, membership, lattice counts, the affine frame and the staircase's
partial simplices work on each body's integer form, `Polytope._ints`.

General-position bodies are supported up to ambient dimension 3. Simplices
get closed forms in any dimension, and axis-aligned boxes beyond dimension 3.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm, prod
from typing import NamedTuple

from . import _geometry as geom
from . import _linalg
from .errors import (
    DependentBasis,
    DimensionMismatch,
    EmptyInput,
    GuardExceeded,
    InvariantViolation,
    MixedDimensions,
    NegativeFactor,
    NonpositiveScale,
    ParseError,
    UnsupportedDimension,
)
from .rationals import point_str, rat, rat_str

Point = tuple

LATTICE_GUARD = 500_000

# Highest degree of a grading table (`bodygroup.component_table`), whose cost
# grows about eightfold per degree: 13 s at degree 8 and 89 s at degree 9 on
# a 2-core Xeon.
DEGREE_GUARD = 8

# Entries kept by each module cache (`dim` here and `valuations._evaluate`);
# the least recently used entry is dropped beyond it, so memory stays flat
# over a long run. Data derived from one body is kept on the body itself.
CACHE_SIZE = 1024


def point(coords) -> Point:
    """Build an exact point from ints, strings, or Fractions."""
    return tuple(rat(c) for c in coords)


class Polytope:
    """Convex polytope given by its extreme points, canonically ordered.

    Instances are produced by `hull` (or by the trusted constructors below,
    which are used when the input is known to consist of extreme points).
    Two polytopes are equal iff they are the same set of points, which is
    decided on their integer forms. Data derived from the vertices is
    computed on first use and kept on the instance; a positive homothet
    reads it from its root, the body it was mapped from, while that lives.
    Roots are interned: while a root lives, `hull` and the trusted
    constructors return it for every input with its integer form, so equal
    inputs share its derived data and its sum tables. Homothets, sums mapped
    from a table and bodies built by calling `Polytope` are not interned.
    """

    def __init__(self, ambient_dim: int, vertices: tuple):
        if not vertices:
            raise EmptyInput("a polytope needs at least one vertex")
        if any(len(v) != ambient_dim for v in vertices):
            raise MixedDimensions("vertex length differs from ambient dimension")
        vars(self).update(ambient_dim=ambient_dim, vertices=vertices)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"Polytope[{'; '.join(point_str(v) for v in self.vertices)}]"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Polytope):
            return NotImplemented
        # the reduced integer form is unique, so it compares like the vertices
        return self.ambient_dim == other.ambient_dim and self._ints == other._ints

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        # weak references do not pickle: the copy is its own root
        return {k: v for k, v in vars(self).items() if k not in ("_of", "_sums")}

    @cached_property
    def _hash(self):
        # hash((ambient_dim, vertices)), computed once per body
        return hash((self.ambient_dim, self.vertices))

    @cached_property
    def _ints(self):
        """The vertices scaled to integers: (ints, scale)."""
        return geom.integerize(self.vertices)

    def _root(self):
        """The body this one is a positive homothet of, while it lives; else self."""
        ref = vars(self).get("_of")
        root = ref() if ref is not None else None
        return self if root is None else root

    @cached_property
    def _facets(self):
        """(normals, cycles) of a full-dimensional body in R^1..R^3: the
        primitive outward normal of each facet and its vertex-index cycle,
        an end point in R^1, a CCW edge in R^2 and a polygon, CCW from
        outside, in R^3. Positive homothets share them; `_offsets` places
        each body's planes."""
        root = self._root()
        if root is not self:
            return root._facets
        ints, _ = self._ints
        if self.ambient_dim == 1:
            return ((-1,), (1,)), ((0,), (len(ints) - 1,))
        facets, _ = _HULL_FACETS[self.ambient_dim](ints)
        return _facet_table(facets, range(len(ints)))

    @cached_property
    def _offsets(self):
        """The integer c of each facet plane n.x <= c / scale, with scale
        from `_ints`: the normal's value at the first vertex of the cycle."""
        ints, _ = self._ints
        return tuple(geom.dot(normal, ints[cycle[0]]) for normal, cycle in zip(*self._facets))

    @cached_property
    def _span(self):
        """Indices into vertices[1:] of a basis of differences from vertex 0."""
        root = self._root()
        if root is not self:
            return root._span
        ints, _ = self._ints
        return tuple(_linalg.independent_rows([geom.sub(v, ints[0]) for v in ints[1:]]))

    @cached_property
    def _frame(self):
        """(solver, reduced body) in a basis of the affine hull.

        The basis is the differences `_span` picks of the integer form's
        points from its first point. The solver maps m * (x - v0), v0 the
        first vertex, to m times x's coordinates in it (None off the affine
        hull); the reduced body is the vertices in those coordinates.
        """
        ints, _ = self._ints
        diffs = [geom.sub(p, ints[0]) for p in ints]
        solve = _linalg.solver([diffs[i + 1] for i in self._span])
        return solve, _trusted(len(self._span), map(solve, diffs))


def _trusted(ambient_dim, vertices) -> Polytope:
    """The root whose vertices are a set of points already known to be extreme."""
    ints, scale = geom.integerize(set(vertices))
    return _interned(ambient_dim, sorted(ints), scale)


def hull(points) -> Polytope:
    """Convex hull: keeps exactly the extreme points, in canonical order.

    Idempotent: hull(hull(P).vertices) == hull(P). Raises EmptyInput /
    MixedDimensions on malformed input and UnsupportedDimension when the
    points affinely span more than 3 dimensions without being a simplex.
    """
    pts = [point(p) for p in points]
    if not pts:
        raise EmptyInput("hull of no points")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise MixedDimensions("points of differing ambient dimension")
    return _hull_ints(n, *geom.integerize(pts))


# the facets and sorted vertex indices of integer points of full affine rank
_HULL_FACETS = {2: geom.facets_2d, 3: geom.hull_3d}


def _hull_ints(n, ints, scale) -> Polytope:
    """The hull of the points ints[i] / scale, computed on the integers, which
    sort like the points; the result is the interned root, which is handed
    its integer form and, when full-dimensional in R^2 or R^3 and it has
    none yet, the facets found.
    """
    uniq = sorted(set(ints))
    cols = _linalg.pivot_columns([geom.sub(p, uniq[0]) for p in uniq[1:]])
    r = len(cols)
    keep, facets = range(len(uniq)), None
    if len(uniq) == r + 1:
        pass  # affinely independent points (a simplex or a point) are all extreme
    elif r > 3:
        corners = _box_corners(uniq)
        if corners is None:
            raise UnsupportedDimension(f"general hull in affine dimension {r} (> 3)"
                                       " is not supported")
        keep = [i for i, p in enumerate(uniq) if p in corners]
    elif r == 1:
        # collinear points sort along their line: the ends are extreme
        keep = [0, len(uniq) - 1]
    else:
        # the pivot coordinates map the affine hull one to one, and so keep
        # which points are extreme
        coords = uniq if r == n else [tuple(p[c] for c in sorted(cols)) for p in uniq]
        facets, keep = _HULL_FACETS[r](coords)
    result = _interned(n, [uniq[i] for i in keep], scale)
    if facets is not None and r == n and "_facets" not in vars(result):
        # ``keep`` is sorted, so vertex j of the result is point keep[j]
        vars(result)["_facets"] = _facet_table(facets, {i: j for j, i in enumerate(keep)})
    return result


def _from_ints(n, pts, scale) -> Polytope:
    """The body whose vertices are the sorted distinct points pts[i] / scale,
    handed its integer form (reduced by the gcd)."""
    kept, den = _reduced(pts, scale)
    result = Polytope(n, tuple(_vertex(p, den) for p in kept))
    vars(result)["_ints"] = (kept, den)
    return result


def _reduced(pts, scale):
    """(ints, den): the points pts[i] / scale with the gcd of all divided out."""
    g = gcd(scale, *itertools.chain.from_iterable(pts))
    return ([tuple(c // g for c in p) for p in pts] if g > 1 else list(pts)), scale // g


# the live root of each reduced integer form (ambient_dim, ints, den), held
# weakly: the table keeps no body alive
_ROOTS = weakref.WeakValueDictionary()


def _interned(n, pts, scale) -> Polytope:
    """The live root with the reduced integer form of pts / scale, else a new
    body from `_from_ints`, which becomes that root."""
    ints, den = _reduced(pts, scale)
    key = (n, tuple(ints), den)
    body = _ROOTS.get(key)
    if body is None:
        body = _ROOTS[key] = _from_ints(n, ints, den)
    return body


# the Fraction c / den and the vertex p / den, shared by every body that uses
# them, so that bodies allocate (and the collector traverses) no copies
@lru_cache(maxsize=1 << 12)
def _fraction(c, den):
    return Fraction(c, den)


@lru_cache(maxsize=1 << 12)
def _vertex(p, den):
    return tuple(_fraction(c, den) for c in p)


def _facet_table(facets, vertex_of):
    """(normals, cycles) from hull facets keyed by (normal, offset); each
    cycle lists vertex indices, point i of the hull input becoming vertex
    ``vertex_of[i]``."""
    normals = tuple(normal for normal, _ in facets)
    cycles = tuple(tuple(vertex_of[i] for i in cyc) for cyc in facets.values())
    return normals, cycles


def _box_corners(pts):
    """Corners of the points' bounding box if all are among the points, else None.

    The points then span an axis-aligned box, whose extreme points are those
    corners. None also beyond 4096 corners.
    """
    n = len(pts[0])
    if 2 ** n > 4096:
        return None
    axes = []
    for i in range(n):
        lo = min(p[i] for p in pts)
        hi = max(p[i] for p in pts)
        axes.append((lo,) if lo == hi else (lo, hi))
    corners = set(itertools.product(*axes))
    return corners if corners <= set(pts) else None


@lru_cache(maxsize=CACHE_SIZE)
def dim(P: Polytope) -> int:
    """Affine dimension of the polytope (0 for a point)."""
    return len(P._span)


# ---------------------------------------------------------------------------
# constructions


def origin_polytope(n: int) -> Polytope:
    return _interned(n, [(0,) * n], 1)


def _homothet(P: Polytope, t: Fraction, s) -> Polytope:
    """t * P + s for t > 0, on the integer form.

    The map keeps the vertex order, so the result has P's span, facet
    normals and cycles; it holds P's root by weak reference to share them.
    """
    ints, scale = P._ints
    (sv,), ds = geom.integerize([s])
    a, b = t.numerator * ds, t.denominator * scale
    H = _from_ints(P.ambient_dim, [tuple(a * c + b * w for c, w in zip(p, sv)) for p in ints],
                   b * ds)
    vars(H)["_of"] = weakref.ref(P._root())
    return H


def dilate(P: Polytope, factor) -> Polytope:
    """Scale about the origin; factor 0 collapses to the origin point."""
    lam = rat(factor)
    if lam < 0:
        raise NegativeFactor(f"dilation factor {lam} < 0")
    if lam == 0:
        return origin_polytope(P.ambient_dim)
    if lam == 1:
        return P
    return _homothet(P, lam, (0,) * P.ambient_dim)


def translate(P: Polytope, t) -> Polytope:
    tv = point(t)
    if len(tv) != P.ambient_dim:
        raise DimensionMismatch("translation vector has wrong length")
    return _homothet(P, Fraction(1), tv)


def minkowski_sum(P: Polytope, Q: Polytope) -> Polytope:
    """P + Q. Positive homothets of two bodies have sums of one combinatorial
    type (the normal fan of a sum refines the summands' fans), so the first
    sum of a homothet of P's root with one of Q's root is a hull, and its
    vertices as vertex-index pairs, facet normals and cycles are kept on P's
    root for the others.
    """
    if P.ambient_dim != Q.ambient_dim:
        raise DimensionMismatch("Minkowski sum of different ambient dimensions")
    # a point summand translates the other body, which keeps its root
    if len(P.vertices) == 1 or len(Q.vertices) == 1:
        body, shift = (Q, P) if len(P.vertices) == 1 else (P, Q)
        return _homothet(body, Fraction(1), shift.vertices[0])
    # both integer forms over the common scale lcm(ps, qs) = a * ps = b * qs
    (pi, ps), (qi, qs) = P._ints, Q._ints
    a, b = lcm(ps, qs) // ps, lcm(ps, qs) // qs
    root, key = P._root(), Q._root()
    table = vars(root).get("_sums", {}).get(key)
    if table is None:
        # each vertex of the sum is the sum of exactly one pair of vertices
        pair_of = {tuple(a * x + b * y for x, y in zip(p, q)): (i, j)
                   for i, p in enumerate(pi) for j, q in enumerate(qi)}
        result = _hull_ints(P.ambient_dim, pair_of, a * ps)
        # only a homothet starts a table: a body summed only as itself seldom
        # meets the pair again, and a table on every body costs memory
        if root is not P:
            ints, den = result._ints
            pairs = [pair_of[tuple(a * ps // den * c for c in v)] for v in ints]
            tables = vars(root).setdefault("_sums", weakref.WeakKeyDictionary())
            tables[key] = pairs, vars(result).get("_facets")
        return result
    pairs, facets = table
    pts = [tuple(a * x + b * y for x, y in zip(pi[i], qi[j])) for i, j in pairs]
    order = sorted(range(len(pts)), key=pts.__getitem__)
    result = _from_ints(P.ambient_dim, [pts[k] for k in order], a * ps)
    if facets is not None:
        # the table's vertex k is vertex where[k] of the result
        normals, cycles = facets
        where = {k: r for r, k in enumerate(order)}
        vars(result)["_facets"] = normals, tuple(tuple(where[k] for k in cyc) for cyc in cycles)
    return result


class SimplexBasis:
    """Linearly independent vectors generating a staircase simplex."""

    def __init__(self, vectors: tuple):
        if not vectors:
            raise DependentBasis("empty basis")
        n = len(vectors[0])
        if any(len(v) != n for v in vectors):
            raise MixedDimensions("basis vectors of differing dimension")
        vars(self)["vectors"] = vectors
        if _linalg.solver_rank(self._solve) != len(vectors):
            raise DependentBasis("basis vectors are linearly dependent")

    __setattr__ = __delattr__ = Polytope.__setattr__

    def __repr__(self):
        return f"SimplexBasis(vectors={self.vectors!r})"

    def __eq__(self, other):
        return self.vectors == other.vectors if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((self.vectors,))

    @cached_property
    def _solve(self):
        return _linalg.solver(list(self.vectors))

    @cached_property
    def _pieces(self):
        """`decomposition_pieces` by (a, b), built once per pair."""
        return {}

    @cached_property
    def _partial_simplices(self):
        """(S(0..i), S(i..d)) for i = 0..d, where S(i..j) = conv(p_i, ..., p_j)
        over the partial sums p_0 = 0, p_i = v1 + ... + vi, summed on the
        basis's integer form. They live as long as the basis, so the sums of
        their dilates map from one table per pair after the first (a, b);
        S(0..d), the last head and the first tail, is one interned root."""
        n = self.ambient_dim
        ints, scale = geom.integerize(self.vectors)
        sums = list(itertools.accumulate(ints, geom.add, initial=(0,) * n))
        return tuple((_interned(n, sorted(sums[:i + 1]), scale),
                      _interned(n, sorted(sums[i:]), scale)) for i in range(len(sums)))

    @property
    def ambient_dim(self):
        return len(self.vectors[0])

    @property
    def count(self):
        return len(self.vectors)


def simplex_basis(vectors) -> SimplexBasis:
    return SimplexBasis(tuple(point(v) for v in vectors))


def simplex_from_basis(basis: SimplexBasis) -> Polytope:
    """Simplex with vertices at the partial sums 0, v1, v1+v2, ..., kept on
    the basis as S(0..d), so that its dilates share one root."""
    return basis._partial_simplices[-1][0]


class DecompositionPieces(NamedTuple):
    """Pieces tiling the (a+b)-dilated staircase simplex.

    ``cells`` are the d+1 full-dimensional pieces covering the dilate;
    ``seams`` are the d lower-dimensional pieces along which consecutive
    unions of cells meet.
    """

    a: Fraction
    b: Fraction
    cells: tuple
    seams: tuple


def decomposition_pieces(basis: SimplexBasis, a, b) -> DecompositionPieces:
    """The pieces of the (a+b)-dilate of the staircase simplex, kept on the basis.

    With p_i the partial sums and S(i..j) = conv(p_i, ..., p_j), cell i is
    a*S(0..i) + b*S(i..d) for i = 0..d and seam i is a*S(0..i-1) + b*S(i..d)
    for i = 1..d. A factor that is not positive raises NonpositiveScale.
    """
    av, bv = rat(a), rat(b)
    if av <= 0 or bv <= 0:
        raise NonpositiveScale("decomposition needs a > 0 and b > 0")
    pieces = basis._pieces.get((av, bv))
    if pieces is not None:
        return pieces
    d = basis.count
    heads = [dilate(head, av) for head, _ in basis._partial_simplices]
    tails = [dilate(tail, bv) for _, tail in basis._partial_simplices]
    cells = tuple(minkowski_sum(h, t) for h, t in zip(heads, tails))
    seams = tuple(minkowski_sum(h, t) for h, t in zip(heads, tails[1:]))
    if any(dim(c) != d for c in cells):
        raise InvariantViolation("cell piece has unexpected dimension")
    if any(dim(s) > d - 1 for s in seams):
        raise InvariantViolation("seam piece has unexpected dimension")
    pieces = basis._pieces[(av, bv)] = DecompositionPieces(av, bv, cells, seams)
    return pieces


def simplex_coordinates(basis: SimplexBasis, x: Point):
    """Coefficients of x in the basis, or None when x is off the span."""
    return basis._solve(x)


class DecompositionReport(NamedTuple):
    """Exact checks that the cells tile the dilated simplex.

    * volume_additive: cell volumes sum to the volume of the dilate
      (informative when the basis spans the ambient space; trivially 0=0
      otherwise).
    * cover: every rational grid point of the dilate lies in some cell.
    * cells_inside: vertex/midpoint/centroid samples of each cell lie in
      the dilate.
    * seams_match: seam i sits on the coordinate slice x_i = b, inside
      cell i and inside the union of the earlier cells; conversely grid
      points of that slice lie in the seam, and no grid point off it lies
      in cell i and an earlier cell.
    * seams_lower_dim: every seam has affine dimension < d.
    """

    volume_additive: bool
    cover: bool
    cells_inside: bool
    seams_match: bool
    seams_lower_dim: bool
    failures: tuple = ()

    @property
    def ok(self) -> bool:
        return (
            self.volume_additive
            and self.cover
            and self.cells_inside
            and self.seams_match
            and self.seams_lower_dim
        )


def _sample_points(P: Polytope):
    verts = list(P.vertices)
    n = P.ambient_dim
    samples = list(verts)
    k = len(verts)
    total = [Fraction(0)] * n
    for v in verts:
        total = [a + b for a, b in zip(total, v)]
    samples.append(tuple(c / k for c in total))
    for i in range(k):
        for j in range(i + 1, k):
            samples.append(
                tuple((a + b) / 2 for a, b in zip(verts[i], verts[j]))
            )
    return samples


# grid steps per unit of a + b in `verify_decomposition`
GRID_STEPS = 3


def verify_decomposition(basis: SimplexBasis, a, b) -> DecompositionReport:
    """Exactly check that the decomposition pieces tile the dilated simplex."""
    av, bv = rat(a), rat(b)
    pieces = decomposition_pieces(basis, av, bv)
    d = basis.count
    outer = dilate(simplex_from_basis(basis), av + bv)
    failures = []

    vol_ok = volume(outer) == sum((volume(c) for c in pieces.cells), Fraction(0))
    if not vol_ok:
        failures.append("cell volumes do not sum to the dilate volume")

    memo = {}

    def inside(x):
        """The membership test of the point x, converted to integers once. It
        decides each body once per point, as the checks meet points again."""
        (X,), den = geom.integerize([x])
        known = memo.setdefault((den, *X), {})
        return lambda P: known[P] if P in known else known.setdefault(P, _holds(P, X, den))

    def at(coords):
        """(coords, x, test) for staircase coordinates t: x = t_1 v_1 + ... + t_d v_d."""
        x = tuple(sum((t * v[j] for t, v in zip(coords, basis.vectors)), Fraction(0))
                  for j in range(basis.ambient_dim))
        return coords, x, inside(x)

    # rational grid in staircase coordinates: (a+b) >= t_1 >= ... >= t_d >= 0
    steps = [Fraction(k, GRID_STEPS) * (av + bv) for k in range(GRID_STEPS, -1, -1)]
    grid = [at(c) for c in itertools.combinations_with_replacement(steps, d)]

    cover_ok = True
    for coords, x, test in grid:
        if not any(test(c) for c in pieces.cells):
            cover_ok = False
            failures.append(f"grid point {point_str(x)} covered by no cell")
            break

    inside_ok = True
    for idx, cell in enumerate(pieces.cells):
        for x in _sample_points(cell):
            if not inside(x)(outer):
                inside_ok = False
                failures.append(f"cell {idx} sample {point_str(x)} leaves the dilate")
                break

    seams_ok = True
    for i in range(1, d + 1):
        seam = pieces.seams[i - 1]
        for x in _sample_points(seam):
            coords = simplex_coordinates(basis, x)
            if coords is None or coords[i - 1] != bv:
                seams_ok = False
                failures.append(f"seam {i} sample off the slice x_{i} = b")
                break
            test = inside(x)
            # seam i lies in cell i - 1, so the earlier cells are tried nearest first
            if not test(pieces.cells[i]) or not any(test(c) for c in pieces.cells[i - 1::-1]):
                seams_ok = False
                failures.append(f"seam {i} sample outside the adjacent cells")
                break
        # the grid steps seldom land on the slice t_i = b, where cell i meets
        # the earlier cells, so its points (earlier coordinates at least b,
        # later ones at most b) are added: each must lie in the seam, and no
        # grid point off the slice may lie in cell i and an earlier cell
        above = [s for s in steps if s >= bv]
        below = [s for s in steps if s <= bv]
        on_slice = [at(head + (bv,) + tail)
                    for head in itertools.combinations_with_replacement(above, i - 1)
                    for tail in itertools.combinations_with_replacement(below, d - i)]
        for coords, x, test in grid + on_slice:
            if coords[i - 1] == bv:
                missing = not test(seam)
            else:
                missing = test(pieces.cells[i]) and any(test(pieces.cells[j]) for j in range(i))
            if missing:
                seams_ok = False
                failures.append(f"overlap point {point_str(x)} of cells 0..{i} missing from seam {i}")
                break

    lower_ok = all(dim(s) < d for s in pieces.seams)
    if not lower_ok:
        failures.append("a seam is full-dimensional")

    return DecompositionReport(
        volume_additive=vol_ok,
        cover=cover_ok,
        cells_inside=inside_ok,
        seams_match=seams_ok,
        seams_lower_dim=lower_ok,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# evaluations


def contains(P: Polytope, x) -> bool:
    """Exact membership test."""
    xv = point(x)
    if len(xv) != P.ambient_dim:
        raise DimensionMismatch("point has wrong dimension")
    (X,), den = geom.integerize([xv])
    return _holds(P, X, den)


def _holds(P: Polytope, X, den) -> bool:
    """Whether the point X / den, X an integer tuple, lies in P. Besides the
    facet and box tests, each branch reads rel = X * scale - V0 * den: the
    query less the first vertex V0 of the integer form, times den * scale."""
    n = P.ambient_dim
    d = dim(P)
    ints, scale = P._ints
    if d == n and 0 < n <= 3:
        # n.x <= c / scale with x = X / den reads n.X * scale <= c * den
        return all(geom.dot(normal, X) * scale <= c * den
                   for normal, c in zip(P._facets[0], P._offsets))
    if d == n and len(ints) > n + 1:
        # beyond R^3 the kernel builds only simplices and boxes; the least
        # and greatest corners of a box hold its extents
        if _box_corners(ints) is None:
            raise UnsupportedDimension(f"membership in dimension {n}")
        return all(l * den <= c * scale <= h * den for l, c, h in zip(ints[0], X, ints[-1]))
    rel = [c * scale - v * den for c, v in zip(X, ints[0])]
    if d == 0:
        return not any(rel)
    # the coordinates of X / den in the frame, times den
    solve, reduced = P._frame
    coords = solve(rel)
    if d == n:
        # a simplex: the frame's basis is its edges from the first vertex
        return all(c >= 0 for c in coords) and sum(coords) <= den
    if coords is None:
        return False
    # coords / den is Y / (dy * den)
    (Y,), dy = geom.integerize([coords])
    return _holds(reduced, Y, dy * den)


def volume(P: Polytope) -> Fraction:
    """Exact ambient-dimensional volume; 0 for lower-dimensional bodies."""
    n = P.ambient_dim
    if dim(P) < n:
        return Fraction(0)
    ints, scale = P._ints
    if len(ints) == n + 1:
        # a simplex, a segment in R^1 included
        rows = [geom.sub(p, ints[0]) for p in ints[1:]]
        return abs(_linalg.det(rows)) / (factorial(n) * scale ** n)
    if n > 3:
        # no facet table beyond R^3: only a box has a closed form, from its
        # least and greatest corners
        if _box_corners(ints) is None:
            raise UnsupportedDimension(f"volume of a general body in dimension {n}")
        return Fraction(prod(h - l for l, h in zip(ints[0], ints[-1])), scale ** n)
    # n! times the signed volumes of the simplices joining vertex o to each
    # edge (R^2) or to a fan triangulation of each facet polygon (R^3)
    _, cycles = P._facets
    o = ints[cycles[0][0]]
    rel = [geom.sub(p, o) for p in ints]
    total = 0
    for cycle in cycles:
        a = rel[cycle[0]]
        if n == 2:
            total += geom.cross2(a, rel[cycle[1]])
        else:
            for b, c in zip(cycle[1:-1], cycle[2:]):
                total += geom.dot(a, geom.cross3(rel[b], rel[c]))
    if total < 0:
        raise InvariantViolation("negative volume from facet cycles")
    return Fraction(total, factorial(n) * scale ** n)


def lattice_count(P: Polytope) -> int:
    """Number of integer points in P, by guarded bounding-box enumeration.

    LATTICE_GUARD bounds the integer points of the bounding box. Full-dimensional
    bodies are counted one line of the last axis at a time; lower-dimensional
    ones test every bounding-box point for membership.
    """
    n = P.ambient_dim
    if n > 3:
        raise UnsupportedDimension("lattice counting beyond dimension 3")
    ints, scale = P._ints
    lo = [-(-min(p[i] for p in ints) // scale) for i in range(n)]
    hi = [max(p[i] for p in ints) // scale for i in range(n)]
    total = 1
    for l, h in zip(lo, hi):
        total *= max(h - l + 1, 0)
    if total > LATTICE_GUARD:
        raise GuardExceeded(f"bounding box holds {total} > {LATTICE_GUARD} candidates")
    if total == 0:
        return 0
    axes = [range(l, h + 1) for l, h in zip(lo, hi)]
    if n == 0 or dim(P) < n:
        return sum(1 for cand in itertools.product(*axes) if _holds(P, cand, 1))
    # The normals are integer, so at an integer point n.x <= c / scale holds
    # exactly when n.x <= c // scale; each line along the last axis then
    # meets P in one integer range, found by floor division.
    rows = [(normal[:-1], normal[-1], c // scale) for normal, c in zip(P._facets[0], P._offsets)]
    count = 0
    for prefix in itertools.product(*axes[:-1]):
        zlo, zhi = lo[-1], hi[-1]
        for head, c, rhs in rows:
            s = rhs - sum(a * t for a, t in zip(head, prefix))
            if c > 0:
                zhi = min(zhi, s // c)
            elif c < 0:
                zlo = max(zlo, -(s // -c))
            elif s < 0:
                break
        else:
            if zhi >= zlo:
                count += zhi - zlo + 1
    return count


# ---------------------------------------------------------------------------
# named bodies used as probes and test fixtures


def unit_cube(n: int) -> Polytope:
    return _interned(n, list(itertools.product((0, 1), repeat=n)), 1)


def standard_simplex(n: int) -> Polytope:
    return _interned(n, sorted(tuple(int(j == i) for j in range(n)) for i in range(-1, n)), 1)


def asymmetric_simplex(n: int) -> Polytope:
    """Staircase simplex over the basis (e1, 2 e2, 3 e3, ...): 0, e1, e1 + 2 e2, ..."""
    return _interned(n, [tuple(j + 1 if j < i else 0 for j in range(n)) for i in range(n + 1)], 1)


# ---------------------------------------------------------------------------
# serialization (the shared polytope text format)


def polytope_to_obj(P: Polytope) -> dict:
    return {
        "dim": P.ambient_dim,
        "vertices": [[rat_str(c) for c in v] for v in P.vertices],
    }


def polytope_from_obj(obj) -> Polytope:
    """Parse the JSON object form; prunes to the canonical hull."""
    if not isinstance(obj, dict):
        raise ParseError("polytope object must be a JSON object")
    try:
        n = obj["dim"]
        raw = obj["vertices"]
    except KeyError as exc:
        raise ParseError(f"polytope object missing field {exc}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"field 'dim' must be a positive integer, got {n!r}")
    if not isinstance(raw, list) or not raw:
        raise ParseError("field 'vertices' must be a non-empty list")
    pts = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"vertex {i} does not have {n} coordinates")
        try:
            pts.append(point(row))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ParseError(f"vertex {i}: bad rational ({exc})") from exc
    return hull(pts)
