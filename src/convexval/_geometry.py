"""Exact convex-hull engines on integer coordinates.

Internal module. Callers clear denominators once (``integerize``), or add
integer forms over a common scale, so that every predicate below is plain
big-integer arithmetic: no floats, no tolerances. Scaling the input by a
positive integer scales the plane offsets and changes nothing else. The 3D
hull is a gift-wrapping walk that merges coplanar points into a single facet
polygon, which keeps degenerate inputs (Minkowski sums, boxes, grid-like
vertex sets) exact and cheap at desk scale. One step, `_turn`, turns a
supporting plane about a line in it to the next plane that meets the cloud:
it finds the first facet from the plane x = min and every neighbour facet
across an edge.
"""

from math import gcd, lcm

from .errors import InvariantViolation


def sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def dot(p, q):
    if len(p) == 3:
        return p[0] * q[0] + p[1] * q[1] + p[2] * q[2]
    if len(p) == 2:
        return p[0] * q[0] + p[1] * q[1]
    return sum(a * b for a, b in zip(p, q))


def cross2(p, q):
    return p[0] * q[1] - p[1] * q[0]


def cross3(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def primitive(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    if g > 1:
        return tuple(c // g for c in v)
    return tuple(v)


def integerize(points):
    """Scale Fraction tuples to integer tuples; returns (ints, scale)."""
    scale = lcm(*[c.denominator for p in points for c in p])
    if scale == 1:
        # every coordinate is an integer: its numerator
        return [tuple([c.numerator for c in p]) for p in points], 1
    return [tuple([c.numerator * (scale // c.denominator) for c in p]) for p in points], scale


# ---------------------------------------------------------------------------
# 2D: monotone chain


def hull_2d(pts):
    """Indices of hull vertices of distinct integer pairs, CCW order.

    Strictly extreme points only; collinear sets reduce to their endpoints.
    """
    order = sorted(range(len(pts)), key=lambda i: pts[i])

    def chain(idxs):
        out = []
        for i in idxs:
            x, y = pts[i]
            # pop while (a, b, (x, y)) makes no left turn
            while len(out) >= 2:
                (ax, ay), (bx, by) = pts[out[-2]], pts[out[-1]]
                if (bx - ax) * (y - by) - (by - ay) * (x - bx) > 0:
                    break
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(reversed(order))
    if len(lower) == 1:
        return lower
    return lower[:-1] + upper[:-1]


def facets_2d(pts):
    """The hull of distinct integer pairs with affine rank 2, shaped like
    `hull_3d`: each facet is an edge (i, j) of the CCW cycle, keyed by its
    outward plane (primitive normal, offset)."""
    cycle = hull_2d(pts)
    facets = {}
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        normal = primitive((pts[j][1] - pts[i][1], pts[i][0] - pts[j][0]))
        facets[normal, dot(normal, pts[i])] = (i, j)
    return facets, sorted(cycle)


# ---------------------------------------------------------------------------
# 3D: gift wrapping with coplanar merging


def _perp_vector(n):
    if n[0] == 0 and n[1] == 0:
        return (1, 0, 0)
    return (-n[1], n[0], 0)


def _pivot(pts, u, t, n):
    """Rotate a supporting halfplane around the edge through ``u``.

    Frame: ``n`` is the outward normal of the current supporting plane,
    ``t`` the in-plane direction to rotate from. Returns the index of the
    point reached first, i.e. minimizing the rotation angle; candidates are
    the points strictly inside the current plane.
    """
    best = balpha = bbeta = None
    nx, ny, nz = n
    tx, ty, tz = t
    # beta = n.(u - p) and alpha = t.(p - u), from the products at u
    nu, tu = dot(n, u), dot(t, u)
    for j, (x, y, z) in enumerate(pts):
        beta = nu - (nx * x + ny * y + nz * z)
        if beta <= 0:
            continue
        alpha = tx * x + ty * y + tz * z - tu
        if best is None or alpha * bbeta - beta * balpha > 0:
            best, balpha, bbeta = j, alpha, beta
    if best is None:
        raise InvariantViolation("pivot found no candidate (rank < 3?)")
    return best


def _facet_cycle(pts, n, c):
    """Vertex cycle of the facet on plane n.x == c, CCW seen from outside,
    after checking in the same scan that the plane supports every point."""
    nx, ny, nz = n
    vals = [nx * x + ny * y + nz * z for x, y, z in pts]
    if max(vals) > c:
        raise InvariantViolation("plane is not supporting")
    on = [i for i, v in enumerate(vals) if v == c]
    b1 = ax, ay, az = _perp_vector(n)
    b2 = bx, by, bz = cross3(n, b1)
    proj = [(ax * x + ay * y + az * z, bx * x + by * y + bz * z)
            for x, y, z in (pts[i] for i in on)]
    local = hull_2d(proj)
    # (b1, b2, n) is right-handed, so CCW in the projection is CCW from outside
    return [on[i] for i in local]


def _turn(pts, u, e, n):
    """Turn the supporting plane with outward normal ``n`` about the line
    through ``u`` along ``e``, towards ``t = e x n``, to the first plane that
    meets a point off the old one. Returns that plane's primitive outward
    normal, which leans towards ``t``."""
    q = _pivot(pts, u, cross3(e, n), n)
    # q lies strictly inside the old plane, so this normal has a positive t-part
    return primitive(cross3(sub(pts[q], u), e))


def _first_plane(pts):
    """A facet plane: turn the plane x = u.x, with u the least point, about
    the z-line through u towards -y. Its points all have y >= u.y and stay
    inside. If the plane reached meets the cloud only in a line through u,
    that line is an edge, and turning about it reaches a facet."""
    u = min(pts)
    n = _turn(pts, u, (0, 0, 1), (-1, 0, 0))
    c = dot(n, u)
    off = [sub(p, u) for p in pts if dot(n, p) == c and p != u]
    e = off[0]
    if all(cross3(d, e) == (0, 0, 0) for d in off):
        n = _turn(pts, u, e, n)
    return n, dot(n, u)


def hull_3d(pts):
    """Facets of the hull of distinct integer 3-tuples with affine rank 3.

    Returns (facets, vertices): ``facets`` maps an outward plane key
    (primitive normal, offset) to the facet's vertex cycle (point indices,
    CCW from outside); ``vertices`` is the sorted list of hull vertex indices.
    """
    facets = {}
    queue = [_first_plane(pts)]
    edges_done = set()
    while queue:
        key = queue.pop()
        if key in facets:
            continue
        n, c = key
        cycle = _facet_cycle(pts, n, c)
        facets[key] = cycle
        k = len(cycle)
        for idx in range(k):
            ui, wi = cycle[idx], cycle[(idx + 1) % k]
            ekey = (ui, wi) if ui < wi else (wi, ui)
            if ekey in edges_done:
                continue
            edges_done.add(ekey)
            # the cycle is CCW from outside, so e x n points off the facet
            u = pts[ui]
            m = _turn(pts, u, sub(pts[wi], u), n)
            nb = (m, dot(m, u))
            if nb not in facets:
                queue.append(nb)
    vertices = sorted({i for cyc in facets.values() for i in cyc})
    nedges = sum(len(cyc) for cyc in facets.values())
    if nedges % 2 != 0 or len(vertices) - nedges // 2 + len(facets) != 2:
        raise InvariantViolation("hull surface not closed")
    return facets, vertices

