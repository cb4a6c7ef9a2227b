"""Seeded input generator owned by the benchmark.

Everything here is plain Python over `fractions.Fraction`: it imports nothing
from `convexval`, so the inputs stay the same when the library's own
generators (`verify_suite.random_polytope` and friends) change. The
distribution follows the acceptance corpus: dimensions cycle 1, 2, 3, 2,
coordinates lie in [-3, 3] with denominators {1, 2}, and each point cloud
carries 0-2 extra points (0-1 in 3D). Lattice bodies for the Ehrhart ops
have integer vertices (see `lattice_cloud`).

Streams are keyed by strings, which `random.Random` hashes the same way in
every process, so an episode of a run can rebuild its inputs from
(workload, seed, episode) alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

DIMS = (1, 2, 3, 2)
AB_PAIRS = (
    (Fraction(1), Fraction(1)),
    (Fraction(1, 2), Fraction(3, 2)),
    (Fraction(2), Fraction(1, 3)),
)
HOMOGENEITY_FACTORS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def stream(workload: str, seed: int, episode: int) -> random.Random:
    return random.Random(f"convexval-bench:{workload}:{seed}:{episode}")


def rand_rational(rng, lo=-3, hi=3, dens=(1, 2)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rand_point(rng, n, lo=-3, hi=3, dens=(1, 2)) -> tuple:
    return tuple(rand_rational(rng, lo, hi, dens) for _ in range(n))


def rank(rows) -> int:
    """Rank of Fraction rows by plain Gaussian elimination."""
    m = [list(r) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][col] / m[r][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(rows) -> Fraction:
    """Determinant of a square Fraction matrix by cofactor expansion."""
    if len(rows) == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, c in enumerate(rows[0]):
        if c:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * c * det(minor)
    return total


def affine_dim(points) -> int:
    base = points[0]
    return rank([tuple(a - b for a, b in zip(p, base)) for p in points[1:]]) if len(points) > 1 else 0


def point_cloud(rng, d: int, lo=-3, hi=3, dens=(1, 2)) -> list:
    """Points whose hull has affine dimension exactly d in R^d."""
    while True:
        pts = [rand_point(rng, d, lo, hi, dens) for _ in range(d + 1)]
        pts += [rand_point(rng, d, lo, hi, dens) for _ in range(rng.randint(0, 1 if d == 3 else 2))]
        if affine_dim(pts) == d:
            return pts


def lattice_cloud(rng, d: int) -> list:
    """Integer points spanning R^d: in [-2, 2] up to 2D, in {0, 1} in 3D.

    Ehrhart extraction evaluates dilates up to about 21 in 3D; vertices in
    {0, 1}^3 keep every scanned bounding box under `polytope.LATTICE_GUARD`.
    """
    return point_cloud(rng, d, *((0, 1) if d == 3 else (-2, 2)), dens=(1,))


def basis(rng, d: int) -> list:
    """d linearly independent vectors in R^d."""
    while True:
        vecs = [rand_point(rng, d) for _ in range(d)]
        if det(vecs) != 0:
            return vecs


def probe(i: int, d: int) -> list:
    """The acceptance corpus probes: a unit segment, the standard simplex, its half."""
    zero = (Fraction(0),) * d
    units = [tuple(Fraction(int(j == k)) for j in range(d)) for k in range(d)]
    kind = i % 3
    if kind == 0:
        return [zero, units[0]]
    if kind == 1:
        return [zero] + units
    return [zero] + [tuple(c / 2 for c in u) for u in units]


def polynomial(rng, degree: int) -> list:
    """Coefficients c_0..c_degree in [-5, 5] with denominators {1, 2, 3}."""
    return [rand_rational(rng, -5, 5, (1, 2, 3)) for _ in range(degree + 1)]


# ---------------------------------------------------------------------------
# independent planar oracles, used by the answer checks


def hull_2d(points) -> list:
    """Counter-clockwise extreme points of a planar point set (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def area_2d(points) -> Fraction:
    cyc = hull_2d(points)
    twice = sum(
        (cyc[i][0] * cyc[(i + 1) % len(cyc)][1] - cyc[(i + 1) % len(cyc)][0] * cyc[i][1]
         for i in range(len(cyc))),
        Fraction(0),
    )
    return abs(twice) / 2


def mixed_area_2d(P, Q) -> Fraction:
    """V(P, Q) = (area(P + Q) - area(P) - area(Q)) / 2 from raw vertex lists."""
    sums = [(p[0] + q[0], p[1] + q[1]) for p in P for q in Q]
    return (area_2d(sums) - area_2d(P) - area_2d(Q)) / 2
