"""Exact linear algebra: independent_rows (whose length is the rank), det
and solve against brute-force oracles on seeded matrices."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from convexval import _linalg

DENOMINATORS = (1, 7, 10**6)
SHAPES = [(m, n) for m in range(1, 6) for n in range(1, 6)] + [(7, 3), (6, 2), (3, 7), (2, 6)]


def leibniz_det(rows):
    size = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = F(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def minor_rank(rows):
    """Size of the largest nonzero minor."""
    if not rows:
        return 0
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        for ri in itertools.combinations(range(len(rows)), k):
            for ci in itertools.combinations(range(len(rows[0])), k):
                if leibniz_det([[rows[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


def random_matrix(rng, m, n):
    """Rows of random rationals, with zero, duplicate and dependent rows mixed in."""
    den = rng.choice(DENOMINATORS)

    def entry():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-9, 9), rng.randint(1, den))

    rows = []
    for _ in range(m):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(rng.choice(rows))
        elif rows and kind < 0.35:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = entry(), entry()
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        elif kind < 0.45:
            rows.append((F(0),) * n)
        else:
            rows.append(tuple(entry() for _ in range(n)))
    return rows


def cases(count, seed):
    rng = random.Random(seed)
    for k in range(count):
        m, n = SHAPES[k % len(SHAPES)]
        yield rng, random_matrix(rng, m, n)


def test_rank_and_independent_rows_match_minor_oracle():
    for _, rows in cases(500, 1):
        r = minor_rank(rows)
        assert len(_linalg.independent_rows(rows)) == r
        chosen = _linalg.independent_rows(rows)
        assert chosen == sorted(set(chosen))
        assert len(chosen) == r == minor_rank([rows[i] for i in chosen])
        for i in range(len(rows)):
            if i not in chosen:
                before = [rows[j] for j in chosen if j < i]
                assert minor_rank(before + [rows[i]]) == len(before)


def test_rank_of_no_rows_is_zero():
    assert len(_linalg.independent_rows([])) == 0
    assert _linalg.independent_rows([]) == []


def test_det_matches_leibniz():
    for _, rows in cases(500, 2):
        if len(rows) == len(rows[0]):
            assert _linalg.det(rows) == leibniz_det(rows)
    # rows of ints are eliminated exactly, not in floats
    exact = _linalg.det([(1, 2), (3, 4)])
    assert exact == -2 and type(exact) is F


def test_solve_in_span_and_off_span():
    for rng, rows in cases(500, 3):
        columns = [rows[i] for i in _linalg.independent_rows(rows)]
        if not columns:
            continue
        n = len(columns[0])
        x = tuple(F(rng.randint(-9, 9), rng.randint(1, 10**6)) for _ in columns)
        target = tuple(sum((c * col[i] for c, col in zip(x, columns)), F(0)) for i in range(n))
        assert _linalg.solve(columns, target) == x
        for i in range(n):
            unit = tuple(F(int(j == i)) for j in range(n))
            if minor_rank(columns + [unit]) > len(columns):
                off = tuple(t + 3 * u for t, u in zip(target, unit))
                assert _linalg.solve(columns, off) is None
                break
        else:
            assert len(columns) == n  # the span is the whole space
    assert _linalg.solve([(3,)], (1,)) == (F(1, 3),)


def test_solve_rejects_dependent_columns():
    columns = [(F(1), F(0), F(1)), (F(2), F(0), F(2))]
    with pytest.raises(ValueError):
        _linalg.solve(columns, (F(3), F(0), F(3)))
    assert _linalg.solve(columns, (F(0), F(1), F(0))) is None


# ---------------------------------------------------------------------------
# the fraction-free elimination against Gaussian elimination over Fraction


def fraction_elimination(rows, ncols):
    """Greedy Gaussian elimination over Fraction, rows taken in input order:
    (row index, pivot column, pivot value, reduced row scaled to pivot 1) per
    row independent of the rows before it."""
    found = []
    for i, row in enumerate(rows):
        work = [F(c) for c in row]
        for _, col, _, erow in found:
            factor = work[col]
            if factor != 0:
                work = [a - factor * b for a, b in zip(work, erow)]
        col = next((j for j in range(ncols) if work[j] != 0), None)
        if col is None:
            continue
        pivot = work[col]
        found.append((i, col, pivot, [a / pivot for a in work]))
        if len(found) == ncols:
            break
    return found


def fraction_det(rows):
    found = fraction_elimination(rows, len(rows))
    if len(found) < len(rows):
        return F(0)
    cols = [col for _, col, _, _ in found]
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return F(-1) ** inversions * math.prod((pivot for _, _, pivot, _ in found), start=F(1))


def fraction_solve(columns, target):
    k, n = len(columns), len(columns[0])
    tagged = [tuple(col) + tuple(F(int(i == j)) for i in range(k)) for j, col in enumerate(columns)]
    found = fraction_elimination(tagged, n)
    rest = [F(c) for c in target] + [F(0)] * k
    for _, col, _, erow in found:
        factor = rest[col]
        rest = [a - factor * b for a, b in zip(rest, erow)]
    if any(a != 0 for a in rest[:n]):
        return None
    return tuple(-a for a in rest[n:])


LARGE_DENOMINATORS = (1, 3, 10**6, 10**12 + 39, 2**61 - 1)


def mixed_matrix(rng, m, n, integer):
    """Rows of ints, or of rationals with large denominators, with zero,
    repeated and dependent rows mixed in."""
    den = rng.choice(LARGE_DENOMINATORS)

    def entry():
        if rng.random() < 0.25:
            return 0 if integer else F(0)
        if integer:
            return rng.randint(-10**6, 10**6) if rng.random() < 0.2 else rng.randint(-9, 9)
        return F(rng.randint(-9 * den, 9 * den), rng.randint(1, den))

    rows = []
    for _ in range(m):
        kind = rng.random()
        if rows and kind < 0.15:
            rows.append(rng.choice(rows))
        elif rows and kind < 0.35:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
        elif kind < 0.45:
            rows.append((0 if integer else F(0),) * n)
        else:
            rows.append(tuple(entry() for _ in range(n)))
    return rows


def mixed_cases(count, seed):
    rng = random.Random(seed)
    for k in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        if k % 3 == 0:
            n = m  # square, for det
        yield rng, mixed_matrix(rng, m, n, integer=k % 2 == 0)


def test_fraction_free_elimination_matches_fraction_elimination():
    for _, rows in mixed_cases(600, 4):
        ncols = len(rows[0])
        found = _linalg._eliminate(rows, ncols)
        reference = fraction_elimination(rows, ncols)
        assert [(i, col) for i, col, _, _ in found] == [(i, col) for i, col, _, _ in reference]
        assert _linalg.independent_rows(rows) == [i for i, _, _, _ in reference]
        assert _linalg.pivot_columns(rows) == [col for _, col, _, _ in reference]
        assert len(_linalg.independent_rows(rows)) == len(reference)
        for (_, col, pivot, erow), (_, _, _, expected) in zip(found, reference):
            # an integer row, a nonzero multiple of the reduced Fraction row
            assert all(type(a) is int for a in erow) and pivot == erow[col]
            assert [F(a, pivot) for a in erow] == expected
        if len(rows) == ncols:
            assert _linalg.det(rows) == fraction_det(rows)
            assert type(_linalg.det(rows)) is F


def test_fraction_free_solver_matches_fraction_solver():
    for rng, rows in mixed_cases(600, 5):
        columns = [rows[i] for i in _linalg.independent_rows(rows)]
        if not columns:
            continue
        n = len(columns[0])
        solve = _linalg.solver(columns)
        den = rng.choice(LARGE_DENOMINATORS)
        x = tuple(F(rng.randint(-9, 9), rng.randint(1, den)) for _ in columns)
        on = tuple(sum((c * col[i] for c, col in zip(x, columns)), F(0)) for i in range(n))
        off = tuple(F(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(n))
        for target in (on, off, tuple(int(t) for t in on), (0,) * n):
            assert solve(target) == fraction_solve(columns, target)
        assert solve(on) == x

