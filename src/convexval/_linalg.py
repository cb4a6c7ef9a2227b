"""Small exact linear algebra over Fraction, used by the polytope kernel.

Every function reads the result of one greedy Gaussian elimination,
`_eliminate`.
"""

from fractions import Fraction
from functools import partial
from math import prod


def _reduce(row, found):
    """Subtract multiples of the eliminated rows so each pivot column is 0."""
    for _, col, _, erow in found:
        factor = row[col]
        if factor != 0:
            row = [a - factor * b for a, b in zip(row, erow)]
    return row


def _eliminate(rows, ncols):
    """Greedy elimination over Fraction, rows taken in input order.

    Returns one (row index, pivot column, pivot value, reduced row scaled to
    pivot 1) entry per row that is independent of the rows before it; the
    pivot is the first nonzero entry among the first ``ncols`` columns. The
    scan stops once each of those columns holds a pivot, since no later row
    can then be independent.
    """
    found = []
    for i, row in enumerate(rows):
        work = _reduce(list(row), found)
        col = next((j for j in range(ncols) if work[j] != 0), None)
        if col is None:
            continue
        pivot = work[col]
        inv = Fraction(1, pivot)  # exact also when the rows hold ints
        found.append((i, col, pivot, [a * inv for a in work]))
        if len(found) == ncols:
            break
    return found


def independent_rows(rows):
    """Indices of a maximal linearly independent subset, greedy in order."""
    return [i for i, _, _, _ in _eliminate(rows, len(rows[0]) if rows else 0)]


def pivot_columns(rows):
    """Pivot column of each row `independent_rows` picks; one per rank."""
    return [col for _, col, _, _ in _eliminate(rows, len(rows[0]) if rows else 0)]


def rank(rows):
    """Rank of a list of equal-length Fraction tuples."""
    return len(independent_rows(rows))


def det(rows):
    """Determinant of a square list of Fraction tuples."""
    found = _eliminate(rows, len(rows))
    if len(found) < len(rows):
        return Fraction(0)
    # the reduced rows, with columns put in pivot order, form a triangular
    # matrix with the pivot values on the diagonal
    cols = [col for _, col, _, _ in found]
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    return (-1) ** inversions * prod((pivot for _, _, pivot, _ in found), start=Fraction(1))


def solver(columns):
    """Eliminate the columns once; return target -> coefficients or None.

    The returned function solves sum_j x_j * columns[j] = target exactly,
    giving None when the system is inconsistent. Columns must be linearly
    independent (unique solution on the span): dependent columns raise
    ValueError for a target on their span.
    """
    k = len(columns)
    n = len(columns[0]) if columns else 0
    # tag column j with the unit vector e_j; a reduced row's tag part records
    # which combination of the columns it is
    tagged = [
        tuple(col) + tuple(Fraction(int(i == j)) for i in range(k))
        for j, col in enumerate(columns)
    ]
    # a partial, unlike a closure, pickles with the body that keeps it
    return partial(_solve_eliminated, _eliminate(tagged, n), k)


def solver_rank(solve):
    """Rank of the columns a `solver` result was prepared from."""
    return len(solve.args[0])


def _solve_eliminated(found, k, target):
    m = len(target)
    rest = _reduce(list(target) + [Fraction(0)] * k, found)
    if any(a != 0 for a in rest[:m]):
        return None
    if len(found) < k:
        raise ValueError("solve() requires independent columns")
    return tuple(-a for a in rest[m:])


def solve(columns, target):
    """Solve sum_j x_j * columns[j] = target exactly; see `solver`."""
    return solver(columns)(target)
