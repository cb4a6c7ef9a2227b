"""Small exact linear algebra, used by the polytope kernel.

Every function reads the result of one greedy elimination, `_eliminate`,
fraction-free in integers (Bareiss, Math. Comp. 22, 1968): only the value of
`det` and a solver's outputs are Fractions.
"""

from fractions import Fraction
from functools import partial
from math import prod

from ._geometry import integerize


def _reduce(row, found):
    """Bareiss steps against the eliminated rows: after step k the row holds
    (k+1)-minors (so each division is exact), zero in each pivot column."""
    prev = 1
    for _, col, pivot, erow in found:
        factor = row[col]
        if factor:
            row = [(pivot * a - factor * b) // prev for a, b in zip(row, erow)]
        elif pivot != prev:
            row = [pivot * a // prev for a in row]
        prev = pivot
    return row


def _eliminate(rows, ncols):
    """Greedy elimination of the rows cleared of denominators, in input order.

    Returns one (row index, pivot column, pivot value, reduced integer row)
    entry per row that is independent of the rows before it; the pivot is
    the first nonzero entry among the first ``ncols`` columns, and the last
    pivot value is the signed minor of the found rows on their pivot
    columns. The scan stops once each of those columns holds a pivot.
    """
    found = []
    for i, row in enumerate(rows):
        (work,), _ = integerize([row])
        work = _reduce(work, found)
        col = next((j for j in range(ncols) if work[j] != 0), None)
        if col is None:
            continue
        found.append((i, col, work[col], work))
        if len(found) == ncols:
            break
    return found


def independent_rows(rows):
    """Indices of a maximal linearly independent subset, greedy in order."""
    return [i for i, _, _, _ in _eliminate(rows, len(rows[0]) if rows else 0)]


def pivot_columns(rows):
    """Pivot column of each row `independent_rows` picks; one per rank."""
    return [col for _, col, _, _ in _eliminate(rows, len(rows[0]) if rows else 0)]


def det(rows):
    """Determinant of a square list of rows of ints or Fractions."""
    found = _eliminate(rows, len(rows))
    if len(found) < len(rows):
        return Fraction(0)
    # the last pivot is the rows' minor on the pivot columns, rows cleared to ints
    cols = [col for _, col, _, _ in found]
    inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    pivot = found[-1][2] if found else 1
    return Fraction((-1) ** inversions * pivot, prod(integerize([row])[1] for row in rows))


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
    tagged = [tuple(col) + tuple(int(i == j) for i in range(k)) for j, col in enumerate(columns)]
    # a partial, unlike a closure, pickles with the body that keeps it
    return partial(_solve_eliminated, _eliminate(tagged, n), k)


def solver_rank(solve):
    """Rank of the columns a `solver` result was prepared from."""
    return len(solve.args[0])


def _solve_eliminated(found, k, target):
    m = len(target)
    (ints,), den = integerize([target])
    rest = _reduce(ints + (0,) * k, found)
    if any(a != 0 for a in rest[:m]):
        return None
    if len(found) < k:
        raise ValueError("solve() requires independent columns")
    # the reduced target is the Fraction one times den and the last pivot
    return tuple(Fraction(-a, den * (found[-1][2] if found else 1)) for a in rest[m:])


def solve(columns, target):
    """Solve sum_j x_j * columns[j] = target exactly; see `solver`."""
    return solver(columns)(target)
