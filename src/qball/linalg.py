"""Tiny exact linear algebra over Q(v): RREF and linear solves.

Only used for low-dimensional graded problems (divisibility by the central
quantum determinant, the Shilov span reduction), so a plain fraction-free
Gaussian elimination is plenty.
"""

from __future__ import annotations

from .scalars import ZERO


def rref(rows: list) -> tuple:
    """Reduced row echelon form.

    ``rows`` is a list of lists of VScalar; returns (rref_rows, pivot_cols).
    Zero rows are dropped.
    """
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not mat[i][c].is_zero()), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def solve(a_rows: list, b: list):
    """One solution x of A x = b over Q(v), or None if inconsistent.

    Free variables are set to zero.
    """
    if not a_rows:
        return [] if all(x.is_zero() for x in b) else None
    ncols = len(a_rows[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    red, pivots = rref(aug)
    x = [ZERO] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            return None  # pivot in the augmented column
        x[p] = row[-1]
    return x
