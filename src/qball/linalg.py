"""Tiny exact linear algebra over Q(v): reduced row echelon form.

Only the Shilov span reduction (``qball.boundary``) uses it, on small
graded problems, so plain Gaussian elimination is plenty.
"""

from __future__ import annotations


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

