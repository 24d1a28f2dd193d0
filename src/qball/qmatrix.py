"""Quantum minors, quantum determinants and the Laplace splitting.

Minors carry the (-q)^{l(s)} sign convention, l(s) counting the inversions
of the permutation.  The constructor permutes the columns against fixed
rows: each of its words runs through the rows in increasing order, so it is
already normal and building the minor rewrites nothing.  The row-permuted
sum is the same element; the tests keep it as the cross-check.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .algebras import matrix_algebra
from .ncpoly import Algebra, NCPoly, normalize
from .scalars import neg_qpow


def inversions(perm: tuple) -> int:
    """l(perm): the number of pairs i < j with perm[i] > perm[j]."""
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])


def qminor(alg: Algebra, rows, cols, cls: str = "t") -> NCPoly:
    """The quantum minor over the given index sets: the sum over column
    permutations s of (-q)^{l(s)} t_{r_1 c_s(1)} ... t_{r_k c_s(k)}."""
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("minor index sets must be strictly increasing")
    if len(rows) != len(cols):
        raise ValueError(f"minor needs equal index set sizes, got {rows} / {cols}")
    k = len(rows)
    if k == 0:
        return alg.one()

    def word(perm):
        return tuple(alg.gen_code(cls, rows[t], cols[perm[t]]) for t in range(k))
    return alg.poly({word(perm): neg_qpow(inversions(perm))
                     for perm in permutations(range(k))})


def qdet(alg: Algebra, n: int, cls: str = "t") -> NCPoly:
    """det_q of the n x n corner; central in the square algebra."""
    idx = range(1, n + 1)
    return qminor(alg, idx, idx, cls=cls)


def l_pairs(I, J) -> int:
    """card{(i, j) in I x J : i > j}."""
    return sum(1 for i in I for j in J if i > j)


def laplace_residuals(n: int):
    """Residuals of the two ordered Laplace splittings of det_q in
    C[Mat_2n]_q, labelled "direct-order" and "reversed-order": both must
    be exactly zero.  Each side is one ``normalize`` of all word pairs."""
    alg = matrix_algebra(2 * n, 2 * n)
    det = qdet(alg, 2 * n)
    splits = []
    for J in combinations(range(1, 2 * n + 1), n):
        Jc = tuple(j for j in range(1, 2 * n + 1) if j not in J)
        splits.append((l_pairs(J, Jc), qminor(alg, range(1, n + 1), J),
                       qminor(alg, range(n + 1, 2 * n + 1), Jc)))
    s1, s2 = (normalize(alg, ((w1 + w2, neg_qpow(ell) * c1 * c2) for ell, a, b in side
                              for w1, c1 in a.terms.items() for w2, c2 in b.terms.items()))
              for side in (splits, [(-ell, mb, mt) for ell, mt, mb in splits]))
    return [("direct-order", s1 - det), ("reversed-order", s2 - det)]


def centrality_residuals(n: int):
    """[det_q, g] for every generator of C[Mat_n]_q; all must vanish."""
    alg = matrix_algebra(n, n)
    det = qdet(alg, n)
    out = []
    for g in alg.gens:
        p = alg.gen(g.cls, g.i, g.j)
        out.append(((g.i, g.j), det * p - p * det))
    return out
