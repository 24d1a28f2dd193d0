"""Commutative q -> 1 oracles.

Evaluating every coefficient at v = 1 and letting the letters commute must
reproduce classical matrix-ball identities: y becomes det(1 - z z*), and
the n = 1 Poisson integrals become the classical harmonic extensions.
Commutative polynomials are maps {sorted letter multiset: Fraction}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .kernels import Kernel
from .ncpoly import NCPoly, add_terms
from .qmatrix import inversions


def cpoly_mul(p: dict, r: dict) -> dict:
    return add_terms({}, ((tuple(sorted(m1 + m2)), c1 * c2)
                          for m1, c1 in p.items() for m2, c2 in r.items()))


def classical_poly(p: NCPoly) -> dict:
    """Commutative image of a normal-form polynomial at v = 1."""
    gens = p.alg.gens
    return add_terms({}, ((tuple(sorted(tuple(gens[g]) for g in w)), c.eval_at(1))
                          for w, c in p.terms.items()))


def classical_kernel(k: Kernel) -> dict:
    """Commutative image of a power-free kernel; both legs commute."""
    if not k.power_signature() <= {(0, 0, 0, 0)}:
        raise ValueError("classical image of a kernel with powers")
    g1, g2 = k.space.leg1.alg.gens, k.space.leg2.alg.gens
    return add_terms({}, ((tuple(sorted([tuple(g1[g]) for g in w1]
                                        + [tuple(g2[g]) for g in w2])),
                           coeff.eval_at(1))
                          for (_, _, _, _, w1, w2), coeff in k.terms.items()))


def classical_det_one_minus_zzstar(n: int) -> dict:
    """det(1 - z z*) with commuting letters z[a,c], zs[a,c]; entry (a, b) of
    z z* is sum_c z[a,c] zs[b,c]."""
    idx = range(1, n + 1)
    entries = {(a, b): add_terms({(): Fraction(1)} if a == b else {},
                                 (((("z", a, c), ("zs", b, c)), Fraction(-1))
                                  for c in idx))
               for a in idx for b in idx}
    det = {}
    for perm in permutations(idx):
        term = {(): Fraction((-1) ** inversions(perm))}
        for a in idx:
            term = cpoly_mul(term, entries[(a, perm[a - 1])])
        add_terms(det, term.items())
    return det
