"""Commutative q -> 1 oracles.

Evaluating every coefficient at v = 1 and letting the letters commute must
reproduce classical matrix-ball identities: y becomes det(1 - z z*), the
(1,1) kernel component becomes the classical Johnson-Koranyi pattern, and
the n = 1 Poisson integrals become the classical harmonic extensions.
Commutative polynomials are maps {sorted letter multiset: Fraction}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .kernels import Kernel
from .ncpoly import NCPoly, add_terms
from .qmatrix import inversions


def cpoly_zero() -> dict:
    return {}


def cpoly_add(p: dict, r: dict) -> dict:
    return add_terms(dict(p), r.items())


def cpoly_mul(p: dict, r: dict) -> dict:
    return add_terms({}, ((tuple(sorted(m1 + m2)), c1 * c2)
                          for m1, c1 in p.items() for m2, c2 in r.items()))


def cpoly_scale(p: dict, c: Fraction) -> dict:
    return {m: x * c for m, x in p.items()} if c else {}


def cpoly_letter(name) -> dict:
    return {(name,): Fraction(1)}


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
    entries = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            e = cpoly_zero()
            if a == b:
                e = {(): Fraction(1)}
            s = cpoly_zero()
            for c in range(1, n + 1):
                s = cpoly_add(s, cpoly_mul(cpoly_letter(("z", a, c)),
                                           cpoly_letter(("zs", b, c))))
            entries[(a, b)] = cpoly_add(e, cpoly_scale(s, Fraction(-1)))
    det = cpoly_zero()
    for perm in permutations(range(1, n + 1)):
        term = {(): Fraction((-1) ** inversions(perm))}
        for a in range(1, n + 1):
            term = cpoly_mul(term, entries[(a, perm[a - 1])])
        det = cpoly_add(det, term)
    return det


def classical_p11(n: int) -> dict:
    """The classical (1,1) pattern: sum (n zeta_a^al zetas_b^be -
    delta delta) zs_a^al z_b^be with commuting letters."""
    out = cpoly_zero()
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for al in range(1, n + 1):
                for be in range(1, n + 1):
                    first = cpoly_mul(cpoly_letter(("z", b, be)),
                                      cpoly_letter(("zs", a, al)))
                    zpart = cpoly_mul(cpoly_letter(("zeta", a, al)),
                                      cpoly_letter(("zetas", b, be)))
                    term = cpoly_scale(cpoly_mul(zpart, first), Fraction(n))
                    out = cpoly_add(out, term)
                    if a == b and al == be:
                        out = cpoly_add(out, cpoly_scale(first, Fraction(-1)))
    return out
