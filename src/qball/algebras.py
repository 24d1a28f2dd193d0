"""The concrete quantized algebras used throughout the package.

* ``matrix_algebra(nrows, ncols, cls)`` -- the quantum matrix algebra on
  ``t_ij`` (or ``z``-named) generators with the standard FRT-type relations:

      t_ij' t_ij''  = q t_ij'' t_ij'            (j' < j'')
      t_i'j t_i''j  = q t_i''j t_i'j            (i' < i'')
      t_ij t_i'j'   = t_i'j' t_ij               (i < i', j > j')
      t_ij t_i'j'   = t_i'j' t_ij + (q - q^-1) t_ij' t_i'j   (i < i', j < j')

* ``pol_algebra(n)`` -- the *-algebra on z generators and their stars zs
  in Wick order: z-letters sorted, then starred letters sorted.  The
  z-block and the star-block each satisfy the matrix relations above; a
  starred letter moves right past a plain letter with the R-matrix cross
  relation

      (z_b^beta)* z_a^alpha = q^2 sum R(b,a,b',a') R(beta,alpha,beta',alpha')
                              z_a'^alpha' (z_b'^beta')*
                              + (1 - q^2) delta_ab delta^{alpha beta}

  where R(b,a,b',a') is q^-1 for a != b, b=b', a=a'; 1 for a=b=a'=b';
  1 - q^-2 for a=b, a'=b', a' > a; and 0 otherwise.  The rule tells a
  plain letter from a starred one by its code (below n^2 or not) and takes
  class names only from the letters it rewrites.

* ``boundary_algebra(n)`` -- Pol's presentation renamed: zeta and zetas
  letters with Pol's codes, rule and pair cache (``Algebra.renamed``), so
  a rewrite met on either is formed once.  The Shilov reduction is applied
  separately (see qball.boundary).

Monomial order: class rank first (plain before starred), then the two
indices lexicographically.  Instances are cached and immutable.
"""

from __future__ import annotations

from functools import lru_cache

from .ncpoly import Algebra, Generator
from .scalars import ONE, qpow


def _matrix_rule_pair(g: Generator, h: Generator):
    """Expansion of g*h for same-class generators with g > h, as
    [(coeff, (name tuples...))]; indices are (row, col) pairs."""
    i2, j2 = g.i, g.j
    i1, j1 = h.i, h.j
    swap = (h, g)
    if i2 == i1:
        return [(qpow(-1), swap)]
    if j2 == j1:
        return [(qpow(-1), swap)]
    if j2 < j1:
        return [(ONE, swap)]
    # i2 > i1, j2 > j1
    cross = (Generator(h.cls, i1, j2), Generator(g.cls, i2, j1))
    return [(ONE, swap), (-(qpow(1) - qpow(-1)), cross)]


def _star_rule_pair(g: Generator, h: Generator):
    """Same-class rule for the starred block (the * of the matrix rule)."""
    i2, j2 = g.i, g.j
    i1, j1 = h.i, h.j
    swap = (h, g)
    if i2 == i1 or j2 == j1:
        return [(qpow(1), swap)]
    if j2 < j1:
        return [(ONE, swap)]
    cross = (Generator(h.cls, i1, j2), Generator(g.cls, i2, j1))
    return [(ONE, swap), ((qpow(1) - qpow(-1)), cross)]


def _r_values(b: int, a: int, n: int):
    """Nonzero (b', a') -> R(b,a,b',a') per the four-case table."""
    if a != b:
        return {(b, a): qpow(-1)}
    out = {(a, a): ONE}
    low = ONE - qpow(-2)
    for c in range(a + 1, n + 1):
        out[(c, c)] = low
    return out


def _cross_rule(n: int, g: Generator, h: Generator):
    """(z_b^beta)* z_a^alpha moved to Wick order."""
    b, beta = g.i, g.j
    a, alpha = h.i, h.j
    out = []
    q2 = qpow(2)
    for (bp, ap), r1 in _r_values(b, a, n).items():
        for (betap, alphap), r2 in _r_values(beta, alpha, n).items():
            out.append((q2 * r1 * r2,
                        (Generator(h.cls, ap, alphap), Generator(g.cls, bp, betap))))
    if a == b and alpha == beta:
        out.append((ONE - q2, ()))
    return out


def _make_rule(n: int):
    plain = n * n  # codes below are plain letters, the others starred

    def rule(alg: Algebra, gc: int, hc: int):
        g, h = alg.gens[gc], alg.gens[hc]
        if gc < plain:
            pairs = _matrix_rule_pair(g, h)
        elif hc >= plain:
            pairs = _star_rule_pair(g, h)
        else:
            pairs = _cross_rule(n, g, h)
        return [(c, tuple(alg.code[x] for x in w)) for c, w in pairs]
    return rule


def _matrix_only_rule(alg: Algebra, gc: int, hc: int):
    pairs = _matrix_rule_pair(alg.gens[gc], alg.gens[hc])
    return [(c, tuple(alg.code[x] for x in w)) for c, w in pairs]


@lru_cache(maxsize=None)
def matrix_algebra(nrows: int, ncols: int, cls: str = "t") -> Algebra:
    """C[Mat_{nrows,ncols}]_q on generators cls[i,j]."""
    gens = [Generator(cls, i, j)
            for i in range(1, nrows + 1) for j in range(1, ncols + 1)]
    return Algebra(f"Mat[{nrows}x{ncols};{cls}]", gens, _matrix_only_rule)


@lru_cache(maxsize=None)
def pol_algebra(n: int) -> Algebra:
    """Pol(Mat_n)_q on z[a,alpha] and zs[a,alpha], in Wick order."""
    gens = [Generator(cls, a, al) for cls in ("z", "zs")
            for a in range(1, n + 1) for al in range(1, n + 1)]
    return Algebra(f"Pol[{n};z]", gens, _make_rule(n))


@lru_cache(maxsize=None)
def boundary_algebra(n: int) -> Algebra:
    """Pol's presentation on zeta letters; Shilov reduction is applied
    separately (see qball.boundary)."""
    return pol_algebra(n).renamed(f"Pol[{n};zeta]", {"z": "zeta", "zs": "zetas"})


STAR_CLASSES = frozenset({"zs", "zetas"})
_STAR_OF = {"z": "zs", "zs": "z", "zeta": "zetas", "zetas": "zeta"}


def star_class(cls: str) -> str:
    return _STAR_OF[cls]


@lru_cache(maxsize=None)
def _star_flags(alg: Algebra) -> tuple:
    """1 for each starred generator code of ``alg``, 0 for the others."""
    return tuple(int(g.cls in STAR_CLASSES) for g in alg.gens)


@lru_cache(maxsize=None)
def bidegree(alg: Algebra, word: tuple) -> tuple:
    """(z-count, z*-count) of a word of a star-pair algebra.  Memoised:
    algebras are immutable and words are tuples, and the kernel pipeline
    asks for the same few words again and again."""
    k = sum(map(_star_flags(alg).__getitem__, word))
    return (len(word) - k, k)


def star_poly(p):
    """The involution: reverse words, swap classes, keep coefficients.

    Coefficients of Q(v) are fixed (the conjugation fixes v); the result is
    re-normalised to Wick order.  Antilinear antihomomorphism by
    construction.
    """
    alg = p.alg
    star = [alg.code[Generator(star_class(g.cls), g.i, g.j)] for g in alg.gens]
    return alg.poly({tuple(star[g] for g in reversed(w)): c
                     for w, c in p.terms.items()})
