"""The Shilov boundary algebra in its two working models.

The general model is the zeta-letter Wick algebra reduced, on the span
{1} + {zeta_a^alpha (zeta_b^beta)*}, by the unitarity relations

    sum_j q^{2n-alpha-beta} zeta_j^alpha (zeta_j^beta)* = delta^{alpha beta}
    sum_gamma zeta_c^gamma (zeta_c'^gamma)*  = q^{c+c'-2n} delta_{cc'}

The first family generates the defining ideal; the transposed family holds
in the quotient as well and is what the second Hua system consumes.  Both
families are listed once (``unitarity_relations``): the reduction reads its
rows from that list, and ``qball.polmat.shilov_residuals_gl`` verifies the
same list exactly in the C[GL_n]_q model.  Reduction outside the supported
span is out of scope and raises.

For n = 1 the quotient is the commutative Laurent ring in one unitary
generator; :class:`N1Boundary` implements it together with the invariant
integral (the constant-term functional).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .algebras import bidegree, boundary_algebra
from .linalg import rref
from .ncpoly import NCPoly, add_terms
from .scalars import ONE, VScalar, ZERO, qpow


class UnsupportedSpanError(ValueError):
    """Input to shilov_reduce outside the span {1} u {zeta zeta*}."""


def _span_basis(n: int):
    """Basis of the reduction span: () first, then the (1,1) words."""
    alg = boundary_algebra(n)
    rng = range(1, n + 1)
    return alg, [()] + [(alg.gen_code("zeta", a, al), alg.gen_code("zetas", b, be))
                        for a, al, b, be in product(rng, repeat=4)]


def unitarity_relations(n: int):
    """The two unitarity families, column form then row form, as
    (label, [(coeff, (a, alpha, b, beta))], const), each read as
    sum coeff zeta_a^alpha (zeta_b^beta)* = const.  Both the reduction
    (:func:`_reducer`) and its check in the C[GL_n]_q model
    (``qball.polmat.shilov_residuals_gl``) read them from here."""
    rng = range(1, n + 1)
    for alpha in rng:
        for beta in rng:
            yield (("col", alpha, beta),
                   [(qpow(2 * n - alpha - beta), (j, alpha, j, beta)) for j in rng],
                   ONE if alpha == beta else ZERO)
    for c in rng:
        for cp in rng:
            yield (("row", c, cp),
                   [(ONE, (c, gamma, cp, gamma)) for gamma in rng],
                   qpow(c + cp - 2 * n) if c == cp else ZERO)


@lru_cache(maxsize=None)
def _reducer(n: int):
    """RREF of the relation rows: the span basis, its index, and
    {pivot index: {index: coeff}}, the pivot word's rewrite."""
    alg, words = _span_basis(n)
    pos = {w: i for i, w in enumerate(words)}
    rels = []
    for _, terms, const in unitarity_relations(n):
        row = [ZERO] * len(words)
        for coeff, (a, alpha, b, beta) in terms:
            w = (alg.gen_code("zeta", a, alpha), alg.gen_code("zetas", b, beta))
            row[pos[w]] = coeff
        row[0] = -const
        rels.append(row)
    # eliminate high-index monomials first so that, per relation (alpha,
    # beta), the lower-index-n representative is the one rewritten away
    order = list(range(len(words) - 1, -1, -1))
    red, pivots = rref([[r[c] for c in order] for r in rels])
    rules = {order[p]: {c: row[i] for i, c in enumerate(order)
                        if i != p and not row[i].is_zero()}
             for row, p in zip(red, pivots)}
    return alg, words, pos, rules


def shilov_reduce(p: NCPoly) -> NCPoly:
    """Canonical representative of p modulo the boundary relations.

    p must be a boundary-algebra element supported on bidegrees (0,0) and
    (1,1) with every (1,1) word of the form zeta (zeta)*.
    """
    alg = p.alg
    n = max(g.i for g in alg.gens)
    algr, words, pos, rules = _reducer(n)
    if alg is not algr:
        raise ValueError("shilov_reduce expects the boundary algebra")
    vec = [ZERO] * len(words)
    for w, c in p.terms.items():
        i = pos.get(w)
        if i is None:
            raise UnsupportedSpanError(
                f"word outside the supported Shilov span: {w}")
        vec[i] = c
    for idx, repl in sorted(rules.items(), reverse=True):
        c = vec[idx]
        if c.is_zero():
            continue
        vec[idx] = ZERO
        for j, coef in repl.items():
            vec[j] = vec[j] - c * coef
    out = {}
    for w, c in zip(words, vec):
        if not c.is_zero():
            out[w] = c
    return NCPoly(alg, out)


# ---------------------------------------------------------------------------
# the n = 1 Laurent model
# ---------------------------------------------------------------------------

class N1Boundary:
    """Laurent polynomial in one unitary generator zeta, zeta* = zeta^-1."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: VScalar.coerce(c) for k, c in (terms or {}).items()
                      if not VScalar.coerce(c).is_zero()}

    @staticmethod
    def zeta(k: int = 1) -> "N1Boundary":
        return N1Boundary({k: ONE})

    @staticmethod
    def one() -> "N1Boundary":
        return N1Boundary({0: ONE})

    @staticmethod
    def from_boundary(p: NCPoly) -> "N1Boundary":
        """Image of an n = 1 boundary-algebra element: zeta^j zeta*^k maps
        to zeta^{j-k} with no q factors (unitarity is an exact relation)."""
        def exponent(w):
            j, k = bidegree(p.alg, w)
            return j - k
        return N1Boundary(add_terms({}, ((exponent(w), c) for w, c in p.terms.items())))

    def __mul__(self, other: "N1Boundary") -> "N1Boundary":
        return N1Boundary(add_terms({}, ((k1 + k2, c1 * c2)
                                         for k1, c1 in self.terms.items()
                                         for k2, c2 in other.terms.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, N1Boundary):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"N1Boundary({ {k: c.to_text() for k, c in self.terms.items()} })"


def nu_n1(p: N1Boundary) -> VScalar:
    """The invariant integral for n = 1: the constant term."""
    return p.terms.get(0, ZERO)
