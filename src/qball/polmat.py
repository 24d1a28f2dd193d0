"""The *-algebra Pol(Mat_n)_q and its companions.

Wick normal form itself lives in ``qball.algebras``; this module adds the
pieces of function theory on top of it:

* the element ``y`` whose classical limit is det(1 - z z*),
* the localized holomorphic algebra C[GL_n]_q with the involution
  z -> (-q)^{a+alpha-2n} det_q^{-1} (complementary minor), in which
  ``shilov_residuals_gl`` checks the unitarity relations that the Shilov
  reduction uses, read from the one list of them
  (``qball.boundary.unitarity_relations``).

Box-truncated elements are ``qball.kernels.Kernel``s.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .algebras import matrix_algebra, pol_algebra, star_poly
from .boundary import unitarity_relations
from .ncpoly import Algebra, NCPoly, add_terms
from .qmatrix import qdet, qminor
from .scalars import ONE, VScalar, neg_qpow


# ---------------------------------------------------------------------------
# the element y = 1 + sum_k (-1)^k sum_{J', J''} minor (minor)^*
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def y_element(n: int) -> NCPoly:
    """1 + sum over k of (-1)^k sums of z-minors times their stars; the
    classical limit is det(1 - z z*).  Formed once per n."""
    alg = pol_algebra(n)
    acc = {(): ONE}
    rng = range(1, n + 1)
    for k in range(1, n + 1):
        sign = VScalar.from_int((-1) ** k)
        for rows in combinations(rng, k):
            for cols in combinations(rng, k):
                m = qminor(alg, rows, cols, cls="z")
                add_terms(acc, (m * star_poly(m)).scale(sign).terms.items())
    return NCPoly(alg, acc)


# ---------------------------------------------------------------------------
# C[GL_n]_q: holomorphic polynomials localized at the central det_q
# ---------------------------------------------------------------------------

class GLnElement:
    """poly * det_q^{-dpow} with dpow >= 0, stored as given.

    There is no reduced form: the same element has one representation for
    every large enough power.  A product adds the powers, and :meth:`sum`
    brings every term to the largest power before it adds.  Equality
    cross-multiplies, and an element is zero exactly when its polynomial
    part is, because det_q is central and C[GL_n]_q is a domain."""

    __slots__ = ("n", "poly", "dpow")

    def __init__(self, n: int, poly: NCPoly, dpow: int = 0):
        self.n = n
        self.poly = poly
        self.dpow = dpow

    @staticmethod
    def algebra(n: int) -> Algebra:
        return matrix_algebra(n, n, cls="z")

    @staticmethod
    def of_gen(n: int, a: int, alpha: int) -> "GLnElement":
        return GLnElement(n, GLnElement.algebra(n).gen("z", a, alpha))

    @staticmethod
    def one(n: int) -> "GLnElement":
        return GLnElement(n, GLnElement.algebra(n).one())

    @property
    def alg(self) -> Algebra:
        return self.poly.alg

    def __mul__(self, other: "GLnElement") -> "GLnElement":
        return GLnElement(self.n, self.poly * other.poly, self.dpow + other.dpow)

    @staticmethod
    def sum(n: int, elems: list) -> "GLnElement":
        """One sum over the largest det_q power of the terms; a term already
        at that power is taken as it is."""
        alg = GLnElement.algebra(n)
        det = qdet(alg, n, cls="z")
        e = max((x.dpow for x in elems), default=0)
        return GLnElement(n, alg.sum(
            x.poly if x.dpow == e else x.poly * det ** (e - x.dpow) for x in elems), e)

    def __add__(self, other: "GLnElement") -> "GLnElement":
        return GLnElement.sum(self.n, [self, other])

    def __sub__(self, other: "GLnElement") -> "GLnElement":
        return self + other.scale(VScalar.from_int(-1))

    def scale(self, c) -> "GLnElement":
        return GLnElement(self.n, self.poly.scale(c), self.dpow)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GLnElement):
            return NotImplemented
        det = qdet(self.alg, self.n, cls="z")
        return (self.poly * det ** other.dpow) == (other.poly * det ** self.dpow)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def star(self) -> "GLnElement":
        """The C[GL_n]_q involution, extended antimultiplicatively."""
        terms = []
        for w, c in self.poly.terms.items():
            term = GLnElement(self.n, self.alg.scalar(c))
            for g in reversed(w):
                a, alpha = self.alg.gens[g].i, self.alg.gens[g].j
                term = term * gl_star_gen(self.n, a, alpha)
            terms.append(term)
        acc = GLnElement.sum(self.n, terms)
        if self.dpow:
            # star(det^-e) = (star det)^-e and star(det) = c * det^-1
            c = _det_star_scale(self.n)
            acc = acc.scale(c ** (-self.dpow))
            new_dpow = acc.dpow - self.dpow
            # det_q is central, so det_q^dpow cancels against acc's power
            if new_dpow >= 0:
                acc = GLnElement(self.n, acc.poly, new_dpow)
            else:
                det = qdet(self.alg, self.n, cls="z")
                acc = GLnElement(self.n, acc.poly * det ** (-new_dpow), 0)
        return acc


def gl_star_gen(n: int, a: int, alpha: int) -> GLnElement:
    """(z_a^alpha)* = (-q)^{a+alpha-2n} det_q^{-1} (complementary minor)."""
    alg = GLnElement.algebra(n)
    rng = range(1, n + 1)
    minor = qminor(alg, [x for x in rng if x != a],
                   [x for x in rng if x != alpha], cls="z")
    return GLnElement(n, minor.scale(neg_qpow(a + alpha - 2 * n)), 1)


@lru_cache(maxsize=None)
def _det_star_scale(n: int) -> VScalar:
    """star(det_q) = c * det_q^{-1}; computes and caches c, checking the shape.

    With star(det_q) = S det_q^{-d}, the shape holds exactly when d >= 1 and
    S = c det_q^{d-1}, because det_q is central and the algebra is a domain.
    c is read off the leading (smallest degree-lex) word of det_q^{d-1}."""
    alg = GLnElement.algebra(n)
    det = qdet(alg, n, cls="z")
    starred = GLnElement(n, det, 0).star()
    if starred.dpow >= 1:
        base = det ** (starred.dpow - 1)
        lead = min(base.terms, key=lambda w: (len(w), w))
        c = starred.poly.coeff(lead) * base.terms[lead].inverse()
        if c and starred.poly == base.scale(c):
            return c
    raise ArithmeticError("star(det_q) is not a scalar multiple of det_q^{-1}")


def shilov_residuals_gl(n: int):
    """The unitarity relations of the Shilov reduction
    (``qball.boundary.unitarity_relations``) evaluated in the C[GL_n]_q
    model, as (label, sum coeff z_a^alpha (z_b^beta)* - const).

    All must vanish identically; the row family is what justifies adding
    the transposed relations to the boundary reduction.  A zero constant
    adds no term, so no det_q power is formed for it.
    """
    res = []
    for label, terms, const in unitarity_relations(n):
        elems = [(GLnElement.of_gen(n, a, alpha) * gl_star_gen(n, b, beta)).scale(coeff)
                 for coeff, (a, alpha, b, beta) in terms]
        if const:
            elems.append(GLnElement.one(n).scale(-const))
        res.append((label, GLnElement.sum(n, elems)))
    return res
