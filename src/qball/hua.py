"""Mixed second derivatives at zero and the two quantum Hua systems.

The second derivative at zero d2(u; b, beta, a, alpha) of a kernel u is the
second-leg polynomial paired with the first-leg basis word
z_b^beta (z_a^alpha)*: the sum of the second legs of the terms of u whose
first leg is that word, defined when those terms carry no powers.  System A sums
d2(u; c, beta, c, alpha) over the lower index c with weights q^{2c};
system B sums d2(u; a, gamma, b, gamma) over the upper index gamma with
weights q^{2 gamma}.  A word z_c^gamma (z_c^gamma)* is read by both systems.

Both systems are read in one pass over the kernel's terms
(:func:`hua_sums`).  They are checked at the kernel level (the coefficients
of the Poisson kernel's (1,1) component reduce to zero on the Shilov
boundary) and, for n = 1, at the integral level on explicit Poisson
integrals of boundary functions.  An n = 1 Poisson integral is a kernel with
empty second legs, and U_q acts on it through ``Kernel.act``.

The two ``verify_hua_*`` checkers return labelled residuals, ``[(key, r)]``
with every r required to vanish; ``suites`` turns them into a report.
"""

from __future__ import annotations

from .boundary import shilov_reduce
from .kernels import Kernel, poisson_integral_n1, poisson_kernel, poisson_space
from .ncpoly import NCPoly, add_terms
from .scalars import ONE, VScalar, qpow
from .uqact import chevalley_gens, suffix_value


def hua_sums(u: Kernel, weighted: bool = True) -> list:
    """Both Hua systems of u, read in one pass over its terms.

    A term whose first leg is z_b^beta (z_a^alpha)* adds its second leg to
    A(alpha, beta) when b = a = c, weighted by q^{2c}, and to B(b, a) when
    beta = alpha = gamma, weighted by q^{2 gamma}.  A term that either system
    reads must carry no powers.  Returns [((system, (x, y)), NCPoly)],
    system A first and each system in row-major (x, y) order; with
    ``weighted=False`` the weights are dropped (negative control).
    """
    n = u.space.n
    gens = u.space.leg1.alg.gens
    w = [qpow(2 * c) if weighted else ONE for c in range(n + 1)]
    sums = {(s, (x, y)): {} for s in "AB"
            for x in range(1, n + 1) for y in range(1, n + 1)}
    for key, c in u.terms.items():
        if len(key[4]) != 2:
            continue
        z, zs = (gens[g] for g in key[4])
        if z.cls != "z" or zs.cls != "zs":
            continue
        reads = []
        if z.i == zs.i:
            reads.append((("A", (zs.j, z.j)), w[z.i]))
        if z.j == zs.j:
            reads.append((("B", (z.i, zs.i)), w[z.j]))
        if reads and key[:4] != (0, 0, 0, 0):
            raise ValueError("kernel carries powers; derivative undefined")
        for label, weight in reads:
            add_terms(sums[label], ((key[5], c * weight),))
    alg2 = u.space.leg2.alg
    return [(label, NCPoly(alg2, t)) for label, t in sums.items()]


def verify_hua_kernel(P: Kernel, weighted: bool = True) -> list:
    """Both Hua systems on the Poisson kernel P: every weighted derivative
    sum of :func:`hua_sums`, reduced on the Shilov boundary, must vanish.
    Returns [((system, (x, y)), residual)] in the order of :func:`hua_sums`."""
    return [(label, shilov_reduce(s)) for label, s in hua_sums(P, weighted)]


def generator_words(n: int, max_len: int) -> list:
    """All words in the Chevalley generators up to the given length,
    including the empty word."""
    gens = chevalley_gens(n)
    words = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (g,) for w in layer for g in gens]
        words += layer
    return words


def verify_hua_theorem_n1(fs: list, xi_words: list, cutoff: int) -> list:
    """The integral-level theorem for n = 1: for each boundary function f
    and each generator word xi, both Hua sums of xi (P f) vanish.

    Each Poisson integral is a kernel with empty second legs, so xi acts
    through ``Kernel.act`` and the Hua sums are multiples of 1 on the
    second leg.  Returns [((f index, xi reprs, system), sum)].  The (1,1)
    extraction needs components up to (1 + |xi|, 1 + |xi|), so a word
    with 1 + |xi| > cutoff reads a truncated component.  The value of every
    suffix of xi on P f is formed once per f and kept in ``acted``, so
    words that share a suffix share its value (``uqact.suffix_value``).
    All the integrals come from one call, which groups P's terms by
    second-leg exponent once (:func:`~qball.kernels.poisson_integral_n1`).
    """
    out = []
    for fi, u in enumerate(poisson_integral_n1(poisson_kernel(1, cutoff), fs)):
        acted = {(): u}
        for xi in xi_words:
            v = suffix_value(lambda g, k: k.act(g), acted, xi)
            key = (fi, tuple(map(repr, xi)))
            out += [(key + (system,), s) for (system, _), s in hua_sums(v)]
    return out


# ---------------------------------------------------------------------------
# the displayed form of the (1,1) component
# ---------------------------------------------------------------------------

def p11_formula_kernel(n: int, cutoff: int) -> Kernel:
    """The displayed (1,1) component: for each (a, b, alpha, beta) the
    boundary coefficient

        (1-q^{-2n})/(1-q^{-2}) q^{2(2n-a-alpha)} zeta_a^alpha (zeta_b^beta)*
        - delta_ab delta^{alpha beta}

    paired with the first-leg Wick monomial z_b^beta (z_a^alpha)*  (the
    op-algebra reading of the displayed product)."""
    sp = poisson_space(n, cutoff)
    geo = (ONE - qpow(-2 * n)) / (ONE - qpow(-2))
    terms: dict = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for alpha in range(1, n + 1):
                for beta in range(1, n + 1):
                    w1 = (sp.leg1.alg.gen_code("z", b, beta),
                          sp.leg1.alg.gen_code("zs", a, alpha))
                    w2 = (sp.leg2.alg.gen_code("zeta", a, alpha),
                          sp.leg2.alg.gen_code("zetas", b, beta))
                    c = geo * qpow(2 * (2 * n - a - alpha))
                    add_terms(terms, (((0, 0, 0, 0, w1, w2), c),))
                    if a == b and alpha == beta:
                        add_terms(terms, (((0, 0, 0, 0, w1, ()), -ONE),))
    return Kernel(sp, terms)


def p11_scalar(n: int) -> VScalar:
    """(1 - q^{2n})/(1 - q^2): the (1,1) component of the normalised Poisson
    kernel is this multiple of :func:`p11_formula_kernel`."""
    return (ONE - qpow(2 * n)) / (ONE - qpow(2))


def match_up_to_scalar(k1: Kernel, k2: Kernel):
    """If k1 == c * k2 for a single nonzero scalar c, return c, else None."""
    if k1.is_zero() or k2.is_zero():
        return ONE if k1.is_zero() and k2.is_zero() else None
    key = next(iter(sorted(k2.terms, key=repr)))
    c1 = k1.terms.get(key)
    if c1 is None:
        return None
    c = c1 / k2.terms[key]
    return c if k1 == k2.scale(c) else None
