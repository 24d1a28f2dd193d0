"""Mixed second derivatives at zero and the two quantum Hua systems.

System A sums over the lower index with weights q^{2c}; system B is the
transposed extraction over the upper index.  Both are checked at the kernel
level (the coefficients of the Poisson kernel's (1,1) component reduce to
zero on the Shilov boundary) and, for n = 1, at the integral level on
explicit Poisson integrals of boundary functions.  Both levels read the
derivatives off a ``Kernel``: an n = 1 Poisson integral is a kernel with
empty second legs, and U_q acts on it through ``Kernel.act``.

The two ``verify_hua_*`` checkers return labelled residuals, ``[(key, r)]``
with every r required to vanish; ``suites`` turns them into a report.
"""

from __future__ import annotations

from .boundary import shilov_reduce
from .kernels import (Kernel, exponent_groups, poisson_integral_n1, poisson_kernel,
                      poisson_space)
from .ncpoly import NCPoly, add_terms
from .scalars import ONE, VScalar, qpow
from .uqact import chevalley_gens


def _word_11(alg, b: int, beta: int, a: int, alpha: int) -> tuple:
    return (alg.gen_code("z", b, beta), alg.gen_code("zs", a, alpha))


def first_leg_groups(P: Kernel) -> dict:
    """The terms of P whose first-leg word has two letters, the only ones a
    second derivative at zero reads, grouped by that word in one pass over
    the kernel, {w1: [(key, coeff), ...]}, so that each derivative of P is
    one lookup."""
    groups: dict = {}
    for key, c in P.terms.items():
        if len(key[4]) == 2:
            groups.setdefault(key[4], []).append((key, c))
    return groups


def d2_at_zero_kernel(P: Kernel, b: int, beta: int, a: int, alpha: int,
                      groups: dict = None) -> NCPoly:
    """Kernel-valued derivative: the second legs paired with the first-leg
    basis word z_b^beta (z_a^alpha)*.  ``groups`` is
    :func:`first_leg_groups` of P, passed by a caller that extracts many
    derivatives of one kernel; it is formed here when omitted."""
    sp = P.space
    if groups is None:
        groups = first_leg_groups(P)
    terms = groups.get(_word_11(sp.leg1.alg, b, beta, a, alpha), ())
    if any(key[:4] != (0, 0, 0, 0) for key, _ in terms):
        raise ValueError("kernel carries powers; derivative undefined")
    return NCPoly(sp.leg2.alg, add_terms({}, ((key[5], c) for key, c in terms)))


def _weights(n: int, weighted: bool) -> list:
    return [qpow(2 * c) if weighted else ONE for c in range(1, n + 1)]


def hua_sum_A(u: Kernel, n: int, alpha: int, beta: int,
              weighted: bool = True, groups: dict = None) -> NCPoly:
    """sum_c q^{2c} d2(u; c, beta, c, alpha); ``groups`` as for
    :func:`d2_at_zero_kernel`."""
    w = _weights(n, weighted)
    if groups is None:
        groups = first_leg_groups(u)
    return u.space.leg2.alg.sum(
        d2_at_zero_kernel(u, c, beta, c, alpha, groups).scale(w[c - 1])
        for c in range(1, n + 1))


def hua_sum_B(u: Kernel, n: int, a: int, b: int,
              weighted: bool = True, groups: dict = None) -> NCPoly:
    """sum_gamma q^{2 gamma} d2(u; a, gamma, b, gamma); ``groups`` as for
    :func:`d2_at_zero_kernel`."""
    w = _weights(n, weighted)
    if groups is None:
        groups = first_leg_groups(u)
    return u.space.leg2.alg.sum(
        d2_at_zero_kernel(u, a, g, b, g, groups).scale(w[g - 1])
        for g in range(1, n + 1))


def verify_hua_kernel(P: Kernel, weighted: bool = True) -> list:
    """Both Hua systems on the Poisson kernel P: for every index pair the
    weighted derivative sum, reduced on the Shilov boundary, must vanish.
    P's terms are grouped by first-leg word once for all the sums.

    Returns [((system, (x, y)), residual)], system A first; with
    ``weighted=False`` the q^{2c} weights are dropped (negative control).
    """
    n = P.space.n
    groups = first_leg_groups(P)
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
    return ([(("A", xy), shilov_reduce(hua_sum_A(P, n, *xy, weighted, groups)))
             for xy in pairs]
            + [(("B", xy), shilov_reduce(hua_sum_B(P, n, *xy, weighted, groups)))
               for xy in pairs])


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
    words that share a suffix share its value (as ``uqact._suffix_value``).
    P's terms are grouped by second-leg exponent once
    (:func:`~qball.kernels.exponent_groups`) for all the integrals, as
    :func:`first_leg_groups` serves all the derivatives of one kernel.
    """
    P = poisson_kernel(1, cutoff)
    exponents = exponent_groups(P)
    out = []
    for fi, f in enumerate(fs):
        acted = {(): poisson_integral_n1(P, f, exponents)}
        for xi in xi_words:
            for j in range(len(xi) - 1, -1, -1):
                if xi[j:] not in acted:
                    acted[xi[j:]] = acted[xi[j + 1:]].act(xi[j])
            v = acted[xi]
            key = (fi, tuple(map(repr, xi)))
            groups = first_leg_groups(v)
            out += [(key + ("A",), hua_sum_A(v, 1, 1, 1, groups=groups)),
                    (key + ("B",), hua_sum_B(v, 1, 1, 1, groups=groups))]
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
                    w1 = _word_11(sp.leg1.alg, b, beta, a, alpha)
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
