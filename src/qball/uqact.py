"""The U_q sl_2n side: generator actions, Leibniz extension, soundness checks.

Action tables assign to every algebra generator the value of E_i, F_i and
the K_i^{+-1} eigenvalue, for i = 1..2n-1.  Words are acted on through the
module-algebra rules

    K(fg) = K(f) K(g),
    E(fg) = E(f) g + K(f) E(g),
    F(fg) = F(f) K^{-1}(g) + f F(g),

which encode the comultiplication Delta(E) = E x 1 + K x E and
Delta(F) = F x K^{-1} + 1 x F.  Every generator is a weight vector whose
K_i eigenvalue is a power v^m with coefficient 1, so each table also keeps
the integer exponents m, derived from its K values once, and the K-factor
of a word is one ``vpow`` of their sum.  On a word the rules unroll into
one sum over its letters, generated in one place (``_leibniz_terms``).
``act`` feeds the terms of every word of a polynomial into one
``normalize`` call, and ``act_word`` those of a single word;
``kernels.act_leg`` applies ``act_word`` to the Wick word of a kernel leg
and adds only the closed forms for the power block.

Tables exist for the z / z* algebra and for the rectangular and square
matrix algebras.  The Shilov boundary's zeta letters are Pol's codes
renamed (``algebras.boundary_algebra``), so the second kernel leg acts
through ``pol_tables`` too.  The action on starred letters is
derived from the compatibility (a f)* = (S(a))* f*, which fixes

    E_i(f*) = +-q^{-2} (F_i f)*,     F_i(f*) = +-q^{2} (E_i f)*,

with the plus sign exactly at i = n.  The same compatibility drives the
formal involution on U_q generators (``ustar``) used by the cross-check
tests.  The relations of U_q sl_2n are skew-primitive (J. C. Jantzen,
*Lectures on Quantum Groups*, AMS 1996, ch. 4), so they and the star
compatibility are checked on generators of the algebra only, and the
module-algebra rules on the generator pairs a > b, the left sides of the
rewrite rules, only.  The relation and star checks apply U_q words right
to left through values shared word by word (``_suffix_value``), so each
acted value is formed once per input word.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .algebras import matrix_algebra, pol_algebra, star_poly
from .ncpoly import Algebra, NCPoly, normalize
from .scalars import ONE, VScalar, ZERO, qpow, vpow


class UqGen(NamedTuple):
    kind: str  # E | F | K | Kinv
    i: int

    def __repr__(self):
        base = {"E": "E", "F": "F", "K": "K", "Kinv": "K^-1"}[self.kind]
        return f"{base}_{self.i}"


def chevalley_gens(n: int) -> list:
    out = []
    for i in range(1, 2 * n):
        out += [UqGen("E", i), UqGen("F", i), UqGen("K", i), UqGen("Kinv", i)]
    return out


def counit(g: UqGen) -> VScalar:
    return ONE if g.kind in ("K", "Kinv") else ZERO


def cartan_entry(i: int, j: int) -> int:
    if i == j:
        return 2
    if abs(i - j) == 1:
        return -1
    return 0


class ActionTables:
    """E/F/K values on the generators of one algebra, for U_q sl_2n."""

    def __init__(self, alg: Algebra, n: int):
        self.alg = alg
        self.n = n
        self.E: dict = {}
        self.F: dict = {}
        self.K: dict = {}  # eigenvalue of K_i^{+1}
        self.k_exp: dict = {i: [] for i in range(1, 2 * n)}  # K_i = v^k_exp[i][code]
        for code, g in enumerate(alg.gens):
            for i in range(1, 2 * n):
                e, f, k = self._entry(g, i)
                if k.num != (1,) or k.den != (1,):
                    raise ValueError(f"K_{i} on {g}: {k.to_text()} is not a power of v")
                self.E[(i, code)] = e
                self.F[(i, code)] = f
                self.K[(i, code)] = k
                self.k_exp[i].append(k.shift)

    def _entry(self, g, i):
        raise NotImplementedError

    def k_exponent(self, i: int, word: tuple) -> int:
        """m with K_i(word) = v^m word."""
        return sum(map(self.k_exp[i].__getitem__, word))

    def k_word(self, i: int, word: tuple, inv: bool = False) -> VScalar:
        m = self.k_exponent(i, word)
        return vpow(-m if inv else m)


class MatrixActionTables(ActionTables):
    """Column action on t_{ij}; the row index is inert."""

    def _entry(self, g, i):
        alg, j = self.alg, g.j
        e = alg.gen(g.cls, g.i, j - 1).scale(vpow(-1)) if j == i + 1 else alg.zero()
        f = alg.gen(g.cls, g.i, j + 1).scale(vpow(1)) if j == i else alg.zero()
        k = qpow(1) if j == i else (qpow(-1) if j == i + 1 else ONE)
        return e, f, k


class PolActionTables(ActionTables):
    """The z_a^alpha action of Prop-type, plus the star-derived action."""

    def _entry(self, g, i):
        if g.cls == "z":
            return self._z_entry(g.i, g.j, i)
        ez, fz, kz = self._z_entry(g.i, g.j, i)
        sign = ONE if i == self.n else -ONE
        e = star_poly(fz).scale(sign * qpow(-2))
        f = star_poly(ez).scale(sign * qpow(2))
        return e, f, kz.inverse()

    def _z_entry(self, a, al, i):
        alg, n = self.alg, self.n
        if i == n:
            # the one-index-n eigenvalue is forced to q (not q^-1) by weight
            # additivity under the z-relations; cf. the minor picture where
            # z_a^alpha = t^-1 (row minor), K_n t = q^-1 t
            if a == n and al == n:
                k = qpow(2)
            elif a == n or al == n:
                k = qpow(1)
            else:
                k = ONE
            if a == n and al == n:
                e = (alg.gen("z", n, n) * alg.gen("z", n, n)).scale(-vpow(1))
                f = alg.scalar(vpow(1))
            elif a != n and al != n:
                e = (alg.gen("z", a, n) * alg.gen("z", n, al)).scale(-vpow(-1))
                f = alg.zero()
            else:
                e = (alg.gen("z", n, n) * alg.gen("z", a, al)).scale(-vpow(1))
                f = alg.zero()
            return e, f, k
        if i < n:
            k = qpow(1) if a == i else (qpow(-1) if a == i + 1 else ONE)
            e = alg.gen("z", a - 1, al).scale(vpow(-1)) if a == i + 1 else alg.zero()
            f = alg.gen("z", a + 1, al).scale(vpow(1)) if a == i else alg.zero()
            return e, f, k
        # i > n
        k = qpow(1) if al == 2 * n - i else (qpow(-1) if al == 2 * n - i + 1 else ONE)
        e = (alg.gen("z", a, al - 1).scale(vpow(-1))
             if al == 2 * n - i + 1 else alg.zero())
        f = (alg.gen("z", a, al + 1).scale(vpow(1))
             if al == 2 * n - i else alg.zero())
        return e, f, k


@lru_cache(maxsize=None)
def pol_tables(n: int) -> ActionTables:
    return PolActionTables(pol_algebra(n), n)


@lru_cache(maxsize=None)
def rect_tables(n: int) -> ActionTables:
    return MatrixActionTables(matrix_algebra(n, 2 * n), n)


# ---------------------------------------------------------------------------
# the action itself
# ---------------------------------------------------------------------------

def _leibniz_terms(t: ActionTables, g: UqGen, word: tuple, c: VScalar,
                   out: list) -> list:
    """Append the terms of c g(word) to ``out``, for g = E_i or F_i, by the
    Leibniz rules unrolled over the letters of the word,
    E(w) = sum_k K(w_<k) w_<k E(w_k) w_>k and
    F(w) = sum_k w_<k F(w_k) K^-1(w_>k) w_>k.
    E walks left to right carrying the exponent of K(w_<k), F right to
    left carrying that of K(w_>k).  The words are not normalised."""
    is_e = g.kind == "E"
    table = t.E if is_e else t.F
    k_exp = t.k_exp[g.i]
    positions = range(len(word)) if is_e else range(len(word) - 1, -1, -1)
    m = 0
    for pos in positions:
        letter = word[pos]
        value = table[(g.i, letter)].terms
        if value:
            s = c * vpow(m if is_e else -m) if m else c
            head, tail = word[:pos], word[pos + 1:]
            out += [(head + u + tail, s * cu) for u, cu in value.items()]
        m += k_exp[letter]
    return out


def _normal_form(alg: Algebra, terms: list) -> NCPoly:
    """``normalize`` of a term list, with no call when the list is empty."""
    return normalize(alg, terms) if terms else alg.zero()


def act_word(t: ActionTables, g: UqGen, word: tuple) -> NCPoly:
    """``g`` on a word: K_i^{+-1} scales it by one power of v, and E_i or
    F_i give the Leibniz sum of ``_leibniz_terms`` normalised in one call,
    or zero without a call when ``g`` kills every letter."""
    if g.kind in ("K", "Kinv"):
        return NCPoly(t.alg, {word: t.k_word(g.i, word, inv=g.kind == "Kinv")})
    return _normal_form(t.alg, _leibniz_terms(t, g, word, ONE, []))


def act(t: ActionTables, g: UqGen, p: NCPoly) -> NCPoly:
    """``g`` on a polynomial.  K_i^{+-1} scales each word by its power of
    v.  For E_i and F_i the Leibniz terms of every word of p, with its
    coefficient folded in, go into one ``normalize`` call."""
    if g.kind in ("K", "Kinv"):
        inv = g.kind == "Kinv"
        return NCPoly(t.alg, {w: c * t.k_word(g.i, w, inv)
                              for w, c in p.terms.items()})
    terms: list = []
    for w, c in p.terms.items():
        _leibniz_terms(t, g, w, c, terms)
    return _normal_form(t.alg, terms)


def _suffix_value(t: ActionTables, acted: dict, gens: tuple) -> NCPoly:
    """The U_q word g_1 ... g_k, applied right to left, on the polynomial
    ``acted[()]``.  The value of every suffix g_j ... g_k is formed once and
    kept in ``acted``, so words that share a suffix share its value."""
    hit = acted.get(gens)
    if hit is None:
        hit = acted[gens] = act(t, gens[0], _suffix_value(t, acted, gens[1:]))
    return hit


def _expr_value(t: ActionTables, acted: dict, expr: list) -> NCPoly:
    """A formal combination sum c * (g_1 ... g_k) of U_q words on
    ``acted[()]``, through the shared suffix values of ``acted``."""
    return t.alg.sum(_suffix_value(t, acted, gens).scale(c) for c, gens in expr)


# ---------------------------------------------------------------------------
# the star structure of U_q su_{n,n} and the antipode on generators
# ---------------------------------------------------------------------------

def antipode(g: UqGen) -> list:
    """S on generators, as a formal expression."""
    if g.kind == "E":
        return [(-ONE, (UqGen("Kinv", g.i), UqGen("E", g.i)))]
    if g.kind == "F":
        return [(-ONE, (UqGen("F", g.i), UqGen("K", g.i)))]
    if g.kind == "K":
        return [(ONE, (UqGen("Kinv", g.i),))]
    return [(ONE, (UqGen("K", g.i),))]


def ustar(g: UqGen, n: int) -> list:
    """The U_q su_{n,n} involution on generators (sign flip at i = n)."""
    sign = -ONE if g.i == n else ONE
    if g.kind == "E":
        return [(sign, (UqGen("K", g.i), UqGen("F", g.i)))]
    if g.kind == "F":
        return [(sign, (UqGen("E", g.i), UqGen("Kinv", g.i)))]
    return [(ONE, (g,))]


def star_expr(expr: list, n: int) -> list:
    """Extend ustar antimultiplicatively to formal words."""
    out = []
    for c, gens in expr:
        parts = [(c, ())]
        for g in reversed(gens):
            sg = ustar(g, n)
            parts = [(c1 * c2, w1 + w2) for c1, w1 in parts for c2, w2 in sg]
        out.extend(parts)
    return out


def star_of_antipode(g: UqGen, n: int) -> list:
    return star_expr(antipode(g), n)


# ---------------------------------------------------------------------------
# soundness checks: tables respect relations; operator relations hold
# ---------------------------------------------------------------------------

def module_algebra_residuals(t: ActionTables):
    """act(xi, a b) minus the Leibniz combination, over the generator pairs
    a > b and all Chevalley generators xi.  All residuals must vanish; this
    is what catches transcription errors in the action tables.

    The pairs a > b are the left sides of the rewrite rules, the defining
    relations of the algebra (G. Bergman, *The diamond lemma for ring
    theory*, Adv. Math. 29, 1978), and only they are checked.  For a <= b
    the word a b is its own normal form, so both sides are the Leibniz
    terms of one word: one computation, which cannot fail.

    The left side acts on the normal form of a b.  The right side,
    E(a) b + K(a) a E(b) or F(a) K^-1(b) b + a F(b), is the Leibniz sum on
    the word a b itself, read straight from the tables.  The left side's
    Leibniz terms and the right side's, negated, go into one ``normalize``
    call, whose value is lhs - rhs.  For K the right side is K(a) K(b) a b.
    """
    alg = t.alg
    out = []
    for ga in range(alg.ngens()):
        for gb in range(ga):
            prod = alg.monomial((ga, gb))
            for i in range(1, 2 * t.n):
                for kind in ("E", "F", "K"):
                    g = UqGen(kind, i)
                    if kind == "K":
                        r = act(t, g, prod) - prod.scale(t.K[(i, ga)] * t.K[(i, gb)])
                    else:
                        terms = _leibniz_terms(t, g, (ga, gb), -ONE, [])
                        for w, c in prod.terms.items():
                            _leibniz_terms(t, g, w, c, terms)
                        r = _normal_form(alg, terms)
                    if not r.is_zero():
                        out.append(((kind, i, ga, gb), r))
    return out


def _relations(n: int):
    """(label, expr) for each relation of U_q sl_2n that
    :func:`operator_relation_residuals` checks, in order: K E K^-1 =
    q^{a_ij} E, K F K^-1 = q^{-a_ij} F, [E_i, F_j] = delta_ij (K_i -
    K_i^-1)/(q - q^-1), then Serre for |i - j| = 1 and commutation for
    |i - j| > 1.  Each expr is a formal combination for ``_expr_value``."""
    qm_inv = (qpow(1) - qpow(-1)).inverse()
    q1 = qpow(1) + qpow(-1)
    rng = range(1, 2 * n)
    for i in rng:
        for j in rng:
            E_i, E_j = UqGen("E", i), UqGen("E", j)
            F_i, F_j = UqGen("F", i), UqGen("F", j)
            K_i, Kinv_i = UqGen("K", i), UqGen("Kinv", i)
            a = cartan_entry(i, j)
            yield ("KE", i, j), [(ONE, (K_i, E_j, Kinv_i)), (-qpow(a), (E_j,))]
            yield ("KF", i, j), [(ONE, (K_i, F_j, Kinv_i)), (-qpow(-a), (F_j,))]
            expr = [(ONE, (E_i, F_j)), (-ONE, (F_j, E_i))]
            if i == j:
                expr += [(-qm_inv, (K_i,)), (qm_inv, (Kinv_i,))]
            yield ("EF", i, j), expr
            if i == j:
                continue
            if abs(i - j) == 1:
                yield ("SerreE", i, j), [(ONE, (E_i, E_i, E_j)),
                                         (-q1, (E_i, E_j, E_i)),
                                         (ONE, (E_j, E_i, E_i))]
                yield ("SerreF", i, j), [(ONE, (F_i, F_i, F_j)),
                                         (-q1, (F_i, F_j, F_i)),
                                         (ONE, (F_j, F_i, F_i))]
            else:
                yield ("commE", i, j), [(ONE, (E_i, E_j)), (-ONE, (E_j, E_i))]
                yield ("commF", i, j), [(ONE, (F_i, F_j)), (-ONE, (F_j, F_i))]


def operator_relation_residuals(t: ActionTables, words):
    """Serre and commutation relations as operators on the given words.

    On 1 and the generators this proves them on the whole algebra.  The
    rules of ``act_word`` say Delta(E) = E x 1 + K x E and
    Delta(F) = F x K^-1 + 1 x F.  Each relator R is skew-primitive,
    Delta(R) = R x g + h x R with g, h grouplike: R = K_i E_j K_i^-1 -
    q^a E_j gives R x 1 + K_j x R, and KF likewise; modulo those, EF gives
    R x K_j^-1 + K_i x R (the cross terms K_i F_j x E_i K_j^-1 and
    F_j K_i x K_j^-1 E_i cancel as a_ij = a_ji), and so do Serre and comm.
    So R(f f') = R(f) g(f') + h(f) R(f'), and R 1 = eps(R) 1 = 0: the kernel
    of R is a subalgebra containing 1, once ``module_algebra_residuals``
    and the ``confluence`` suite make ``act`` a module-algebra action.

    Each U_q word g_1 ... g_k is applied right to left.  Word by word, the
    value of every suffix g_j ... g_k on the input word is formed once and
    shared by all the relations that contain it (``_suffix_value``); the
    residual kept for a relation is the one on the first input word where
    it fails.
    """
    relations = list(_relations(t.n))
    failed: dict = {}
    for w in words:
        acted = {(): NCPoly(t.alg, {w: ONE})}
        for label, expr in relations:
            if label not in failed:
                r = _expr_value(t, acted, expr)
                if not r.is_zero():
                    failed[label] = r
    return [(label, failed[label]) for label, _ in relations if label in failed]


def star_compat_residuals(t: ActionTables, words):
    """(a f)* = (S(a))* f* on the given words, for all Chevalley generators.

    On 1 and the generators this proves it on the whole algebra.
    Delta(x*) = (* x *) Delta(x) holds on E and F by hand (Delta(E*) =
    +-(K F x 1 + K x K F), and likewise for F), and Delta(S(a)) =
    (S x S) Delta^op(a).  So for Delta(a) = sum a' x a'', both
    (a (f g))* = sum (a'' g)* (a' f)* and S(a)* (g* f*) =
    sum (S(a'')* g*)(S(a')* f*).  Every a', a'' is 1 or a Chevalley
    generator, so the f for which it holds for every Chevalley a form a
    subalgebra (``star_poly`` is antimultiplicative, the ``star`` suite).

    Word by word, the right sides share their acted values as in
    :func:`operator_relation_residuals`: (S(E_i))*, (S(F_i))* and (S(K_i))*
    all end in K_i^-1, whose value on f* is formed once.
    Returns [((g, w), residual)] for the pairs where it fails.
    """
    exprs = [(g, star_of_antipode(g, t.n)) for g in chevalley_gens(t.n)]
    out = []
    for w in words:
        p = NCPoly(t.alg, {w: ONE})
        acted = {(): star_poly(p)}
        for g, expr in exprs:
            lhs = star_poly(act(t, g, p))
            rhs = _expr_value(t, acted, expr)
            if lhs != rhs:
                out.append(((g, w), lhs - rhs))
    return out
