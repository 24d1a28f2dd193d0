"""Invariant kernels for the quantum matrix ball.

A kernel lives in (first leg) x (second leg) where the first leg multiplies
in the opposite order.  Terms are stored as

    coeff * (t^a t*^b . w1)  x  (tau^c tau*^d . w2)

with the power blocks on the left of each leg and w1, w2 Wick-normal words.
The product rule is the single point of truth for the op-convention:

    (T1)(T2):  first leg  = (t-block2 . w2) (t-block1 . w1)   [opposite]
               second leg = (tau-block1 . u1)(tau-block2 . u2)

and a power block moves left through a word with the scalar
q^{(power sum) * (z-count - z*-count)}, which encodes t z = q^-1 z t and
t z* = q z* t together with their starred versions.

Truncation drops words whose bidegree exceeds the cutoff box in either
coordinate on either leg and raises the sticky ``truncated`` flag.  The two
counts of a word sum to its length, so a word no longer than the cutoff is
inside the box and only longer words are looked up by ``bidegree``.  The
pipeline orders products so that contributions to components inside the box
never route through dropped terms.  Before the y-substitution, z-blocks only
ever grow to the left of z*-blocks.  The substitution forms the in-box part
Y_m of y^m once per power m, by m left multiplications by y each cut to the
box, and applies it to a word by the q-normality of y^m, which splits the
product into a z-block and a z*-block; the parts outside the box are
skipped.  Both cuts are exact because left multiplication by y never lowers
the z-count or the z*-count of a word (see :func:`substitute_x_inverse`).
So in-box components of the Poisson kernel are exact.

Products apply the box before ``normalize`` where that keeps the flag.
For Wick words of bidegree (a, b) and (c, d), every term of the normal
form of the product has bidegree at least (a + c - min(b, c),
b + d - min(b, c)) (:func:`_wick_floor`), so a pair of terms whose bound
leaves the box on either leg feeds only terms that would be dropped.
``Kernel.__mul__`` groups each operand's terms by their four leg counts
and skips such a pair of groups when an operand is flagged already.
With two unflagged operands it keeps every pair, so the flag still says
exactly whether the full product has a nonzero term outside the box.
Within a kept pair, a leg product of two normal words whose junction is
ordered (either word empty, or the last letter of the left word at most the
first of the right, :func:`_ordered`) is its own normal form: normal words
are the non-decreasing code tuples, and the concatenation is one, so it
never reaches ``normalize``.  A pair ordered on both legs is added straight
into the product's dict; only a descending junction goes through
:func:`_leg_product`.  The scalar q^e of a pair is formed once per distinct
exponent e in each product, and not at all for e = 0.

``Kernel`` is the one box-truncated element of the package; the n = 1
Poisson integral is a kernel with empty second-leg words.  U_q acts across
the legs by the coproduct (:meth:`Kernel.act`), and on one leg through
``uqact.act`` plus closed forms for the power block (:func:`act_leg`).

Terms are accumulated with ``ncpoly.add_terms``.  A sum of many kernels
goes through :meth:`KernelSpace.sum`, which adds every summand into one
dict and constructs the result once, so the box check of ``Kernel.__init__``
runs once per summand term and once per result term.  A difference compares
before it subtracts: a key whose coefficient equals the one subtracted is
deleted, so a check whose difference is zero does no scalar arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .algebras import bidegree, boundary_algebra, pol_algebra, star_poly
from .boundary import N1Boundary, nu_n1
from .ncpoly import Algebra, NCPoly, add_terms
from .polmat import y_element
from .qmatrix import l_pairs, qminor
from .scalars import ONE, VScalar, neg_qpow, qpow, vpow
from .uqact import (ActionTables, UqGen, act_word, chevalley_gens, counit,
                    pol_tables)


class PowerSignatureError(ValueError):
    pass


class CutoffMismatchError(ValueError):
    pass


class LegContext:
    """One tensor leg: its algebra, its action tables and the codes of
    z_n^n and (z_n^n)* (zeta on the second leg), the letters that E_n and
    F_n attach to the power block.  The tables act on codes, so the two
    legs share Pol's: the second leg's algebra is Pol renamed."""

    def __init__(self, alg: Algebra, tables: ActionTables, zcls: str):
        self.alg = alg
        self.tables = tables
        n = tables.n
        self.znn = alg.gen_code(zcls, n, n)
        self.zsnn = alg.gen_code(zcls + "s", n, n)


def _leg_k_eig(ctx: LegContext, i: int, a: int, b: int, word: tuple) -> VScalar:
    """K_i on t^a t*^b word; K_n t = q^-1 t, K_n t* = q t*, others fix both.
    The eigenvalue is one power of v, formed from the summed exponents."""
    m = ctx.tables.k_exponent(i, word)
    return vpow(m + 2 * (b - a) if i == ctx.tables.n else m)


@lru_cache(maxsize=None)
def _e_power(a: int, b: int) -> VScalar:
    """e_a q^b = v^-1 [a]_q q^b, the E_n coefficient of :func:`act_leg`."""
    return vpow(-1) * qpow(b) * (qpow(a) - qpow(-a)) / (qpow(1) - qpow(-1))


@lru_cache(maxsize=None)
def _f_power(b: int) -> VScalar:
    """f_b = v (1 - q^{-2b})/(1 - q^-2), the F_n coefficient of :func:`act_leg`."""
    return vpow(1) * (ONE - qpow(-2 * b)) / (ONE - qpow(-2))


def act_leg(ctx: LegContext, g: UqGen, a: int, b: int, word: tuple) -> dict:
    """E_i or F_i on the leg element h w, h = t^a t*^b and w a Wick word.
    Returns {(a', b', w'): coeff}.

    The Leibniz rules of ``uqact`` split at the power block:

        E(h w) = E(h) w + K(h) h E(w),    F(h w) = F(h) K^-1(w) + h F(w),

    with E(w) and F(w) from ``uqact.act`` on the one-word polynomial w
    (``uqact.act_word``).  Only E_n and F_n move h, and K_n(h) = q^{b-a}.
    They act on t and t* by

        E_n t = q^{-1/2} t z_n^n,   F_n t* = q^{1/2} t* (z_n^n)*,
        E_n t* = 0,                 F_n t = 0,

    and a power block passes a word w of bidegree (j, k) on its left with
    q^{(a+b)(j-k)} (as in ``Kernel.__mul__``), so z_n^n t = q t z_n^n and
    (z_n^n)* t* = q^-1 t* (z_n^n)*.
    Write E_n(t^a) = e_a t^a z_n^n and F_n(t*^b) = f_b t*^b (z_n^n)*.
    Splitting t^a = t t^{a-1} and t*^b = t* t*^{b-1}, with K_n(t) = q^-1
    and K_n^-1(t*^{b-1}) = q^{1-b}, gives

        e_a = q^{-1/2} q^{a-1} + q^-1 e_{a-1},
        f_b = q^{1/2} q^{1-b} q^{1-b} + f_{b-1},

    for every integer a, b (read backwards from e_0 = f_0 = 0 for negative
    exponents), so e_a = v^-1 [a]_q with [a]_q = (q^a - q^-a)/(q - q^-1)
    and f_b = v (1 - q^{-2b})/(1 - q^-2).  Moving z_n^n right past t*^b
    adds q^b to E(h) = E_n(t^a) t*^b, and F(h) = t^a F_n(t*^b).  Hence

        E_n(t^a t*^b) = v^-1 [a]_q q^b  t^a t*^b z_n^n,
        F_n(t^a t*^b) = v (1 - q^{-2b})/(1 - q^-2)  t^a t*^b (z_n^n)*.

    Both closed forms are memoised by their arguments (:func:`_e_power`,
    :func:`_f_power`), so each division is made once per process.
    """
    if g.kind not in ("E", "F"):
        raise ValueError("act_leg handles E and F only")
    n = ctx.tables.n
    tail = act_word(ctx.tables, g, word).terms
    if g.i != n:
        return {(a, b, w): c for w, c in tail.items()}
    if g.kind == "E":
        out = {(a, b, w): qpow(b - a) * c for w, c in tail.items()}
        if a == 0:
            return out
        c = _e_power(a, b)
        letter = ctx.znn
    else:
        out = {(a, b, w): c for w, c in tail.items()}
        if b == 0:
            return out
        c = _f_power(b) * ctx.tables.k_word(n, word, inv=True)
        letter = ctx.zsnn
    # h z_n^n w or h (z_n^n)* w: w carries no power block, so no q-factor
    return add_terms(out, (((a, b, w), cw) for w, cw
                           in ctx.alg.monomial((letter,) + word, c).terms.items()))


class KernelSpace:
    """The bimodule context: two legs plus the bidegree cutoff."""

    def __init__(self, n: int, cutoff: int, leg1: LegContext, leg2: LegContext):
        self.n = n
        self.cutoff = cutoff
        self.leg1 = leg1
        self.leg2 = leg2

    def unit(self) -> "Kernel":
        return Kernel(self, {(0, 0, 0, 0, (), ()): ONE}, False)

    def power_term(self, a: int, b: int, c: int, d: int, coeff=ONE) -> "Kernel":
        return Kernel(self, {(a, b, c, d, (), ()): VScalar.coerce(coeff)}, False)

    def from_pair(self, p1: NCPoly, p2: NCPoly, key=(0, 0, 0, 0), coeff=ONE) -> "Kernel":
        coeff = VScalar.coerce(coeff)
        terms: dict = {}
        for w1, c1 in p1.terms.items():
            for w2, c2 in p2.terms.items():
                terms[key + (w1, w2)] = coeff * c1 * c2
        return Kernel(self, terms, False)

    def sum(self, kernels: Iterable["Kernel"]) -> "Kernel":
        """Sum of kernels of this space, built once; the flag is sticky."""
        acc: dict = {}
        truncated = False
        for k in kernels:
            if k.space is not self:
                raise CutoffMismatchError("kernels from different spaces")
            add_terms(acc, k.terms.items())
            truncated = truncated or k.truncated
        return Kernel(self, acc, truncated)


def poisson_space(n: int, cutoff: int) -> KernelSpace:
    """The shared space at (n, cutoff): kernels are compatible only when
    their spaces are the same object.  ``_space`` is called positionally:
    ``lru_cache`` caches ``f(n=1)`` and ``f(1)`` apart."""
    return _space(n, cutoff)


@lru_cache(maxsize=None)
def _space(n: int, cutoff: int) -> KernelSpace:
    # the boundary is Pol renamed, so both legs act through Pol's tables
    leg1 = LegContext(pol_algebra(n), pol_tables(n), "z")
    leg2 = LegContext(boundary_algebra(n), pol_tables(n), "zeta")
    return KernelSpace(n, cutoff, leg1, leg2)


class Kernel:
    """A truncated element of the kernel bimodule (see module docstring)."""

    __slots__ = ("space", "terms", "truncated")

    def __init__(self, space: KernelSpace, terms: dict, truncated: bool = False):
        self.space = space
        self.terms = {}
        D = space.cutoff
        alg1, alg2 = space.leg1.alg, space.leg2.alg
        dropped = False
        for key, c in terms.items():
            if c.is_zero():
                continue
            w1, w2 = key[4], key[5]
            if ((len(w1) > D and max(bidegree(alg1, w1)) > D)
                    or (len(w2) > D and max(bidegree(alg2, w2)) > D)):
                dropped = True
                continue
            self.terms[key] = c
        self.truncated = truncated or dropped

    # -- linear structure ---------------------------------------------------

    def _check(self, other: "Kernel"):
        if self.space is not other.space:
            raise CutoffMismatchError("kernels from different spaces")

    def __add__(self, other: "Kernel") -> "Kernel":
        self._check(other)
        return Kernel(self.space, add_terms(dict(self.terms), other.terms.items()),
                      self.truncated or other.truncated)

    def __sub__(self, other: "Kernel") -> "Kernel":
        self._check(other)
        terms = dict(self.terms)
        for k, x in other.terms.items():
            s = terms.get(k)
            if s is None:
                terms[k] = -x
            elif s == x:
                del terms[k]
            else:
                terms[k] = s - x
        return Kernel(self.space, terms, self.truncated or other.truncated)

    def scale(self, c) -> "Kernel":
        c = VScalar.coerce(c)
        return Kernel(self.space,
                      {k: x * c for k, x in self.terms.items()}, self.truncated)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return self.space is other.space and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        from .render import word_text
        bits = []
        for key in sorted(self.terms, key=_term_sort_key):
            a, b, c, d, w1, w2 = key
            coeff = self.terms[key].to_text()
            pw1 = _power_text("t", a) + _power_text("ts", b)
            pw2 = _power_text("tau", c) + _power_text("taus", d)
            l1 = (pw1 + "*" if pw1 else "") + word_text(self.space.leg1.alg, w1)
            l2 = (pw2 + "*" if pw2 else "") + word_text(self.space.leg2.alg, w2)
            bits.append(f"({coeff})*[{l1} (x) {l2}]")
        return "Kernel(" + (" + ".join(bits) if bits else "0") + ")"

    # -- multiplication: the op-convention lives here only -------------------

    def __mul__(self, other: "Kernel") -> "Kernel":
        """The product by the rule of the module docstring, cut to the box.

        The terms are taken group by group (:func:`_leg_groups`): the Wick
        floor and the bidegree part of the scalar
        q^{(a1+b1)(j2-k2) + (c2+d2)(m1-n1)} depend only on the pair of
        groups.  A flagged product skips every pair of groups whose first
        leg w2 w1 or second leg u1 u2 lies outside the box by the bound of
        :func:`_wick_floor`: all of its terms are ones ``Kernel.__init__``
        would drop.  When neither operand is flagged, every pair is kept,
        because out-of-box terms of different pairs may cancel, and the
        constructor must see them all to decide the flag exactly as for the
        full product.  A pair whose junctions are ordered on both legs
        (:func:`_ordered`) is added in place; the others go through
        :func:`_leg_product`, which forms the second leg once per pair with
        coefficient 1, to be scaled by each term of the first.
        """
        self._check(other)
        sp = self.space
        D = sp.cutoff
        alg1, alg2 = sp.leg1.alg, sp.leg2.alg
        truncated = self.truncated or other.truncated
        acc: dict = {}
        qpows: dict = {}
        rhs = _leg_groups(other).items()
        for (j1, k1, m1, n1), terms1 in _leg_groups(self).items():
            for (j2, k2, m2, n2), terms2 in rhs:
                if truncated and (max(_wick_floor(j2, k2, j1, k1)) > D
                                  or max(_wick_floor(m1, n1, m2, n2)) > D):
                    continue
                e1, e2 = j2 - k2, m1 - n1
                for (a1, b1, c1, d1, w1, u1), x1 in terms1:
                    s1 = (a1 + b1) * e1
                    for (a2, b2, c2, d2, w2, u2), x2 in terms2:
                        coeff = x1 * x2
                        e = s1 + (c2 + d2) * e2
                        if e:
                            q = qpows.get(e)
                            if q is None:
                                q = qpows[e] = qpow(e)
                            coeff = coeff * q
                        key_p = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
                        if _ordered(w2, w1) and _ordered(u1, u2):
                            key = key_p + (w2 + w1, u1 + u2)
                            s = acc.get(key)
                            if s is None:
                                acc[key] = coeff
                            else:
                                s = s + coeff
                                if s:
                                    acc[key] = s
                                else:
                                    del acc[key]
                            continue
                        second = _leg_product(alg2, u1, u2, ONE)
                        for wf, cf in _leg_product(alg1, w2, w1, coeff):
                            add_terms(acc, ((key_p + (wf, ws), cf * cs)
                                            for ws, cs in second))
        return Kernel(sp, acc, truncated)

    # -- the U_q action across the two legs -----------------------------------

    def act(self, g: UqGen) -> "Kernel":
        """g on the kernel through the coproduct: K x K for K_i^{+-1},
        E x 1 + K x E for E_i and F x K^-1 + 1 x F for F_i.

        The terms of a kernel share few distinct legs (over every E_i and
        F_i, L and Lbar at n = D = 3 have 3,280 legs, 1,360 of them
        distinct), so E_i and F_i apply :func:`act_leg` once per distinct
        first leg (a, b, w1) and once per distinct second leg (c, d, w2),
        and every term reads its legs' values from those two dicts.
        """
        sp = self.space
        if g.kind in ("K", "Kinv"):
            inv = g.kind == "Kinv"
            out: dict = {}
            for key, c in self.terms.items():
                a, b, cc, d, w1, w2 = key
                s = (_leg_k_eig(sp.leg1, g.i, a, b, w1)
                     * _leg_k_eig(sp.leg2, g.i, cc, d, w2))
                out[key] = c * (s.inverse() if inv else s)
            return Kernel(sp, out, self.truncated)
        keys = self.terms.keys()
        legs1 = {leg: act_leg(sp.leg1, g, *leg)
                 for leg in dict.fromkeys((k[0], k[1], k[4]) for k in keys)}
        legs2 = {leg: act_leg(sp.leg2, g, *leg)
                 for leg in dict.fromkeys((k[2], k[3], k[5]) for k in keys)}
        acc: dict = {}
        for (a, b, cc, d, w1, w2), c in self.terms.items():
            if g.kind == "E":
                s1, s2 = c, c * _leg_k_eig(sp.leg1, g.i, a, b, w1)
            else:
                s1, s2 = c * _leg_k_eig(sp.leg2, g.i, cc, d, w2).inverse(), c
            add_terms(acc, (((a2, b2, cc, d, wn, w2), s1 * cv) for (a2, b2, wn), cv
                            in legs1[(a, b, w1)].items()))
            add_terms(acc, (((a, b, c2, d2, w1, un), s2 * cv) for (c2, d2, un), cv
                            in legs2[(cc, d, w2)].items()))
        return Kernel(sp, acc, self.truncated)

    # -- inspection -------------------------------------------------------------

    def power_signature(self):
        return {key[:4] for key in self.terms}

    def first_component(self, j: int, k: int) -> "Kernel":
        if j > self.space.cutoff or k > self.space.cutoff:
            raise ValueError(f"bidegree ({j},{k}) beyond cutoff {self.space.cutoff}")
        alg = self.space.leg1.alg
        return Kernel(self.space,
                      {key: c for key, c in self.terms.items()
                       if bidegree(alg, key[4]) == (j, k)}, self.truncated)


def _leg_groups(k: Kernel) -> dict:
    """The terms of k grouped by their leg counts (j, k, m, n), (j, k) the
    bidegree of the first-leg word and (m, n) that of the second:
    {counts: [(key, coeff), ...]}."""
    alg1, alg2 = k.space.leg1.alg, k.space.leg2.alg
    groups: dict = {}
    for key, c in k.terms.items():
        counts = bidegree(alg1, key[4]) + bidegree(alg2, key[5])
        groups.setdefault(counts, []).append((key, c))
    return groups


def _ordered(w: tuple, u: tuple) -> bool:
    """Whether the junction of normal words w and u is ordered: either word
    is empty or w[-1] <= u[0].  Normal words are non-decreasing, so then
    w + u is normal as it stands and no rewrite applies."""
    return not w or not u or w[-1] <= u[0]


def _leg_product(alg: Algebra, w: tuple, u: tuple, c: VScalar):
    """The normal form of c w u for normal words w and u, as (word, coeff)
    pairs; only a descending junction (:func:`_ordered`) reaches
    ``normalize``."""
    if _ordered(w, u):
        return ((w + u, c),)
    return alg.monomial(w + u, c).terms.items()


def _wick_floor(a: int, b: int, c: int, d: int) -> tuple:
    """Lower bound on the bidegree of every term of the normal form of
    w w', for Wick words w of bidegree (a, b) and w' of bidegree (c, d).

    A same-class rule keeps which positions hold a z and which a z*.  The
    cross rule turns an adjacent z* z into z z* or deletes the pair.
    Neither step gives a z a new z* on its left, and a deletion removes a z
    that had one, so at most c pairs are deleted, the c letters of w' being
    the only ones with a z* on their left at the start.  Likewise at most
    b, counting the z* with a z on their right.
    """
    r = min(b, c)
    return a + c - r, b + d - r


def _power_text(name: str, e: int) -> str:
    if e == 0:
        return ""
    return name if e == 1 else f"{name}^{e}"


def _term_sort_key(key):
    a, b, c, d, w1, w2 = key
    return (len(w1) + len(w2), w1, w2, a, b, c, d)


def check_invariant(k: Kernel) -> list:
    """Residuals act(g, k) - counit(g) k over all Chevalley generators.
    The counit is 1 on K_i^{+-1} and 0 on E_i and F_i, so each residual is
    one kernel: act(g, k) - k or act(g, k)."""
    out = []
    for g in chevalley_gens(k.space.n):
        r = k.act(g)
        if counit(g):
            r = r - k
        if not r.is_zero():
            out.append((g, r))
    return out


# ---------------------------------------------------------------------------
# the invariant kernels L and Lbar
# ---------------------------------------------------------------------------

def _invariant_kernel(n: int, cutoff: int, bar: bool) -> Kernel:
    """The sum over the n-subsets J of {1..2n} of the z-minor and the
    zeta-minor on lower rows A = J & {1..n} and upper columns
    U = {2n + 1 - b : b in {n+1..2n} - J}, scaled by (-1)^k q^-k, k = |A|.
    L stars the second leg's minor and carries the power key t x tau*;
    Lbar stars the first leg's, carries t* x tau and the extra scale
    (-q)^{-2 l(J, J^c)}.  The J = {n+1..2n} term is the monomial
    prefactor."""
    sp = poisson_space(n, cutoff)
    rng = range(1, 2 * n + 1)

    def term(J):
        A = tuple(j for j in J if j <= n)
        U = tuple(sorted(2 * n + 1 - b for b in rng if b > n and b not in J))
        k = len(A)
        m1 = qminor(sp.leg1.alg, A, U, cls="z")
        m2 = qminor(sp.leg2.alg, A, U, cls="zeta")
        scale = qpow(-k) * VScalar.from_int((-1) ** k)
        if not bar:
            return sp.from_pair(m1, star_poly(m2), key=(1, 0, 0, 1), coeff=scale)
        ell = l_pairs(J, tuple(j for j in rng if j not in J))
        return sp.from_pair(star_poly(m1), m2, key=(0, 1, 1, 0),
                            coeff=scale * neg_qpow(-2 * ell))
    return sp.sum(map(term, combinations(rng, n)))


@lru_cache(maxsize=None)
def build_L(n: int, cutoff: int) -> Kernel:
    """The invariant kernel with first-leg z-minors and second-leg starred
    zeta-minors (:func:`_invariant_kernel`).  Built once per (n, cutoff)
    for the ``invariance`` and ``poisson`` suites and the Poisson build, as
    is :func:`build_Lbar`."""
    return _invariant_kernel(n, cutoff, False)


@lru_cache(maxsize=None)
def build_Lbar(n: int, cutoff: int) -> Kernel:
    """The invariant kernel with first-leg starred z-minors and second-leg
    zeta-minors (:func:`_invariant_kernel`)."""
    return _invariant_kernel(n, cutoff, True)


# ---------------------------------------------------------------------------
# inversion, substitution, the Poisson kernel
# ---------------------------------------------------------------------------

def kinverse(k: Kernel, power: int = 1) -> Kernel:
    """k^{-power} as a truncated Neumann series.

    Requires a single invertible monomial prefactor term U (empty words);
    writes k = (1 + M) U and returns (U^-1 sum (-M)^m)^power.
    """
    sp = k.space
    units = [(key, c) for key, c in k.terms.items() if key[4] == () == key[5]]
    if len(units) != 1:
        raise ValueError("kernel has no single invertible leading term")
    (ua, ub, uc, ud, _, _), ucoeff = units[0]
    u_inv = sp.power_term(-ua, -ub, -uc, -ud, ucoeff.inverse())
    m = (k * u_inv) - sp.unit()
    if any(key[4] == () == key[5] for key in m.terms):
        raise ValueError("leading term is not unit-normalised")

    def neumann():
        powm = sp.unit()
        for j in range(4 * (sp.cutoff + 1) + 1):
            yield powm.scale(VScalar.from_int((-1) ** j))
            powm = powm * m
            if powm.is_zero():
                return
        raise RuntimeError("Neumann series failed to terminate at cutoff")
    inv = u_inv * sp.sum(neumann())
    out = inv
    for _ in range(power - 1):
        out = out * inv
    return out


def substitute_x_inverse(k: Kernel) -> Kernel:
    """Replace each first-leg (t t*)^-m prefactor by y^m, inside the box.

    Sound because t^-1 t*^-1 is the image of y inside the localized algebra;
    afterwards every term has zero first-leg powers.

    y is q-normal (y z = q^2 z y, y z* = q^-2 z* y, checked in the tests),
    so for a Wick word w = z^A z*^B and the terms c_PQ z^P z*^Q of y^m

        y^m w = q^{2m|A|} z^A y^m z*^B
              = q^{2m|A|} sum c_PQ (z^A z^P)(z*^Q z*^B).

    Only same-class rules rewrite a bracket, and they keep its class and
    length (checked in the tests), so a term of y^m gives only words of
    bidegree (|A| + |P|, |Q| + |B|), Wick-normal as they stand, and only the
    in-box part Y_m of y^m reaches the box.  Y_m is formed once per power m
    by m left multiplications by y through the same block product, each cut
    to the box.  The cut is exact because left multiplication by y never
    lowers either count, so a cut word feeds only words outside the box.
    The terms of Y_m are grouped by (|P|, |Q|), and a group that puts
    either count above the cutoff D is skipped before any normalization.
    Bracket normal forms are memoised per word in a dict local to the call.

    ``truncated`` is set when a word of some y^i, i <= m, is cut or a group
    of Y_m is skipped, which happens exactly when y^m w has a nonzero term
    outside the box, what the flag means elsewhere.  The terms of y have
    bidegree (j, j), j <= n, the top one being +-det_q(z) det_q(z)*, so for
    w of bidegree (c, d) the block product gives the part of y^i w at
    (c + i n, d + i n) as +-q^{2ic} z^A det_q(z)^i det_q(z)*^i z*^B, which is
    nonzero (C[Mat_n]_q is a domain) and bounds every other term.  So y^m w
    leaves the box exactly when max(c, d) + m n > D.  Every word of y^i
    has counts <= i n, so a cut or a skip implies max(c, d) + m n > D.
    Conversely, if m n > D, the first i with i n > D cuts the top term of y
    on the top term of y^(i-1), which nothing cut before; otherwise Y_m is
    all of y^m, and its top group is skipped on w.
    """
    sp = k.space
    alg = sp.leg1.alg
    D = sp.cutoff
    blocks: dict = {}

    def block(w):
        """The terms of the normal form of a one-class word."""
        hit = blocks.get(w)
        if hit is None:
            hit = blocks[w] = list(alg.monomial(w).terms.items())
        return hit

    def grouped(terms: dict) -> list:
        """[((|P|, |Q|), [(P, Q, c), ...])] for the terms c z^P z*^Q."""
        groups: dict = {}
        for w, c in terms.items():
            j, i = bidegree(alg, w)
            groups.setdefault((j, i), []).append((w[:j], w[j:], c))
        return list(groups.items())

    def times(groups: list, m: int, w: tuple, c: VScalar):
        """The in-box part of Y c w, for Y = Y_m given by its groups, and
        whether a group was skipped."""
        j, i = bidegree(alg, w)
        A, B = w[:j], w[j:]
        c = c * qpow(2 * m * j)
        out: dict = {}
        skipped = False
        for (p, r), terms in groups:
            if j + p > D or r + i > D:
                skipped = True
                continue
            for P, Q, cy in terms:
                cp = c * cy
                add_terms(out, ((wz + ws, cp * cz * cs)
                                for wz, cz in block(A + P)
                                for ws, cs in block(Q + B)))
        return out, skipped

    y = grouped(y_element(sp.n).terms)
    powers = [(grouped({(): ONE}), False)]   # (groups of Y_m, whether cut)
    acc: dict = {}
    truncated = k.truncated
    for (a, b, c, d, w1, w2), coeff in k.terms.items():
        if a != b or a > 0:
            raise PowerSignatureError(
                f"first-leg powers ({a},{b}) are not a balanced inverse pair")
        while len(powers) <= -a:
            ym: dict = {}
            prev, cut = powers[-1]
            for _, terms in prev:
                for P, Q, cy in terms:
                    u, skipped = times(y, 1, P + Q, cy)
                    add_terms(ym, u.items())
                    cut = cut or skipped
            powers.append((grouped(ym), cut))
        groups, cut = powers[-a]
        u, skipped = times(groups, -a, w1, coeff)
        truncated = truncated or cut or skipped
        add_terms(acc, (((0, 0, c, d, wp, w2), cp) for wp, cp in u.items()))
    return Kernel(sp, acc, truncated)


def poisson_kernel(n: int, cutoff: int, normalized: bool = True) -> Kernel:
    """const * (1 x tau tau*)^n Lbar^-n L^-n with first-leg powers removed.

    With ``normalized`` the overall constant is fixed so that the (0,0)
    component is exactly 1 x 1 (the integral operator takes 1 to 1).
    The raw kernel is built once per (n, cutoff) and cached; the normalized
    kernel is derived from that one build by scaling, and cached too.
    """
    return _normalized_poisson(n, cutoff) if normalized else _raw_poisson(n, cutoff)


@lru_cache(maxsize=None)
def inverse_kernels(n: int, cutoff: int) -> tuple:
    """(L^-n, Lbar^-n L^-n) at (n, cutoff), formed once for the Poisson
    build and the ``poisson`` suite."""
    Linv = kinverse(build_L(n, cutoff), n)
    return Linv, kinverse(build_Lbar(n, cutoff), n) * Linv


@lru_cache(maxsize=None)
def _raw_poisson(n: int, cutoff: int) -> Kernel:
    pre = poisson_space(n, cutoff).power_term(0, 0, n, n)
    praw = substitute_x_inverse(pre * inverse_kernels(n, cutoff)[1])
    if not praw.power_signature() <= {(0, 0, 0, 0)}:
        raise PowerSignatureError("Poisson kernel has residual powers")
    return praw


@lru_cache(maxsize=None)
def _normalized_poisson(n: int, cutoff: int) -> Kernel:
    praw = _raw_poisson(n, cutoff)
    p00 = praw.terms.get((0, 0, 0, 0, (), ()))
    if p00 is None:
        raise ValueError("missing constant term; cannot normalise")
    return praw.scale(p00.inverse())


def poisson_integral_n1(P: Kernel, fs: list) -> list:
    """(id x nu)(P (1 x f)) for n = 1 and each f of ``fs``, in P's space
    with empty second legs.

    A second-leg word w2 = zeta^j zeta*^k is zeta^e with e = j - k in the
    Laurent model, so by linearity of the integral a term c (w1 x w2)
    contributes c nu(zeta^e f) to w1.  nu takes the constant term, and
    zeta^e f_m zeta^m = f_m zeta^(e + m), so only e = -m meets the term
    f_m zeta^m of f: nu(zeta^e f) = f_{-e}.  P's terms are grouped by e
    once for all of ``fs``, in one pass that also checks that no term
    carries powers; nu(zeta^e f) is formed once per exponent and f, and a
    group whose value is zero is skipped whole.
    """
    sp = P.space
    if sp.n != 1:
        raise ValueError("the integral model is implemented for n = 1")
    groups: dict = {}
    for (a, b, c, d, w1, w2), x in P.terms.items():
        if a or b or c or d:
            raise PowerSignatureError("kernel carries powers; integrate after "
                                      "the substitution")
        j, k = bidegree(sp.leg2.alg, w2)
        groups.setdefault(j - k, []).append((w1, x))
    out = []
    for f in fs:
        acc: dict = {}
        for e, terms in groups.items():
            x = nu_n1(N1Boundary.zeta(e) * f)
            if x:
                add_terms(acc, (((0, 0, 0, 0, w1, ()), c * x) for w1, c in terms))
        out.append(Kernel(sp, acc, P.truncated))
    return out
