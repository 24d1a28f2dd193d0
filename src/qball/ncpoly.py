"""Normal-form engine for quadratic quantized algebras.

An :class:`Algebra` is an ordered generator alphabet together with a rewrite
table.  Generators are encoded as small integers; the integer order *is* the
monomial order, and canonical words are non-decreasing integer tuples (a PBW
basis).  The rewrite table sends every strictly decreasing adjacent pair
``g > h`` to a finite list of ``(coefficient, word)`` with words of length at
most two, each strictly smaller than ``g h`` in the degree-lexicographic
order, which makes reduction terminate.

Confluence is proved by resolving every overlap ambiguity, which suffices
by the Diamond Lemma (G. Bergman, *The diamond lemma for ring theory*, Adv.
Math. 29, 1978); see :func:`overlap_residuals`.

:class:`NCPoly` is a finite map from canonical words to ``VScalar``
coefficients with zero values pruned eagerly, so equality is map equality.
Every sum in the package, of polynomials, kernels or classical images, is
accumulated into one dict by :func:`add_terms`, which adds ``(key, coeff)``
pairs and drops a key as soon as its coefficient sums to zero;
:meth:`Algebra.sum` builds a polynomial from many summands that way, and
:func:`normalize` rewrites a linear combination of words, merging equal
words before it rewrites them.  Algebras and polynomials are immutable after
construction; the pair-rule cache only sees idempotent inserts.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from .scalars import VScalar, ZERO, ONE

# generous guard against a non-terminating table, per input word
MAX_REWRITE_STEPS = 5_000_000


class RewriteLimitExceeded(RuntimeError):
    pass


class UnknownGeneratorError(KeyError):
    pass


class Generator(NamedTuple):
    """A named generator: symbol class plus up to two indices."""
    cls: str
    i: int
    j: int


class Algebra:
    """A generator alphabet with a quadratic rewrite table.

    ``rule(g, h)`` is consulted only for code pairs with ``g > h`` and must
    return the expansion of the product ``g * h`` as ``[(coeff, word), ...]``
    with every word already in normal order.  Results are memoised.
    """

    def __init__(self, name: str, gens: Iterable[Generator],
                 rule: Callable[["Algebra", int, int], list]):
        self.name = name
        self.gens = tuple(gens)
        self.code = {g: c for c, g in enumerate(self.gens)}
        self._rule = rule
        self._pair_cache: dict = {}

    def renamed(self, name: str, classes: dict) -> "Algebra":
        """The same presentation with generator classes renamed by
        ``classes``: the same codes, the same rule and the same pair cache,
        so a rule met through either algebra is formed once."""
        alg = Algebra(name, (g._replace(cls=classes.get(g.cls, g.cls))
                             for g in self.gens), self._rule)
        alg._pair_cache = self._pair_cache
        return alg

    def __repr__(self):
        return f"Algebra({self.name}, {len(self.gens)} generators)"

    def ngens(self) -> int:
        return len(self.gens)

    def gen_code(self, cls: str, i: int, j: int) -> int:
        try:
            return self.code[Generator(cls, i, j)]
        except KeyError:
            raise UnknownGeneratorError(
                f"{cls}[{i},{j}] is not a generator of {self.name}") from None

    def pair_rule(self, g: int, h: int) -> list:
        key = (g, h)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self._rule(self, g, h)
            self._pair_cache[key] = hit
        return hit

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return NCPoly(self, {(): ONE})

    def scalar(self, c) -> "NCPoly":
        c = VScalar.coerce(c)
        return NCPoly(self, {} if c.is_zero() else {(): c})

    def gen(self, cls: str, i: int, j: int) -> "NCPoly":
        return NCPoly(self, {(self.gen_code(cls, i, j),): ONE})

    def monomial(self, word, coeff=ONE) -> "NCPoly":
        """Normal form of an arbitrary product of generator codes."""
        return normalize(self, ((tuple(word), VScalar.coerce(coeff)),))

    def poly(self, terms: dict) -> "NCPoly":
        """Polynomial from possibly non-normal words."""
        return normalize(self, ((word, VScalar.coerce(coeff))
                                for word, coeff in terms.items()))

    def sum(self, polys: Iterable["NCPoly"]) -> "NCPoly":
        """Sum of polynomials over this algebra, built as one dict."""
        acc: dict = {}
        for p in polys:
            if p.alg is not self:
                raise ValueError(f"mixed algebras: {self.name} vs {p.alg.name}")
            add_terms(acc, p.terms.items())
        return NCPoly(self, acc)


def add_terms(acc: dict, items: Iterable) -> dict:
    """Add ``(key, coeff)`` pairs into ``acc`` in place and return it.

    A key whose coefficient sums to zero is removed, so ``acc`` never holds
    a zero.  Coefficients need ``+`` and truthiness (``VScalar`` and
    ``Fraction`` both qualify).
    """
    for k, c in items:
        s = acc.get(k)
        s = c if s is None else s + c
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


def normalize(alg: Algebra, terms: Iterable) -> "NCPoly":
    """Normal form of a linear combination of ``(word, coeff)`` pairs with
    ``VScalar`` coefficients, so a product is a single call.

    Every code is checked first.  Each wave then sends normal words to the
    result, merges equal words, drops those that cancel and rewrites the
    rest once, at the left-most descent, into the next wave.  The budget is
    ``MAX_REWRITE_STEPS`` rewrites per nonzero input term.  By confluence
    (:func:`overlap_residuals`) the result, though not its term order, does
    not depend on this order.  A rewrite at i resumes the descent search at
    i - 1: ``w[:i+1]`` has no descent and rule words are normal.
    """
    ngens = len(alg.gens)
    wave = []
    for w, c in terms:
        for g in w:
            if not 0 <= g < ngens:
                raise UnknownGeneratorError(f"code {g} not in {alg.name}")
        if not c.is_zero():
            wave.append((w, c, 0))
    budget, done = MAX_REWRITE_STEPS * len(wave), []
    while True:
        pending: dict = {}
        for w, c, start in wave:
            for pos in range(start, len(w) - 1):
                if w[pos] > w[pos + 1]:
                    break
            else:
                done.append((w, c))
                continue
            entry = (pos, c)
            hit = pending.setdefault(w, entry)
            if hit is not entry:
                c += hit[1]
                if c:
                    pending[w] = (pos, c)
                else:
                    del pending[w]
        if not pending:
            return NCPoly(alg, add_terms({}, done))
        budget -= len(pending)
        if budget < 0:
            raise RewriteLimitExceeded(
                f"{alg.name}: rewrite budget exhausted (non-terminating table?)")
        wave = []
        for w, (pos, c) in pending.items():
            head, tail, start = w[:pos], w[pos + 2:], pos - 1 if pos else 0
            for rc, rw in alg.pair_rule(w[pos], w[pos + 1]):
                wave.append((head + rw + tail, c * rc, start))


def overlap_residuals(alg: Algebra) -> list:
    """``[((g, h, k), left - right)]`` for each overlap ``g > h > k`` whose
    two first rewrites, of ``g h`` and of ``h k``, reach different normal
    forms.  Rule outputs shrink in the degree-lex order and left-hand sides
    have length two, so by the Diamond Lemma an empty list proves the table
    confluent; with two generators (n = 1) there are no overlaps at all.
    """
    out = []
    for k, h, g in combinations(range(alg.ngens()), 3):
        left = normalize(alg, ((w + (k,), c) for c, w in alg.pair_rule(g, h)))
        right = normalize(alg, (((g,) + w, c) for c, w in alg.pair_rule(h, k)))
        if left != right:
            out.append(((g, h, k), left - right))
    return out


class NCPoly:
    """Normal-form noncommutative polynomial over one algebra."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg: Algebra, terms: dict):
        self.alg = alg
        self.terms = terms

    # -- ring structure ------------------------------------------------------

    def _check(self, other: "NCPoly"):
        if self.alg is not other.alg:
            raise ValueError(f"mixed algebras: {self.alg.name} vs {other.alg.name}")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check(other)
        return NCPoly(self.alg, add_terms(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.alg, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other) -> "NCPoly":
        if isinstance(other, (int, VScalar)):
            return self.scale(other)
        self._check(other)
        return normalize(self.alg, ((w1 + w2, c1 * c2)
                                    for w1, c1 in self.terms.items()
                                    for w2, c2 in other.terms.items()))

    def scale(self, c) -> "NCPoly":
        c = VScalar.coerce(c)
        if c.is_zero():
            return NCPoly(self.alg, {})
        return NCPoly(self.alg, {w: x * c for w, x in self.terms.items()})

    def __pow__(self, k: int) -> "NCPoly":
        if k < 0:
            raise ValueError("negative power of a noncommutative polynomial")
        if k == 0:
            return self.alg.one()
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    # -- inspection --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, word) -> VScalar:
        """Coefficient of a canonical word (error on non-canonical input)."""
        word = tuple(word)
        if any(a > b for a, b in zip(word, word[1:])):
            raise ValueError(f"{word} is not a canonical word")
        return self.terms.get(word, ZERO)

    def constant_term(self) -> VScalar:
        return self.terms.get((), ZERO)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.alg is other.alg and self.terms == other.terms

    def __repr__(self):
        from .render import poly_text
        return f"NCPoly<{self.alg.name}>({poly_text(self)})"
