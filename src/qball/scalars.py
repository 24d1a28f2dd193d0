"""Exact arithmetic in the field Q(v), with q = v^2.

Every coefficient in this package is a ``VScalar``: a fraction of integer
polynomials in the variable v, where v stands for the square root of the
deformation parameter q.  Working over v rather than q keeps the half-integer
powers q^{1/2} that appear in the symmetry action exactly representable.

Canonical form
--------------
A nonzero value is stored as  v^shift * num(v) / den(v)  with

* ``num``, ``den`` integer coefficient tuples (low degree first),
* ``num[0] != 0`` and ``den[0] != 0`` (all pure v-power content is carried
  by the integer ``shift``),
* gcd(num, den) = 1 over the rationals,
* the pair content-free over the integers, and ``den`` with positive
  leading coefficient.

Canonical forms are unique, so equality and hashing are structural.  Zero is
stored as ``shift = 0, num = (), den = (1,)``.

Values are immutable and all operations are pure functions.

Products
--------
With q = v^2, nearly every numerator is even in v: the odd powers ride in
the shift, so every other entry of the tuple is zero.  So ``_pmul`` lists
the nonzero coefficients of ``b`` once and pairs them with the nonzero ones
of ``a`` only, and ``_laurent_add`` skips the zeros of the numerator it
adds in.  A few operand pairs also make up nearly all products, so
``_pmul`` is memoised on both operand tuples.  Sharing a result is safe, as
tuples are immutable, and it also shares the tuples held by the terms of a
large kernel.  The memo is bounded (``PMUL_MEMO``) because the distinct
operands of a long run are unbounded in number while its hits come from
recent products, and each entry adds to the peak RSS of a short process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

# entries of the _pmul memo; the module docstring says why it is bounded
PMUL_MEMO = 128


class PoleError(ZeroDivisionError):
    """Evaluation of a VScalar at a zero of its denominator."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense tuples, lowest degree first, no trailing 0)
# ---------------------------------------------------------------------------

def _ptrim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


@lru_cache(maxsize=PMUL_MEMO)
def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    nb = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nb:
                out[i + j] += x * y
    return _ptrim(out)


def _pcontent(a: tuple) -> int:
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def _pprimitive(a: tuple) -> tuple:
    g = _pcontent(a)
    if g in (0, 1):
        return a
    return tuple(x // g for x in a)


def _ppseudo_rem(a: tuple, b: tuple) -> tuple:
    # pseudo remainder of a by b; stays over the integers
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        lead = r[-1]
        r = [x * lb for x in r]
        shift = dr - db
        for i, y in enumerate(b):
            r[shift + i] -= lead * y
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _pgcd(a: tuple, b: tuple) -> tuple:
    # primitive gcd in Z[v] via a primitive pseudo-remainder sequence
    a, b = _pprimitive(a), _pprimitive(b)
    while b:
        a, b = b, _pprimitive(_ppseudo_rem(a, b))
    if a and a[-1] < 0:
        a = _pneg(a)
    return a


def _pdiv_exact(a: tuple, b: tuple) -> tuple:
    # exact division in Z[v].  The caller divides by a primitive gcd b, so by
    # Gauss's lemma the quotient is integral: every partial remainder is (the
    # rest of the quotient) * b, and each step divides by b[-1] exactly.
    if not a:
        return ()
    nb, lb = len(b), b[-1]
    q = [0] * (len(a) - nb + 1)
    r = list(a)
    for k in range(len(a) - nb, -1, -1):
        # an inexact step leaves its remainder at k + nb - 1, checked below
        c = q[k] = r[k + nb - 1] // lb
        if c:
            for i, y in enumerate(b):
                r[k + i] -= c * y
    if any(r):  # b does not divide a
        raise ArithmeticError("non-exact polynomial division")
    return _ptrim(q)


def _peval(a: tuple, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------


class VScalar:
    """An element of Q(v) in canonical form.  Immutable and hashable."""

    __slots__ = ("shift", "num", "den")

    def __init__(self, shift: int, num: tuple, den: tuple, _canonical: bool = False):
        """Build v^shift * num / den, reduced to the canonical form.

        ``_canonical=True`` skips the reduction and stores the triple as
        given.  The caller must then guarantee every clause of the module's
        canonical form: ``num[0] != 0`` and ``den[0] != 0``, no trailing
        zeros, gcd(num, den) = 1, a content-free pair, a positive leading
        ``den``, and zero as ``(0, (), (1,))``.  Nothing checks this at run
        time, and a violation silently breaks equality and hashing.  The
        only callers, each with the reason its triple is canonical:

        * ``from_int``, ``from_fraction``, ``vpow`` and the module
          constants: a one-coefficient ``num`` over a positive ``den``
          that a ``Fraction`` keeps coprime;
        * ``__neg__``: negating ``num`` changes no clause;
        * the unit-monomial path of ``__mul__``: multiplying by +-v^k only
          adds k to the shift and may negate ``num``, which changes no
          clause, true denominators included;
        * the Laurent path of ``__mul__`` (both ``den == (1,)``): a product
          of polynomials with nonzero constant terms keeps one, and over
          ``den == (1,)`` the gcd and content clauses hold trivially;
        * the Laurent path of ``__add__`` (both ``den == (1,)``): the sum is
          stripped of zeros at both ends, and the low ones go to the shift.
        * the unit-monomial path of ``inverse``: the inverse of +-v^k is
          +-v^-k, the same ``num`` and ``den`` with the shift negated.
        """
        if _canonical:
            self.shift, self.num, self.den = shift, num, den
            return
        s, n, d = _canonicalise(shift, num, den)
        self.shift, self.num, self.den = s, n, d

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_int(k: int) -> "VScalar":
        if k == 0:
            return ZERO
        return VScalar(0, (k,), (1,), _canonical=True)

    @staticmethod
    def from_fraction(f: Fraction) -> "VScalar":
        f = Fraction(f)
        if f == 0:
            return ZERO
        return VScalar(0, (f.numerator,), (f.denominator,), _canonical=True)

    @staticmethod
    def coerce(x) -> "VScalar":
        if isinstance(x, VScalar):
            return x
        if isinstance(x, int):
            return VScalar.from_int(x)
        if isinstance(x, Fraction):
            return VScalar.from_fraction(x)
        raise TypeError(f"cannot coerce {x!r} to VScalar")

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "VScalar":
        if not isinstance(other, VScalar):
            other = VScalar.coerce(other)
        a, b = self.num, other.num
        if not a:
            return other
        if not b:
            return self
        if self.den == (1,) == other.den:
            return _laurent_add(self.shift, a, other.shift, b)
        m = min(self.shift, other.shift)
        a = _pmul(self.num, other.den)
        b = _pmul(other.num, self.den)
        a = _pshift(a, self.shift - m)
        b = _pshift(b, other.shift - m)
        return VScalar(m, _padd(a, b), _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self) -> "VScalar":
        if self.is_zero():
            return self
        return VScalar(self.shift, _pneg(self.num), self.den, _canonical=True)

    def __sub__(self, other) -> "VScalar":
        return self + (-VScalar.coerce(other))

    def __mul__(self, other) -> "VScalar":
        if not isinstance(other, VScalar):
            other = VScalar.coerce(other)
        if self is ONE:
            return other
        if other is ONE:
            return self
        a, b = self.num, other.num
        if not a or not b:
            return ZERO
        shift = self.shift + other.shift
        # fast paths, canonical as built (see __init__): a unit monomial
        # +-v^k, then two Laurent polynomials; neither reaches the gcd code
        if len(b) == 1 and (b[0] == 1 or b[0] == -1) and other.den == (1,):
            return VScalar(shift, a if b[0] == 1 else _pneg(a), self.den,
                           _canonical=True)
        if len(a) == 1 and (a[0] == 1 or a[0] == -1) and self.den == (1,):
            return VScalar(shift, b if a[0] == 1 else _pneg(b), other.den,
                           _canonical=True)
        if self.den == (1,) == other.den:
            return VScalar(shift, _pmul(a, b), (1,), _canonical=True)
        return VScalar(shift, _pmul(a, b), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "VScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(v)")
        num = self.num
        # fast path, canonical as built (see __init__): (+-v^k)^-1 = +-v^-k
        if len(num) == 1 and (num[0] == 1 or num[0] == -1) and self.den == (1,):
            return VScalar(-self.shift, num, (1,), _canonical=True)
        return VScalar(-self.shift, self.den, num)

    def __truediv__(self, other) -> "VScalar":
        return self * VScalar.coerce(other).inverse()

    def __pow__(self, k: int) -> "VScalar":
        if k < 0:
            return self.inverse() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- comparison / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = VScalar.from_int(other)
        if not isinstance(other, VScalar):
            return NotImplemented
        return (self.shift == other.shift and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.shift, self.num, self.den))

    # -- evaluation ------------------------------------------------------------

    def eval_at(self, v0) -> Fraction:
        """Exact value at v = v0 (a rational); raises PoleError at a pole."""
        v0 = Fraction(v0)
        if self.is_zero():
            return Fraction(0)
        d = _peval(self.den, v0)
        if d == 0:
            raise PoleError(f"pole at v = {v0}")
        if v0 == 0 and self.shift < 0:
            raise PoleError("pole at v = 0")
        return v0 ** self.shift * _peval(self.num, v0) / d

    # -- rendering --------------------------------------------------------------

    def __repr__(self):
        return f"VScalar({self.to_text()!r})"

    def to_text(self) -> str:
        """Deterministic text form, parseable by the CLI expression grammar."""
        if self.is_zero():
            return "0"
        num_terms = _poly_terms(self.num, self.shift)
        den_terms = _poly_terms(self.den, 0)
        num_s = terms_to_text(num_terms)
        if den_terms == ["1"]:
            return num_s
        den_s = terms_to_text(den_terms)
        if len(den_terms) > 1:
            den_s = f"({den_s})"
        elif not _is_atomic(den_s):
            den_s = f"({den_s})"
        if len(num_terms) > 1:
            num_s = f"({num_s})"
        return f"{num_s}*{den_s}^-1"


def _pshift(a: tuple, k: int) -> tuple:
    if not a or k == 0:
        return a
    return (0,) * k + a


def _laurent_add(s: int, a: tuple, t: int, b: tuple) -> VScalar:
    """v^s a + v^t b for nonzero Laurent numerators a and b, canonical as
    built: the shifts are aligned, and zeros are stripped at both ends."""
    if s > t:
        s, a, t, b = t, b, s, a
    out = list(a)
    off = t - s
    gap = off + len(b) - len(out)
    if gap > 0:
        out += [0] * gap
    for i, y in enumerate(b, off):
        if y:
            out[i] += y
    while out and out[-1] == 0:
        out.pop()
    if not out:
        return ZERO
    i = 0
    while out[i] == 0:
        i += 1
    return VScalar(s + i, tuple(out[i:]) if i else tuple(out), (1,),
                   _canonical=True)


def _canonicalise(shift: int, num, den):
    num = _ptrim(list(num))
    den = _ptrim(list(den))
    if not den:
        raise ZeroDivisionError("zero denominator in Q(v)")
    if not num:
        return 0, (), (1,)
    # pull pure v-powers out of both sides into the shift
    i = 0
    while num[i] == 0:
        i += 1
    if i:
        shift += i
        num = num[i:]
    j = 0
    while den[j] == 0:
        j += 1
    if j:
        shift -= j
        den = den[j:]
    if den == (1,):
        return shift, num, den
    if den == (-1,):
        return shift, _pneg(num), (1,)
    g = _pgcd(num, den)
    if len(g) > 1 or g[0] != 1:
        num = _pdiv_exact(num, g)
        den = _pdiv_exact(den, g)
    c = gcd(_pcontent(num), _pcontent(den))
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    return shift, num, den


# -- rendering helpers: v^(2k) prints as q^k, odd powers stay in v -------------

def _monomial_text(coeff: int, e: int) -> str:
    if e == 0:
        return str(coeff)
    if e % 2 == 0:
        base = "q" if e == 2 else ("q^%d" % (e // 2))
    else:
        base = "v" if e == 1 else ("v^%d" % e)
    if coeff == 1:
        return base
    if coeff == -1:
        return "-" + base
    return f"{coeff}*{base}"


def _poly_terms(p: tuple, shift: int) -> list:
    # highest degree first, for readability
    out = []
    for e in range(len(p) - 1, -1, -1):
        if p[e]:
            out.append(_monomial_text(p[e], e + shift))
    return out


def terms_to_text(terms: list) -> str:
    """Join signed term texts: a term that starts with '-' is subtracted."""
    s = terms[0]
    for t in terms[1:]:
        s += " - " + t[1:] if t.startswith("-") else " + " + t
    return s


def _is_atomic(s: str) -> bool:
    return all(c not in s for c in "+- *")


ZERO = VScalar(0, (), (1,), _canonical=True)
ONE = VScalar(0, (1,), (1,), _canonical=True)


def vpow(k: int) -> VScalar:
    """v^k as a VScalar."""
    if k == 0:
        return ONE
    return VScalar(k, (1,), (1,), _canonical=True)


def qpow(k: int) -> VScalar:
    """q^k = v^(2k)."""
    return vpow(2 * k)


def neg_qpow(k: int) -> VScalar:
    """(-q)^k, the sign convention of quantum minors."""
    s = vpow(2 * k)
    return s if k % 2 == 0 else -s


V = vpow(1)
Q = qpow(1)
