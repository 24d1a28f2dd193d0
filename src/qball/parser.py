"""Expression parser for the CLI.

Grammar:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' signed-int)?
    atom   := z[i,j] | zs[i,j] | zeta[i,j] | zetas[i,j] | t[i,j]
            | 'q' | 'v' | rational | '(' expr ')'

Atoms decide the algebra: z/zs live in Pol(Mat_n)_q, zeta/zetas on the
boundary, t in the rectangular n x 2n algebra; mixing families is an
error, and an expression without letters is a scalar.  Negative exponents
are only defined for scalar subexpressions.

The scalar factors of a product are multiplied together and applied once to
the product of its polynomial factors.  Q(v) is central, so this is exact, and
it keeps the gcd work of a factor like ``(1 + q^2)^-1`` out of every rewrite.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .algebras import boundary_algebra, pol_algebra, matrix_algebra
from .ncpoly import Algebra, NCPoly
from .scalars import ONE, Q, V, VScalar


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([\[\],()*+^/-])|(\S))")
_KINDS = (None, "int", "name", "sym")

_FAMILY = {"z": "pol", "zs": "pol", "zeta": "boundary", "zetas": "boundary",
           "t": "rect"}


@lru_cache(maxsize=None)
def scalar_algebra() -> Algebra:
    return Algebra("scalar", [], lambda alg, g, h: [])


def _tokenize(text: str) -> list:
    # _TOKEN matches wherever non-blank text is left, so finditer yields the
    # tokens back to back; m.lastindex names the group: int, name, sym, or a
    # bad character
    out = []
    for m in _TOKEN.finditer(text):
        k = m.lastindex
        if k == 4:
            raise ExprError(f"unexpected character {m.group(4)!r}", m.start(4))
        tok = m.group(k)
        out.append((_KINDS[k], int(tok) if k == 1 else tok, m.start(k)))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.toks = _tokenize(text)
        self.i = 0
        self.family: str | None = None

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tok = self.toks[self.i]
        if kind and tok[0] != kind or value is not None and tok[1] != value:
            raise ExprError(f"expected {value or kind}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    # -- algebra bookkeeping ----------------------------------------------

    def algebra(self) -> Algebra:
        if self.family == "pol":
            return pol_algebra(self.n)
        if self.family == "boundary":
            return boundary_algebra(self.n)
        if self.family == "rect":
            return matrix_algebra(self.n, 2 * self.n)
        return scalar_algebra()

    def _enter_family(self, cls: str, pos: int):
        fam = _FAMILY[cls]
        if self.family is None:
            self.family = fam
        elif self.family != fam:
            raise ExprError(
                f"cannot mix {cls!r} with {self.family} generators", pos)

    # -- grammar -------------------------------------------------------------

    def parse(self):
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError(f"unexpected trailing input {tok[1]!r}", tok[2])
        if isinstance(p, VScalar):
            p = self.algebra().scalar(p)
        return self.family or "scalar", p

    def expr(self):
        if self.peek()[:2] == ("sym", "-"):
            self.take()
            acc = -self.term()
        else:
            acc = self.term()
        while self.peek()[1] in ("+", "-") and self.peek()[0] == "sym":
            op = self.take()[1]
            rhs = self.term()
            acc, rhs = self._align(acc, rhs)
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self):
        scalar, acc = ONE, None
        while True:
            f = self.factor()
            if isinstance(f, VScalar):
                scalar = scalar * f
            else:
                acc = f if acc is None else acc * f
            if self.peek()[:2] != ("sym", "*"):
                break
            self.take()
        if acc is None:
            return scalar
        return acc if scalar == ONE else acc.scale(scalar)

    def factor(self):
        base = self.atom()
        if self.peek()[:2] == ("sym", "^"):
            pos = self.take()[2]
            sign = 1
            if self.peek()[:2] == ("sym", "-"):
                self.take()
                sign = -1
            e = sign * self.take("int")[1]
            if isinstance(base, VScalar):
                if e < 0 and base.is_zero():
                    raise ExprError("inverse of zero", pos)
                return base ** e
            if e >= 0:
                return base ** e
            if set(base.terms) - {()}:
                raise ExprError("negative power of a non-scalar", pos)
            c = base.constant_term()
            if c.is_zero():
                raise ExprError("inverse of zero", pos)
            return base.alg.scalar(c.inverse())
        return base

    def atom(self):
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            num = tok[1]
            if self.peek()[:2] == ("sym", "/"):
                self.take()
                den = self.take("int")
                if den[1] == 0:
                    raise ExprError("zero denominator", den[2])
                return VScalar.from_fraction(Fraction(num, den[1]))
            return VScalar.from_int(num)
        if tok[:2] == ("sym", "("):
            self.take()
            p = self.expr()
            self.take("sym", ")")
            return p
        if tok[0] == "name":
            name = tok[1]
            self.take()
            if name == "q":
                return Q
            if name == "v":
                return V
            if name not in _FAMILY:
                raise ExprError(f"unknown atom {name!r}", tok[2])
            self._enter_family(name, tok[2])
            self.take("sym", "[")
            i = self.take("int")[1]
            self.take("sym", ",")
            j = self.take("int")[1]
            close = self.take("sym", "]")
            self._check_range(name, i, j, close[2])
            return self.algebra().gen(name, i, j)
        raise ExprError(f"expected an atom, found {tok[1]!r}", tok[2])

    def _check_range(self, cls: str, i: int, j: int, pos: int):
        jmax = 2 * self.n if cls == "t" else self.n
        if not (1 <= i <= self.n and 1 <= j <= jmax):
            raise ExprError(
                f"{cls}[{i},{j}] out of range for n={self.n}", pos)

    def _align(self, a, b):
        """Coerce the scalar side when exactly one operand is a polynomial."""
        if isinstance(a, VScalar) and isinstance(b, NCPoly):
            return b.alg.scalar(a), b
        if isinstance(b, VScalar) and isinstance(a, NCPoly):
            return a, a.alg.scalar(b)
        return a, b


def parse_expr(text: str, n: int):
    """Parse and normalize; returns (algebra tag, NCPoly)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _Parser(text, n).parse()
