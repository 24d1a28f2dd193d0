"""The parser applies the scalar factors of a product once, to the product
of its polynomial factors.  The letter-by-letter product rule it replaced is
kept here as the reference: both must give the same polynomial, and the same
error at the same position."""

import importlib.util
import random
import re
from pathlib import Path

import pytest

from qball import parser
from qball.parser import ExprError, parse_expr


class _LetterByLetter(parser._Parser):
    """The parser with its former product rule: every factor, scalar or
    not, is multiplied into the running product as it is read."""

    def term(self):
        acc = self.factor()
        while self.peek()[:2] == ("sym", "*"):
            self.take()
            rhs = self.factor()
            acc, rhs = self._align(acc, rhs)
            acc = acc * rhs
        return acc


def _reference(text, n):
    return _LetterByLetter(text, n).parse()


def _same_result(text, n):
    tag, p = parse_expr(text, n)
    ref_tag, ref = _reference(text, n)
    assert tag == ref_tag, text
    assert p.alg is ref.alg, text
    assert p.terms == ref.terms, text
    return p


SCALAR_POSITIONS = [
    # leading
    "2*z[1,2]*z[1,1]", "(1 + q^2)^-1*zs[1,1]*z[1,1]", "v^3*zs[2,2]*z[2,1]",
    # in the middle
    "z[1,2]*q*z[1,1]", "zs[2,1]*(q - q^-1)*z[1,2]*z[2,1]",
    # trailing
    "z[2,2]*z[1,1]*v^3", "z[1,1]*zs[1,1]*(1 + q^2)^-1",
    # several at once
    "2*z[1,2]*q^-1*zs[1,1]*v*z[1,1]*(1 + q^2)^-1",
    "3/2*(1 + q^2)^-1*zs[1,2]*(1 - q^2)^-1*z[2,1]*v^-5",
    # parenthesised scalar sums
    "(q + 1)*z[1,2]*(2 - v)*z[1,1]", "(1 + q^2)*zs[1,1]*(1 + q^2)^-1*z[1,1]",
    "(q - q^-1 + 3/2)*zs[2,1]^2*z[1,2]",
    # ^-1
    "q^-1*z[1,1]", "z[1,1]*(1 - q^2)^-1", "(3/2)^-1*zs[1,1]*v^-1",
    # zero factors
    "0*z[1,1]*zs[1,1]", "z[1,1]*zs[2,2]*0", "z[1,1]*0*zs[1,1] + z[1,2]",
    "(q - q)*zs[1,1]", "0*(1 + q^2)^-1",
    # scalars only
    "2*q*(1 + q)^-1", "(1 - q^2)^-1*(1 - q^2)", "v*v*q^-1",
    # signs and sums of products
    "-q*z[1,2]*z[1,1] + (1 + q^2)^-1*zs[1,1]*z[1,1] - v*z[2,1]",
    "z[1,1] - 2*z[1,1]*q + q*z[1,1]*2",
]

POLYNOMIAL_FACTORS = [
    "(z[1,1] + 2)*q*zs[1,1]^2",
    "zs[1,1]*(z[1,1] - q*zs[1,1])*(1 + q^2)^-1*z[2,2]",
    "(2*z[1,1])*(q*zs[1,1])*(zs[2,1]*v)",
    "(z[1,1] - z[1,1] + 2)^-1*z[1,2]*q",
    "(zs[1,2]*(1 + q^2)^-1 + v)^2*z[2,1]",
    "((q + 1)*z[1,2])*((1 + q)^-1*z[1,1]) - z[1,2]*z[1,1]",
]


@pytest.mark.parametrize("text", SCALAR_POSITIONS + POLYNOMIAL_FACTORS)
def test_products_match_the_letter_by_letter_rule(text):
    _same_result(text, 2)


@pytest.mark.parametrize("text, n", [
    ("zeta[1,1]*q*zetas[1,1]*(1 + q^2)^-1", 1),
    ("t[1,2]*(1 + q^2)^-1*t[1,1]", 1),
    ("(q - q^-1)*t[2,3]*t[1,4]*v", 2),
    ("(1 + q^2)^-1*zs[3,1]*z[1,3]*q*z[2,2]", 3),
])
def test_other_families_match_the_letter_by_letter_rule(text, n):
    _same_result(text, n)


# -- a seeded stream of the benchmark's normalize shape ------------------------

COEFFS = ["2", "3", "q", "v", "q^-1", "v^3", "(q - q^-1)", "(1 + q^2)^-1"]


def _product(rng, n):
    """Up to 9 z/zs letters, some as ^2 or ^3, at most 10 anti-Wick pairs,
    led by a coefficient 60% of the time; for this test a second coefficient
    may also stand at a random place inside the product."""
    while True:
        left = rng.randint(1, 9)
        factors, starred, inversions = [], 0, 0
        while left:
            cls = rng.choice(("z", "zs"))
            r = rng.random()
            e = min(3 if r < 0.05 else 2 if r < 0.15 else 1, left)
            atom = f"{cls}[{rng.randint(1, n)},{rng.randint(1, n)}]"
            factors.append(atom if e == 1 else f"{atom}^{e}")
            if cls == "zs":
                starred += e
            else:
                inversions += starred * e
            left -= e
        if inversions <= 10:
            break
    if rng.random() < 0.6:
        factors.insert(0, rng.choice(COEFFS))
    if rng.random() < 0.3:
        factors.insert(rng.randint(0, len(factors)), rng.choice(COEFFS))
    return "*".join(factors)


def _expressions(seed, n, count):
    rng = random.Random(f"parser:{n}:{seed}")
    out = []
    for _ in range(count):
        expr = _product(rng, n)
        for _ in range(rng.randint(0, 2)):
            expr += rng.choice((" + ", " - ")) + _product(rng, n)
        out.append(expr)
    return out


def test_a_seeded_normalize_stream_matches_the_letter_by_letter_rule():
    texts = _expressions(19, 2, 520)
    assert len(set(texts)) >= 500
    assert sum("^-1" in t for t in texts) > 100
    for text in texts:
        _same_result(text, 2)


# -- errors --------------------------------------------------------------------

@pytest.mark.parametrize("text, n", [
    ("z[1,1]*q*zeta[1,1]", 1),           # mixed families
    ("2*z[1,1]*(1 + q^2)^-1*t[1,1]", 1),
    ("zetas[1,1]*v*(z[1,1] + 1)", 1),
    ("q*(z[1,1] + 1)^-1", 1),            # negative power of a non-scalar
    ("z[1,1]*2*(zs[1,1] - q)^-2", 1),
    ("z[1,1]*0^-1", 1),                  # inverse of zero
    ("(q - q)^-1*z[1,1]", 1),
    ("z[1,1]*q*(z[1,1] - z[1,1])^-1", 1),
    ("z[1,1]*q*", 1),                    # syntax
    ("z[1,1]*1/0*zs[1,1]", 1),
    ("q*z[3,1]", 2),                     # out of range
    ("2*z[1,1]*w[1,1]", 1),              # unknown atom
])
def test_errors_match_the_letter_by_letter_rule(text, n):
    with pytest.raises(ExprError) as want:
        _reference(text, n)
    with pytest.raises(ExprError) as got:
        parse_expr(text, n)
    assert str(got.value) == str(want.value)
    assert got.value.pos == want.value.pos


# -- the tokenizer -------------------------------------------------------------

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _tokenize_loop(text):
    """The tokenizer before the single finditer pass: one match per token,
    each tested group by group."""
    token = re.compile(r"\s*(?:(\d+)|([A-Za-z]+)|([\[\],()*+^/-])|(\S))")
    out = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            break
        if m.group(4):
            raise ExprError(f"unexpected character {m.group(4)!r}", m.start(4))
        if m.group(1):
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _benchmark_streams():
    spec = importlib.util.spec_from_file_location("qball_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [e for seed in (0, 1, 2) for e in workloads.expressions(seed, 2)]


def test_tokenizer_matches_the_match_loop_on_the_benchmark_streams():
    texts = _benchmark_streams()
    assert len(texts) == 6000
    for text in texts:
        assert parser._tokenize(text) == _tokenize_loop(text), text


@pytest.mark.parametrize("text", [
    "", "   ", "z[1,1]  ", "\tq^-12 *\n zs[2,1] ", "3/4*v", "007*q",
    "z[1,1] & 2", "q $", "  #", "3 . 4", "z[1,1]*\u00e9", "\u0663*q", "q\u00a0*v",
    "zs[1,1]*z[1,2]_", "((q))", "z[1;1]",
])
def test_tokenizer_matches_the_match_loop_on_edge_and_bad_inputs(text):
    try:
        want = _tokenize_loop(text)
    except ExprError as e:
        with pytest.raises(ExprError) as got:
            parser._tokenize(text)
        assert (str(got.value), got.value.pos) == (str(e), e.pos)
    else:
        assert parser._tokenize(text) == want
