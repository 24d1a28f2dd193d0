import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from qball import scalars
from qball.scalars import (ONE, PoleError, Q, V, VScalar, ZERO, neg_qpow,
                           qpow, vpow)


def _qgcd_is_constant(a, b):
    # Euclid over the rationals, independent of the module's Z[v] gcd
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while b:
        while len(a) >= len(b):
            c = a[-1] / b[-1]
            k = len(a) - len(b)
            for i, y in enumerate(b):
                a[k + i] -= c * y
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        a, b = b, a
    return len(a) == 1


def assert_canonical(x):
    """Check every clause of the canonical form in the scalars docstring."""
    assert isinstance(x.shift, int)
    assert isinstance(x.num, tuple) and isinstance(x.den, tuple)
    assert all(isinstance(c, int) for c in x.num + x.den)
    if not x.num:
        assert (x.shift, x.num, x.den) == (0, (), (1,)), "zero stored oddly"
        return
    assert x.den, "empty denominator"
    assert x.num[0] != 0 and x.den[0] != 0, "v-power content outside shift"
    assert x.num[-1] != 0 and x.den[-1] != 0, "trailing zero coefficient"
    assert x.den[-1] > 0, "leading denominator coefficient not positive"
    g = 0
    for c in x.num + x.den:
        g = gcd(g, c)
    assert g == 1, "num/den pair has integer content"
    assert _qgcd_is_constant(x.num, x.den), "num and den share a factor"


def test_checker_rejects_each_broken_clause():
    bad = [
        (0, (0, 1), (1,)),       # v-power content in num
        (0, (1,), (0, 1)),       # v-power content in den
        (0, (1, 0), (1,)),       # trailing zero
        (0, (1,), (-1,)),        # negative leading den
        (0, (2, 2), (2, 4)),     # integer content
        (0, (1, 1), (1, 2, 1)),  # common factor 1 + v
        (1, (), (1,)),           # zero with a shift
    ]
    for shift, num, den in bad:
        with pytest.raises(AssertionError):
            assert_canonical(VScalar(shift, num, den, _canonical=True))


def test_canonical_constructors_and_fast_paths():
    for x in (ZERO, ONE, V, Q):
        assert_canonical(x)
    for k in range(-12, 13):
        assert_canonical(VScalar.from_int(k))
        assert_canonical(vpow(k))
        assert_canonical(qpow(k))
        assert_canonical(neg_qpow(k))
        assert_canonical(-vpow(k))
        for d in range(-5, 6):
            if d:
                assert_canonical(VScalar.from_fraction(Fraction(k, d)))
    polys = [VScalar(s, n, (1,)) for s in (-2, 0, 3)
             for n in ((1,), (-2,), (1, 1), (3, 0, -1), (0, 2, 4))]
    for a in polys + [V, Q, -Q, 2 * V]:
        assert_canonical(-a)
        assert_canonical(a + 0)
        assert_canonical(0 + a)
        for b in polys + [V, Q, -V]:
            assert a.den == (1,) == b.den
            assert_canonical(a * b)
    for x in (2 * Q, Q * V, V * V, V ** 2, Q ** 3, (-V) ** 5):
        assert_canonical(x)


def _conv(a, b):
    """Product of integer coefficient tuples, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _grid():
    """v^s num / den over a finite grid, each built by the general route;
    (1, 1) and (1, 0, 1) are true denominators, and some pairs reduce."""
    nums = [(1,), (-1,), (2,), (1, 1), (-1, 0, 1), (1, -2, 1)]
    dens = [(1,), (1, 1), (1, 0, 1)]
    return [VScalar(s, n, d) for s in range(-3, 4) for n in nums for d in dens]


def test_products_and_sums_match_the_general_route_on_a_grid():
    # every pair of the grid, so every fast path of __mul__ and __add__
    # (unit monomial, Laurent, and neither) meets every kind of operand,
    # and every inverse (unit monomial or not); the reference is the
    # unreduced triple through _canonicalise
    grid = _grid()
    for a in grid:
        got, want = a.inverse(), VScalar(-a.shift, a.den, a.num)
        assert (got.shift, got.num, got.den) == (want.shift, want.num, want.den), a
        assert_canonical(got)
        assert a * got == ONE, a
    for a in grid:
        for b in grid:
            den = _conv(a.den, b.den)
            m = min(a.shift, b.shift)
            pa = (0,) * (a.shift - m) + _conv(a.num, b.den)
            pb = (0,) * (b.shift - m) + _conv(b.num, a.den)
            width = max(len(pa), len(pb))
            total = tuple(x + y for x, y in zip(pa + (0,) * (width - len(pa)),
                                                pb + (0,) * (width - len(pb))))
            for got, want in (
                    (a * b, VScalar(a.shift + b.shift, _conv(a.num, b.num), den)),
                    (a + b, VScalar(m, total, den))):
                assert ((got.shift, got.num, got.den)
                        == (want.shift, want.num, want.den)), (a, b)
                assert_canonical(got)


def test_laurent_and_unit_monomial_operands_skip_the_gcd_route(monkeypatch):
    grid = _grid()
    laurent = [x for x in grid if x.den == (1,)]
    units = [x for x in laurent if x.num in ((1,), (-1,))]

    def general_route(*args):
        raise AssertionError("reached _canonicalise")

    monkeypatch.setattr(scalars, "_canonicalise", general_route)
    for a in laurent:
        for b in laurent:
            a * b, a + b, a - b
    for u in units:
        assert u.inverse() * u == ONE
        for x in grid:
            u * x, x * u
    fraction = next(x for x in grid if x.den != (1,))
    with pytest.raises(AssertionError, match="_canonicalise"):
        fraction + fraction


def test_powers_equal_repeated_multiplication():
    grid = _grid()
    assert any(x.den == (1,) for x in grid) and any(x.den != (1,) for x in grid)
    for x in grid:
        for k in range(-5, 6):
            want, step = ONE, (x if k >= 0 else x.inverse())
            for _ in range(abs(k)):
                want = want * step
            got = x ** k
            assert (got.shift, got.num, got.den) == (want.shift, want.num, want.den)
            assert_canonical(got)


def test_powers_square_only_while_bits_remain(monkeypatch):
    # x ** k makes one squaring per bit after the lowest and one product per
    # set bit; squaring after the last bit built a discarded x^(2^(m+1))
    calls = []
    mul = VScalar.__mul__

    def counting(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(VScalar, "__mul__", counting)
    x = (ONE + Q).inverse()
    for k in range(1, 17):
        calls.clear()
        x ** k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1"), k


def _pmul_pairs():
    """Every pair of tuples of length <= 3 with coefficients in -2..2, then
    seeded operands up to length 17 whose nonzeros sit at every second or
    every fourth index, as the even numerators of the kernels do."""
    small = [c for k in range(4) for c in product(range(-2, 3), repeat=k)]
    pairs = [(a, b) for a in small for b in small]
    rng = random.Random(2203)
    for stride in (2, 4):
        ops = []
        for length in range(1, 18):
            for _ in range(3):
                ops.append(scalars._ptrim([
                    rng.randint(-300, 300) if i % stride == 0 else 0
                    for i in range(length)]))
        pairs += [(a, b) for a in ops for b in ops]
    return pairs


def test_sparse_memoised_products_match_the_dense_convolution():
    # cold in input order, then in reverse order, where the first PMUL_MEMO
    # products come from the memo, then cold in reverse order: a memo keyed
    # on one operand, or a loop that drops a coefficient of either operand,
    # gives a wrong product somewhere
    pairs = _pmul_pairs()
    assert len(pairs) > 24_000
    want = [scalars._ptrim(list(_conv(a, b))) for a, b in pairs]
    cases = list(zip(pairs, want))

    def check(cases):
        for (a, b), w in cases:
            got = scalars._pmul(a, b)
            assert got == w and isinstance(got, tuple), (a, b)

    scalars._pmul.cache_clear()
    check(cases)
    assert scalars._pmul.cache_info().hits == 0
    check(cases[::-1])
    assert scalars._pmul.cache_info().hits == scalars.PMUL_MEMO
    scalars._pmul.cache_clear()
    check(cases[::-1])


def test_products_with_one_and_zero_return_an_operand_or_zero():
    for x in _grid() + [ZERO, ONE, -ONE, V, Q]:
        assert x * ONE is x
        assert ONE * x is x
        assert x * ZERO is ZERO
        assert ZERO * x is ZERO


def test_laurent_sums_with_interior_zeros_match_the_general_route():
    # numerators with gaps, shifted against each other; with each negated
    # too, the sum cancels fully, at its low end, at its high end or inside
    nums = [(1,), (2, 0, 1), (1, 0, 0, -3), (1, 0, 2, 0, 1), (-1, 0, 0, 0, 0, 4)]
    nums += [scalars._pneg(a) for a in nums]
    cases = 0
    for a, b in product(nums, repeat=2):
        for s, t in product(range(-3, 4), repeat=2):
            m = min(s, t)
            total = scalars._padd((0,) * (s - m) + a, (0,) * (t - m) + b)
            want = VScalar(m, total, (1,))
            for got in (scalars._laurent_add(s, a, t, b),
                        VScalar(s, a, (1,)) + VScalar(t, b, (1,))):
                assert (got.shift, got.num, got.den) == (want.shift, want.num, want.den)
                assert_canonical(got)
            cases += not want
    assert cases >= 10 * 7  # full cancellation happens at every shift


def _pdiv_exact_fraction(a, b):
    """The exact division over Fraction that the integer one replaced."""
    if not a:
        return ()
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    r = [Fraction(x) for x in a]
    lb = Fraction(b[-1])
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] / lb
        q[k] = c
        if c:
            for i, y in enumerate(b):
                r[k + i] -= c * y
    assert all(x == 0 for x in r), "non-exact polynomial division"
    assert all(x.denominator == 1 for x in q)
    return scalars._ptrim([int(x) for x in q])


def test_integer_exact_division_matches_the_fraction_one_on_a_grid():
    # every integer polynomial of degree <= 3 with coefficients in -2..2:
    # a b / b gives a back on all 390,000 pairs; the Fraction reference runs
    # on the sub-grid of coefficients in (-2, 0, 1), which has leading
    # coefficients of both signs, unit and not, and gaps
    polys = sorted({scalars._ptrim(list(c)) for c in product(range(-2, 3), repeat=4)})
    assert len(polys) == 5 ** 4
    sub = {scalars._ptrim(list(c)) for c in product((-2, 0, 1), repeat=4)}
    assert len(sub) == 3 ** 4
    for b in polys[1:]:
        for a in polys:
            ab = scalars._pmul(a, b)
            assert scalars._pdiv_exact(ab, b) == a
            if a in sub and b in sub:
                assert _pdiv_exact_fraction(ab, b) == a


@pytest.mark.parametrize("a, b", [
    ((1, 0, 1), (1, 1)),      # v^2 + 1 by v + 1: remainder 2
    ((3,), (2,)),             # a non-integral constant quotient
    ((1, 2), (0, 2)),         # (1 + 2v) / 2v: remainder 1
    ((1, 1), (1, 0, 1)),      # divisor of higher degree
    ((2, 3, 1), (1, 2)),      # (1 + v)(2 + v) by 1 + 2v
])
def test_non_exact_division_raises(a, b):
    with pytest.raises(ArithmeticError, match="non-exact"):
        scalars._pdiv_exact(a, b)


def test_constants_match_the_power_helpers():
    assert Q == qpow(1) and hash(Q) == hash(qpow(1))
    assert V == vpow(1) and hash(V) == hash(vpow(1))
    assert V * V == Q and hash(V * V) == hash(Q)
    assert {qpow(1): "q"}[Q] == "q"


def test_q_minus_qinv_canonical_form():
    x = Q - Q.inverse()
    assert_canonical(x)
    # v^2 - v^-2 == (v^4 - 1) / v^2: shift -2, numerator v^4 - 1
    assert x.shift == -2
    assert x.num == (-1, 0, 0, 0, 1)
    assert x.den == (1,)
    assert x.to_text() == "q - q^-1"


def test_geometric_sum_cancellation():
    n = 2
    val = (ONE - qpow(-2 * n)) / (ONE - qpow(-2))
    expect = ONE + qpow(-2)
    # cross-multiplied check, independent of the canonical form
    assert val * (ONE - qpow(-2)) == expect * (ONE - qpow(-2))
    assert val == expect


def test_field_inverse_of_minus_q_cubed():
    x = neg_qpow(3)
    assert x == -qpow(3)
    assert x * x.inverse() == ONE


def test_eval_classical_limit():
    assert (Q - Q.inverse()).eval_at(1) == 0
    assert Q.eval_at(2) == 4
    with pytest.raises(PoleError):
        (ONE / (ONE - Q)).eval_at(1)
    with pytest.raises(PoleError):
        vpow(-1).eval_at(0)


def test_den_constant_term_is_nonzero():
    x = ONE / vpow(3)
    assert x.den[0] != 0 and x.shift == -3
    y = (ONE + V) / (vpow(2) * (ONE + Q))
    assert y.den[0] != 0


def test_canonical_gcd_reduction():
    # (1 - q^2)/(1 - q) reduces to 1 + q
    x = (ONE - qpow(2)) / (ONE - Q)
    assert x == ONE + Q
    # positive leading denominator
    y = ONE / (ONE - Q)
    assert y.den[-1] > 0


def _rand_scalar(rng):
    num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 4)))
    den = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
    if not any(den):
        den = (1,)
    return VScalar(rng.randint(-3, 3), num, den)


def test_field_axioms_on_random_triples():
    rng = random.Random(12345)
    for _ in range(1000):
        a, b, c = (_rand_scalar(rng) for _ in range(3))
        for x in (a, b, c, a + b, a * b, a - b, -a, a * (b + c)):
            assert_canonical(x)
            assert bool(x) == (not x.is_zero())
        if not b.is_zero():
            assert_canonical(a / b)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_eval_is_ring_homomorphism():
    rng = random.Random(54321)
    v0 = Fraction(3, 2)
    for _ in range(200):
        a, b = _rand_scalar(rng), _rand_scalar(rng)
        try:
            va, vb = a.eval_at(v0), b.eval_at(v0)
        except PoleError:
            continue
        assert_canonical(a * b)
        assert_canonical(a + b)
        assert (a * b).eval_at(v0) == va * vb
        assert (a + b).eval_at(v0) == va + vb


@settings(max_examples=120, deadline=None)
@given(st.integers(-6, 6), st.integers(-6, 6))
def test_vpow_is_a_group_homomorphism(i, j):
    for x in (vpow(i), qpow(i), vpow(i) * vpow(j), neg_qpow(j), vpow(i) ** j,
              vpow(i) - vpow(j)):
        assert_canonical(x)
        assert bool(x) == (not x.is_zero())
    assert vpow(i) * vpow(j) == vpow(i + j)
    assert qpow(i) == vpow(2 * i)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_rendering_even_powers_use_q():
    assert qpow(2).to_text() == "q^2"
    assert vpow(1).to_text() == "v"
    assert vpow(-3).to_text() == "v^-3"
    assert (-qpow(1)).to_text() == "-q"
    assert (ONE / (ONE - Q)).to_text() == "-1*(q - 1)^-1"
