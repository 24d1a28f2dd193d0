import random

import pytest

from qball.algebras import boundary_algebra
from qball.boundary import (N1Boundary, UnsupportedSpanError, nu_n1,
                            shilov_reduce)
from qball.scalars import ONE, VScalar, ZERO, qpow


def test_defining_relation_reduces_to_delta():
    n = 2
    alg = boundary_algebra(n)
    for alpha in (1, 2):
        for beta in (1, 2):
            acc = alg.zero()
            for j in (1, 2):
                acc = acc + (alg.gen("zeta", j, alpha)
                             * alg.gen("zetas", j, beta)).scale(
                                 qpow(2 * n - alpha - beta))
            expect = alg.one() if alpha == beta else alg.zero()
            assert shilov_reduce(acc) == expect


def test_transposed_relation_reduces_to_weighted_delta():
    n = 2
    alg = boundary_algebra(n)
    for c in (1, 2):
        for cp in (1, 2):
            acc = alg.zero()
            for g in (1, 2):
                acc = acc + alg.gen("zeta", c, g) * alg.gen("zetas", cp, g)
            expect = alg.scalar(qpow(c + cp - 2 * n)) if c == cp else alg.zero()
            assert shilov_reduce(acc) == expect


def test_n1_unitarity():
    alg = boundary_algebra(1)
    assert shilov_reduce(alg.gen("zeta", 1, 1) * alg.gen("zetas", 1, 1)) == alg.one()
    assert shilov_reduce(alg.gen("zetas", 1, 1) * alg.gen("zeta", 1, 1)) == alg.one()


def test_irreducible_representative_survives():
    alg = boundary_algebra(2)
    w = alg.gen("zeta", 1, 1) * alg.gen("zetas", 2, 2)
    assert shilov_reduce(w) == w


def test_reduce_is_idempotent_and_linear():
    alg = boundary_algebra(2)
    rng = random.Random(5)
    zc = [alg.gen_code("zeta", a, b) for a in (1, 2) for b in (1, 2)]
    sc = [alg.gen_code("zetas", a, b) for a in (1, 2) for b in (1, 2)]
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = (rng.choice(zc), rng.choice(sc))
            terms[w] = qpow(rng.randint(-2, 2))
        terms[()] = VScalar.from_int(rng.randint(-2, 2))
        p = alg.poly(terms)
        r = shilov_reduce(p)
        assert shilov_reduce(r) == r
        p2 = alg.poly({w: c * qpow(1) for w, c in terms.items()})
        assert shilov_reduce(p + p2) == shilov_reduce(p) + shilov_reduce(p2)


def test_unsupported_span_is_an_error():
    alg = boundary_algebra(2)
    with pytest.raises(UnsupportedSpanError):
        shilov_reduce(alg.gen("zeta", 1, 1))
    with pytest.raises(UnsupportedSpanError):
        shilov_reduce(alg.gen("zeta", 1, 1) * alg.gen("zeta", 2, 2)
                      * alg.gen("zetas", 1, 1) * alg.gen("zetas", 2, 2))


def test_eliminated_monomials_do_not_survive():
    # the canonical elimination removes the lower-index (n, n) monomials
    # that the column relations solve for
    n = 2
    alg = boundary_algebra(n)
    for alpha in (1, 2):
        for beta in (1, 2):
            w = alg.gen("zeta", n, alpha) * alg.gen("zetas", n, beta)
            r = shilov_reduce(w)
            word = (alg.gen_code("zeta", n, alpha), alg.gen_code("zetas", n, beta))
            assert word not in r.terms


# -- the n = 1 Laurent model --------------------------------------------------

def test_invariant_integral_normalisation():
    assert nu_n1(N1Boundary.one()) == ONE
    for k in (-3, -1, 1, 2, 5):
        assert nu_n1(N1Boundary.zeta(k)) == ZERO
    assert nu_n1(N1Boundary.zeta(2) * N1Boundary.zeta(-2)) == ONE


def test_fourier_shift():
    rng = random.Random(17)
    p = N1Boundary({k: qpow(rng.randint(-2, 2)) for k in range(-3, 4)})
    for m in range(-3, 4):
        assert nu_n1(N1Boundary.zeta(m) * p) == p.terms.get(-m, ZERO)


def test_models_agree_on_the_reduction_span():
    alg = boundary_algebra(1)
    span = [alg.one(),
            alg.gen("zeta", 1, 1) * alg.gen("zetas", 1, 1),
            alg.gen("zetas", 1, 1) * alg.gen("zeta", 1, 1)]
    for p in span:
        assert (N1Boundary.from_boundary(shilov_reduce(p))
                == N1Boundary.from_boundary(p))
