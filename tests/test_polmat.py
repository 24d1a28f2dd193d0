import random

import pytest

from qball import boundary, polmat, suites
from qball.algebras import bidegree, pol_algebra, star_poly
from qball.classical import classical_det_one_minus_zzstar, classical_poly
from qball.kernels import poisson_space
from qball.ncpoly import NCPoly
from qball.polmat import GLnElement, gl_star_gen, shilov_residuals_gl, y_element
from qball.qmatrix import qdet
from qball.scalars import ONE, qpow


def _r_table(n, b, a):
    """Brute-force oracle for the reflection coefficients, written out
    directly from the four-case table."""
    out = {}
    for bp in range(1, n + 1):
        for ap in range(1, n + 1):
            if a != b and b == bp and a == ap:
                out[(bp, ap)] = qpow(-1)
            elif a == b == ap == bp:
                out[(bp, ap)] = ONE
            elif a == b and ap == bp and ap > a:
                out[(bp, ap)] = -(qpow(-2) - ONE)
    return out


def wick_oracle(n, b, beta, a, alpha):
    """(z_b^beta)* z_a^alpha by direct expansion of the double R-sum."""
    alg = pol_algebra(n)
    acc = alg.zero()
    for (bp, ap), r1 in _r_table(n, b, a).items():
        for (betap, alphap), r2 in _r_table(n, beta, alpha).items():
            w = (alg.gen_code("z", ap, alphap), alg.gen_code("zs", bp, betap))
            acc = acc + NCPoly(alg, {w: qpow(2) * r1 * r2})
    if a == b and alpha == beta:
        acc = acc + alg.scalar(ONE - qpow(2))
    return acc


@pytest.mark.parametrize("n", [1, 2])
def test_wick_normalization_matches_double_sum_oracle(n):
    alg = pol_algebra(n)
    for b in range(1, n + 1):
        for beta in range(1, n + 1):
            for a in range(1, n + 1):
                for alpha in range(1, n + 1):
                    got = alg.gen("zs", b, beta) * alg.gen("z", a, alpha)
                    assert got == wick_oracle(n, b, beta, a, alpha)


def test_wick_n1_paper_value():
    alg = pol_algebra(1)
    got = alg.gen("zs", 1, 1) * alg.gen("z", 1, 1)
    z, zs = alg.gen_code("z", 1, 1), alg.gen_code("zs", 1, 1)
    assert got.terms == {(z, zs): qpow(2), (): ONE - qpow(2)}


def test_wick_n2_frozen_value():
    alg = pol_algebra(2)
    got = alg.gen("zs", 1, 1) * alg.gen("z", 1, 1)
    w = lambda a, al: (alg.gen_code("z", a, al), alg.gen_code("zs", a, al))
    assert got.terms == {
        w(1, 1): qpow(2),
        w(1, 2): qpow(2) - ONE,
        w(2, 1): qpow(2) - ONE,
        w(2, 2): qpow(2) * (ONE - qpow(-2)) ** 2,
        (): ONE - qpow(2),
    }


def test_already_normal_word_unchanged():
    alg = pol_algebra(2)
    w = (alg.gen_code("z", 1, 2), alg.gen_code("zs", 2, 1))
    assert alg.monomial(w).terms == {w: ONE}


def test_star_basics_and_involution():
    alg = pol_algebra(2)
    z11, z22 = alg.gen("z", 1, 1), alg.gen("z", 2, 2)
    assert star_poly(z11) == alg.gen("zs", 1, 1)
    assert star_poly(z11 * z22) == alg.gen("zs", 2, 2) * alg.gen("zs", 1, 1)
    rng = random.Random(7)
    for _ in range(200):
        word = tuple(rng.randrange(alg.ngens()) for _ in range(rng.randint(0, 4)))
        p = alg.monomial(word, qpow(rng.randint(-2, 2)))
        assert star_poly(star_poly(p)) == p


def test_star_antimultiplicative_random_pairs():
    alg = pol_algebra(2)
    rng = random.Random(8)
    for _ in range(100):
        w1 = tuple(rng.randrange(alg.ngens()) for _ in range(rng.randint(0, 3)))
        w2 = tuple(rng.randrange(alg.ngens()) for _ in range(rng.randint(0, 3)))
        p, r = alg.monomial(w1), alg.monomial(w2)
        assert star_poly(p * r) == star_poly(r) * star_poly(p)


def _component_11(p):
    return NCPoly(p.alg, {w: c for w, c in p.terms.items()
                          if bidegree(p.alg, w) == (1, 1)})


def test_y_element_small_cases():
    a1 = pol_algebra(1)
    assert y_element(1) == a1.one() - a1.gen("z", 1, 1) * a1.gen("zs", 1, 1)
    a2 = pol_algebra(2)
    expect = a2.zero()
    for a in (1, 2):
        for al in (1, 2):
            expect = expect - a2.gen("z", a, al) * a2.gen("zs", a, al)
    assert _component_11(y_element(2)) == expect


@pytest.mark.parametrize("n", [1, 2])
def test_y_classical_limit_is_det(n):
    assert classical_poly(y_element(n)) == classical_det_one_minus_zzstar(n)


@pytest.mark.parametrize("n", [1, 2])
def test_y_quasi_commutes(n):
    alg = pol_algebra(n)
    y = y_element(n)
    for a in range(1, n + 1):
        for al in range(1, n + 1):
            z = alg.gen("z", a, al)
            assert y * z == (z * y).scale(qpow(2))


def test_y_up_to_display_is_scalar_tolerant_only():
    # the alternative display 1 - sum (z*) z + ... agrees with y at v = 1
    # and on word support, but not coefficient by coefficient
    n = 2
    alg = pol_algebra(n)
    alt = alg.one()
    for a in range(1, n + 1):
        for al in range(1, n + 1):
            alt = alt - alg.gen("zs", a, al) * alg.gen("z", a, al)
    y = y_element(n)
    y11, alt11 = _component_11(y), _component_11(alt)
    assert set(alt11.terms) == set(y11.terms)
    assert classical_poly(alt) == classical_poly(
        NCPoly(alg, {w: c for w, c in y.terms.items() if bidegree(alg, w) <= (1, 1)}))
    assert alt11 != y11


def test_truncated_series_components():
    # a truncated series on Pol is a kernel with 1 on the second leg, and
    # its components are the first-leg components
    sp = poisson_space(1, 2)
    alg, one2 = sp.leg1.alg, sp.leg2.alg.one()
    z, zs = alg.gen("z", 1, 1), alg.gen("zs", 1, 1)
    u = sp.from_pair(alg.one() + z * z + z * zs, one2)
    assert u.first_component(0, 0) == sp.unit()
    assert u.first_component(2, 0) == sp.from_pair(z * z, one2)
    assert u.first_component(1, 1) == sp.from_pair(z * zs, one2)
    assert u.first_component(1, 0).is_zero()
    with pytest.raises(ValueError):
        u.first_component(3, 0)
    y1 = sp.from_pair(y_element(1), one2)
    assert y1.first_component(1, 1) == sp.from_pair(-(z * zs), one2)


# -- the GL_n model ---------------------------------------------------------

def test_gl_star_generator_images():
    e1 = gl_star_gen(1, 1, 1)
    assert e1.dpow == 1 and e1.poly == GLnElement.algebra(1).one()
    e2 = gl_star_gen(2, 1, 1)
    assert e2.dpow == 1
    assert e2.poly == GLnElement.algebra(2).gen("z", 2, 2).scale(qpow(-2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gl_star_is_involutive_on_generators(n):
    for a in range(1, n + 1):
        for al in range(1, n + 1):
            e = GLnElement.of_gen(n, a, al)
            assert e.star().star() == e


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shilov_relations_in_gl_model(n):
    for label, r in shilov_residuals_gl(n):
        assert r.is_zero(), f"residual at {label}"


@pytest.mark.parametrize("label", [("col", 1, 2), ("row", 2, 2)],
                         ids=lambda label: "-".join(map(str, label)))
def test_a_corrupted_unitarity_relation_is_reported_by_its_label(
        monkeypatch, fresh_reducer, label):
    # the Shilov reduction and its check in C[GL_n]_q read one list of
    # relations: one coefficient scaled by q fails that relation's check
    # alone, and changes the reduction's rules
    n = 2
    rules = boundary._reducer(n)[3]
    boundary._reducer.cache_clear()
    real = boundary.unitarity_relations

    def corrupted(m):
        for lab, terms, const in real(m):
            if lab == label:
                (c, idx), *rest = terms
                terms = [(c * qpow(1), idx)] + rest
            yield lab, terms, const

    monkeypatch.setattr(boundary, "unitarity_relations", corrupted)
    monkeypatch.setattr(polmat, "unitarity_relations", corrupted)
    assert [lab for lab, r in shilov_residuals_gl(n) if not r.is_zero()] == [label]
    assert boundary._reducer(n)[3] != rules


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rewrite_rules_lead_with_the_swapped_pair(n):
    # a property of the tables: g h rewrites to c (h, g) plus words that
    # are larger as sorted tuples, with c != 0, so the product of normal
    # words u and w leads with sorted(u + w) in the (length, word) order
    alg = GLnElement.algebra(n)
    for g in range(alg.ngens()):
        for h in range(g):
            rule = alg.pair_rule(g, h)
            words = [w for _, w in rule]
            assert min(words, key=lambda w: (len(w), w)) == (h, g)
            assert words.count((h, g)) == 1
            assert all(not c.is_zero() for c, w in rule if w == (h, g))


def test_gl_products_leave_reduction_to_the_sum():
    # there is no reduced form: a product adds the det_q powers, and a sum
    # brings its terms to the largest power, also where det_q divides the
    # result; equality and is_zero do not depend on the power
    n = 3
    det = qdet(GLnElement.algebra(n), n, cls="z")
    prod = gl_star_gen(n, 1, 2) * gl_star_gen(n, 2, 1)
    assert prod.dpow == 2
    s = GLnElement.sum(n, [prod, GLnElement.one(n)])
    assert s.dpow == 2 and s.poly == prod.poly + det * det
    whole = GLnElement.sum(n, [GLnElement(n, det * gl_star_gen(n, 1, 1).poly, 2)])
    assert whole.dpow == 2 and whole == gl_star_gen(n, 1, 1)
    assert (whole - gl_star_gen(n, 1, 1)).is_zero()
    assert suites.run_suite("star", n, 1).status == "PASS"


def test_gl_equality_by_cross_multiplication():
    n = 2
    alg = GLnElement.algebra(n)
    det = qdet(alg, n, cls="z")
    a = GLnElement(n, det * det, 2)
    assert a == GLnElement.one(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_star_scale_values(n):
    # star(det_q) = q^{-n(n-1)} det_q^{-1}
    assert polmat._det_star_scale(n) == qpow(-n * (n - 1))


def test_det_star_scale_raises_when_star_det_has_the_wrong_shape(
        monkeypatch, fresh_det_star_scale):
    # with star(det_q) = det_q there is no det_q^{-1} to match; the shape
    # check must raise ArithmeticError, not the ValueError of a negative
    # power of det_q, also under python -O
    monkeypatch.setattr(GLnElement, "star", lambda self: self)
    with pytest.raises(ArithmeticError, match="not a scalar multiple"):
        polmat._det_star_scale(2)


@pytest.mark.parametrize("d", [1, 2])
def test_det_star_scale_raises_on_one_extra_word(monkeypatch, fresh_det_star_scale, d):
    # star(det_q) = (c det_q^{d-1} + z_1^2) det_q^{-d}: right at the leading
    # word, wrong by one word elsewhere
    n = 2
    alg = GLnElement.algebra(n)
    det = qdet(alg, n, cls="z")
    bad = (det ** (d - 1)).scale(qpow(-2)) + alg.gen("z", 1, 2)
    monkeypatch.setattr(GLnElement, "star", lambda self: GLnElement(n, bad, d))
    with pytest.raises(ArithmeticError, match="not a scalar multiple"):
        polmat._det_star_scale(n)


def _swap_12_21(star_gen, n, a, al):
    return star_gen(n, al, a) if {a, al} == {1, 2} else star_gen(n, a, al)


def _negate_off_diagonal(star_gen, n, a, al):
    return star_gen(n, a, al).scale(-ONE) if a != al else star_gen(n, a, al)


@pytest.mark.parametrize("corrupt", [_swap_12_21, _negate_off_diagonal])
def test_shilov_consistency_catches_a_corrupted_gl_star(monkeypatch,
                                                        fresh_det_star_scale,
                                                        corrupt):
    # either corruption keeps star an involution on the generators, so the
    # gl-star^2 rows of the star suite pass; the unitarity relations fail
    n = 2
    star_gen = polmat.gl_star_gen
    monkeypatch.setattr(polmat, "gl_star_gen",
                        lambda n, a, al: corrupt(star_gen, n, a, al))
    assert suites.run_suite("star", n, 1).status == "PASS"
    rep = suites.run_suite("shilov-consistency", n, 1)
    assert rep.status == "FAIL"
    assert rep.residual_sample == [str((form, i, j)) for form in ("col", "row")
                                   for i in (1, 2) for j in (1, 2)]
