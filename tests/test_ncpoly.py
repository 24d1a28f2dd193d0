import random
from fractions import Fraction
from itertools import product

import pytest

from qball.algebras import bidegree, boundary_algebra, matrix_algebra, pol_algebra
from qball.kernels import poisson_space
from qball import ncpoly
from qball.ncpoly import (MAX_REWRITE_STEPS, Algebra, Generator, NCPoly,
                          RewriteLimitExceeded, UnknownGeneratorError,
                          add_terms, normalize, overlap_residuals)
from qball.scalars import ONE, qpow

ALGEBRAS = lambda: [pol_algebra(1), pol_algebra(2),
                    matrix_algebra(2, 4), boundary_algebra(2)]


def test_swapped_products_solve_the_defining_relations():
    # the rewrite output must satisfy the relation it was solved from
    alg = pol_algebra(2)
    z = lambda a, al: alg.gen("z", a, al)
    # same row, alpha < beta:  z_a^alpha z_a^beta = q z_a^beta z_a^alpha
    assert z(1, 1) * z(1, 2) == (z(1, 2) * z(1, 1)).scale(qpow(1))
    assert z(1, 2) * z(1, 1) == alg.monomial(
        (alg.gen_code("z", 1, 1), alg.gen_code("z", 1, 2)), qpow(-1))
    # a < b, alpha < beta: z_a^al z_b^be = z_b^be z_a^al + (q-q^-1) z_a^be z_b^al
    lhs = z(1, 1) * z(2, 2)
    rhs = z(2, 2) * z(1, 1) + (z(1, 2) * z(2, 1)).scale(qpow(1) - qpow(-1))
    assert lhs == rhs


def test_spec_normalize_examples():
    alg = pol_algebra(2)
    p = alg.monomial((alg.gen_code("z", 1, 2), alg.gen_code("z", 1, 1)))
    assert p.terms == {(alg.gen_code("z", 1, 1), alg.gen_code("z", 1, 2)): qpow(-1)}
    p = alg.monomial((alg.gen_code("z", 2, 2), alg.gen_code("z", 1, 1)))
    w1 = (alg.gen_code("z", 1, 1), alg.gen_code("z", 2, 2))
    w2 = (alg.gen_code("z", 1, 2), alg.gen_code("z", 2, 1))
    assert p.terms == {w1: ONE, w2: -(qpow(1) - qpow(-1))}
    assert alg.monomial((), ONE) == alg.one()
    rect = matrix_algebra(2, 4)
    p = rect.gen("t", 2, 1) * rect.gen("t", 1, 2)
    assert p == rect.gen("t", 1, 2) * rect.gen("t", 2, 1)


def test_unknown_generator_raises():
    alg = pol_algebra(1)
    with pytest.raises(UnknownGeneratorError):
        alg.gen("z", 0, 1)
    with pytest.raises(UnknownGeneratorError):
        normalize(alg, [((99,), ONE)])


@pytest.mark.parametrize("alg", [pol_algebra(1), pol_algebra(2), boundary_algebra(1),
                                 boundary_algebra(2), matrix_algebra(1, 2),
                                 matrix_algebra(2, 4), matrix_algebra(4, 4)],
                         ids=lambda a: a.name)
def test_normalize_of_a_combination_is_the_sum_of_one_word_normal_forms(alg):
    rng = random.Random(12)
    for _ in range(20):
        terms = [(_random_word(rng, alg, 5), qpow(rng.randint(-2, 2)))
                 for _ in range(rng.randint(1, 6))]
        terms.append(terms[0])  # a repeated word
        expect = alg.sum(normalize(alg, [t]) for t in terms)
        assert normalize(alg, terms) == expect
        assert normalize(alg, iter(terms)) == expect
        negated = [(w, -c) for w, c in terms]
        rng.shuffle(negated)
        assert normalize(alg, terms + negated).terms == {}
    assert normalize(alg, []) == alg.zero()


def test_normalize_checks_every_code_of_a_combination():
    alg = pol_algebra(1)
    good = ((0, 1), ONE)
    for bad in [((2,), ONE), ((1, -1), ONE), ((0, 7), ONE - ONE)]:
        for terms in ([bad, good], [good, bad], [good, bad, good]):
            with pytest.raises(UnknownGeneratorError):
                normalize(alg, terms)


def test_rewrite_budget_is_per_input_word(monkeypatch):
    # x1 x0 -> q x0 x1, so x1^a x0^b takes exactly a * b rewrites
    q = qpow(1)
    alg = Algebra("swap", [Generator("x", i, 0) for i in range(2)],
                  lambda a, g, h: [(q, (0, 1))])
    monkeypatch.setattr(ncpoly, "MAX_REWRITE_STEPS", 4)
    fits = (1, 1, 0, 0)
    got = normalize(alg, [(fits, ONE), ((1, 0), ONE), (fits, ONE)])
    assert got.terms == {(0, 0, 1, 1): qpow(4) + qpow(4), (0, 1): q}
    with pytest.raises(RewriteLimitExceeded):
        normalize(alg, [((1, 1, 1, 0, 0), ONE)])


def _normalize_rescan(alg, terms):
    """The normalizer as it was before the descent search resumed: every
    word popped is searched for its left-most descent from position 0."""
    ngens = len(alg.gens)
    pending = []
    for w, c in terms:
        for g in w:
            if not 0 <= g < ngens:
                raise UnknownGeneratorError(f"code {g} not in {alg.name}")
        if not c.is_zero():
            pending.append((c, w))
    budget = MAX_REWRITE_STEPS * len(pending)
    pending.reverse()
    acc: dict = {}
    steps = 0
    while pending:
        c, w = pending.pop()
        pos = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), -1)
        if pos < 0:
            add_terms(acc, ((w, c),))
            continue
        steps += 1
        if steps > budget:
            raise RewriteLimitExceeded(
                f"{alg.name}: rewrite budget exhausted (non-terminating table?)")
        head, tail = w[:pos], w[pos + 2:]
        for rc, rw in alg.pair_rule(w[pos], w[pos + 1]):
            pending.append((c * rc, head + rw + tail))
    return NCPoly(alg, acc)


def _random_poly(rng, alg, terms, max_len):
    return alg.sum(alg.monomial(_random_word(rng, alg, max_len), qpow(rng.randint(-2, 2)))
                   for _ in range(terms))


def test_products_match_the_rescan_reference(monkeypatch):
    # a product gives the same terms, in the same order, from the same
    # pair_rule calls as rescanning each word from position 0
    calls = [0]
    pair_rule = Algebra.pair_rule

    def counting(alg, g, h):
        calls[0] += 1
        return pair_rule(alg, g, h)

    monkeypatch.setattr(Algebra, "pair_rule", counting)
    rng = random.Random(2204)
    for alg in ALGEBRAS() + [pol_algebra(3)]:
        for _ in range(40):
            a, b = (_random_poly(rng, alg, rng.randint(0, 3), 4) for _ in range(2))
            calls[0] = 0
            want = _normalize_rescan(alg, [(w1 + w2, c1 * c2)
                                           for w1, c1 in a.terms.items()
                                           for w2, c2 in b.terms.items()])
            want_calls, calls[0] = calls[0], 0
            got = a * b
            assert list(got.terms.items()) == list(want.terms.items()), alg.name
            assert calls[0] == want_calls, alg.name


def test_powers_equal_repeated_multiplication(monkeypatch):
    rng = random.Random(2205)
    cases = [(alg, _random_poly(rng, alg, t, 3))
             for alg in (pol_algebra(2), boundary_algebra(2)) for t in (0, 1, 2, 3)]
    cases.append((pol_algebra(1), pol_algebra(1).scalar(qpow(1) + ONE)))
    products = [0]
    mul = NCPoly.__mul__

    def counting(a, b):
        products[0] += 1
        return mul(a, b)

    for alg, p in cases:
        want = alg.one()
        for k in range(5):
            monkeypatch.setattr(NCPoly, "__mul__", counting)
            products[0] = 0
            got = p ** k
            assert products[0] == max(k - 1, 0)
            monkeypatch.setattr(NCPoly, "__mul__", mul)
            assert list(got.terms.items()) == list(want.terms.items()), (alg.name, k)
            want = want * p
    with pytest.raises(ValueError):
        pol_algebra(1).one() ** -1


def _resume_inputs():
    for alg in (pol_algebra(2), boundary_algebra(2), matrix_algebra(2, 4)):
        for k in range(5):
            for w in product(range(alg.ngens()), repeat=k):
                yield alg, w
    alg, rng = pol_algebra(3), random.Random(1904)
    for _ in range(400):
        yield alg, _random_word(rng, alg, 8)


def test_resumed_descent_search_matches_the_rescan_reference(monkeypatch):
    # every word of length <= 4 over three n = 2 algebras and random words
    # of length <= 8 over pol_algebra(3): the same terms, in the same
    # order, from the same number of rewrites (pair_rule calls)
    calls = [0]
    pair_rule = Algebra.pair_rule

    def counting(alg, g, h):
        calls[0] += 1
        return pair_rule(alg, g, h)

    monkeypatch.setattr(Algebra, "pair_rule", counting)
    inputs = steps = 0
    for alg, w in _resume_inputs():
        terms = [(w, qpow(1))]
        calls[0] = 0
        want = _normalize_rescan(alg, terms)
        want_calls, calls[0] = calls[0], 0
        got = normalize(alg, terms)
        assert list(got.terms.items()) == list(want.terms.items()), (alg.name, w)
        assert calls[0] == want_calls, (alg.name, w)
        inputs, steps = inputs + 1, steps + want_calls
    assert inputs == 3 * sum(8 ** k for k in range(5)) + 400
    assert steps > inputs


def test_unit_and_centrality_of_det2():
    alg = pol_algebra(2)
    z = lambda a, al: alg.gen("z", a, al)
    det = z(1, 1) * z(2, 2) - (z(1, 2) * z(2, 1)).scale(qpow(1))
    p = z(1, 1)
    assert alg.one() * p == p
    assert det * p == p * det
    assert z(1, 1) * z(1, 1) == alg.monomial(
        (alg.gen_code("z", 1, 1), alg.gen_code("z", 1, 1)))


def _random_word(rng, alg, max_len=8):
    return tuple(rng.randrange(alg.ngens()) for _ in range(rng.randint(0, max_len)))


@pytest.mark.parametrize("alg", ALGEBRAS() + [pol_algebra(3), boundary_algebra(3),
                                               matrix_algebra(3, 6), matrix_algebra(4, 4)],
                         ids=lambda a: a.name)
def test_every_overlap_ambiguity_resolves(alg):
    assert overlap_residuals(alg) == []


def test_overlap_residuals_report_a_broken_table():
    # x1 x0 -> q x0 x1, x2 x1 -> q x1 x2, x2 x0 -> x0 x2 + x0: the overlap
    # x2 x1 x0 reduces to q^2 x0 x1 x2 + q^2 x0 x1 from the left but to
    # q^2 x0 x1 x2 + q x0 x1 from the right
    q = qpow(1)
    table = {(1, 0): [(q, (0, 1))], (2, 1): [(q, (1, 2))],
             (2, 0): [(ONE, (0, 2)), (ONE, (0,))]}
    alg = Algebra("broken", [Generator("x", i, 0) for i in range(3)],
                  lambda a, g, h: table[(g, h)])
    assert [(t, r.terms) for t, r in overlap_residuals(alg)] == [
        ((2, 1, 0), {(0, 1): qpow(2) - q})]


@pytest.mark.parametrize("alg", ALGEBRAS(), ids=lambda a: a.name)
def test_associativity_on_random_triples(alg):
    rng = random.Random(999)
    for _ in range(60):
        ps = [NCPoly(alg, {}) for _ in range(3)]
        ps = [normalize(alg, [(_random_word(rng, alg, 3), qpow(rng.randint(-1, 1)))])
              for _ in range(3)]
        p1, p2, p3 = ps
        assert (p1 * p2) * p3 == p1 * (p2 * p3)


def test_grading_components_sum_back():
    sp = poisson_space(2, 6)
    alg, one2 = sp.leg1.alg, sp.leg2.alg.one()
    rng = random.Random(31)
    for _ in range(50):
        u = sp.from_pair(alg.monomial(_random_word(rng, alg, 6)), one2)
        parts = {(j, k): u.first_component(j, k)
                 for j in range(7) for k in range(7)}
        for d, comp in parts.items():
            for key in comp.terms:
                assert bidegree(alg, key[4]) == d
        assert sp.sum(parts.values()) == u


def test_bidegree_of_mixed_word():
    alg = pol_algebra(2)
    p = alg.gen("z", 1, 1) * alg.gen("zs", 2, 2)
    assert {bidegree(alg, w) for w in p.terms} == {(1, 1)}
    assert bidegree(alg, ()) == (0, 0)


@pytest.mark.parametrize("one", [ONE, Fraction(1)], ids=["VScalar", "Fraction"])
def test_add_terms_drops_keys_that_cancel(one):
    two = one + one
    acc = add_terms({}, [("a", one), ("b", two), ("a", -one), ("c", one - one)])
    assert acc == {"b": two}
    assert add_terms(acc, [("b", -two)]) is acc
    assert acc == {}
    assert add_terms({"a": one}, [("a", one)]) == {"a": two}


def test_algebra_sum_builds_one_polynomial():
    alg = pol_algebra(1)
    z, zs = alg.gen("z", 1, 1), alg.gen("zs", 1, 1)
    assert alg.sum([z, zs * z, -z]) == zs * z
    assert alg.sum([]) == alg.zero()
    assert alg.sum([z, -z]).terms == {}
    with pytest.raises(ValueError):
        alg.sum([pol_algebra(2).one()])


def test_coeff_requires_canonical_word():
    alg = pol_algebra(1)
    zc, sc = alg.gen_code("z", 1, 1), alg.gen_code("zs", 1, 1)
    p = alg.gen("z", 1, 1).scale(qpow(1))
    assert p.coeff((zc,)) == qpow(1)
    with pytest.raises(ValueError):
        p.coeff((sc, zc))


def test_rewrites_shrink_the_degree_lex_measure():
    # every rule output is shorter, or same length and lexicographically
    # smaller: the termination argument for the engine
    for alg in ALGEBRAS():
        G = alg.ngens()
        for g in range(G):
            for h in range(g):
                for _, w in alg.pair_rule(g, h):
                    assert len(w) < 2 or w < (g, h)
