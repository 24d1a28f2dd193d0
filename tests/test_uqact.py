from itertools import combinations_with_replacement, product

import pytest

from qball import uqact
from qball.algebras import matrix_algebra, pol_algebra, star_poly
from qball.ncpoly import NCPoly
from qball.scalars import ONE, qpow, vpow
from qball.uqact import (UqGen, act, act_expr, act_word, antipode,
                         boundary_tables, chevalley_gens, module_algebra_residuals,
                         operator_relation_residuals, pol_tables, rect_tables,
                         star_compat_residuals, star_of_antipode, tables_for,
                         ustar)
from qball.suites import run_suite


def _domain_words(t, maxdeg=2):
    zc = [t.alg.gen_code("z", a, b)
          for a in range(1, t.n + 1) for b in range(1, t.n + 1)]
    sc = [t.alg.gen_code("zs", a, b)
          for a in range(1, t.n + 1) for b in range(1, t.n + 1)]
    words = []
    for j in range(maxdeg + 1):
        for k in range(maxdeg + 1):
            for wz in combinations_with_replacement(zc, j):
                for ws in combinations_with_replacement(sc, k):
                    words.append(tuple(wz) + tuple(ws))
    return words


@pytest.mark.parametrize("n", [1, 2])
def test_prop_action_values(n):
    t = pol_tables(n)
    alg = t.alg
    znn = alg.gen("z", n, n)
    assert act(t, UqGen("F", n), znn) == alg.scalar(vpow(1))
    assert act(t, UqGen("E", n), znn) == (znn * znn).scale(-vpow(1))
    assert act(t, UqGen("K", n), znn) == znn.scale(qpow(2))
    # Leibniz: E_n (z_n^n)^2 = -q^{1/2}(1+q^2)(z_n^n)^3
    expect = (znn * znn * znn).scale(-vpow(1) * (ONE + qpow(2)))
    assert act(t, UqGen("E", n), znn * znn) == expect


def _act_word_recursive(t, g, word):
    """Reference: the Leibniz rules peeled off one letter at a time,
    E(x w) = E(x) w + K(x) x E(w) and F(x w) = F(x) K^-1(w) w + x F(w)."""
    alg = t.alg
    if not word:
        return alg.zero()
    head, rest = word[0], word[1:]
    rest_poly = NCPoly(alg, {rest: ONE})
    head_poly = NCPoly(alg, {(head,): ONE})
    tail = _act_word_recursive(t, g, rest)
    if g.kind == "E":
        return (t.E[(g.i, head)] * rest_poly
                + (head_poly * tail).scale(t.K[(g.i, head)]))
    return (t.F[(g.i, head)].scale(t.k_word(g.i, rest, inv=True)) * rest_poly
            + head_poly * tail)


@pytest.mark.parametrize("mk", [pol_tables, boundary_tables, rect_tables])
@pytest.mark.parametrize("n", [1, 2])
def test_flat_act_word_matches_the_recursive_reference(mk, n):
    t = mk(n)
    gens = [UqGen(kind, i) for i in range(1, 2 * n) for kind in ("E", "F")]
    for length in range(4):
        for word in product(range(t.alg.ngens()), repeat=length):
            for g in gens:
                expect = _act_word_recursive(t, g, word)
                assert act_word(t, g, word) == expect, (g, word)


def test_act_word_normalizes_only_when_a_letter_is_acted_on(monkeypatch):
    t = pol_tables(2)
    calls = []
    real = uqact.normalize
    monkeypatch.setattr(uqact, "normalize",
                        lambda alg, terms: calls.append(alg) or real(alg, terms))
    gens = [UqGen(kind, i) for i in range(1, 4) for kind in ("E", "F")]
    killed = 0
    for word in product(range(t.alg.ngens()), repeat=2):
        for g in gens:
            table = t.E if g.kind == "E" else t.F
            acted = any(table[(g.i, x)].terms for x in word)
            before = len(calls)
            out = act_word(t, g, word)
            assert len(calls) - before == acted, (g, word)
            if not acted:
                killed += 1
                assert out == t.alg.zero()
    assert killed


def test_rectangular_action_value():
    t = rect_tables(1)
    assert act(t, UqGen("F", 1), t.alg.gen("t", 1, 1)) == \
        t.alg.gen("t", 1, 2).scale(vpow(1))


def test_action_annihilates_constants():
    t = pol_tables(2)
    one = t.alg.one()
    assert act(t, UqGen("E", 1), one).is_zero()
    assert act(t, UqGen("F", 3), one).is_zero()
    assert act(t, UqGen("K", 2), one) == one


def square_tables(n):
    return tables_for(matrix_algebra(2 * n, 2 * n), n)


@pytest.mark.parametrize("mk", [pol_tables, boundary_tables, rect_tables,
                                square_tables])
@pytest.mark.parametrize("n", [1, 2])
def test_tables_respect_defining_relations(mk, n):
    assert module_algebra_residuals(mk(n)) == []


def test_operator_relations_on_bidegree_two_box():
    t = pol_tables(2)
    res = operator_relation_residuals(t, _domain_words(t))
    assert res == []


def test_star_compatibility_both_paths():
    t = pol_tables(2)
    words = _domain_words(t, 1)
    assert star_compat_residuals(t, words) == []


def _generator_words(t):
    return [()] + [(g,) for g in range(t.alg.ngens())]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_relations_on_generators(n):
    t = pol_tables(n)
    assert operator_relation_residuals(t, _generator_words(t)) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_compatibility_on_generators(n):
    t = pol_tables(n)
    assert star_compat_residuals(t, _generator_words(t)) == []


@pytest.mark.parametrize("table,cls,a,al", [("E", "z", 2, 1), ("F", "z", 1, 1),
                                            ("E", "zs", 1, 1),
                                            ("F", "zs", 2, 1)])
def test_action_suite_fails_on_a_corrupted_table(monkeypatch, table, cls, a, al):
    # scaling one nonzero E_1 or F_1 value by q must be caught, and the
    # generator-level relation and star checks each catch it on their own
    t = pol_tables(2)
    entries = getattr(t, table)
    key = (1, t.alg.gen_code(cls, a, al))
    assert not entries[key].is_zero()
    monkeypatch.setitem(entries, key, entries[key].scale(qpow(1)))
    ops = operator_relation_residuals(t, _generator_words(t))
    stars = star_compat_residuals(t, _generator_words(t))
    assert ops and stars
    rep = run_suite("action", 2, 1)
    assert rep.status == "FAIL"
    assert rep.residual_count == (len(module_algebra_residuals(t)) + len(ops)
                                  + len(stars))


def test_star_compat_explicit_example():
    # (E_n z_n^n)* computed directly vs (S(E_n))* acting on (z_n^n)*
    n = 2
    t = pol_tables(n)
    znn = t.alg.gen("z", n, n)
    lhs = star_poly(act(t, UqGen("E", n), znn))
    rhs = act_expr(t, star_of_antipode(UqGen("E", n), n), star_poly(znn))
    assert lhs == rhs


def test_ustar_values():
    assert ustar(UqGen("K", 1), 2) == [(ONE, (UqGen("K", 1),))]
    assert ustar(UqGen("E", 2), 2) == [(-ONE, (UqGen("K", 2), UqGen("F", 2)))]
    assert ustar(UqGen("E", 1), 2) == [(ONE, (UqGen("K", 1), UqGen("F", 1)))]
    assert antipode(UqGen("E", 1)) == [(-ONE, (UqGen("Kinv", 1), UqGen("E", 1)))]


def test_counit_on_chevalley_generators():
    from qball.uqact import counit
    for g in chevalley_gens(2):
        assert counit(g) == (ONE if g.kind in ("K", "Kinv") else ONE - ONE)
