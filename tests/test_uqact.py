from itertools import combinations_with_replacement, product

import pytest

from qball import reports, uqact
from qball.algebras import (boundary_algebra, matrix_algebra, pol_algebra,
                            star_class, star_poly)
from qball.kernels import poisson_space
from qball.ncpoly import Generator, NCPoly, normalize, overlap_residuals
from qball.scalars import ONE, VScalar, qpow, vpow
from qball.uqact import (MatrixActionTables, UqGen, act, act_word, antipode,
                         chevalley_gens, module_algebra_residuals,
                         operator_relation_residuals, pol_tables, rect_tables,
                         star_compat_residuals, star_of_antipode, ustar)
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


def boundary_tables(n):
    """The tables of the second kernel leg, on the boundary's zeta letters."""
    return poisson_space(n, 1).leg2.tables


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
    return MatrixActionTables(matrix_algebra(2 * n, 2 * n), n)


def test_matrix_tables_do_not_depend_on_the_letter_names():
    # the column action reads codes and indices only: on z-named letters
    # the 2 x 4 tables are rect_tables(2) code for code
    t, rect = MatrixActionTables(matrix_algebra(2, 4, "z"), 2), rect_tables(2)
    assert t.K == rect.K and t.k_exp == rect.k_exp
    assert set(t.E) == set(rect.E) == set(t.F) == set(rect.F)
    for key in rect.E:
        assert t.E[key].terms == rect.E[key].terms, key
        assert t.F[key].terms == rect.F[key].terms, key


@pytest.mark.parametrize("mk", [pol_tables, boundary_tables, rect_tables,
                                square_tables])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exponent_table_gives_every_k_eigenvalue(mk, n):
    t = mk(n)
    assert set(t.k_exp) == set(range(1, 2 * n))
    for (i, code), k in t.K.items():
        assert vpow(t.k_exp[i][code]) == k, (i, code)


def _k_word_by_letters(t, i, word, inv):
    """Reference: the K_i eigenvalue of a word as the product of the
    letters' eigenvalues, inverted for K_i^-1."""
    c = ONE
    for g in word:
        c = c * t.K[(i, g)]
    return c.inverse() if inv else c


@pytest.mark.parametrize("mk", [pol_tables, boundary_tables, rect_tables,
                                square_tables])
@pytest.mark.parametrize("n", [1, 2])
def test_k_word_matches_the_letter_by_letter_product(mk, n):
    t = mk(n)
    for length in range(4):
        for word in product(range(t.alg.ngens()), repeat=length):
            for i in range(1, 2 * n):
                for inv in (False, True):
                    assert (t.k_word(i, word, inv)
                            == _k_word_by_letters(t, i, word, inv)), (i, word, inv)


def test_a_k_eigenvalue_that_is_not_a_power_of_v_is_refused():
    class TwoV(MatrixActionTables):
        def _entry(self, g, i):
            e, f, k = super()._entry(g, i)
            return e, f, (VScalar.from_int(2) * vpow(1) if g.j == i else k)

    with pytest.raises(ValueError, match="not a power of v"):
        TwoV(matrix_algebra(1, 2), 1)


@pytest.mark.parametrize("mk", [pol_tables, boundary_tables, rect_tables,
                                square_tables])
@pytest.mark.parametrize("n", [1, 2])
def test_tables_respect_defining_relations(mk, n):
    t = mk(n)
    assert module_algebra_residuals(t) == _module_algebra_by_pair_products(t) == []


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


def act_expr(t, expr, p):
    """Reference: a formal combination sum c * (g_1 g_2 ... g_k) of U_q
    words on p, each word applied right to left with no value shared."""
    def apply(gens):
        cur = p
        for g in reversed(gens):
            cur = act(t, g, cur)
        return cur
    return t.alg.sum(apply(gens).scale(c) for c, gens in expr)


def _star_compat_by_expression(t, words):
    """Reference: (a f)* - (S(a))* f* for every Chevalley a and word f,
    each right side applied through ``act_expr``."""
    out = []
    for w in words:
        p = NCPoly(t.alg, {w: ONE})
        ps = star_poly(p)
        for g in chevalley_gens(t.n):
            lhs = star_poly(act(t, g, p))
            rhs = act_expr(t, star_of_antipode(g, t.n), ps)
            if lhs != rhs:
                out.append(((g, w), lhs - rhs))
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_relations_on_generators(n):
    t = pol_tables(n)
    words = _generator_words(t)
    assert (operator_relation_residuals(t, words)
            == _operator_relations_by_expression(t, words) == [])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_star_compatibility_on_generators(n):
    t = pol_tables(n)
    words = _generator_words(t)
    assert (star_compat_residuals(t, words)
            == _star_compat_by_expression(t, words) == [])


def _sorted_terms(terms):
    return sorted((w, c.to_text()) for w, c in terms)


@pytest.mark.parametrize("mk", [pol_tables, boundary_tables, rect_tables,
                                square_tables])
@pytest.mark.parametrize("n", [1, 2])
def test_unchecked_pairs_give_one_term_list_on_both_sides(mk, n):
    # module_algebra_residuals checks only the pairs ga > gb: for ga <= gb
    # the word ga gb is normal, and the terms the old all-pairs check fed
    # to its two normalize calls are the same terms
    t = mk(n)
    alg = t.alg
    G = range(alg.ngens())
    for ga in G:
        for gb in G[ga:]:
            prod = alg.monomial((ga, gb))
            assert prod.terms == {(ga, gb): ONE}
            for i in range(1, 2 * n):
                ka, kb = t.K[(i, ga)], t.K[(i, gb)]
                for kind in ("E", "F", "K"):
                    g = UqGen(kind, i)
                    if kind == "K":
                        lhs = list(act(t, g, prod).terms.items())
                        rhs = [((ga, gb), ka * kb)]
                    else:
                        lhs = []
                        for w, c in prod.terms.items():
                            uqact._leibniz_terms(t, g, w, c, lhs)
                        table = t.E if kind == "E" else t.F
                        sa, sb = (ONE, ka) if kind == "E" else (kb.inverse(), ONE)
                        rhs = ([(u + (gb,), sa * c)
                                for u, c in table[(i, ga)].terms.items()]
                               + [((ga,) + u, sb * c)
                                  for u, c in table[(i, gb)].terms.items()])
                    assert _sorted_terms(lhs) == _sorted_terms(rhs), (g, ga, gb)


@pytest.mark.parametrize("n", [1, 2])
def test_unchecked_star_pairs_give_one_term_list_on_both_sides(n):
    # the star suite checks star-antimult only on the pairs g > h: for
    # g <= h both sides normalise the one word star(h) star(g)
    alg = pol_algebra(n)
    star = [alg.code[Generator(star_class(x.cls), x.i, x.j)] for x in alg.gens]
    G = range(alg.ngens())
    stars = [star_poly(NCPoly(alg, {(g,): ONE})) for g in G]
    for g in G:
        for h in G[g:]:
            lhs = [(tuple(star[x] for x in reversed(w)), c)
                   for w, c in normalize(alg, [((g, h), ONE)]).terms.items()]
            rhs = [(w1 + w2, c1 * c2) for w1, c1 in stars[h].terms.items()
                   for w2, c2 in stars[g].terms.items()]
            assert _sorted_terms(lhs) == _sorted_terms(rhs) == [
                ((star[h], star[g]), "1")], (g, h)


def _module_algebra_by_pair_products(t):
    """Reference: each side of the module-algebra rules from ``act`` on the
    generators and on their product, multiplied out as NCPoly products."""
    alg = t.alg
    out = []
    gens = range(alg.ngens())
    for ga in gens:
        pa = NCPoly(alg, {(ga,): ONE})
        for gb in gens:
            pb = NCPoly(alg, {(gb,): ONE})
            prod = pa * pb
            for i in range(1, 2 * t.n):
                for kind in ("E", "F", "K"):
                    g = UqGen(kind, i)
                    lhs = act(t, g, prod)
                    if kind == "E":
                        rhs = (act(t, g, pa) * pb
                               + (pa * act(t, g, pb)).scale(t.K[(i, ga)]))
                    elif kind == "F":
                        rhs = (act(t, g, pa).scale(t.K[(i, gb)].inverse()) * pb
                               + pa * act(t, g, pb))
                    else:
                        rhs = prod.scale(t.K[(i, ga)] * t.K[(i, gb)])
                    if lhs != rhs:
                        out.append(((kind, i, ga, gb), lhs - rhs))
    return out


def _operator_relations_by_expression(t, words):
    """Reference: every relation applied to every word through ``act_expr``,
    with no acted value shared between relations."""
    out = []
    polys = [NCPoly(t.alg, {w: ONE}) for w in words]
    for label, expr in uqact._relations(t.n):
        for p in polys:
            r = act_expr(t, expr, p)
            if not r.is_zero():
                out.append((label, r))
                break
    return out


# one nonzero E_1 or F_1 value at n = 2 to scale by q:
# (tables, table, class, a, alpha)
CORRUPTIONS = [
    pytest.param(pol_tables, "E", "z", 2, 1, id="E-z-2-1"),
    pytest.param(pol_tables, "F", "z", 1, 1, id="F-z-1-1"),
    pytest.param(pol_tables, "E", "zs", 1, 1, id="E-zs-1-1"),
    pytest.param(pol_tables, "F", "zs", 2, 1, id="F-zs-2-1"),
    pytest.param(rect_tables, "E", "t", 1, 2, id="rect-E-t-1-2"),
    pytest.param(boundary_tables, "E", "zeta", 2, 1, id="boundary-E-zeta-2-1"),
]


def _corrupt(monkeypatch, mk, table, cls, a, al):
    t = mk(2)
    entries = getattr(t, table)
    letters = boundary_algebra(2) if mk is boundary_tables else t.alg
    key = (1, letters.gen_code(cls, a, al))
    assert not entries[key].is_zero()
    monkeypatch.setitem(entries, key, entries[key].scale(qpow(1)))
    return t


@pytest.mark.parametrize("mk,table,cls,a,al", CORRUPTIONS)
def test_action_suite_fails_on_a_corrupted_table(monkeypatch, no_new_kernels,
                                                 mk, table, cls, a, al):
    # scaling one nonzero E_1 or F_1 value by q must be caught; on the pol
    # tables, which the boundary's zeta letters share, the generator-level
    # relation and star checks each catch it on their own, and the
    # rectangular tables go through the module-algebra check
    with no_new_kernels():
        t = _corrupt(monkeypatch, mk, table, cls, a, al)
        mods = module_algebra_residuals(t)
        count = len(mods)
        if mk is not rect_tables:
            ops = operator_relation_residuals(t, _generator_words(t))
            stars = star_compat_residuals(t, _generator_words(t))
            assert ops and stars
            count += len(ops) + len(stars)
        else:
            assert mods
        rep = run_suite("action", 2, 1)
    assert rep.status == "FAIL"
    assert rep.residual_count == count


@pytest.mark.parametrize("mk,table,cls,a,al", CORRUPTIONS)
def test_rewritten_checks_match_their_references_on_a_corrupted_table(
        monkeypatch, no_new_kernels, mk, table, cls, a, al):
    with no_new_kernels():
        t = _corrupt(monkeypatch, mk, table, cls, a, al)
        mods = module_algebra_residuals(t)
        assert mods and mods == _module_algebra_by_pair_products(t)
        words = _generator_words(t)
        assert (operator_relation_residuals(t, words)
                == _operator_relations_by_expression(t, words))
        if mk is not rect_tables:  # the rectangular algebra has no star
            assert (star_compat_residuals(t, words)
                    == _star_compat_by_expression(t, words))


def _action_labels_in_full(n):
    """The labels of the action suite with every table checked on its own."""
    labels = [f"{tag}:{k}" for tag, mk in (("pol", pol_tables), ("rect", rect_tables))
              for k, _ in module_algebra_residuals(mk(n))]
    t = pol_tables(n)
    words = _generator_words(t)
    labels += [f"op:{k}" for k, _ in operator_relation_residuals(t, words)]
    return labels + [f"starcompat:{g}:{w}"
                     for (g, w), _ in star_compat_residuals(t, words)]


@pytest.mark.parametrize("n", [2], ids=["pol-and-boundary"])
def test_action_suite_labels_match_the_full_computation(monkeypatch, no_new_kernels, n):
    # the second kernel leg acts through Pol's tables: an E entry corrupted
    # through the boundary's handle is Pol's, and is reported once, as pol
    monkeypatch.setattr(reports, "RESIDUAL_SAMPLE_LIMIT", 10 ** 6)
    with no_new_kernels():
        assert _corrupt(monkeypatch, boundary_tables, "E", "zeta", 2, 1) is pol_tables(n)
        full = _action_labels_in_full(n)
        assert any(label.startswith("pol:") for label in full)
        rep = run_suite("action", n, 1)
    assert (rep.residual_sample, rep.residual_count) == (full, len(full))


@pytest.mark.parametrize("n", [2], ids=["pol-and-boundary"])
def test_confluence_suite_labels_match_the_full_computation(
        monkeypatch, no_new_kernels, n):
    # as above for the rewrite tables: zeta[1,2] zeta[1,1] =
    # q^-1 zeta[1,1] zeta[1,2], scaled by q through the boundary's pair
    # cache, is Pol's rule z[1,2] z[1,1] and is reported under Pol's name
    monkeypatch.setattr(reports, "RESIDUAL_SAMPLE_LIMIT", 10 ** 6)
    pol_tables(n)  # built from the true rules
    bd = boundary_algebra(n)
    algs = (pol_algebra(n), matrix_algebra(n, 2 * n))
    with no_new_kernels():
        monkeypatch.setitem(bd._pair_cache, (1, 0),
                            [(c * qpow(1), w) for c, w in bd.pair_rule(1, 0)])
        full = [f"{alg.name}:{t}" for alg in algs for t, _ in overlap_residuals(alg)]
        assert full and all(label.startswith(f"{algs[0].name}:") for label in full)
        rep = run_suite("confluence", n, 1)
    assert (rep.residual_sample, rep.residual_count) == (full, len(full))


@pytest.mark.parametrize("mk", [pol_tables, boundary_tables, rect_tables])
@pytest.mark.parametrize("n", [1, 2])
def test_act_on_a_polynomial_is_the_sum_over_its_words(mk, n):
    # every polynomial of at most two terms, each a normal word of length
    # <= 2, one coefficient with a true denominator
    t = mk(n)
    alg = t.alg
    G = range(alg.ngens())
    words = [()] + [(g,) for g in G] + [(g, h) for g in G for h in G if g <= h]
    coeffs = (ONE + qpow(1), (ONE - vpow(-1)) / (ONE + qpow(1)))
    polys = [alg.zero()] + [NCPoly(alg, {w: coeffs[0]}) for w in words]
    polys += [NCPoly(alg, {w: coeffs[0], u: coeffs[1]})
              for k, w in enumerate(words) for u in words[k + 1:]]
    for p in polys:
        for g in chevalley_gens(n):
            expect = alg.sum(act_word(t, g, w).scale(c) for w, c in p.terms.items())
            assert act(t, g, p) == expect, (g, p)


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
