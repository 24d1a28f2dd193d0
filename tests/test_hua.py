from itertools import product

import pytest

from qball import hua, suites
from qball.boundary import N1Boundary, shilov_reduce
from qball.classical import classical_kernel, classical_p11
from qball.hua import (generator_words, hua_sums, match_up_to_scalar,
                       p11_formula_kernel, p11_scalar, verify_hua_kernel,
                       verify_hua_theorem_n1)
from qball.kernels import Kernel, poisson_integral_n1, poisson_kernel, poisson_space
from qball.ncpoly import NCPoly, add_terms
from qball.scalars import ONE, qpow
from qball.suites import run_suite


def _first_leg(poly, cutoff=4):
    """poly on the first leg and 1 on the second, the shape of an n = 1
    Poisson integral."""
    sp = poisson_space(1, cutoff)
    return sp.from_pair(poly, sp.leg2.alg.one())


def _word_11(sp, b, beta, a, alpha):
    """The first-leg basis word z_b^beta (z_a^alpha)*."""
    return (sp.leg1.alg.gen_code("z", b, beta), sp.leg1.alg.gen_code("zs", a, alpha))


def test_d2_dual_basis():
    # unweighted at n = 1, A(1, 1) and B(1, 1) are both d2(u; 1, 1, 1, 1)
    sp = poisson_space(1, 4)
    alg = sp.leg1.alg
    u = _first_leg(alg.gen("z", 1, 1) * alg.gen("zs", 1, 1))
    assert [label for label, _ in hua_sums(u)] == [("A", (1, 1)), ("B", (1, 1))]
    assert all(s == sp.leg2.alg.one() for _, s in hua_sums(u, weighted=False))
    assert all(s.is_zero() for _, s in hua_sums(_first_leg(alg.one())))


def test_d2_kernel_valued_on_poisson_kernel():
    P = poisson_kernel(1, 4)
    val = dict(hua_sums(P, weighted=False))[("A", (1, 1))]
    alg = P.space.leg2.alg
    expect = alg.gen("zeta", 1, 1) * alg.gen("zetas", 1, 1) - alg.one()
    # proportional to zeta zeta* - 1
    ratio = None
    for w, c in expect.terms.items():
        got = val.terms.get(w)
        assert got is not None
        r = got / c
        ratio = r if ratio is None else ratio
        assert r == ratio
    assert val == expect.scale(ratio)
    assert shilov_reduce(val).is_zero()


def _d2_by_scan(P, b, beta, a, alpha):
    """Reference: the derivative read off a scan of every term of P."""
    sp = P.space
    target = _word_11(sp, b, beta, a, alpha)
    terms = [(key, c) for key, c in P.terms.items() if key[4] == target]
    if any(key[:4] != (0, 0, 0, 0) for key, _ in terms):
        raise ValueError("kernel carries powers; derivative undefined")
    return NCPoly(sp.leg2.alg, add_terms({}, ((key[5], c) for key, c in terms)))


def _hua_sums_by_scan(P, weighted):
    """Reference: each labelled system summed index by index from
    :func:`_d2_by_scan`, A(alpha, beta) = sum_c q^{2c} d2(c, beta, c, alpha)
    and B(a, b) = sum_gamma q^{2 gamma} d2(a, gamma, b, gamma)."""
    n = P.space.n
    idx = range(1, n + 1)
    w = {c: qpow(2 * c) if weighted else ONE for c in idx}
    alg = P.space.leg2.alg
    A = [(("A", (alpha, beta)),
          alg.sum(_d2_by_scan(P, c, beta, c, alpha).scale(w[c]) for c in idx))
         for alpha in idx for beta in idx]
    B = [(("B", (a, b)),
          alg.sum(_d2_by_scan(P, a, g, b, g).scale(w[g]) for g in idx))
         for a in idx for b in idx]
    return A + B


@pytest.mark.parametrize("n, D", [(1, 4), (2, 2), (3, 1)])
def test_d2_by_first_leg_lookup_matches_the_scan(n, D):
    """The one-pass reading by first-leg word equals the per-index scan,
    label by label and before the boundary reduction."""
    P = poisson_kernel(n, D)
    for b, beta, a, alpha in product(range(1, n + 1), repeat=4):
        assert not _d2_by_scan(P, b, beta, a, alpha).is_zero()
    for weighted in (True, False):
        got = hua_sums(P, weighted)
        assert got == _hua_sums_by_scan(P, weighted)
        assert not any(s.is_zero() for _, s in got)
    if n == 2:
        # the labels are not symmetric, so a transposed label would show
        sums = dict(hua_sums(P))
        for system in "AB":
            assert sums[(system, (1, 2))] != sums[(system, (2, 1))]


def test_d2_refuses_a_kernel_with_powers():
    sp = poisson_space(1, 4)
    k = Kernel(sp, {(1, 0, 0, 0, _word_11(sp, 1, 1, 1, 1), ()): ONE})
    with pytest.raises(ValueError, match="carries powers"):
        hua_sums(k)
    with pytest.raises(ValueError, match="carries powers"):
        hua.verify_hua_kernel(k)


def test_hua_sums_refuse_powers_only_on_a_word_they_read():
    sp = poisson_space(2, 2)
    # z_1^1 (z_2^2)*: b != a and beta != alpha, so neither system reads it
    unread = Kernel(sp, {(1, 0, 0, 0, _word_11(sp, 1, 1, 2, 2), ()): ONE})
    assert all(s.is_zero() for _, s in hua_sums(unread))
    assert all(r.is_zero() for _, r in verify_hua_kernel(unread))
    # z_1^1 (z_1^2)*: b = a, so system A reads it
    read = Kernel(sp, {(0, 1, 0, 0, _word_11(sp, 1, 1, 1, 2), ()): ONE})
    with pytest.raises(ValueError, match="carries powers"):
        hua_sums(read)
    with pytest.raises(ValueError, match="carries powers"):
        verify_hua_kernel(read)


def test_hua_sums_ignore_words_of_one_letter_class():
    sp = poisson_space(2, 2)
    alg = sp.leg1.alg
    for cls in ("z", "zs"):
        w1 = (alg.gen_code(cls, 1, 1), alg.gen_code(cls, 1, 1))
        k = Kernel(sp, {(0, 0, 0, 0, w1, ()): ONE, (1, 0, 0, 0, w1, ()): ONE})
        assert all(s.is_zero() for _, s in hua_sums(k))


def test_hua_sums_trivial_and_negative_control():
    sp = poisson_space(1, 4)
    alg = sp.leg1.alg
    one = _first_leg(alg.one())
    assert all(s.is_zero() for _, s in hua_sums(one))
    # u = z z* is not a Poisson integral: the A-sum is q^2, not 0
    u = _first_leg(alg.gen("z", 1, 1) * alg.gen("zs", 1, 1))
    assert dict(hua_sums(u))[("A", (1, 1))] == sp.leg2.alg.scalar(qpow(2))


@pytest.mark.parametrize("n", [1, 2])
def test_hua_kernel_systems_pass(n):
    cutoff = 4 if n == 1 else 2
    res = verify_hua_kernel(poisson_kernel(n, cutoff))
    assert [system for (system, _), _ in res] == ["A"] * n * n + ["B"] * n * n
    assert all(r.is_zero() for _, r in res), res


def test_hua_kernel_negative_control_unweighted():
    res = verify_hua_kernel(poisson_kernel(2, 2), weighted=False)
    for system in "AB":
        assert any(not r.is_zero() for (s, _), r in res if s == system)


def test_intermediate_display_before_reduction():
    # the kernel-level A-sum, before the boundary reduction, matches the
    # weighted zeta-sum minus the q-integer constant, for every index pair
    n = 2
    P = poisson_kernel(n, 2)
    alg = P.space.leg2.alg
    c = match_up_to_scalar(P.first_component(1, 1), p11_formula_kernel(n, 2))
    assert c is not None
    geo = (ONE - qpow(-2 * n)) / (ONE - qpow(-2))
    sums = dict(hua_sums(P))
    for alpha in range(1, n + 1):
        for beta in range(1, n + 1):
            got = sums[("A", (alpha, beta))]
            expect = alg.zero()
            for cc in range(1, n + 1):
                expect = expect + (alg.gen("zeta", cc, alpha)
                                   * alg.gen("zetas", cc, beta))
            expect = expect.scale(geo * qpow(2 * (2 * n - alpha)))
            if alpha == beta:
                expect = expect - alg.scalar(qpow(2) * (ONE - qpow(2 * n))
                                             / (ONE - qpow(2)))
            assert got == expect.scale(c)


def test_hua_theorem_n1_full_family():
    fs = [N1Boundary.one(), N1Boundary.zeta(1), N1Boundary.zeta(2),
          N1Boundary.zeta(-1)]
    words = generator_words(1, 2)
    assert len(words) == 21
    res = verify_hua_theorem_n1(fs, words, 4)
    assert len(res) == len(fs) * len(words) * 2
    assert all(r.is_zero() for _, r in res), res
    # the extraction reads components up to (1 + |xi|, 1 + |xi|) <= (3, 3)
    assert not run_suite("hua-theorem-n1", 1, 4).truncated


def _hua_theorem_n1_unshared(fs, xi_words, cutoff, seen):
    """The integral-level check with every word applied from scratch; each
    acted kernel is appended to ``seen``."""
    P = poisson_kernel(1, cutoff)
    out = []
    for fi, f in enumerate(fs):
        u = poisson_integral_n1(P, f)
        for xi in xi_words:
            v = u
            for g in reversed(xi):
                v = v.act(g)
            seen.append(v)
            key = (fi, tuple(map(repr, xi)))
            out += [(key + (system,), s) for (system, _), s in hua_sums(v)]
    return out


@pytest.mark.parametrize("cutoff", [3, 6])
def test_hua_theorem_n1_shares_suffixes_and_matches_the_unshared_loop(
        cutoff, monkeypatch):
    fs = [N1Boundary.one(), N1Boundary.zeta(1), N1Boundary.zeta(2),
          N1Boundary.zeta(-1)]
    words = generator_words(1, 2)
    expect_seen = []
    expect = _hua_theorem_n1_unshared(fs, words, cutoff, expect_seen)
    seen, acts = [], []
    real_sums, real_act = hua.hua_sums, Kernel.act

    def recording_sums(v, *args, **kw):
        seen.append(v)
        return real_sums(v, *args, **kw)

    def counted_act(self, g):
        acts.append(g)
        return real_act(self, g)

    monkeypatch.setattr(hua, "hua_sums", recording_sums)
    monkeypatch.setattr(Kernel, "act", counted_act)
    got = verify_hua_theorem_n1(fs, words, cutoff)
    monkeypatch.undo()
    assert [label for label, _ in got] == [label for label, _ in expect]
    assert all(r == e for (_, r), (_, e) in zip(got, expect))
    # the acted kernels themselves, not only their (vanishing) Hua sums
    assert [(v.terms, v.truncated) for v in seen] == \
        [(v.terms, v.truncated) for v in expect_seen]
    # one act per nonempty suffix and boundary function: 4 x 20, not 4 x 36
    assert len(acts) == len(fs) * (len(words) - 1)


def test_p11_matches_displayed_form():
    # the matched scalar is (1 - q^{2n})/(1 - q^2)
    expected = {1: ONE, 2: qpow(2) + ONE, 3: qpow(4) + qpow(2) + ONE}
    for n, cutoff in ((1, 4), (2, 2), (3, 1)):
        P = poisson_kernel(n, cutoff)
        c = match_up_to_scalar(P.first_component(1, 1), p11_formula_kernel(n, cutoff))
        assert c == expected[n] == p11_scalar(n)
        scaled = P.first_component(1, 1).scale(c.inverse())
        assert classical_kernel(scaled) == classical_p11(n)


def test_suite_p11_fails_on_a_wrong_scalar(monkeypatch):
    assert run_suite("p11", 1, 2).status == "PASS"
    formula = suites.p11_formula_kernel
    monkeypatch.setattr(suites, "p11_formula_kernel",
                        lambda n, cutoff: formula(n, cutoff).scale(qpow(1)))
    rep = run_suite("p11", 1, 2)
    assert rep.status == "FAIL" and rep.note == "scalar=q^-1"


def test_match_up_to_scalar_rejects_mismatch():
    n = 1
    P = poisson_kernel(n, 2)
    sp = P.space
    wrong = p11_formula_kernel(n, 2) + sp.from_pair(
        sp.leg1.alg.gen("z", 1, 1), sp.leg2.alg.one())
    assert match_up_to_scalar(P.first_component(1, 1), wrong) is None


# -- the FAIL paths of the Hua suites ------------------------------------------

def test_hua_kernel_suite_passes_with_its_negative_control():
    # at n >= 2 the suite also runs the unweighted sums, which must fail
    rep = run_suite("hua-kernel", 2, 2)
    assert rep.status == "PASS" and rep.residual_count == 0


def test_hua_kernel_suite_fails_without_the_shilov_reduction(monkeypatch):
    monkeypatch.setattr(hua, "shilov_reduce", lambda p: p)
    rep = run_suite("hua-kernel", 2, 2)
    assert rep.status == "FAIL"
    assert rep.residual_sample == [f"{s}:{(x, y)}" for s in "AB"
                                   for x in (1, 2) for y in (1, 2)]


def test_hua_kernel_suite_fails_when_the_control_is_weighted(monkeypatch):
    sums = hua.hua_sums
    monkeypatch.setattr(hua, "hua_sums", lambda u, weighted=True: sums(u))
    rep = run_suite("hua-kernel", 2, 2)
    assert rep.status == "FAIL"
    assert rep.residual_sample == [
        "negative control passed: weights are not being used"]


def test_hua_theorem_suite_fails_on_a_broken_sum(monkeypatch):
    sums = hua.hua_sums
    monkeypatch.setattr(hua, "hua_sums", lambda u, *args, **kw: [
        (label, s + u.space.leg2.alg.one() if label[0] == "A" else s)
        for label, s in sums(u, *args, **kw)])
    rep = run_suite("hua-theorem-n1", 1, 3)
    assert rep.status == "FAIL"
    assert rep.residual_sample[0] == "(0, (), 'A')"
    assert all(label.endswith("'A')") for label in rep.residual_sample)
