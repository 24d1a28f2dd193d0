import pytest

from qball import suites
from qball.boundary import N1Boundary, shilov_reduce
from qball.classical import classical_kernel, classical_p11
from qball.hua import (d2_at_zero_kernel, generator_words, hua_sum_A,
                       hua_sum_B, match_up_to_scalar, p11_formula_kernel,
                       p11_scalar, verify_hua_kernel, verify_hua_theorem_n1)
from qball.kernels import poisson_kernel, poisson_space
from qball.scalars import ONE, qpow


def _first_leg(poly, cutoff=4):
    """poly on the first leg and 1 on the second, the shape of an n = 1
    Poisson integral."""
    sp = poisson_space(1, cutoff)
    return sp.from_pair(poly, sp.leg2.alg.one())


def test_d2_dual_basis():
    sp = poisson_space(1, 4)
    alg = sp.leg1.alg
    u = _first_leg(alg.gen("z", 1, 1) * alg.gen("zs", 1, 1))
    assert d2_at_zero_kernel(u, 1, 1, 1, 1) == sp.leg2.alg.one()
    assert d2_at_zero_kernel(_first_leg(alg.one()), 1, 1, 1, 1).is_zero()


def test_d2_kernel_valued_on_poisson_kernel():
    P = poisson_kernel(1, 4)
    val = d2_at_zero_kernel(P, 1, 1, 1, 1)
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


def test_hua_sums_trivial_and_negative_control():
    sp = poisson_space(1, 4)
    alg = sp.leg1.alg
    one = _first_leg(alg.one())
    assert hua_sum_A(one, 1, 1, 1).is_zero()
    assert hua_sum_B(one, 1, 1, 1).is_zero()
    # u = z z* is not a Poisson integral: the A-sum is q^2, not 0
    u = _first_leg(alg.gen("z", 1, 1) * alg.gen("zs", 1, 1))
    assert hua_sum_A(u, 1, 1, 1) == sp.leg2.alg.scalar(qpow(2))


@pytest.mark.parametrize("n", [1, 2])
def test_hua_kernel_systems_pass(n):
    cutoff = 4 if n == 1 else 2
    reports = verify_hua_kernel(n, cutoff)
    assert [r.system for r in reports] == ["A", "B"]
    for r in reports:
        assert r.status == "PASS", r.failures()


def test_hua_kernel_negative_control_unweighted():
    reports = verify_hua_kernel(2, 2, weighted=False)
    assert all(r.status == "FAIL" for r in reports)


def test_intermediate_display_before_reduction():
    # the kernel-level A-sum, before the boundary reduction, matches the
    # weighted zeta-sum minus the q-integer constant, for every index pair
    n = 2
    P = poisson_kernel(n, 2)
    alg = P.space.leg2.alg
    c = match_up_to_scalar(P.first_component(1, 1), p11_formula_kernel(n, 2))
    assert c is not None
    geo = (ONE - qpow(-2 * n)) / (ONE - qpow(-2))
    for alpha in range(1, n + 1):
        for beta in range(1, n + 1):
            got = hua_sum_A(P, n, alpha, beta)
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
    rep = verify_hua_theorem_n1(fs, words, 4)
    assert rep.status == "PASS", rep.failures()
    assert not rep.truncated


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
    assert suites.suite_p11(1, 2).status == "PASS"
    formula = suites.p11_formula_kernel
    monkeypatch.setattr(suites, "p11_formula_kernel",
                        lambda n, cutoff: formula(n, cutoff).scale(qpow(1)))
    rep = suites.suite_p11(1, 2)
    assert rep.status == "FAIL" and rep.note == "scalar=q^-1"


def test_match_up_to_scalar_rejects_mismatch():
    n = 1
    P = poisson_kernel(n, 2)
    sp = P.space
    wrong = p11_formula_kernel(n, 2) + sp.from_pair(
        sp.leg1.alg.gen("z", 1, 1), sp.leg2.alg.one())
    assert match_up_to_scalar(P.first_component(1, 1), wrong) is None
