import random
from itertools import combinations, permutations

import pytest

from qball.algebras import matrix_algebra
from qball.ncpoly import NCPoly
from qball.qmatrix import (centrality_residuals, inversions, l_pairs,
                           laplace_residuals, qdet, qminor)
from qball.scalars import ONE, neg_qpow, qpow


def test_single_entry_minor():
    alg = matrix_algebra(2, 4)
    assert qminor(alg, [2], [3]) == alg.gen("t", 2, 3)


def test_two_by_two_minor_matches_det():
    alg = matrix_algebra(2, 2)
    t = lambda i, j: alg.gen("t", i, j)
    expect = t(1, 1) * t(2, 2) - (t(1, 2) * t(2, 1)).scale(qpow(1))
    assert qminor(alg, [1, 2], [1, 2]) == expect
    assert qdet(alg, 2) == expect
    assert qdet(alg, 1) == t(1, 1)


def _row_form_minor(alg, rows, cols, cls="t"):
    """Reference: the minor as the sum over row permutations s of
    (-q)^{l(s)} t_{r_s(1) c_1} ... t_{r_s(k) c_k}, normalised in full."""
    k = len(rows)

    def word(perm):
        return tuple(alg.gen_code(cls, rows[perm[t]], cols[t]) for t in range(k))
    return alg.poly({word(perm): neg_qpow(inversions(perm))
                     for perm in permutations(range(k))})


def test_row_form_equals_column_form():
    alg = matrix_algebra(2, 4)
    for k in (1, 2):
        for rows in combinations(range(1, 3), k):
            for cols in combinations(range(1, 5), k):
                assert _row_form_minor(alg, rows, cols) == qminor(alg, rows, cols)


def test_minor_argument_validation():
    alg = matrix_algebra(2, 4)
    with pytest.raises(ValueError):
        qminor(alg, [1, 2], [1])
    with pytest.raises(ValueError):
        qminor(alg, [1, 1], [1, 2])


@pytest.mark.parametrize("n", [2, 3])
def test_qdet_is_central(n):
    assert all(r.is_zero() for _, r in centrality_residuals(n))


@pytest.mark.parametrize("n", [1, 2])
def test_laplace_expansion_both_orders(n):
    res = laplace_residuals(n)
    assert [label for label, _ in res] == ["direct-order", "reversed-order"]
    assert all(r.is_zero() for _, r in res)


def test_laplace_negative_control_wrong_sign():
    # flipping (-q)^{-l} to (-q)^{+l} in the reversed splitting must fail
    n = 1
    alg = matrix_algebra(2, 2)
    det = qdet(alg, 2)
    acc = alg.zero()
    for J in combinations(range(1, 3), 1):
        Jc = tuple(j for j in range(1, 3) if j not in J)
        ell = l_pairs(J, Jc)
        acc = acc + (qminor(alg, [2], Jc) * qminor(alg, [1], J)).scale(neg_qpow(ell))
    assert not (acc - det).is_zero()


def m_map(n: int, p_top: NCPoly, p_bot: NCPoly) -> NCPoly:
    """Multiply a top-rows element by a bottom-rows element inside
    C[Mat_2n]_q, relabelling the second factor's rows to n+1..2n: an
    independent reference for the Laplace splitting."""
    rect = matrix_algebra(n, 2 * n)
    if p_top.alg is not rect or p_bot.alg is not rect:
        raise ValueError("m_map expects elements of the n x 2n algebra")
    big = matrix_algebra(2 * n, 2 * n)

    def relabel(p: NCPoly, shift: int) -> NCPoly:
        return big.poly({tuple(big.gen_code("t", rect.gens[g].i + shift, rect.gens[g].j)
                               for g in w): c for w, c in p.terms.items()})

    return relabel(p_top, 0) * relabel(p_bot, n)


def test_m_map_unit_and_n1_kernel():
    rect = matrix_algebra(1, 2)
    assert m_map(1, rect.one(), rect.one()) == matrix_algebra(2, 2).one()
    # m applied to the n=1 invariant kernel gives det_q of C[Mat_2]_q
    mL = (m_map(1, rect.gen("t", 1, 1), rect.gen("t", 1, 2))
          - m_map(1, rect.gen("t", 1, 2), rect.gen("t", 1, 1)).scale(qpow(1)))
    assert mL == qdet(matrix_algebra(2, 2), 2)


def test_m_map_injective_on_monomial_sample():
    rect = matrix_algebra(1, 2)
    rng = random.Random(2024)
    seen = {}
    count = 0
    while count < 20:
        top = tuple(sorted(rng.randrange(2) for _ in range(rng.randint(0, 3))))
        bot = tuple(sorted(rng.randrange(2) for _ in range(rng.randint(0, 3))))
        if (top, bot) in seen:
            continue
        img = m_map(1, NCPoly(rect, {top: ONE}), NCPoly(rect, {bot: ONE}))
        key = tuple(sorted(img.terms.items(), key=lambda kv: kv[0]))
        assert key not in seen.values(), "m_map collided on distinct monomials"
        seen[(top, bot)] = key
        count += 1


def test_m_map_laplace_cross_check_n2():
    # reassembling the subset sum through m inside C[Mat_4]_q returns det_q
    n = 2
    rect = matrix_algebra(n, 2 * n)
    big = matrix_algebra(2 * n, 2 * n)
    acc = big.zero()
    for J in combinations(range(1, 2 * n + 1), n):
        Jc = tuple(j for j in range(1, 2 * n + 1) if j not in J)
        ell = l_pairs(J, Jc)
        top = qminor(rect, range(1, n + 1), J)
        bot = qminor(rect, range(1, n + 1), Jc)
        acc = acc + m_map(n, top, bot).scale(neg_qpow(ell))
    assert acc == qdet(big, 2 * n)
