import random
from functools import lru_cache
from itertools import combinations_with_replacement, product

import pytest

from qball import kernels
from qball.algebras import (STAR_CLASSES, bidegree, boundary_algebra,
                            matrix_algebra, pol_algebra)
from qball.boundary import N1Boundary, nu_n1
from qball.cli import main
from qball.kernels import (CutoffMismatchError, Kernel, PowerSignatureError,
                           act_leg, build_L, build_Lbar, check_invariant,
                           inverse_kernels, kinverse, poisson_integral_n1,
                           poisson_kernel, poisson_space, substitute_x_inverse)
from qball.ncpoly import Algebra, NCPoly, add_terms
from qball.polmat import y_element
from qball.scalars import ONE, VScalar, qpow, vpow
from qball.suites import run_suite
from qball.uqact import UqGen, act, chevalley_gens, counit, pol_tables


def test_kmul_commutation_displays():
    sp = poisson_space(1, 3)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    tts = sp.power_term(1, 0, 0, 1)         # t x tau*
    zzs = sp.from_pair(a1.gen("z", 1, 1), a2.gen("zetas", 1, 1))
    assert tts * zzs == (zzs * tts).scale(qpow(2))
    tst = sp.power_term(0, 1, 1, 0)         # t* x tau
    zsz = sp.from_pair(a1.gen("zs", 1, 1), a2.gen("zeta", 1, 1))
    assert tst * zsz == (zsz * tst).scale(qpow(-2))


def test_kmul_second_display_with_weights():
    # t* tau (sum q^{2(2n-a-al)} zs x zeta) = q^-2 (same sum) t* tau, n = 2
    n = 2
    sp = poisson_space(n, 3)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    tst = sp.power_term(0, 1, 1, 0)
    acc = Kernel(sp, {})
    for a in range(1, n + 1):
        for al in range(1, n + 1):
            acc = acc + sp.from_pair(a1.gen("zs", a, al), a2.gen("zeta", a, al),
                                     coeff=qpow(2 * (2 * n - a - al)))
    assert tst * acc == (acc * tst).scale(qpow(-2))


def test_unit_kernel():
    sp = poisson_space(1, 2)
    L = build_L(1, 2)
    assert sp.unit() * L == L and L * sp.unit() == L


def test_L_n1_structure_matches_example():
    sp = poisson_space(1, 4)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    L = build_L(1, 4)
    z = a1.gen_code("z", 1, 1)
    zs = a2.gen_code("zetas", 1, 1)
    assert L.terms == {(1, 0, 0, 1, (), ()): ONE,
                       (1, 0, 0, 1, (z,), (zs,)): -qpow(-1)}
    Lb = build_Lbar(1, 4)
    zebra = a2.gen_code("zeta", 1, 1)
    zsf = a1.gen_code("zs", 1, 1)
    assert Lb.terms == {(0, 1, 1, 0, (), ()): qpow(-2),
                        (0, 1, 1, 0, (zsf,), (zebra,)): -qpow(-1)}


def test_L_leading_terms_general_n():
    # L (t x tau*)^-1 = 1 - sum z x zeta* + higher; the barred version has
    # the weights q^{2 + 2(2n - a - alpha)}
    n = 2
    sp = poisson_space(n, 4)
    L = build_L(n, 4)
    inv = sp.power_term(-1, 0, 0, -1)
    M = L * inv - sp.unit()
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    for a in range(1, n + 1):
        for al in range(1, n + 1):
            key = (0, 0, 0, 0, (a1.gen_code("z", a, al),),
                   (a2.gen_code("zetas", a, al),))
            assert M.terms[key] == -ONE
    # the displayed barred weights are q^{2 + 2(2n-a-al)} with the series on
    # the right of the t* tau prefactor; factoring on the left conjugates by
    # t* tau, which absorbs one q^2 (the commutation display)
    Lb = build_Lbar(n, 4)
    Ub_inv = sp.power_term(0, -1, -1, 0, qpow(2 * n * n))
    Mb = Lb * Ub_inv - sp.unit()
    for a in range(1, n + 1):
        for al in range(1, n + 1):
            key = (0, 0, 0, 0, (a1.gen_code("zs", a, al),),
                   (a2.gen_code("zeta", a, al),))
            assert Mb.terms[key] == -qpow(2 * (2 * n - a - al))
    # and on the right of the prefactor the literal displayed weights appear
    R = sp.power_term(0, -1, -1, 0, qpow(2 * n * n)) * Lb - sp.unit()
    for a in range(1, n + 1):
        for al in range(1, n + 1):
            key = (0, 0, 0, 0, (a1.gen_code("zs", a, al),),
                   (a2.gen_code("zeta", a, al),))
            assert R.terms[key] == -qpow(2 + 2 * (2 * n - a - al))


@pytest.mark.parametrize("n", [1, 2])
def test_L_and_Lbar_are_invariant(n):
    assert check_invariant(build_L(n, max(2, n))) == []
    assert check_invariant(build_Lbar(n, max(2, n))) == []


def test_closed_forms_equal_the_division_formula():
    # e_a q^b = v^-1 [a]_q q^b and f_b = v (1 - q^-2b)/(1 - q^-2), a, b of
    # either sign and zero, against the division made on every call before
    for a in range(-6, 7):
        for b in range(-6, 7):
            e = vpow(-1) * qpow(b) * (qpow(a) - qpow(-a)) / (qpow(1) - qpow(-1))
            assert kernels._e_power(a, b) == e, (a, b)
        f = vpow(1) * (ONE - qpow(-2 * b)) / (ONE - qpow(-2))
        assert kernels._f_power(b) == f, b


def test_invariance_check_reaches_the_gcd_route_only_for_the_closed_forms(
        monkeypatch):
    # K eigenvalues are powers of v and the closed forms are memoised, so
    # from cold caches the check at (2, 2) makes at most 4 gcd reductions
    from qball import scalars
    L, Lb = build_L(2, 2), build_Lbar(2, 2)
    kernels._e_power.cache_clear()
    kernels._f_power.cache_clear()
    calls = []
    real = scalars._canonicalise
    monkeypatch.setattr(scalars, "_canonicalise",
                        lambda *args: calls.append(args) or real(*args))
    assert check_invariant(L) == [] and check_invariant(Lb) == []
    assert len(calls) <= 4


def _check_invariant_by_three_kernels(k):
    """Reference for check_invariant: act(g) k, counit(g) k and their
    difference, three kernels per generator."""
    out = []
    for g in chevalley_gens(k.space.n):
        r = k.act(g) - k.scale(counit(g))
        if not r.is_zero():
            out.append((g, r))
    return out


def test_check_invariant_matches_the_three_kernel_route(monkeypatch, no_new_kernels):
    # one E_1 entry of Pol(Mat_2) scaled by q breaks the invariance of L
    # under E_1 through its z first leg, and of Lbar through its zeta
    # second leg, which acts through the same table; z x 1 is not
    # K-invariant, flagged or not.  The kernels are built before the table
    # is corrupted
    sp1 = poisson_space(1, 2)
    z = sp1.from_pair(sp1.leg1.alg.gen("z", 1, 1), sp1.leg2.alg.one())
    kernels_ = [build_L(2, 2), build_Lbar(2, 2), z,
                Kernel(sp1, z.terms, truncated=True)]
    t = pol_tables(2)
    key = (1, t.alg.gen_code("z", 2, 1))
    seen = []
    with no_new_kernels():
        monkeypatch.setitem(t.E, key, t.E[key].scale(qpow(1)))
        for k in kernels_:
            got, expect = check_invariant(k), _check_invariant_by_three_kernels(k)
            assert ([(g, list(r.terms.items()), r.truncated) for g, r in got]
                    == [(g, list(r.terms.items()), r.truncated) for g, r in expect])
            seen.append({(g.kind, g.i, r.truncated) for g, r in got})
    assert seen[0] == seen[1] == {("E", 1, False)}
    assert {"K", "Kinv"} <= {kind for kind, _, _ in seen[2]}
    assert {flag for _, _, flag in seen[3]} == {True}


def test_non_invariant_negative_control():
    sp = poisson_space(1, 2)
    k = sp.from_pair(sp.leg1.alg.gen("z", 1, 1), sp.leg2.alg.one())
    residuals = dict(check_invariant(k))
    assert UqGen("F", 1) in residuals
    assert not residuals[UqGen("F", 1)].is_zero()


def test_geometric_series_inverse():
    sp = poisson_space(1, 2)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    u = sp.from_pair(a1.gen("z", 1, 1), a2.gen("zetas", 1, 1))
    inv = kinverse(sp.unit() - u)
    assert inv == sp.unit() + u + u * u


@pytest.mark.parametrize("n", [1, 2])
def test_two_sided_inverse_up_to_cutoff(n):
    sp = poisson_space(n, 2)
    L = build_L(n, 2)
    Linv = kinverse(L, n)
    Ln = sp.unit()
    for _ in range(n):
        Ln = Ln * L
    assert Ln * Linv == sp.unit()
    assert Linv * Ln == sp.unit()
    Lb = build_Lbar(n, 2)
    Lbinv = kinverse(Lb, n)
    Lbn = sp.unit()
    for _ in range(n):
        Lbn = Lbn * Lb
    assert Lbn * (Lbinv * Linv) * Ln == sp.unit()


def test_kinverse_requires_unit_leading_term():
    sp = poisson_space(1, 2)
    z_only = sp.from_pair(sp.leg1.alg.gen("z", 1, 1), sp.leg2.alg.one())
    with pytest.raises(ValueError):
        kinverse(z_only)


def test_kmul_associative_on_random_kernels():
    sp = poisson_space(1, 3)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    rng = random.Random(404)

    def rand_kernel():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(-1, 1)
            w1 = tuple(sorted(rng.randrange(a1.ngens())
                              for _ in range(rng.randint(0, 2))))
            w2 = tuple(sorted(rng.randrange(a2.ngens())
                              for _ in range(rng.randint(0, 2))))
            terms[(a, rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-1, 1),
                   w1, w2)] = qpow(rng.randint(-1, 1))
        return Kernel(sp, terms)

    for _ in range(30):
        k1, k2, k3 = rand_kernel(), rand_kernel(), rand_kernel()
        lhs = (k1 * k2) * k3
        rhs = k1 * (k2 * k3)
        if lhs.truncated or rhs.truncated:
            continue
        assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2])
def test_substitute_x_inverse(n):
    sp = poisson_space(n, max(4, n * n))
    pair = sp.power_term(-1, -1, 0, 0)
    got = substitute_x_inverse(pair)
    expect = sp.from_pair(y_element(n), sp.leg2.alg.one())
    assert got == expect
    # power-free kernels pass through
    k = sp.from_pair(sp.leg1.alg.gen("z", 1, 1), sp.leg2.alg.one())
    assert substitute_x_inverse(k) == k
    with pytest.raises(PowerSignatureError):
        substitute_x_inverse(sp.power_term(-1, 0, 0, 0))


def _substitute_by_y_power(k, cut_each_step=False):
    """Reference: form y^m untruncated, multiply, then cut with Kernel().

    y^m is formed once per m and y^m w1 once per distinct (m, w1), then
    scaled by each term's coefficient.  With ``cut_each_step``, y^m w1 is
    formed one full factor of y at a time and cut to the box after each:
    the in-box terms are the same, because left multiplication by y never
    lowers either count (tested below), but the flag is exact only for a
    kernel that is flagged already."""
    sp = k.space
    alg, D = sp.leg1.alg, sp.cutoff
    y = y_element(sp.n)
    y_power = lru_cache(maxsize=None)(lambda m: y ** m)

    @lru_cache(maxsize=None)
    def times_y_power(m, w1):
        prod = NCPoly(alg, {w1: ONE})
        if not cut_each_step:
            return y_power(m) * prod
        for _ in range(m):
            prod = NCPoly(alg, {w: x for w, x in (y * prod).terms.items()
                                if max(bidegree(alg, w)) <= D})
        return prod

    acc, truncated = {}, k.truncated
    for (a, b, c, d, w1, w2), coeff in k.terms.items():
        summand = Kernel(sp, {(0, 0, c, d, w, w2): coeff * cw
                              for w, cw in times_y_power(-a, w1).terms.items()})
        add_terms(acc, summand.terms.items())
        truncated = truncated or summand.truncated
    return Kernel(sp, acc, truncated)


def _hand_built(leaves_box: bool):
    # n = 2, D = 4: y^m w1 leaves the box exactly when max(bidegree) + 2m > 4
    sp = poisson_space(2, 4)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    z11, zs12 = a1.gen_code("z", 1, 1), a1.gen_code("zs", 1, 2)
    zeta11 = a2.gen_code("zeta", 1, 1)
    terms = {(-1, -1, 0, 0, (z11, zs12), (zeta11,)): qpow(3),
             (-2, -2, 1, 1, (), ()): -ONE,
             (0, 0, 0, 0, (a1.gen_code("z", 2, 1),), ()): qpow(-1)}
    if leaves_box:
        terms[(-2, -2, 0, 0, (z11,), ())] = ONE
    return Kernel(sp, terms)


@pytest.mark.parametrize("case", ["pipeline-1-6", "pipeline-2-1", "pipeline-2-2",
                                  "pipeline-3-1", "in-box", "leaves-box"])
def test_substitute_x_inverse_matches_y_power_reference(case):
    if case.startswith("pipeline"):
        n, D = map(int, case.split("-")[1:])
        k = poisson_space(n, D).power_term(0, 0, n, n) * (
            kinverse(build_Lbar(n, D), n) * kinverse(build_L(n, D), n))
    else:
        k = _hand_built(case == "leaves-box")
        assert not k.truncated
    # y^3 at n = 3 is out of reach in full (y^2 alone takes about 46 s);
    # k is flagged there, so only the in-box terms need the reference
    step = case == "pipeline-3-1"
    assert k.truncated or not step
    got, expect = substitute_x_inverse(k), _substitute_by_y_power(k, step)
    assert got.terms == expect.terms
    assert got.truncated == expect.truncated
    if not case.startswith("pipeline"):
        assert got.truncated == (case == "leaves-box")


def _substitute_per_step(k):
    """Reference: each first-leg word w1 is multiplied on the left by y m
    times, one y term at a time through the block product, and cut to the
    box after each step; the flag is raised when a y term is skipped."""
    sp = k.space
    alg, D = sp.leg1.alg, sp.cutoff
    y_terms = []
    for w, c in y_element(sp.n).terms.items():
        j = bidegree(alg, w)[0]
        y_terms.append((w[:j], w[j:], c))
    acc, truncated = {}, k.truncated
    for (a, b, c, d, w1, w2), coeff in k.terms.items():
        u = {w1: coeff}
        for _ in range(-a):
            nxt = {}
            for w, cw in u.items():
                j = bidegree(alg, w)[0]
                A, B = w[:j], w[j:]
                cw = cw * qpow(2 * j)
                for P, Q, cy in y_terms:
                    if j + len(P) > D or len(Q) + len(B) > D:
                        truncated = True
                        continue
                    add_terms(nxt, ((wz + ws, cw * cy * cz * cs)
                                    for wz, cz in alg.monomial(A + P).terms.items()
                                    for ws, cs in alg.monomial(Q + B).terms.items()))
            u = nxt
        add_terms(acc, (((0, 0, c, d, wp, w2), cp) for wp, cp in u.items()))
    return Kernel(sp, acc, truncated)


@pytest.mark.parametrize("case", ["pipeline-1-6", "pipeline-2-1", "pipeline-2-2",
                                  "pipeline-2-3", "pipeline-3-1", "in-box",
                                  "leaves-box", "in-box-flagged",
                                  "leaves-box-flagged"])
def test_substitute_x_inverse_matches_the_per_step_reference(case):
    # the powers Y_m of y, formed once and applied by group, against m
    # box-cut left multiplications by y for each word
    if case.startswith("pipeline"):
        n, D = map(int, case.split("-")[1:])
        k = poisson_space(n, D).power_term(0, 0, n, n) * inverse_kernels(n, D)[1]
    else:
        k = _hand_built(case.startswith("leaves-box"))
        k = Kernel(k.space, k.terms, case.endswith("flagged"))
    got, expect = substitute_x_inverse(k), _substitute_per_step(k)
    assert got.terms == expect.terms
    assert got.truncated == expect.truncated
    if not case.startswith("pipeline"):
        assert got.truncated == (case != "in-box")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_y_element_is_balanced_and_q_normal(n):
    # the premises of the box bound and of the truncated flag in
    # substitute_x_inverse: every term of y has bidegree (j, j), and
    # y z = q^2 z y, y z* = q^-2 z* y
    y = y_element(n)
    alg = y.alg
    assert all(j == k for j, k in (bidegree(alg, w) for w in y.terms))
    for g in alg.gens:
        x = alg.gen(g.cls, g.i, g.j)
        assert y * x == (x * y).scale(qpow(2 if g.cls == "z" else -2))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("algebra", [pol_algebra, boundary_algebra])
def test_same_class_rules_keep_the_class_and_the_length(algebra, n):
    # the premise of the block products in substitute_x_inverse: a
    # two-letter word of one class is rewritten to words of that class
    # and of length 2
    alg = algebra(n)
    pairs = [(g, h) for g in range(alg.ngens()) for h in range(g)
             if alg.gens[g].cls == alg.gens[h].cls]
    assert len(pairs) == n * n * (n * n - 1)
    for g, h in pairs:
        for _, w in alg.pair_rule(g, h):
            assert len(w) == 2, (g, h, w)
            assert all(alg.gens[x].cls == alg.gens[g].cls for x in w), (g, h, w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_boundary_is_pol_renamed(monkeypatch, n):
    # one presentation under two names: the same codes, rule and pair
    # cache, so a rule first formed through the boundary is a cache hit for
    # Pol and equals Pol's own rule; and one action table for both legs
    pol, bd = pol_algebra(n), boundary_algebra(n)
    rename = {"z": "zeta", "zs": "zetas"}
    assert bd.name == f"Pol[{n};zeta]"
    assert bd.gens == tuple(g._replace(cls=rename[g.cls]) for g in pol.gens)
    assert bd._rule is pol._rule and bd._pair_cache is pol._pair_cache
    calls = []
    monkeypatch.setattr(pol, "_rule", lambda *args: calls.append(args))
    for g in range(pol.ngens()):
        for h in range(g):
            monkeypatch.delitem(pol._pair_cache, (g, h), raising=False)
            rule = bd.pair_rule(g, h)
            assert pol.pair_rule(g, h) is rule
            assert rule == bd._rule(pol, g, h), (g, h)
    assert calls == []
    assert poisson_space(n, 1).leg2.tables is pol_tables(n)


@pytest.mark.parametrize("algebra, n", [(pol_algebra, 1), (pol_algebra, 2),
                                        (boundary_algebra, 2)])
def test_bidegree_is_the_count_of_each_letter_class(algebra, n):
    # every word of length <= 4, in Wick order or not, asked twice so the
    # second answer comes from the cache
    alg = algebra(n)
    for length in range(5):
        for w in product(range(alg.ngens()), repeat=length):
            k = sum(1 for g in w if alg.gens[g].cls in STAR_CLASSES)
            assert bidegree(alg, w) == (length - k, k), w
            assert bidegree(alg, w) == (length - k, k), w


def test_bidegree_cache_is_keyed_by_the_algebra():
    # codes 4..7 are the starred letters of Pol(Mat_2) but plain letters of
    # Mat_{2x4}, which has no starred class
    w = (0, 4, 7)
    assert bidegree(pol_algebra(2), w) == (1, 2)
    assert bidegree(matrix_algebra(2, 4), w) == (3, 0)
    assert bidegree(pol_algebra(2), w) == (1, 2)


def _box_words(alg, D):
    """Every Wick word of bidegree <= (D, D) of a star-pair algebra."""
    blocks = []
    for starred in (False, True):
        codes = [c for c, g in enumerate(alg.gens)
                 if (g.cls in STAR_CLASSES) == starred]
        blocks.append([w for r in range(D + 1)
                       for w in combinations_with_replacement(codes, r)])
    return [wz + ws for wz in blocks[0] for ws in blocks[1]]


@pytest.mark.parametrize("n, D, nwords", [(2, 2, 225), (3, 1, 100)])
def test_left_multiplication_by_y_never_lowers_either_count(n, D, nwords):
    y = y_element(n)
    alg = y.alg
    words = _box_words(alg, D)
    assert len(words) == nwords
    for w in words:
        c, d = bidegree(alg, w)
        for wy, cy in y.terms.items():
            for wp in alg.monomial(wy + w, cy).terms:
                j, k = bidegree(alg, wp)
                assert j >= c and k >= d, (wy, w, wp)


def _y_times_reference(y, D, w):
    """Reference for one substitution step: y w normalised in full with
    the y terms of z-count <= D, then cut to the box.  Returns the in-box
    terms and whether anything was dropped, a skipped y term included."""
    alg = y.alg
    y_box = [(wy, cy) for wy, cy in y.terms.items() if bidegree(alg, wy)[0] <= D]
    prod = alg.sum(alg.monomial(wy + w, cy) for wy, cy in y_box)
    box = {wp: cp for wp, cp in prod.terms.items() if max(bidegree(alg, wp)) <= D}
    return box, len(y_box) < len(y.terms) or len(box) < len(prod.terms)


@pytest.mark.parametrize("n, D, flags", [(2, 2, {False, True}), (3, 1, {True})],
                         ids=["2-2", "3-1"])
def test_block_product_matches_the_full_product_cut_to_the_box(n, D, flags):
    sp = poisson_space(n, D)
    y = y_element(n)
    seen = set()
    for w in _box_words(sp.leg1.alg, D):
        got = substitute_x_inverse(Kernel(sp, {(-1, -1, 0, 0, w, ()): ONE}))
        box, dropped = _y_times_reference(y, D, w)
        assert got.terms == {(0, 0, 0, 0, wp, ()): cp for wp, cp in box.items()}, w
        assert got.truncated == dropped, w
        seen.add(dropped)
    assert seen == flags


def _word_pairs(alg, n):
    """The pairs of the Wick-floor premise: the (4, 4) box squared at n = 1;
    at n = 2 the (1, 1) box squared, and the (2, 2) box against each
    generator on either side."""
    if n == 1:
        words = _box_words(alg, 4)
        return [(w, u) for w in words for u in words]
    small = _box_words(alg, 1)
    gens = [(g,) for g in range(alg.ngens())]
    return ([(w, u) for w in small for u in small]
            + [p for w in _box_words(alg, 2) for g in gens for p in ((w, g), (g, w))])


@pytest.mark.parametrize("n, npairs", [(1, 625), (2, 4225)])
@pytest.mark.parametrize("algebra", [pol_algebra, boundary_algebra])
def test_wick_product_terms_stay_above_the_floor(algebra, n, npairs):
    # the premise of the pair skip in Kernel.__mul__: the normal form of
    # w w' has bidegree >= (a + c - min(b, c), b + d - min(b, c))
    alg = algebra(n)
    pairs = _word_pairs(alg, n)
    assert len(pairs) == npairs
    for w, u in pairs:
        lo = kernels._wick_floor(*bidegree(alg, w), *bidegree(alg, u))
        for wp in alg.monomial(w + u, ONE).terms:
            j, k = bidegree(alg, wp)
            assert j >= lo[0] and k >= lo[1], (w, u, wp)


@pytest.mark.parametrize("n, D, nordered", [(1, 4, 225), (2, 2, 3195),
                                             (3, 1, 1180)])
@pytest.mark.parametrize("algebra", [pol_algebra, boundary_algebra])
def test_a_product_with_an_ordered_junction_is_normal(algebra, n, D, nordered):
    # the premise of the ordered-junction skip in Kernel.__mul__: normal
    # words are non-decreasing, so w u is normal when either is empty or
    # w[-1] <= u[0]; the other pairs are the ones that reach normalize
    alg = algebra(n)
    words = _box_words(alg, D)
    ordered = [(w, u) for w in words for u in words
               if not w or not u or w[-1] <= u[0]]
    assert len(ordered) == nordered
    for w, u in ordered:
        assert alg.monomial(w + u).terms == {w + u: ONE}, (w, u)


def _kmul_reference(k1, k2):
    """The product with every pair of terms normalised and the box applied
    only by the constructor: the pair loop without the Wick floor."""
    sp = k1.space
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    acc: dict = {}
    for (p1, r1, c1, d1, w1, u1), x1 in k1.terms.items():
        j, k = bidegree(a2, u1)
        for (p2, r2, c2, d2, w2, u2), x2 in k2.terms.items():
            jj, kk = bidegree(a1, w2)
            coeff = x1 * x2 * qpow((p1 + r1) * (jj - kk) + (c2 + d2) * (j - k))
            first = a1.monomial(w2 + w1, ONE)
            second = a2.monomial(u1 + u2, ONE)
            key_p = (p1 + p2, r1 + r2, c1 + c2, d1 + d2)
            add_terms(acc, ((key_p + (wf, ws), coeff * cf * cs)
                            for wf, cf in first.terms.items()
                            for ws, cs in second.terms.items()))
    return Kernel(sp, acc, k1.truncated or k2.truncated)


def test_pruned_product_bounds_each_leg_in_its_own_order():
    # first leg w2 w1 = z z* . z and second leg u1 u2 = zeta zeta* . zeta
    # each keep a (1 - q^2) term in the box, while w1 w2 and u2 u1 would not
    sp = poisson_space(1, 1)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    z, zs = a1.gen_code("z", 1, 1), a1.gen_code("zs", 1, 1)
    zeta, zetas = a2.gen_code("zeta", 1, 1), a2.gen_code("zetas", 1, 1)
    k1 = Kernel(sp, {(0, 0, 0, 0, (z,), (zeta, zetas)): ONE}, truncated=True)
    k2 = Kernel(sp, {(0, 0, 0, 0, (z, zs), (zeta,)): ONE}, truncated=True)
    got = k1 * k2
    assert got.terms == _kmul_reference(k1, k2).terms
    assert got.terms[(0, 0, 0, 0, (z,), (zeta,))] == (ONE - qpow(2)) ** 2
    assert (k2 * k1).is_zero() and (k2 * k1).truncated
    # unflagged pairs with q-exponents -2..2 and a descending junction on
    # one leg, zs . z on the first and then zetas . zeta on the second,
    # while the other leg's junction is ordered
    sp = poisson_space(1, 3)
    for w2, u1 in (((zs,), (zeta,)), ((z,), (zetas,))):
        k1 = Kernel(sp, {(1, 0, 0, 1, (z,), u1): ONE,
                         (2, 1, 0, 0, (z, zs), u1): qpow(1)})
        k2 = Kernel(sp, {(0, 1, 2, 0, w2, (zeta,)): ONE,
                         (0, 0, 1, 0, w2, (zeta, zetas)): vpow(1)})
        got, expect = k1 * k2, _kmul_reference(k1, k2)
        assert got.terms == expect.terms and len(got.terms) > 4
        assert not got.truncated and not expect.truncated


def _poisson_products(n, cutoff, monkeypatch):
    """(left, right, product) for every distinct kernel product that the
    poisson suite forms at (n, cutoff), and that the Poisson build forms
    before its y-substitution (which forms none)."""
    D = max(cutoff, 2)
    products = {}
    mul = Kernel.__mul__

    def recorded(k1, k2):
        out = mul(k1, k2)
        products.setdefault((k1.truncated, frozenset(k1.terms.items()),
                             k2.truncated, frozenset(k2.terms.items())),
                            (k1, k2, out))
        return out
    monkeypatch.setattr(Kernel, "__mul__", recorded)
    assert run_suite("poisson", n, cutoff).status == "PASS"
    poisson_space(n, D).power_term(0, 0, n, n) * (
        kinverse(build_Lbar(n, D), n) * kinverse(build_L(n, D), n))
    monkeypatch.undo()
    return list(products.values())


def _one_term_per_bidegree(k):
    """The first term of k, in sorted key order, for each pair of leg
    bidegrees."""
    legs = (k.space.leg1.alg, k.space.leg2.alg)
    picked = {}
    for key in sorted(k.terms, key=repr):
        picked.setdefault(tuple(bidegree(a, w) for a, w in zip(legs, key[4:])), key)
    return Kernel(k.space, {key: k.terms[key] for key in picked.values()})


@pytest.mark.parametrize("n, cutoff", [(1, 6), (1, 24), (2, 2), (3, 1)])
def test_pruned_product_matches_the_full_pair_loop(n, cutoff, monkeypatch):
    # a product above 10^5 pairs, only Lbar^3 (Lbar^-3 L^-3) at (3, 1) with
    # 73 x 5329, is compared on one left term per leg bidegree: the full
    # reference takes about 45 s there.  At n = 3, L and Lbar hold minors
    # of degree 3 > D and are flagged from the start.  At (1, 24) the words
    # are long and every leg product has an ordered junction, so none of
    # them reaches normalize outside the reference.
    products = _poisson_products(n, cutoff, monkeypatch)
    flags = {k1.truncated or k2.truncated for k1, k2, _ in products}
    assert flags == ({True} if n == 3 else {False, True})
    for k1, k2, got in products:
        if len(k1.terms) * len(k2.terms) > 10 ** 5:
            k1 = _one_term_per_bidegree(k1)
            got = k1 * k2
            assert len(k1.terms) > 1 and got.truncated
        expect = _kmul_reference(k1, k2)
        assert got.terms == expect.terms
        assert got.truncated == expect.truncated


def test_poisson_suite_largest_product_skips_pairs_outside_the_box(monkeypatch):
    # at (2, 2) Lbar^2 (Lbar^-2 L^-2) has 17 x 289 pairs; 4080 of them can
    # only land outside the box and never reach normalize
    sp = poisson_space(2, 2)
    mono, mul = Algebra.monomial, Kernel.__mul__
    first_legs, sizes = [], {}

    def counted(alg, word, coeff=ONE):
        if alg is sp.leg1.alg:
            first_legs.append(word)
        return mono(alg, word, coeff)

    def recorded(k1, k2):
        first_legs.clear()
        out = mul(k1, k2)
        sizes[len(k1.terms), len(k2.terms)] = len(first_legs)
        return out
    monkeypatch.setattr(Algebra, "monomial", counted)
    monkeypatch.setattr(Kernel, "__mul__", recorded)
    run_suite("poisson", 2, 2)
    monkeypatch.undo()
    assert max(sizes, key=lambda s: s[0] * s[1]) == (17, 289)
    assert sizes[17, 289] <= 833


def test_poisson_kernel_n1_matches_example_expansion():
    D = 4
    sp = poisson_space(1, D)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    P_raw = poisson_kernel(1, D, normalized=False)
    A = sp.unit() - sp.from_pair(a1.gen("zs", 1, 1), a2.gen("zeta", 1, 1))
    B = sp.unit() - sp.from_pair(a1.gen("z", 1, 1), a2.gen("zetas", 1, 1))
    mid = sp.from_pair(a1.one() - a1.gen("zs", 1, 1) * a1.gen("z", 1, 1), a2.one())
    assert P_raw == kinverse(A) * mid * kinverse(B)


def test_poisson_components():
    D = 4
    P = poisson_kernel(1, D)
    sp = P.space
    assert P.first_component(0, 0) == sp.unit()
    p10 = P.first_component(1, 0)
    z = sp.leg1.alg.gen_code("z", 1, 1)
    assert set(k[4] for k in p10.terms) == {(z,)}
    assert sp.unit().first_component(1, 1).is_zero()
    with pytest.raises(ValueError):
        P.first_component(D + 1, 0)


def test_poisson_integral_basics():
    D = 4
    P = poisson_kernel(1, D)
    sp = P.space
    u, uz = poisson_integral_n1(P, [N1Boundary.one(), N1Boundary.zeta(1)])
    assert u == sp.unit() and u.truncated == P.truncated
    # the normalised operator sends zeta to z on the nose
    assert uz == sp.from_pair(sp.leg1.alg.gen("z", 1, 1), sp.leg2.alg.one())
    assert poisson_integral_n1(P, []) == []
    with pytest.raises(PowerSignatureError):
        poisson_integral_n1(sp.power_term(0, 0, 1, 1), [N1Boundary.one()])
    with pytest.raises(ValueError):
        poisson_integral_n1(poisson_kernel(2, 2), [N1Boundary.one()])


def _integral_term_by_term(P, f):
    """Reference for poisson_integral_n1: each term's second leg goes to
    the Laurent model on its own and is multiplied by f there."""
    sp = P.space
    acc: dict = {}
    for (_, _, _, _, w1, w2), c in P.terms.items():
        second = N1Boundary.from_boundary(NCPoly(sp.leg2.alg, {w2: c}))
        add_terms(acc, (((0, 0, 0, 0, w1, ()), nu_n1(second * f)),))
    return Kernel(sp, acc, P.truncated)


@pytest.mark.parametrize("D", [6, 24])
def test_poisson_integral_matches_the_term_by_term_reference(D):
    # the second-leg exponents of P are -D..D, so zeta^(2D + 1) meets no
    # term of P; the functions are integrated in one call, and each alone
    P = poisson_kernel(1, D)
    alg2 = P.space.leg2.alg
    assert ({j - k for j, k in (bidegree(alg2, key[5]) for key in P.terms)}
            == set(range(-D, D + 1)))
    fs = [N1Boundary.one(), N1Boundary.zeta(1), N1Boundary.zeta(2),
          N1Boundary.zeta(-1), N1Boundary({2: qpow(1), 0: vpow(1), -1: 1}),
          N1Boundary({2 * D + 1: qpow(1), -2: vpow(-1)})]
    for f, got in zip(fs, poisson_integral_n1(P, fs), strict=True):
        expect = _integral_term_by_term(P, f)
        [alone] = poisson_integral_n1(P, [f])
        for k in (got, alone):
            assert k.terms and k.terms == expect.terms, f
            assert k.truncated == expect.truncated == P.truncated
    [absent] = poisson_integral_n1(P, [N1Boundary.zeta(2 * D + 1)])
    assert absent.is_zero() and absent.truncated == P.truncated


# -- the U_q action on one leg ------------------------------------------------

# power symbol: (da, db, q-exponent of its K_n eigenvalue, E_n image
# coefficient, F_n image coefficient), from E_n t = q^-1/2 t z_n^n,
# F_n t* = q^1/2 t* (z_n^n)* and the inverse-pair consequences
_POWER_SYMBOLS = {"T": (1, 0, -1, vpow(-1), None),
                  "Tinv": (-1, 0, 1, -vpow(-1), None),
                  "TS": (0, 1, 1, None, vpow(1)),
                  "TSinv": (0, -1, -1, None, -vpow(5))}


def _leg_mul(ctx, e1: dict, e2: dict) -> dict:
    """Product of leg elements {(a, b, word): coeff} with powers kept left:
    a power block passes a word w of bidegree (j, k) on its left with
    q^{(a+b)(j-k)}."""
    out: dict = {}
    for (a1, b1, w1), c1 in e1.items():
        j, k = bidegree(ctx.alg, w1)
        s1 = j - k
        for (a2, b2, w2), c2 in e2.items():
            c = c1 * c2 * qpow((a2 + b2) * s1)
            add_terms(out, (((a1 + a2, b1 + b2, w), cw) for w, cw
                            in ctx.alg.monomial(w1 + w2, c).terms.items()))
    return out


def _act_leg_by_symbols(ctx, g, a, b, word):
    """Reference: the Leibniz rule one symbol at a time, right to left,
    over t^a t*^b written out as |a| + |b| power symbols followed by the
    letters of the word."""
    n = ctx.tables.n
    seq = (["T" if a > 0 else "Tinv"] * abs(a)
           + ["TS" if b > 0 else "TSinv"] * abs(b) + list(word))

    def unit(sym):
        da, db = _POWER_SYMBOLS[sym][:2] if sym in _POWER_SYMBOLS else (0, 0)
        return {(da, db, () if sym in _POWER_SYMBOLS else (sym,)): ONE}

    def image(sym):
        if sym not in _POWER_SYMBOLS:
            table = ctx.tables.E if g.kind == "E" else ctx.tables.F
            return {(0, 0, w): c for w, c in table[(g.i, sym)].terms.items()}
        da, db, _, e, f = _POWER_SYMBOLS[sym]
        c = e if g.kind == "E" else f
        if g.i != n or c is None:
            return {}
        return {(da, db, (ctx.znn if g.kind == "E" else ctx.zsnn,)): c}

    def k_eig(sym):
        if sym not in _POWER_SYMBOLS:
            return vpow(ctx.tables.k_exp[g.i][sym])
        return qpow(_POWER_SYMBOLS[sym][2]) if g.i == n else ONE

    res, suffix, suffix_kinv = {}, {(0, 0, ()): ONE}, ONE
    for head in reversed(seq):
        new = {}
        if image(head):
            scale = suffix_kinv if g.kind == "F" else ONE
            add_terms(new, ((key, c * scale) for key, c in
                            _leg_mul(ctx, image(head), suffix).items()))
        if res:
            scale = k_eig(head) if g.kind == "E" else ONE
            add_terms(new, ((key, c * scale) for key, c in
                            _leg_mul(ctx, unit(head), res).items()))
        res = new
        suffix = _leg_mul(ctx, unit(head), suffix)
        suffix_kinv = suffix_kinv * k_eig(head).inverse()
    return res


@pytest.mark.parametrize("n", [1, 2])
def test_act_leg_matches_the_symbol_by_symbol_reference(n):
    sp = poisson_space(n, n)
    L, Lb = build_L(n, n), build_Lbar(n, n)
    for leg, idx in ((sp.leg1, 4), (sp.leg2, 5)):
        words = {key[idx] for k in (L, Lb) for key in k.terms}
        for w in words:
            for i in range(1, 2 * n):
                for kind in ("E", "F"):
                    g = UqGen(kind, i)
                    for a in range(-2, 3):
                        for b in range(-2, 3):
                            assert (act_leg(leg, g, a, b, w)
                                    == _act_leg_by_symbols(leg, g, a, b, w)), \
                                (leg.alg.name, g, a, b, w)


@pytest.mark.parametrize("case", ["integral", "edge"])
def test_kernel_act_on_one_leg_is_the_pol_action_cut_to_the_box(case):
    # with 1 on the second leg, Kernel.act is uqact.act on the first leg,
    # cut to the box; "edge" has z^2 at cutoff 2, which E_1 raises past it
    D = 2
    sp = poisson_space(1, D)
    alg, one2 = sp.leg1.alg, sp.leg2.alg.one()
    if case == "integral":
        [u] = poisson_integral_n1(poisson_kernel(1, D), [N1Boundary.zeta(-1)])
        p = NCPoly(alg, {key[4]: c for key, c in u.terms.items()})
    else:
        z, zs = alg.gen("z", 1, 1), alg.gen("zs", 1, 1)
        p = alg.one() + z * z + z * zs.scale(qpow(3)) + zs
    u = sp.from_pair(p, one2)
    flags = set()
    for g in chevalley_gens(1):
        got = u.act(g)
        expect = Kernel(sp, {(0, 0, 0, 0, w, ()): c
                             for w, c in act(sp.leg1.tables, g, p).terms.items()})
        assert got == expect and got.truncated == expect.truncated
        flags.add(got.truncated)
    assert flags == ({False, True} if case == "edge" else {False})


def _kernel_act_by_terms(k, g):
    """Reference: g on a kernel term by term, ``act_leg`` called on both
    legs of every term, with no leg value shared between terms."""
    sp = k.space
    if g.kind in ("K", "Kinv"):
        out = {}
        for key, c in k.terms.items():
            a, b, cc, d, w1, w2 = key
            s = (vpow(kernels._leg_k_exp(sp.leg1, g.i, a, b, w1))
                 * vpow(kernels._leg_k_exp(sp.leg2, g.i, cc, d, w2)))
            out[key] = c * (s.inverse() if g.kind == "Kinv" else s)
        return Kernel(sp, out, k.truncated)
    acc = {}
    for (a, b, cc, d, w1, w2), c in k.terms.items():
        # E x 1 + K x E, or F x K^-1 + 1 x F
        if g.kind == "E":
            s1, s2 = c, c * vpow(kernels._leg_k_exp(sp.leg1, g.i, a, b, w1))
        else:
            k2 = vpow(kernels._leg_k_exp(sp.leg2, g.i, cc, d, w2))
            s1, s2 = c * k2.inverse(), c
        add_terms(acc, (((a2, b2, cc, d, wn, w2), s1 * cv) for (a2, b2, wn), cv
                        in act_leg(sp.leg1, g, a, b, w1).items()))
        add_terms(acc, (((a, b, c2, d2, w1, un), s2 * cv) for (c2, d2, un), cv
                        in act_leg(sp.leg2, g, cc, d, w2).items()))
    return Kernel(sp, acc, k.truncated)


def _kernel_with_repeated_legs():
    # every first leg meets three second legs and the other way round, under
    # two power blocks
    sp = poisson_space(2, 2)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    p1 = a1.one() + a1.gen("z", 2, 2) + a1.gen("z", 1, 2) * a1.gen("zs", 2, 1)
    p2 = a2.one() + a2.gen("zetas", 2, 2) + a2.gen("zeta", 2, 1).scale(qpow(2))
    return sp.sum([sp.from_pair(p1, p2, key=(1, 0, 0, 1)),
                   sp.from_pair(p1, p2, key=(2, 1, 1, 1), coeff=qpow(-1))])


@pytest.mark.parametrize("case", ["L-2-2", "Lbar-2-2", "L-3-1", "Lbar-3-1",
                                  "repeated"])
def test_kernel_act_matches_the_term_by_term_reference(case):
    if case == "repeated":
        k = _kernel_with_repeated_legs()
        assert len({key[:2] + key[4:5] for key in k.terms}) < len(k.terms)
        assert len({key[2:4] + key[5:] for key in k.terms}) < len(k.terms)
    else:
        name, n, D = case.split("-")
        k = (build_L if name == "L" else build_Lbar)(int(n), int(D))
    for g in chevalley_gens(k.space.n):
        got, expect = k.act(g), _kernel_act_by_terms(k, g)
        assert got == expect and got.truncated == expect.truncated, g


def test_invariance_acts_once_per_distinct_leg(monkeypatch):
    # the terms of L and Lbar at n = D = 3 carry 3,280 legs, 1,360 distinct
    calls = []
    real = kernels.act_leg

    def counted(*args):
        calls.append(None)
        return real(*args)
    monkeypatch.setattr(kernels, "act_leg", counted)
    assert check_invariant(build_L(3, 3)) == []
    assert check_invariant(build_Lbar(3, 3)) == []
    assert 0 < len(calls) <= 1360


@pytest.mark.parametrize("n, D, digest, terms", [
    (1, 4, "e4aaa58b112c", 41),
    (1, 24, "040e335e25dc", 1201),
    (2, 2, "ffcc205a112a", 411),
    (2, 3, "94f9941a67a5", 3663),
    (3, 1, "2a66cfc790a3", 109),
    (3, 2, "cc4889fdc719", 6473),
    (4, 1, "61e1880149ee", 305),
    (4, 2, "721e98b7bb0d", 56697),
    (5, 1, "a8aa50e38c29", 701),
    (2, 4, "b0fc9d3cf7cb", 23701),
])
def test_poisson_kernel_golden_hash(bench, n, D, digest, terms):
    P = poisson_kernel(n, D)
    assert (bench.kernel_hash(P), len(P.terms), P.truncated) == (digest, terms, True)


def test_poisson_suite_and_build_share_the_inverse_kernels(monkeypatch):
    # L^-n and Lbar^-n L^-n are formed once for the poisson suite and the
    # build: 22 products at (2, 2), 21 of them with distinct operands
    # (Lbar^n (Lbar^-n L^-n) equals L^-n in the box)
    for cached in (kernels.inverse_kernels, kernels._raw_poisson,
                   kernels._normalized_poisson):
        cached.cache_clear()
    calls = []
    real = Kernel.__mul__

    def counted(self, other):
        calls.append(None)
        return real(self, other)
    monkeypatch.setattr(Kernel, "__mul__", counted)
    assert [run_suite(s, 2, 2).status for s in ("poisson", "p11")] == ["PASS"] * 2
    assert len(calls) <= 22


def test_verify_all_builds_L_and_Lbar_once(monkeypatch, tmp_path):
    # the invariance and poisson suites and the Poisson build share one L
    # and one Lbar at (2, 2), each built from C(4, 2) = 6 pairs of minors
    for cached in (kernels.build_L, kernels.build_Lbar, kernels.inverse_kernels,
                   kernels._raw_poisson, kernels._normalized_poisson):
        cached.cache_clear()
    calls = []
    real = kernels.qminor

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)
    monkeypatch.setattr(kernels, "qminor", counted)
    assert main(["verify", "--suite", "all", "--n", "2", "--cutoff", "2",
                 "--output", str(tmp_path / "all.json")]) == 0
    assert len(calls) == 2 * (2 * 6)


def test_poisson_cache_ignores_argument_spelling():
    P = poisson_kernel(1, 4)
    assert poisson_kernel(1, 4, normalized=True) is P
    assert poisson_kernel(n=1, cutoff=4) is P
    raw = poisson_kernel(1, 4, normalized=False)
    assert poisson_kernel(n=1, cutoff=4, normalized=False) is raw
    assert poisson_space(n=1, cutoff=4) is poisson_space(1, 4) is P.space


@pytest.mark.parametrize("n, D, d", [(1, 6, 2), (1, 24, 6), (2, 2, 1), (2, 3, 2)])
def test_in_box_terms_do_not_depend_on_the_cutoff(n, D, d):
    big = poisson_kernel(n, D)
    legs = (big.space.leg1.alg, big.space.leg2.alg)

    def in_box(key):
        return all(max(bidegree(alg, w)) <= d for alg, w in zip(legs, key[4:]))
    assert {k: c for k, c in big.terms.items() if in_box(k)} == poisson_kernel(n, d).terms


def test_substitute_x_inverse_sums_in_linear_time(monkeypatch):
    # the running sum is built once: bidegrees are taken per summand term
    # and once more per result term, not once per term per summand
    n, D = 1, 12
    sp = poisson_space(n, D)
    k = sp.power_term(0, 0, n, n) * (kinverse(build_Lbar(n, D), n)
                                     * kinverse(build_L(n, D), n))
    calls = []

    def counted(alg, word):
        calls.append(word)
        return bidegree(alg, word)
    monkeypatch.setattr(kernels, "bidegree", counted)
    result = substitute_x_inverse(k)
    ncalls = len(calls)
    monkeypatch.undo()
    assert result == poisson_kernel(n, D, normalized=False)
    assert ncalls <= 10 * len(result.terms)


def test_kernel_difference_matches_adding_the_negated_kernel(monkeypatch):
    sp = poisson_space(1, 3)
    a1, a2 = sp.leg1.alg, sp.leg2.alg
    z, zs = a1.gen_code("z", 1, 1), a1.gen_code("zs", 1, 1)
    zeta = a2.gen_code("zeta", 1, 1)
    shared = {(0, 0, 0, 0, (z,), (zeta,)): ONE, (1, 0, 0, 0, (), ()): qpow(2)}
    own = {(0, 1, 0, 0, (z, zs), ()): qpow(-1), (0, 0, 0, 0, (), ()): ONE}
    other = {(0, 0, 1, 0, (zs,), (zeta,)): ONE - qpow(2)}
    P = poisson_kernel(1, 3)
    operands = [Kernel(sp, {**shared, **own}), Kernel(sp, {**shared, **other}),
                Kernel(sp, {**shared, **own}, truncated=True),
                Kernel(sp, {**other, **shared}, truncated=True),
                build_L(1, 3), P, P.scale(qpow(1)), P.scale(-ONE), sp.unit(),
                Kernel(sp, {})]
    made = []
    real_init = Kernel.__init__

    def counted_init(self, *args, **kwargs):
        made.append(1)
        real_init(self, *args, **kwargs)

    for a in operands:
        for b in operands:
            expect = a + b.scale(-ONE)
            monkeypatch.setattr(Kernel, "__init__", counted_init)
            got = a - b
            monkeypatch.undo()
            assert list(got.terms.items()) == list(expect.terms.items())
            assert got.truncated == expect.truncated == (a.truncated or b.truncated)
    assert len(made) == len(operands) ** 2
    assert (P - P).is_zero() and (P - P).truncated
    with pytest.raises(CutoffMismatchError):
        sp.unit() - poisson_space(1, 2).unit()


def test_kernel_space_sum(monkeypatch):
    sp = poisson_space(1, 2)
    z = sp.from_pair(sp.leg1.alg.gen("z", 1, 1), sp.leg2.alg.one())
    assert sp.sum([sp.unit(), z, z.scale(-ONE)]) == sp.unit()
    assert sp.sum([]).is_zero()
    flagged = Kernel(sp, {}, truncated=True)
    assert sp.sum([z, flagged]).truncated and not sp.sum([z]).truncated
    with pytest.raises(CutoffMismatchError):
        sp.sum([poisson_space(1, 3).unit()])
    # the box at its edge on each leg: a word's two counts sum to its
    # length, so only a word longer than D is looked up, and of the words
    # of length D + 1 only (D + 1, 0) and (0, D + 1) are dropped
    D = sp.cutoff
    looked_up = []
    real = kernels.bidegree
    monkeypatch.setattr(kernels, "bidegree",
                        lambda alg, w: looked_up.append(w) or real(alg, w))
    for leg, (alg, cls) in enumerate(((sp.leg1.alg, "z"), (sp.leg2.alg, "zeta"))):
        x, xs = alg.gen_code(cls, 1, 1), alg.gen_code(cls + "s", 1, 1)
        for j, k in ((D, 0), (0, D), (D - 1, 1), (D, 1), (1, D),
                     (D + 1, 0), (0, D + 1)):
            w = (x,) * j + (xs,) * k
            key = (0, 0, 0, 0) + ((w, ()) if leg == 0 else ((), w))
            looked_up.clear()
            got = Kernel(sp, {key: ONE})
            kept = max(j, k) <= D
            assert (key in got.terms, got.truncated) == (kept, not kept), (leg, j, k)
            assert looked_up == ([w] if j + k > D else []), (leg, j, k)
