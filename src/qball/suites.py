"""Named verification suites behind the CLI.

Each suite runs one family of exact identity checks at the requested (n,
cutoff).  The checkers return labelled residuals ``[(key, r)]``, each r
with ``is_zero()``; a suite turns the nonzero ones into labels on the
report it is given, and fails a boolean spot check by its label alone.
``run_suite`` is the one place that makes, times and returns a Report.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .algebras import (bidegree, boundary_algebra, matrix_algebra, pol_algebra,
                       star_poly)
from .boundary import N1Boundary, shilov_reduce
from .classical import (classical_det_one_minus_zzstar, classical_kernel,
                        classical_p11, classical_poly)
from .hua import (generator_words, match_up_to_scalar, p11_formula_kernel,
                  p11_scalar, verify_hua_kernel, verify_hua_theorem_n1)
from .kernels import (Kernel, build_L, build_Lbar, check_invariant,
                      inverse_kernels, kinverse, poisson_integral_n1,
                      poisson_kernel, poisson_space)
from .ncpoly import normalize, overlap_residuals
from .polmat import GLnElement, shilov_residuals_gl, y_element
from .qmatrix import centrality_residuals, laplace_residuals
from .reports import Report
from .scalars import ONE
from .uqact import (module_algebra_residuals, operator_relation_residuals,
                    pol_tables, rect_tables, star_compat_residuals)

# the suites of `verify --suite all`; `limits` runs on its own subcommand
SUITE_NAMES = ["laplace", "central", "confluence", "invariance", "star",
               "action", "poisson", "p11", "hua-kernel", "hua-theorem-n1",
               "shilov-consistency"]


def _collect(report: Report, labelled):
    report.fail([label for label, r in labelled if not r.is_zero()])


def suite_laplace(rep: Report, n: int, cutoff: int):
    _collect(rep, laplace_residuals(n))


def suite_central(rep: Report, n: int, cutoff: int):
    _collect(rep, [(f"[det_q, t{k}]", r) for k, r in centrality_residuals(n)])


def suite_confluence(rep: Report, n: int, cutoff: int):
    """Every overlap ambiguity g > h > k of each rewrite table resolves, which
    by the Diamond Lemma proves the table confluent (see
    :func:`qball.ncpoly.overlap_residuals`).  The tables are Pol's and the
    rectangular matrix algebra's; the boundary is Pol's presentation
    renamed, so its table is Pol's and is checked under Pol's name."""
    for alg in (pol_algebra(n), matrix_algebra(n, 2 * n)):
        _collect(rep, [(f"{alg.name}:{t}", r) for t, r in overlap_residuals(alg)])


def suite_invariance(rep: Report, n: int, cutoff: int):
    D = max(cutoff, n)
    for name, k in (("L", build_L(n, D)), ("Lbar", build_Lbar(n, D))):
        rep.truncated = rep.truncated or k.truncated
        _collect(rep, [(f"{name}:{g}", r) for g, r in check_invariant(k)])


def suite_star(rep: Report, n: int, cutoff: int):
    """The Pol involution on generators and generator pairs, plus
    involutivity of the GL_n star on the generator span.

    ``star_poly`` reverses words, swaps classes and renormalises.  It is a
    well-defined antihomomorphism of Pol exactly when it respects every
    rewrite rule, i.e. ``star(g h) == star(h) star(g)`` on the pairs g > h,
    since the tables are confluent (the ``confluence`` suite).  Its square
    is then a homomorphism, the identity once ``star(star(g)) == g``, so
    these finite checks prove both properties on all of Pol.  A pair
    g <= h is not checked: g h is normal and each star(g) is one letter, so
    both sides normalise the one word star(h) star(g).
    """
    alg = pol_algebra(n)
    G = range(alg.ngens())
    gens = [normalize(alg, [((g,), ONE)]) for g in G]
    stars = [star_poly(x) for x in gens]
    _collect(rep, [(f"star-involutive:{g}", star_poly(stars[g]) - gens[g])
                   for g in G])
    _collect(rep, [(f"star-antimult:{g},{h}",
                    star_poly(normalize(alg, [((g, h), ONE)])) - stars[h] * stars[g])
                   for g in G for h in range(g)])
    bad = []
    for a in range(1, n + 1):
        for al in range(1, n + 1):
            e = GLnElement.of_gen(n, a, al)
            bad.append((f"gl-star^2 z[{a},{al}]", e.star().star() - e))
    _collect(rep, bad)


def suite_action(rep: Report, n: int, cutoff: int):
    """Module-algebra soundness, then the operator relations and the star
    compatibility on the empty word and each single generator of Pol.

    Each relation is skew-primitive and the star compatibility is closed
    under products, so these finite checks prove both on all of Pol (see
    :func:`qball.uqact.operator_relation_residuals` and
    :func:`qball.uqact.star_compat_residuals`).  The second kernel leg
    acts through the pol tables too, so they are checked once, as "pol".
    """
    t = pol_tables(n)
    for tag, tables in (("pol", t), ("rect", rect_tables(n))):
        _collect(rep, [(f"{tag}:{k}", r)
                       for k, r in module_algebra_residuals(tables)])
    words = [()] + [(g,) for g in range(t.alg.ngens())]
    _collect(rep, [(f"op:{k}", r)
                   for k, r in operator_relation_residuals(t, words)])
    _collect(rep, [(f"starcompat:{g}:{w}", r)
                   for (g, w), r in star_compat_residuals(t, words)])


def suite_poisson(rep: Report, n: int, cutoff: int):
    """Inverse identities for the kernels; for n = 1 additionally the
    explicit kernel expansion, unitality, and the telescoping identity."""
    D = max(cutoff, 2)
    sp = poisson_space(n, D)
    L, Lb = build_L(n, D), build_Lbar(n, D)
    Linv, LbLinv = inverse_kernels(n, D)
    Ln, Lbn = sp.unit(), sp.unit()
    for _ in range(n):
        Ln, Lbn = Ln * L, Lbn * Lb
    checks = [("L^n L^-n - 1", Ln * Linv - sp.unit()),
              ("L^-n L^n - 1", Linv * Ln - sp.unit()),
              ("Lbar^n (Lbar^-n L^-n) L^n - 1",
               Lbn * LbLinv * Ln - sp.unit())]
    if n == 1:
        a1, a2 = sp.leg1.alg, sp.leg2.alg
        P_raw = poisson_kernel(1, D, normalized=False)
        A = sp.unit() - sp.from_pair(a1.gen("zs", 1, 1), a2.gen("zeta", 1, 1))
        B = sp.unit() - sp.from_pair(a1.gen("z", 1, 1), a2.gen("zetas", 1, 1))
        mid = sp.from_pair(a1.one() - a1.gen("zs", 1, 1) * a1.gen("z", 1, 1),
                           a2.one())
        checks.append(("P - (1-z* zeta)^-1 (1-z*z) (1-z zeta*)^-1",
                       P_raw - kinverse(A) * mid * kinverse(B)))
        P = poisson_kernel(1, D)
        checks.append(("P(1) - 1",
                       poisson_integral_n1(P, N1Boundary.one()) - sp.unit()))
        # telescoping partial sums of z^k (1 - z z*) z*^k, with z^k and
        # z*^k formed one step at a time
        z, zs = a1.gen("z", 1, 1), a1.gen("zs", 1, 1)
        y = a1.one() - z * zs
        zk, zsk = [a1.one()], [a1.one()]
        for _ in range(D):
            zk.append(zk[-1] * z)
            zsk.append(zsk[-1] * zs)
        tele = a1.sum(zk[k] * y * zsk[k] for k in range(D + 1))
        resid = tele - a1.one()
        high_ok = all(min(*bidegree(a1, w)) > D for w in resid.terms)
        checks.append(("telescoping-tail", resid if not high_ok else a1.zero()))
    for label, r in checks:
        if isinstance(r, Kernel):
            rep.truncated = rep.truncated or r.truncated
    _collect(rep, checks)


def suite_p11(rep: Report, n: int, cutoff: int):
    """The (1,1) component against its displayed form, up to one scalar,
    plus the classical limit pattern."""
    D = max(cutoff, 2)
    P = poisson_kernel(n, D)
    rep.truncated = P.truncated
    p11 = P.first_component(1, 1)
    c = match_up_to_scalar(p11, p11_formula_kernel(n, D))
    if c is None:
        rep.fail(["p11 does not match the displayed form up to one scalar"])
        return
    rep.note = f"scalar={c.to_text()}"
    if c != p11_scalar(n):
        rep.fail(["p11 scalar differs from (1 - q^{2n})/(1 - q^2)"])
    if classical_kernel(p11.scale(c.inverse())) != classical_p11(n):
        rep.fail(["classical limit of p11 mismatches the known pattern"])


def suite_hua_kernel(rep: Report, n: int, cutoff: int):
    P = poisson_kernel(n, max(cutoff, 2))
    rep.truncated = P.truncated
    _collect(rep, [(f"{system}:{xy}", r)
                   for (system, xy), r in verify_hua_kernel(P)])
    # negative control: dropping the q^{2c} weights must break n >= 2,
    # in system A and in system B
    if n >= 2:
        controls = verify_hua_kernel(P, weighted=False)
        if any(all(r.is_zero() for (s, _), r in controls if s == system)
               for system in "AB"):
            rep.fail(["negative control passed: weights are not being used"])


def suite_hua_theorem_n1(rep: Report, n: int, cutoff: int):
    if n != 1:
        rep.status = "SKIPPED"
        rep.note = "integral-level check is defined for n = 1"
        return
    if cutoff < 3:
        rep.status = "SKIPPED"
        rep.note = "cutoff too small for length-2 generator words"
        return
    fs = [N1Boundary.one(), N1Boundary.zeta(1), N1Boundary.zeta(2),
          N1Boundary.zeta(-1)]
    xi_words = generator_words(1, 2)
    rep.truncated = any(1 + len(xi) > cutoff for xi in xi_words)
    _collect(rep, verify_hua_theorem_n1(fs, xi_words, cutoff))


def suite_shilov_consistency(rep: Report, n: int, cutoff: int):
    """The Shilov relations hold identically after the GL_n star
    substitution, and the two n = 1 models agree on the reduction span."""
    _collect(rep, shilov_residuals_gl(n))
    alg = boundary_algebra(1)
    pairs = [alg.one(), alg.gen("zeta", 1, 1) * alg.gen("zetas", 1, 1),
             alg.gen("zetas", 1, 1) * alg.gen("zeta", 1, 1)]
    for p in pairs:
        quotient = shilov_reduce(p)
        laurent = N1Boundary.from_boundary(p)
        if N1Boundary.from_boundary(quotient) != laurent:
            rep.fail([f"model-mismatch:{p}"])


def suite_limits(rep: Report, n: int, cutoff: int):
    """Classical q -> 1 spot checks (the `limits` subcommand)."""
    if classical_poly(y_element(n)) != classical_det_one_minus_zzstar(n):
        rep.fail(["y vs det(1-zz*)"])
    D = max(cutoff, 2)
    if n <= 2:
        p11 = poisson_kernel(n, D).first_component(1, 1)
        c = match_up_to_scalar(p11, p11_formula_kernel(n, D))
        if c is None or classical_kernel(p11.scale(c.inverse())) != classical_p11(n):
            rep.fail(["classical p11"])
    if n == 1:
        u = poisson_integral_n1(poisson_kernel(1, D), N1Boundary.zeta(1))
        if classical_kernel(u) != {(("z", 1, 1),): Fraction(1)}:
            rep.fail(["classical Poisson of zeta"])


_SUITES = {
    "laplace": suite_laplace,
    "central": suite_central,
    "confluence": suite_confluence,
    "invariance": suite_invariance,
    "star": suite_star,
    "action": suite_action,
    "poisson": suite_poisson,
    "p11": suite_p11,
    "hua-kernel": suite_hua_kernel,
    "hua-theorem-n1": suite_hua_theorem_n1,
    "shilov-consistency": suite_shilov_consistency,
    "limits": suite_limits,
}


def run_suite(name: str, n: int, cutoff: int) -> Report:
    """Run one suite on a fresh report, timed into ``wall_ms``."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}")
    start = time.monotonic()
    rep = Report(name, n, cutoff)
    _SUITES[name](rep, n, cutoff)
    rep.wall_ms = int((time.monotonic() - start) * 1000)
    return rep
