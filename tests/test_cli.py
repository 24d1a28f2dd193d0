import json

import pytest

from qball import kernels, suites
from qball.algebras import pol_algebra
from qball.cli import main
from qball.parser import ExprError, parse_expr
from qball.render import poly_text
from qball.scalars import ONE, qpow, vpow
from qball.suites import SUITE_NAMES, run_suite


def test_parse_normalizes_via_the_engine():
    tag, p = parse_expr("z[1,2]*z[1,1]", 2)
    assert tag == "pol"
    assert poly_text(p) == "q^-1*z[1,1]*z[1,2]"


def test_parse_scalar_expression():
    tag, p = parse_expr("q - q^-1", 1)
    assert tag == "scalar"
    assert p.constant_term() == qpow(1) - qpow(-1)
    tag, p = parse_expr("3/2", 1)
    assert p.constant_term().eval_at(1) == 1.5


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_expr("z[0,1]", 1)           # index out of range
    with pytest.raises(ExprError):
        parse_expr("z[1,1]*zeta[1,1]", 1)  # incompatible families
    with pytest.raises(ExprError):
        parse_expr("z[1,1", 1)             # syntax
    with pytest.raises(ExprError):
        parse_expr("w[1,1]", 1)            # unknown atom
    with pytest.raises(ExprError):
        parse_expr("(z[1,1] + 1)^-1", 1)   # negative power of a non-scalar


def test_parse_handles_parentheses_powers_and_families():
    tag, p = parse_expr("(1 - q^2)^-1 * (1 - q^2)", 1)
    assert tag == "scalar" and p.constant_term() == ONE
    tag, p = parse_expr("zeta[1,1]*zetas[1,1]", 1)
    assert tag == "boundary"
    tag, p = parse_expr("t[1,2]*t[1,1]", 1)
    assert tag == "rect"
    assert poly_text(p) == "q^-1*t[1,1]*t[1,2]"
    tag, p = parse_expr("v^2", 1)
    assert p.constant_term() == qpow(1)


def test_parse_scalar_atoms_give_the_power_helpers():
    tag, p = parse_expr("q", 1)
    assert tag == "scalar" and p.constant_term() == qpow(1)
    tag, p = parse_expr("v", 1)
    assert tag == "scalar" and p.constant_term() == vpow(1)
    assert hash(p.constant_term()) == hash(vpow(1))


def test_parse_render_parse_roundtrip():
    samples = [
        ("z[1,1]*zs[2,2] - q*z[1,2]*zs[2,1]", 2),
        ("zeta[1,1]^3", 1),
        ("t[2,4]*t[1,1] + 5*t[1,2]^2", 2),
        ("q^2 - 2 + q^-2", 1),
        ("(q - q^-1)*z[1,1]", 1),
    ]
    for text, n in samples:
        tag1, p1 = parse_expr(text, n)
        rendered = poly_text(p1)
        tag2, p2 = parse_expr(rendered, n)
        assert tag1 == tag2 or p1.is_zero()
        assert p1 == p2
        assert poly_text(p2) == rendered


def test_run_suite_reports():
    rep = run_suite("laplace", 1, 2)
    assert rep.status == "PASS" and rep.suite == "laplace"
    with pytest.raises(KeyError):
        run_suite("nope", 1, 2)


def test_star_suite_negative_control(monkeypatch):
    # a star scaled by q is neither involutive nor antimultiplicative
    star = suites.star_poly
    monkeypatch.setattr(suites, "star_poly", lambda p: star(p).scale(qpow(1)))
    assert run_suite("star", 1, 2).status == "FAIL"


def test_star_antimult_catches_one_corrupted_rewrite_rule(monkeypatch, no_new_kernels):
    # z[1,2] z[1,1] = q^-1 z[1,1] z[1,2], scaled by q: star-antimult fails
    # on that pair and on the pair of its star image, zs[1,2] zs[1,1], whose
    # star normalises through the corrupted rule; star-involutive reads no
    # rule and holds
    alg = pol_algebra(2)
    g, h = alg.gen_code("z", 1, 2), alg.gen_code("z", 1, 1)
    sg, sh = alg.gen_code("zs", 1, 2), alg.gen_code("zs", 1, 1)
    assert (g, h, sg, sh) == (1, 0, 5, 4)
    rule = alg.pair_rule(g, h)
    with no_new_kernels():
        monkeypatch.setitem(alg._pair_cache, (g, h),
                            [(c * qpow(1), w) for c, w in rule])
        rep = run_suite("star", 2, 1)
    assert rep.status == "FAIL" and rep.residual_count == 2
    assert rep.residual_sample == ["star-antimult:1,0", "star-antimult:5,4"]


def test_report_json_schema_and_determinism():
    r1 = run_suite("central", 2, 2)
    r2 = run_suite("central", 2, 2)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("wall_ms"), d2.pop("wall_ms")
    assert d1 == d2
    assert list(d1) == ["suite", "n", "cutoff", "status", "residual_count",
                        "residual_sample", "truncated"]


def test_cli_normalize_and_exit_codes(capsys, tmp_path):
    assert main(["normalize", "--n", "2", "z[1,2]*z[1,1]"]) == 0
    out = capsys.readouterr().out
    assert "q^-1*z[1,1]*z[1,2]" in out

    assert main(["normalize", "--n", "1", "z[0,1]"]) == 2

    out_file = tmp_path / "rep.json"
    code = main(["verify", "--suite", "laplace", "--n", "1",
                 "--output", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["status"] == "PASS" and payload["suite"] == "laplace"

    # skipped-only run exits 3
    assert main(["verify", "--suite", "hua-theorem-n1", "--n", "2"]) == 3


def test_cli_limits(capsys):
    assert main(["limits", "--n", "1"]) == 0
    assert "limits" in capsys.readouterr().out


def test_cli_verify_all_runs_every_suite_and_builds_p_once(monkeypatch, tmp_path,
                                                           fresh_kernels):
    builds = []
    substitute = kernels.substitute_x_inverse

    def counted(k):
        builds.append(k.space.cutoff)
        return substitute(k)

    monkeypatch.setattr(kernels, "substitute_x_inverse", counted)
    out_file = tmp_path / "all.json"
    code = main(["verify", "--suite", "all", "--n", "1", "--cutoff", "6",
                 "--output", str(out_file)])
    assert code == 0
    assert builds == [6]

    def strip(entry):
        return {k: v for k, v in entry.items() if k != "wall_ms"}

    payload = json.loads(out_file.read_text())
    assert [entry["suite"] for entry in payload] == SUITE_NAMES
    assert [strip(entry) for entry in payload] == \
        [strip(run_suite(name, 1, 6).to_dict()) for name in SUITE_NAMES]


def test_parse_error_paths(capsys):
    for text in ("0^-1", "(q-q)^-1", "(z[1,1]-z[1,1])^-1"):
        with pytest.raises(ExprError, match="inverse of zero"):
            parse_expr(text, 1)
        assert main(["normalize", "--n", "1", text]) == 2
        assert capsys.readouterr().err.startswith("parse error: inverse of zero")
    with pytest.raises(ExprError, match="trailing input"):
        parse_expr("z[1,1])", 1)
    with pytest.raises(ExprError, match="zero denominator"):
        parse_expr("1/0", 1)
    with pytest.raises(ExprError, match="expected an atom"):
        parse_expr("*", 1)
    with pytest.raises(ValueError):
        parse_expr("z[1,1]", 0)


def test_parse_negative_power_of_a_polynomial_that_is_a_scalar():
    tag, p = parse_expr("(z[1,1] - z[1,1] + 2)^-1", 1)
    assert tag == "pol"
    assert set(p.terms) == {()}
    assert p.constant_term().eval_at(1) == 0.5


def test_shilov_consistency_fails_on_a_wrong_model(monkeypatch):
    reduce = suites.shilov_reduce
    monkeypatch.setattr(suites, "shilov_reduce",
                        lambda p: reduce(p).scale(qpow(1)))
    rep = run_suite("shilov-consistency", 1, 2)
    assert rep.status == "FAIL" and rep.residual_sample
    assert all(label.startswith("model-mismatch:")
               for label in rep.residual_sample)


@pytest.mark.parametrize("oracle, label", [
    ("classical_det_one_minus_zzstar", "y vs det(1-zz*)"),
    ("Fraction", "classical Poisson of zeta"),   # the expected image of zeta
])
def test_limits_fails_on_a_corrupted_oracle(monkeypatch, tmp_path, oracle,
                                            label):
    original = getattr(suites, oracle)
    if oracle == "Fraction":
        monkeypatch.setattr(suites, oracle, lambda x: 2 * original(x))
    else:
        monkeypatch.setattr(suites, oracle, lambda n: {})
    out_file = tmp_path / "limits.json"
    assert main(["limits", "--n", "1", "--cutoff", "2",
                 "--output", str(out_file)]) == 1
    payload = json.loads(out_file.read_text())
    assert payload["status"] == "FAIL" and label in payload["residual_sample"]
