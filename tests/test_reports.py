from qball.reports import RESIDUAL_SAMPLE_LIMIT, Report


def test_report_defaults():
    rep = Report("poisson", 2, 3)
    assert (rep.suite, rep.n, rep.cutoff) == ("poisson", 2, 3)
    assert (rep.status, rep.residual_count, rep.residual_sample, rep.truncated,
            rep.wall_ms, rep.note) == ("PASS", 0, [], False, 0, "")


def test_each_report_has_its_own_residual_sample():
    a, b = Report("laplace", 1, 2), Report("laplace", 1, 2)
    assert a.residual_sample is not b.residual_sample
    a.fail(["r"])
    assert a.residual_sample == ["r"] and b.residual_sample == []
    assert b.status == "PASS"


def test_fail_counts_every_residual_and_keeps_the_first_few():
    rep = Report("action", 1, 2)
    rep.fail([])
    assert rep.status == "PASS" and rep.residual_count == 0
    rep.fail(list(range(RESIDUAL_SAMPLE_LIMIT - 3)))
    rep.fail(["x", "y", "z", "w", "u"])
    assert rep.status == "FAIL"
    assert rep.residual_count == RESIDUAL_SAMPLE_LIMIT + 2
    assert rep.residual_sample == ([str(i) for i in range(RESIDUAL_SAMPLE_LIMIT - 3)]
                                   + ["x", "y", "z"])
    rep.fail(["v"])
    assert rep.residual_count == RESIDUAL_SAMPLE_LIMIT + 3
    assert len(rep.residual_sample) == RESIDUAL_SAMPLE_LIMIT


def test_to_dict_field_order_with_and_without_a_note():
    rep = Report("p11", 1, 4)
    rep.truncated, rep.wall_ms = True, 12
    keys = ["suite", "n", "cutoff", "status", "residual_count",
            "residual_sample", "truncated", "wall_ms"]
    assert list(rep.to_dict()) == keys
    assert list(rep.to_dict().values()) == ["p11", 1, 4, "PASS", 0, [], True, 12]
    rep.note = "scalar=1"
    assert list(rep.to_dict()) == keys + ["note"]
    assert rep.to_dict()["note"] == "scalar=1"


def test_line_for_pass_fail_and_skipped():
    rep = Report("star", 2, 2)
    rep.wall_ms = 7
    assert rep.line() == "PASS    star (n=2, cutoff=2, residuals=0, 7 ms)"
    rep.fail(["a", "b"])
    assert rep.line() == "FAIL    star (n=2, cutoff=2, residuals=2, 7 ms)"
    skipped = Report("hua-theorem-n1", 2, 3)
    skipped.status, skipped.note = "SKIPPED", "defined for n = 1"
    assert skipped.line() == ("SKIPPED hua-theorem-n1 (n=2, cutoff=3, "
                              "residuals=0, 0 ms) [defined for n = 1]")
