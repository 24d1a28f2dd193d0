"""Tests of the benchmark itself (not part of the qball suite):

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import re
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import qball.cli
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _verify_report(tmp_path, name):
    out = tmp_path / f"{name}.json"
    with redirect_stdout(io.StringIO()):
        rc = qball.cli.main(["verify", "--suite", "all", "--n", "1",
                             "--cutoff", "3", "--output", str(out)])
    return rc, workloads.report_entries(json.loads(out.read_text()))


def _normalize(exprs):
    outs = []
    for expr in exprs:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = qball.cli.main(["normalize", "--n", "2", expr])
        outs.append((rc, buf.getvalue()))
    return outs


def _attributes():
    """Every attribute of every qball module and class, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "qball" or name.startswith("qball."):
            for key, val in vars(mod).items():
                snap[(name, key)] = val
                if isinstance(val, type):
                    for k2, v2 in vars(val).items():
                        snap[(name, key, k2)] = v2
    return snap


# -- the traced run ----------------------------------------------------------------

def test_tracing_changes_no_output_and_wrappers_are_removed(tmp_path):
    rc_plain, plain = _verify_report(tmp_path, "plain")
    exprs = workloads.expressions(5, 2, count=40)
    norm_plain = _normalize(exprs)
    before = _attributes()
    with tracer.Tracer() as t:
        assert qball.cli.main is not before[("qball.cli", "main")]
        assert qball.suites.normalize is not before[("qball.suites", "normalize")]
        rc_traced, traced = _verify_report(tmp_path, "traced")
        norm_traced = _normalize(exprs)
    after = _attributes()
    assert (rc_traced, traced) == (rc_plain, plain)
    assert norm_traced == norm_plain
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    summary = t.summary()
    metrics = tracer.layer_metrics(summary)
    assert metrics["cli.main_s"] > 0
    assert metrics["ncpoly.normalize_calls"] > 0
    assert metrics["parser.parse_expr_s"] > 0
    assert metrics["scalars.mul_calls"] > 0
    assert all(metrics[f"suites.{s}_s"] > 0 for s in tracer.SUITES)


def test_counters_lose_nothing_across_threads():
    from qball.algebras import pol_algebra
    alg = pol_algebra(2)
    word = (0, 4, 5)
    threads, calls = 6, 5000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with tracer.Tracer() as t:
            bidegree = qball.algebras.bidegree

            def work():
                for _ in range(calls):
                    bidegree(alg, word)

            pool = [threading.Thread(target=work) for _ in range(threads)]
            for th in pool:
                th.start()
            for th in pool:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in pool)
    finally:
        sys.setswitchinterval(old)
    assert t.summary()["counts"]["algebras.bidegree_calls"] == threads * calls


def test_tracer_refuses_a_second_install():
    t = tracer.Tracer().install()
    try:
        with pytest.raises(RuntimeError):
            t.install()
    finally:
        t.uninstall()


# -- span arithmetic -----------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, "A", 0.0, 10.0, -1),
        (0, "B", 1.0, 4.0, 0),
        (0, "C", 2.0, 3.0, 1),
        (0, "B", 5.0, 9.0, 0),
        (1, "A", 0.0, 5.0, -1),
    ]
    stats = tracer.span_stats(spans)
    assert stats["A"] == {"calls": 2, "s": 15.0, "self_s": 3.0 + 5.0}
    assert stats["B"] == {"calls": 2, "s": 7.0, "self_s": 2.0 + 4.0}
    assert stats["C"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_recursive_spans_count_once_in_inclusive_time():
    spans = [(0, "D", 0.0, 10.0, -1), (0, "E", 1.0, 9.0, 0), (0, "D", 2.0, 4.0, 1)]
    stats = tracer.span_stats(spans)
    assert stats["D"]["s"] == 10.0
    assert stats["D"]["self_s"] == 10.0 - 8.0 + 2.0
    assert stats["E"]["self_s"] == 8.0 - 2.0


def test_overlap_and_build_time():
    assert tracer.overlap_time([(0, 4), (2, 6), (5, 7)]) == 3
    assert tracer.overlap_time([(0, 1), (1, 2)]) == 0
    spans = [(0, "P", 0.0, 5.0, -1), (0, "S", 1.0, 4.0, 0),
             (1, "P", 0.0, 0.5, -1)]
    assert tracer.build_time(spans, "P", "S") == 5.0


def test_ratios_are_zero_without_work():
    metrics = tracer.layer_metrics({"threads": 0, "counts": {}, "max_num_len": 0,
                                    "spans": []})
    assert metrics["kernels.keep_ratio"] == 0.0
    assert metrics["scalars.den_share"] == 0.0


# -- inputs and checks ---------------------------------------------------------------

def test_expression_stream_is_deterministic_per_seed():
    a = workloads.expressions(3, 2)
    assert a == workloads.expressions(3, 2)
    assert a != workloads.expressions(4, 2)
    assert len(a) == workloads.EXPRESSIONS
    assert any("(1 + q^2)^-1" in e for e in a)
    bare = [re.sub(r"\([^)]*\)", "c", e) for e in a]   # drop coefficients
    assert all(1 <= e.count(" + ") + e.count(" - ") + 1 <= 3 for e in bare)


def test_checks_count_each_operation():
    golden = workloads.load_golden()
    expect = golden["verify"]["verify-n2"]
    good = {"rc": 0, "report": expect["report"], "p_hash": expect["p_hash"],
            "p_terms": expect["p_terms"]}
    ops = len(expect["report"]) + 1
    assert run.check_verify("verify-n2", good, golden) == (ops, 0)
    bad = dict(good, p_hash="0" * 12)
    assert run.check_verify("verify-n2", bad, golden) == (ops, 1)
    assert run.check_verify("verify-n2", {"error": "x"}, golden) == (ops, ops)
    digests = golden["normalize"]["digests"]
    rnd = {"digests": list(digests), "normal": [True] * len(digests)}
    seed = workloads.DEFAULT_SEED
    assert run.check_normalize(seed, rnd, None, golden) == (len(digests), 0)
    rnd["digests"][7] = "x"
    rnd["normal"][9] = False
    assert run.check_normalize(seed, rnd, None, golden) == (len(digests), 2)


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = tracer.layer_metrics({"threads": 0, "counts": {}, "max_num_len": 0,
                                   "spans": []})
    names = set(layers) | {"kernels.poisson_terms", "trace.overhead_ratio"}
    assert {m["name"] for m in bench["per_layer"]} == names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == workloads.WORKLOADS


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.99) == 99
    assert run.percentile([7.0], 0.99) == 7.0
