"""The benchmark checks each verify round against ``perfbench/golden.json``
and counts a mismatch as a failed operation.  The same golden outputs are
checked here, so a change that moves a report or the Poisson kernel fails
in the tests first.  The recorded file and the benchmark's own recipes
(report without ``wall_ms``, kernel hash) are read, never written."""

import importlib.util
from pathlib import Path

import pytest

from qball.kernels import poisson_kernel
from qball.suites import SUITE_NAMES, run_suite

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("qball_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WL = _workloads()
GOLDEN = WL.load_golden()["verify"]


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_verify_reproduces_the_benchmark_goldens(workload):
    expect = GOLDEN[workload]
    n, cutoff = expect["n_cutoff"]
    reports = [run_suite(name, n, cutoff).to_dict() for name in SUITE_NAMES]
    assert WL.report_entries(reports) == expect["report"]
    P = poisson_kernel(n, max(cutoff, 2))
    assert (WL.kernel_hash(P), len(P.terms)) == (expect["p_hash"], expect["p_terms"])
