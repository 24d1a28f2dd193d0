"""The benchmark checks each verify round against ``perfbench/golden.json``
and counts a mismatch as a failed operation.  The same golden outputs are
checked here, so a change that moves a report or the Poisson kernel fails
in the tests first.  The recorded file and the benchmark's own recipes
(report without ``wall_ms``, kernel hash) are read through the ``bench``
fixture, never written."""

from qball.kernels import poisson_kernel
from qball.suites import SUITE_NAMES, run_suite


def test_verify_reproduces_the_benchmark_goldens(bench, golden_verify):
    expect = bench.load_golden()["verify"][golden_verify]
    n, cutoff = expect["n_cutoff"]
    reports = [run_suite(name, n, cutoff).to_dict() for name in SUITE_NAMES]
    assert bench.report_entries(reports) == expect["report"]
    P = poisson_kernel(n, max(cutoff, 2))
    assert (bench.kernel_hash(P), len(P.terms)) == (expect["p_hash"], expect["p_terms"])
