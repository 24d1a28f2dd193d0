"""One measured process of the benchmark.

    python3 perfbench/child.py probe --spawned-at T
    python3 perfbench/child.py round --workload W --seed S --trace 0|1 \
        --spawned-at T --out-dir DIR [--check]

The process imports ``qball.cli`` from the checkout's ``src`` first, so the
time from ``--spawned-at`` (the parent's ``time.monotonic()`` just before
it started this process) to the end of that import is the set-up time.  A
round then runs one workload's timed work through ``qball.cli.main``, as
a user would call it, and prints one JSON object on its last stdout line.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import qball.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def _rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(argv: list) -> tuple:
    """qball.cli.main(argv) with its stdout captured: (exit code, text)."""
    buf = io.StringIO()
    saved, sys.stdout = sys.stdout, buf
    try:
        rc = qball.cli.main(argv)
    finally:
        sys.stdout = saved
    return rc, buf.getvalue()


def run_verify(args, trace) -> dict:
    out_path = os.path.join(args.out_dir, f"report-{args.workload}-{os.getpid()}.json")
    argv = workloads.verify_argv(args.workload, out_path)
    if trace:
        trace.install()
    try:
        start = time.perf_counter()
        rc, _ = _call(argv)
        wall = time.perf_counter() - start
    finally:
        if trace:
            trace.uninstall()
    rss = _rss_mb()
    # served from the process's own cache, filled by the suites above
    P = qball.kernels.poisson_kernel(*workloads.poisson_args(args.workload))
    with open(out_path) as fh:
        report = workloads.report_entries(json.load(fh))
    os.remove(out_path)
    return {"wall_s": wall, "rss_mb": rss, "rc": rc, "report": report,
            "p_hash": workloads.kernel_hash(P), "p_terms": len(P.terms)}


def run_normalize(args, trace) -> dict:
    n = str(workloads.NORMALIZE[args.workload])
    exprs = workloads.expressions(args.seed, int(n))
    latencies, outputs = [], []
    if trace:
        trace.install()
    try:
        start = time.perf_counter()
        for expr in exprs:
            t0 = time.perf_counter()
            try:
                rc, text = _call(["normalize", "--n", n, expr])
            except Exception:
                rc, text = None, None
            latencies.append(time.perf_counter() - t0)
            outputs.append(text if rc == 0 else None)
        wall = time.perf_counter() - start
    finally:
        if trace:
            trace.uninstall()
    result = {"wall_s": wall, "rss_mb": _rss_mb(), "latencies": latencies,
              "digests": [None if t is None else workloads.text_digest(t)
                          for t in outputs]}
    if args.check:
        result["normal"] = [t is not None and _is_normal(n, t) for t in outputs]
    return result


def _is_normal(n: str, text: str) -> bool:
    """Re-normalising the printed polynomial reprints the same text; an
    exception or an untagged output counts as a failed check."""
    try:
        poly = text.split("] ", 1)[1].strip()
        rc, again = _call(["normalize", "--n", n, "--", poly])
        return rc == 0 and again.split("] ", 1)[1].strip() == poly
    except Exception:
        return False


def _write_spans(path: str, summary: dict) -> None:
    """Spans as [thread, name index, start, end, parent index] rows, times in
    seconds from tracer installation, plus each name's total self time."""
    spans = summary["spans"]
    names = sorted({s[1] for s in spans})
    index = {name: i for i, name in enumerate(names)}
    rows = [[t, index[name], round(start, 7), round(end, 7), parent]
            for t, name, start, end, parent in spans]
    self_s = {k: v["self_s"] for k, v in tracer.span_stats(spans).items()}
    with gzip.open(path, "wt") as fh:
        json.dump({"names": names, "fields": ["thread", "name", "start", "end", "parent"],
                   "spans": rows, "self_s": self_s}, fh)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["probe", "round"])
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out-dir")
    ap.add_argument("--check", action="store_true",
                    help="normalize workloads: also re-normalise every output")
    args = ap.parse_args()
    if not os.path.abspath(qball.cli.__file__).startswith(SRC + os.sep):
        print(f"qball was imported from {qball.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    result = {"setup_s": IMPORTED_AT - args.spawned_at}
    if args.mode == "round":
        trace = tracer.Tracer() if args.trace else None
        run = run_verify if args.workload in workloads.VERIFY else run_normalize
        try:
            result.update(run(args, trace))
        except Exception:
            result["error"] = traceback.format_exc()
        if trace and "error" not in result:
            summary = trace.summary()
            layers = tracer.layer_metrics(summary)
            layers["kernels.poisson_terms"] = result.get("p_terms", 0)
            result["layers"] = layers
            result["untraced"] = trace.missing
            _write_spans(os.path.join(
                args.out_dir, f"spans-{args.workload}-seed{args.seed}.json.gz"), summary)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
