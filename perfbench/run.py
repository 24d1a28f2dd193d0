"""The qball benchmark: end-to-end and per-layer metrics of the CLI.

    python3 perfbench/run.py --workload verify-n2 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it builds nothing and imports
``qball`` from ``src``.  Every measured process is fresh and calls
``qball.cli.main`` in process, as a user's ``qball`` command does, so all
module caches start cold.

``--trace 0`` first starts a few processes that only import ``qball.cli``
(the set-up time), then repeats *rounds* of the workload, one process each,
while the next round still fits in ``--seconds`` (at least one round).  It
reports the end-to-end metrics.  ``--trace 1`` runs one untraced round and
one traced round and reports the per-layer metrics, including the tracing
overhead; the traced round also writes its spans under ``perfbench/out``.

Every round's outputs are checked (see README.md); a failed check counts
against ``attempted`` and makes ``correct`` false.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

RUN_LIMIT_S = 170.0    # one run must end well inside 180 s
PROBES = 8             # set-up probes before and again after the rounds

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "expr_p50_ms": "ms", "expr_p99_ms": "ms"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")) or name == "ncpoly.steps_per_term":
        return "ratio"
    return "count"


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.env = dict(os.environ)
        for key in ("QBALL_THREADS", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(key, None)
        self.env.update(workloads.ENV.get(args.workload, {}))
        # byte code lives under the benchmark's output directory, so set-up
        # time measures imports, not compilation, and src/ stays untouched
        self.env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")

    def spawn(self, mode: str, *extra: str) -> dict:
        left = self.started + RUN_LIMIT_S - time.monotonic()
        if left <= 1:
            return {"error": "no time left in this run"}
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), mode,
               "--spawned-at", repr(spawned), *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            return {"error": f"{mode} timed out"}
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"{mode} exited {proc.returncode}: {proc.stderr[-2000:]}"}
        result = json.loads(lines[-1])
        result["elapsed_s"] = time.monotonic() - spawned
        return result

    def round(self, trace: int, check: bool) -> dict:
        """One round; ``check`` re-normalises a normalize round's outputs."""
        extra = ["--workload", self.args.workload, "--seed", str(self.args.seed),
                 "--trace", str(trace), "--out-dir", str(OUT)]
        if check and self.args.workload in workloads.NORMALIZE:
            extra.append("--check")
        return self.spawn("round", *extra)


# -- output checks -------------------------------------------------------------------

def check_verify(workload: str, rnd: dict, golden: dict) -> tuple:
    """(attempted, failed): one operation per suite verdict, one for the
    Poisson kernel's golden hash."""
    expect = golden["verify"][workload]
    attempted = len(expect["report"]) + 1
    if "error" in rnd:
        return attempted, attempted
    failed = 0
    if rnd["rc"] != 0:
        failed += len(expect["report"])
    else:
        got = rnd["report"]
        failed += sum(1 for i, entry in enumerate(expect["report"])
                      if i >= len(got) or got[i] != entry)
    if (rnd["p_hash"], rnd["p_terms"]) != (expect["p_hash"], expect["p_terms"]):
        failed += 1
    return attempted, failed


def check_normalize(seed: int, rnd: dict, reference: list | None, golden: dict) -> tuple:
    """(attempted, failed): one operation per expression.  An expression
    fails when the call failed, its text differs from another round's, from
    the recorded text (default seed only), or from its own re-normal form."""
    attempted = workloads.EXPRESSIONS
    if "error" in rnd:
        return attempted, attempted
    expect = golden["normalize"]["digests"] if seed == workloads.DEFAULT_SEED else None
    normal = rnd.get("normal")
    failed = 0
    for i, digest in enumerate(rnd["digests"]):
        bad = (digest is None
               or (reference is not None and digest != reference[i])
               or (expect is not None and digest != expect[i])
               or (normal is not None and not normal[i]))
        failed += bad
    return attempted, failed


def check(args, rounds: list, golden: dict) -> tuple:
    attempted = failed = 0
    reference = None
    for rnd in rounds:
        if args.workload in workloads.VERIFY:
            a, f = check_verify(args.workload, rnd, golden)
        else:
            a, f = check_normalize(args.seed, rnd, reference, golden)
            if reference is None and "error" not in rnd:
                reference = rnd["digests"]
        attempted += a
        failed += f
    return attempted, failed


# -- the two kinds of run -----------------------------------------------------------

def probe_setups(runner: Runner) -> list:
    out = []
    for _ in range(PROBES):
        probe = runner.spawn("probe")
        if "error" in probe:
            break
        out.append(probe["setup_s"])
    return out


def timed_run(runner: Runner) -> tuple:
    args = runner.args
    setups = probe_setups(runner)
    rounds = []
    start = time.monotonic()
    while True:
        rnd = runner.round(0, check=not rounds)
        rounds.append(rnd)
        if "error" in rnd:
            print(rnd["error"], file=sys.stderr)
            break
        setups.append(rnd["setup_s"])
        # the next round costs about what this one's start and timed work
        # did; the first round's output checks are not repeated
        now, cost = time.monotonic(), rnd["setup_s"] + rnd["wall_s"]
        if (now + cost > start + args.seconds
                or now + cost > runner.started + RUN_LIMIT_S - 10):
            break
    setups += probe_setups(runner)
    good = [r for r in rounds if "error" not in r]
    if not good:
        return rounds, {}
    walls = [r["wall_s"] for r in good]
    if args.workload in workloads.VERIFY:
        # one verify call per round, printing every verdict at its end; a
        # handful of calls has no tail to estimate beyond the median
        p50 = p99 = statistics.median(walls) * 1000
    else:
        calls = [[x * 1000 for x in r["latencies"]] for r in good]
        p50 = statistics.median(percentile(c, 0.50) for c in calls)
        p99 = statistics.median(percentile(c, 0.99) for c in calls)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in good),
        "expr_p50_ms": p50,
        "expr_p99_ms": p99,
    }
    print(f"{args.workload} seed {args.seed}: {len(good)} round(s), "
          f"{len(setups)} set-up samples")
    return rounds, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced_run(runner: Runner) -> tuple:
    plain = runner.round(0, check=True)
    if "error" in plain:
        print(plain["error"], file=sys.stderr)
        return [plain], {}
    traced = runner.round(1, check=False)
    if "error" in traced:
        print(traced["error"], file=sys.stderr)
        return [plain, traced], {}
    for target in traced["untraced"]:
        print(f"not traced, no longer in qball: {target}", file=sys.stderr)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    print(f"{runner.args.workload} seed {runner.args.seed}: untraced "
          f"{plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s; spans in "
          f"{OUT.relative_to(ROOT)}/spans-{runner.args.workload}-seed{runner.args.seed}.json.gz")
    return [plain, traced], {k: (v, layer_unit(k)) for k, v in sorted(layers.items())}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qball" / "cli.py").is_file():
        print(f"no qball sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    runner = Runner(args)
    warm = runner.spawn("probe")   # compiles byte code once, untimed
    if "error" in warm:
        print(warm["error"], file=sys.stderr)
        return 1
    golden = workloads.load_golden()
    rounds, metrics = (traced_run if args.trace else timed_run)(runner)
    if not metrics:
        return 1
    attempted, failed = check(args, rounds, golden)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':32s} {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
