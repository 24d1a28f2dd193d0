"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/stability.py --seeds 10 [--workload verify-n2 ...] \
        [--trace 0] [--output perfbench/out/stability.json]

For every workload it runs ``perfbench/run.py`` once per seed, with the
``run_seconds`` of BENCHMARK.json, and prints per end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median,
next to the metric's bound.  With ``--trace 1`` it prints the per-layer
metrics instead and whether each repeated exactly across seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--output", type=Path)
    args = ap.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "runs": {}, "summary": {}}
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"seed": seed, "correct": res["correct"],
                         "attempted": res["attempted"], "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()
                             if args.trace == 0), flush=True)
        record["runs"][workload] = runs
        summary = record["summary"][workload] = {}
        print(f"== {workload}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric] for r in runs]
            if args.trace:
                same = "repeats" if len(set(values)) == 1 else "varies"
                summary[metric] = {"median": statistics.median(values), "repeats": same == "repeats"}
                print(f"  {metric:32s} median {statistics.median(values):.6g}  {same}")
                continue
            med, q1, q3, s = spread(values)
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": s}
            bound = bounds[metric]
            verdict = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            print(f"  {metric:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {s:.4f}  bound {bound}  {verdict}")
    if args.output:
        args.output.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
