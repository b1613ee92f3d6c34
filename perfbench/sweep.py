#!/usr/bin/env python3
"""Run the benchmark over several seeds per workload and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace --out perfbench/history/x.jsonl

For every workload this prints each end-to-end metric with its unit, the
median, the quartiles and their distance as a share of the median (the
spread), against the metric's bound in BENCHMARK.json, plus the share of
failed invocations. With ``--trace`` it adds one traced run at the first seed
and prints every per-layer metric and the tracing overhead: the traced run's
reconstructed median latency against the untraced run's raw one at the same seed.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, record) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1]), json.loads(lines[-2])["record"]


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / abs(median)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path,
                        help="append every run's record to this JSON-lines file")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("a spread needs at least two seeds")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        records = [record for _, record in runs]
        attempted = sum(result["attempted"] for result, _ in runs)
        failed = sum(result["failed"] for result, _ in runs)
        print(f"\n{workload}: {len(runs)} seeds, failed_ratio {failed / attempted:.4g} "
              f"({failed} of {attempted} invocations)")
        print(f"  {'metric':<20} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} bound")
        for name, bound in bounds.items():
            median, q1, q3, share = spread([r["metrics"][name]["value"] for r, _ in runs])
            unit = runs[0][0]["metrics"][name]["unit"]
            flag = "" if share <= bound / 3 else (
                "  above bound/3" if share <= bound else "  ABOVE BOUND")
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {name:<20} {unit:>6} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{share:>8.2%} {bound:.0%}{flag}")
        print(f"  latency_tail_s is the {records[0]['notes']['latency_tail_s']}")
        if args.trace:
            traced, record = run_once(workload, args.seeds[0], args.seconds, 1)
            records.append(record)
            print(f"  traced run, seed {args.seeds[0]}: {traced['attempted']} attempted, "
                  f"{traced['failed']} failed")
            for name, metric in traced["metrics"].items():
                print(f"    {name:<32} {metric['value']:>14.6g} {metric['unit']}")
            # the traced run's times are not rescaled: compare with the raw untraced median
            untraced = records[0]["raw_metrics"]["latency_p50_s"]
            overhead = traced["metrics"]["trace.latency_p50_s"]["value"] / untraced - 1
            print(f"    tracing overhead on the raw latency_p50_s: {overhead:+.1%}")
        if args.out:
            with args.out.open("a", encoding="utf-8") as handle:
                handle.writelines(json.dumps(r) + "\n" for r in records)
    print(f"\nlargest spread as a share of its bound (setup_s excepted): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
