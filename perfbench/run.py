#!/usr/bin/env python3
"""Benchmark of record for tnspectrum: real ``python -m tnspectrum`` invocations.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spectrum-serial --seed 1 --seconds 40 --trace 0

One client runs the seed's fixed invocation list as a closed loop (each
invocation starts when the previous one has exited) against ``src`` of the
checkout, checks every output and prints the end-to-end metrics. With
``--trace 1`` the same list is replayed in-process instead and the per-layer
metrics are printed (see ``tracing.py``). The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is
the full result record. A failed check makes the exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
INVOCATION_TIMEOUT_S = 150
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


#: The reference run: a fresh interpreter that imports numpy and folds big
#: integers into a dict, as the program does, but runs none of its code.
REFERENCE_CODE = (
    "import math, numpy\n"
    "f = math.factorial(40)\n"
    "d = {}\n"
    "for i in range(40000):\n"
    "    k = i % 4099\n"
    "    d[k] = d.get(k, 0) + (f // (i + 1)) ** 2\n"
)
#: Median wall time of the reference run on the 2-core reference box.
REFERENCE_S = 0.2
#: Program wall time after which the next invocation is preceded by a reference run.
REFERENCE_EVERY_S = 2.0


class SetupError(RuntimeError):
    """The checkout cannot run the program at all; no result is printed."""


class Speed:
    """The box's speed around each invocation, from reference runs between invocations.

    The box is a 2-core share of a busy host, and its speed drifts by 15% and
    more from one minute to the next, so ten runs of the same list spread as
    far. Before an invocation, once ``REFERENCE_EVERY_S`` of program time has
    passed since the last one, the benchmark times a reference run, and it
    times one more after the last invocation. ``factors()`` gives each
    invocation REFERENCE_S over the mean of the two reference runs around it.
    The reference run shares no code with the program and never runs at the
    same time as it, so a change in the program still moves the rescaled
    times by its full amount.
    """

    def __init__(self, measure):
        self.measure = measure  # runs the reference run once, returns its wall time
        self.readings: list[float] = []
        self.reading_before: list[int] = []
        self.since = float("inf")

    def before(self) -> None:
        """Call before each invocation."""
        if self.since >= REFERENCE_EVERY_S:
            self.read()
        self.reading_before.append(len(self.readings) - 1)

    def after(self, wall: float) -> None:
        """Call after each invocation with its wall time."""
        self.since += wall

    def read(self) -> None:
        self.readings.append(self.measure())
        self.since = 0.0

    def factors(self) -> list[float]:
        """One factor per invocation; needs a reading after the last one."""
        r = self.readings
        return [2 * REFERENCE_S / (r[i] + r[i + 1]) for i in self.reading_before]


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_process(args, cwd: Path, timeout: float = INVOCATION_TIMEOUT_S):
    """Run one child to completion.

    Returns (exit status, stdout, stderr, wall seconds, peak RSS in KiB). The
    peak RSS comes from ``wait4`` and covers the child and every worker it
    waited for, and nothing else this benchmark started. The child gets its
    own session so that a timeout also kills any workers it started; the
    child is waited for before this returns. Its output goes through files in
    ``cwd``, so that nothing is written outside the checkout.
    """
    timed_out = []
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=child_env(), start_new_session=True,
            stdout=out, stderr=err,
        )

        def kill():
            timed_out.append(timeout)
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    if timed_out:
        stderr += f"\ntimed out after {timeout} s"
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss


def probe_wall(args, cwd: Path) -> float:
    """Wall time of one fresh interpreter that must exit 0."""
    code, _, err, wall, _ = run_process(args, cwd, timeout=60)
    if code != 0:
        raise SetupError(f"{' '.join(args)} exited {code}: {err.strip()[-500:]}")
    return wall


def median_wall(args, repeats: int, cwd: Path) -> float:
    """Median wall time of ``repeats`` fresh interpreters, after one untimed warm-up."""
    probe_wall(args, cwd)
    return statistics.median(probe_wall(args, cwd) for _ in range(repeats))


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it.

    By nearest rank: the sample at rank n - TAIL_BEYOND of the sorted values,
    which is the 100·(n - TAIL_BEYOND)/n-th percentile.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def execute(argvs, run_one, workdir: Path):
    """Run every invocation once, in order, and check each output.

    ``run_one(argv)`` returns (exit status, stdout, stderr, wall seconds).
    Returns the wall times, the output bytes and one problem list per
    invocation; a repeated argument vector must repeat its stdout exactly.
    """
    walls, out_bytes, problems = [], [], []
    first_output: dict[tuple, str] = {}
    for argv in argvs:
        code, out, err, wall = run_one(argv)
        found = checks.check(argv, code, out, err, workdir)
        if first_output.setdefault(tuple(argv), out) != out:
            found.append(f"{' '.join(argv)}: stdout differs from an earlier identical invocation")
        walls.append(wall)
        out_bytes.append(len(out.encode()))
        problems.append(found)
    return walls, out_bytes, problems


def end_to_end(argvs, workdir: Path):
    """The untraced run: subprocess invocations and the end-to-end metrics.

    Returns the metrics from rescaled times, the same metrics from raw wall
    times, notes and the problems found.
    """
    setup_args = ["-c", "import tnspectrum.cli"]
    probe_wall(setup_args, workdir)  # warm-up: writes the bytecode caches, fails fast
    # set-up probes are spread over the run, so that a slow spell of the
    # machine moves them no more than it moves the invocations around them
    probe_before = set(range(0, len(argvs), max(1, len(argvs) // SETUP_REPEATS))[:SETUP_REPEATS])
    setup_walls = {}
    peak_kib = [0]
    speed = Speed(lambda: probe_wall(["-c", REFERENCE_CODE], workdir))
    index = itertools.count()

    def run_one(argv):
        i = next(index)
        speed.before()
        if i in probe_before:
            setup_walls[i] = probe_wall(setup_args, workdir)
        code, out, err, wall, rss_kib = run_process(["-m", "tnspectrum", *argv], workdir)
        peak_kib[0] = max(peak_kib[0], rss_kib)
        speed.after(wall)
        return code, out, err, wall

    walls, _, problems = execute(argvs, run_one, workdir)
    speed.read()
    factors = speed.factors()
    work = sum(map(workloads.partitions_covered, argvs))
    peak_mb = peak_kib[0] / 1024  # of the invocations only, not of the probes and reference runs

    def summary(walls, setups):
        tail_s, tail_pct = tail(walls)
        return {
            "setup_s": (statistics.median(setups), "s"),
            "latency_p50_s": (statistics.median(walls), "s"),
            "latency_tail_s": (tail_s, "s"),
            "partitions_per_s": (work / sum(walls), "1/s"),
            "invocations_per_s": (len(walls) / sum(walls), "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }, f"p{tail_pct:.1f} of {len(walls)} invocations"

    metrics, tail_note = summary([w * f for w, f in zip(walls, factors)],
                                 [w * factors[i] for i, w in setup_walls.items()])
    raw, _ = summary(walls, list(setup_walls.values()))
    notes = {"latency_tail_s": tail_note, "latencies_s": walls, "reference_s": speed.readings}
    return metrics, raw, notes, problems


def environment(args, argvs) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "invocations": len(argvs),
        "list_hash": workloads.list_hash(argvs),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="sets the list length: about this long on the 2-core reference box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tnspectrum" / "cli.py").is_file():
        print(f"perfbench: no tnspectrum sources under {SRC}", file=sys.stderr)
        return 2
    argvs = workloads.generate(args.workload, args.seed, args.seconds)
    record = environment(args, argvs)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            if args.trace:
                import tracing  # imported here: tracing.py itself imports this module

                metrics, notes, problems = tracing.traced_run(argvs, Path(tmp))
                raw = None
            else:
                metrics, raw, notes, problems = end_to_end(argvs, Path(tmp))
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for found in problems if found)
    for found in problems:
        for problem in found:
            print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(problems)} attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<32} {value:>14.6g} {unit}{note}")
    record.update(failed=failed, notes=notes,
                  metrics={name: value for name, (value, _) in metrics.items()})
    if raw:
        record["raw_metrics"] = {name: value for name, (value, _) in raw.items()}
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    import run  # the module tracing.py imports, so both share SetupError and the helpers

    sys.exit(run.main())
