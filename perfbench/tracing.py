"""The traced run: per-layer metrics for one invocation list.

The layers are the program's modules. Spans come from this file, around the
calls into each module's public functions; spans inside the program are not
part of this benchmark. The run has three parts:

1. ``startup``: fresh interpreters running ``pass`` and ``import tnspectrum.cli``.
2. ``cli``, ``oracle`` and ``witnesses``: the invocation list replayed in-process
   through ``cli.main(argv)`` with stdout captured, every library function that
   ``cli`` imported wrapped in a span, and every output checked as in the
   untraced run.
3. ``partitions`` and ``spectrum``: for each distinct N the list asks a spectrum
   of, each kernel stage timed alone over all partitions of N, and the serial
   and parallel spectrum compared. These stages run once per partition, where a
   span per call would cost more than the work it measures. ``oracle`` and
   ``witnesses`` get one small probe call each as well (the oracle at n = 4,
   the zero witness at each N), so every layer is timed on every workload.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import statistics
import sys
import time
from collections import deque
from pathlib import Path

import run
import workloads

PROBE_REPEATS = 5
ORACLE_PROBE_N = 4
IMPORT_PROBE = (
    "import json, sys, time\n"
    "before = set(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import tnspectrum.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(json.dumps([elapsed, len(set(sys.modules) - before), 'numpy' in sys.modules]))\n"
)


class Tracer:
    """Spans (name, start, end, depth) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.depth = 0

    @contextlib.contextmanager
    def span(self, name: str):
        self.depth += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.depth -= 1
            self.spans.append((name, start, end, self.depth))

    def wrap(self, name: str, fn):
        """``fn`` inside a span; an iterator result is drained inside the span."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                return iter(list(result)) if inspect.isgenerator(result) else result
        return traced

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)


def library_functions(cli_module) -> dict[str, object]:
    """Functions ``cli`` imported from the other tnspectrum modules, by layer-qualified name."""
    found = {}
    for attr, value in vars(cli_module).items():
        module = getattr(value, "__module__", "") or ""
        if (inspect.isfunction(value) and module.startswith("tnspectrum.")
                and module != cli_module.__name__):
            found[attr] = value
    return found


def startup_metrics(workdir: Path) -> dict:
    interpreter_s = run.median_wall(["-c", "pass"], PROBE_REPEATS, workdir)
    samples = []
    for _ in range(PROBE_REPEATS + 1):
        code, out, err, _, _ = run.run_process(["-c", IMPORT_PROBE], workdir, timeout=60)
        if code != 0:
            raise run.SetupError(f"import probe exited {code}: {err.strip()[-500:]}")
        samples.append(json.loads(out))
    import_s, modules, numpy_loaded = samples[-1]
    return {
        "startup.interpreter_s": (interpreter_s, "s"),
        "startup.import_s": (statistics.median(s[0] for s in samples[1:]), "s"),
        "startup.modules_loaded": (modules, "count"),
        "startup.numpy_loaded": (int(numpy_loaded), "count"),
    }


def replay(argvs, workdir: Path, cli_module):
    """Run the list through ``cli.main`` in-process under spans; check every output."""
    tracer = Tracer()
    originals = library_functions(cli_module)
    mains = []

    def run_one(argv):
        out, err = io.StringIO(), io.StringIO()
        first = len(tracer.spans)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli_module.main(list(argv))
            except SystemExit as exc:  # argparse rejections
                code = exc.code if isinstance(exc.code, int) else 2
            end = time.perf_counter()
        children = [(s, e) for _, s, e, depth in tracer.spans[first:] if depth == 0]
        mains.append((start, end, children))
        return code, out.getvalue(), err.getvalue(), end - start

    cwd = os.getcwd()
    for attr, fn in originals.items():
        setattr(cli_module, attr, tracer.wrap(f"{fn.__module__.split('.')[-1]}.{fn.__name__}", fn))
    try:
        os.chdir(workdir)
        _, out_bytes, problems = run.execute(argvs, run_one, workdir)
    finally:
        os.chdir(cwd)
        for attr, fn in originals.items():
            setattr(cli_module, attr, fn)
    return tracer, mains, out_bytes, problems


def kernel_probes(ns, tracer: Tracer):
    """Each kernel stage alone over all partitions of each N; serial vs parallel spectrum."""
    from tnspectrum.oracle import build_graph, compare, edge_list, numeric_spectrum
    from tnspectrum.partitions import conjugate, degree, enumerate_partitions
    from tnspectrum.spectrum import eigenvalue, spectrum
    from tnspectrum.witnesses import verify_witness

    def timed(fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    sums = dict.fromkeys(("enumerate", "conjugate", "degree", "eigenvalue", "serial",
                          "invariants", "parallel"), 0.0)
    count = distinct = 0
    problems = []
    for n in ns:
        # map drained by a zero-length deque: the least loop overhead Python offers,
        # so the fold's own loop and bucket updates stay in fold_self_s
        sums["enumerate"] += timed(lambda: deque(enumerate_partitions(n), maxlen=0))[1]
        parts = list(enumerate_partitions(n))
        for stage, fn in (("conjugate", conjugate), ("degree", degree), ("eigenvalue", eigenvalue)):
            sums[stage] += timed(lambda: deque(map(fn, parts), maxlen=0))[1]
        serial, t = timed(lambda: spectrum(n))
        sums["serial"] += t
        checks_ok, t = timed(serial.invariant_checks)
        sums["invariants"] += t
        parallel, t = timed(lambda: spectrum(n, threads=workloads.PARALLEL_THREADS))
        sums["parallel"] += t
        if parallel != serial or not all(checks_ok.values()):
            problems.append(f"probe n = {n}: parallel spectrum differs or an invariant fails")
        count += len(parts)
        distinct += len(serial.entries)
        with tracer.span("witnesses.verify_witness"):
            verify_witness(n, 0)
    with tracer.span("oracle.build_graph"):
        graph = build_graph(ORACLE_PROBE_N)
    with tracer.span("oracle.numeric_spectrum"):
        numeric = numeric_spectrum(graph)
    with tracer.span("oracle.compare"):
        compare(spectrum(ORACLE_PROBE_N), numeric)
    with tracer.span("oracle.edge_list"):
        edge_list(graph)
    fold_self = sums["serial"] - sums["enumerate"] - sums["degree"] - sums["eigenvalue"]
    metrics = {
        "partitions.count": (count, "count"),
        "partitions.enumerate_s": (sums["enumerate"], "s"),
        "partitions.conjugate_s": (sums["conjugate"], "s"),
        "partitions.degree_s": (sums["degree"], "s"),
        "spectrum.eigenvalue_s": (sums["eigenvalue"], "s"),
        "spectrum.serial_s": (sums["serial"], "s"),
        "spectrum.fold_self_s": (fold_self, "s"),
        "spectrum.parallel_s": (sums["parallel"], "s"),
        "spectrum.parallel_speedup": (sums["serial"] / sums["parallel"], "ratio"),
        "spectrum.invariant_checks_s": (sums["invariants"], "s"),
        "spectrum.distinct_eigenvalues": (distinct, "count"),
    }
    return metrics, problems


def spectrum_ns(argvs) -> list[int]:
    """Distinct N the list asks a spectrum of, within the enumeration guard."""
    ns = {workloads.positional_ints(a)[0] for a in argvs if a[0] in ("spectrum", "mult", "top")}
    return sorted(n for n in ns if n <= 80)


def traced_run(argvs, workdir: Path):
    metrics = startup_metrics(workdir)
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import tnspectrum.cli as cli_module

    tracer, mains, out_bytes, problems = replay(argvs, workdir, cli_module)
    main_s = sum(end - start for start, end, _ in mains)
    library_s = sum(covered(children, start, end) for start, end, children in mains)
    probe_metrics, probe_problems = kernel_probes(spectrum_ns(argvs), tracer)
    problems.append(probe_problems)  # the probes count as one more attempted operation
    metrics.update(probe_metrics)
    for name in ("oracle.build_graph", "oracle.numeric_spectrum", "oracle.compare",
                 "oracle.edge_list", "witnesses.verify_witness"):
        metrics[f"{name}_s"] = (tracer.total(name), "s")
    startup_s = metrics["startup.interpreter_s"][0] + metrics["startup.import_s"][0]
    metrics.update({
        "cli.main_s": (main_s, "s"),
        "cli.library_s": (library_s, "s"),
        "cli.render_self_s": (sum(self_time(*m) for m in mains), "s"),
        "cli.output_bytes": (sum(out_bytes), "bytes"),
        "trace.latency_p50_s": (statistics.median(startup_s + e - s for s, e, _ in mains), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics, {}, problems
