"""The benchmark's library probes, run as a test so that an API change breaks here first."""

import pathlib

PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def test_kernel_probes_report_no_problems(monkeypatch):
    # build_graph, numeric_spectrum, compare, edge_list, conjugate, degree,
    # enumerate_partitions, spectrum(n, threads=2) and verify_witness
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    metrics, problems = tracing.kernel_probes([6, 7], tracing.Tracer())
    assert problems == []
    assert metrics["partitions.count"] == (11 + 15, "count")  # p(6) + p(7)
