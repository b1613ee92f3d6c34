"""Tests of the benchmark's own logic: ``python -m pytest perfbench`` from the repo root."""

import contextlib
import io
import random
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

SPECTRUM_4_CSV = "eigenvalue,multiplicity\n6,1\n2,9\n0,4\n-2,9\n-6,1\n"


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    value, percentile = run.tail(values)
    assert (value, percentile) == (90, 90.0)
    assert sum(v > value for v in values) == 10
    assert run.tail(list(range(11))) == (0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_speed_factors_use_the_reference_runs_around_each_invocation():
    readings = iter([0.1, 0.3, 0.2, 0.4])
    speed = run.Speed(lambda: next(readings))
    # a reference run before the first invocation and whenever 2 s have passed
    for wall in (1.5, 0.3, 0.4, 2.5, 0.1):
        speed.before()
        speed.after(wall)
    speed.read()
    ref = run.REFERENCE_S
    assert speed.readings == [0.1, 0.3, 0.2, 0.4]
    assert speed.factors() == pytest.approx([ref / 0.2] * 3 + [ref / 0.25, ref / 0.3])


def test_run_process_captures_output_and_kills_on_timeout(tmp_path):
    code, out, err, wall, rss_kib = run.run_process(["-c", "print('hi')"], tmp_path)
    assert (code, out, err) == (0, "hi\n", "") and wall > 0 and rss_kib > 0
    code, _, err, wall, _ = run.run_process(
        ["-c", "import time; time.sleep(60)"], tmp_path, timeout=0.5)
    assert code < 0 and "timed out after 0.5 s" in err and wall < 30
    assert list(tmp_path.iterdir()) == []


def test_wrong_output_counts_as_failure(tmp_path):
    argvs = [
        ("spectrum", "4", "--format", "csv"),
        ("spectrum", "4", "--format", "csv"),
        ("mult", "7", "1", "--format", "text"),
        ("mult", "9", "1", "--format", "text"),
    ]
    outputs = iter([
        SPECTRUM_4_CSV,
        SPECTRUM_4_CSV.replace("0,4", "0,5"),  # wrong multiplicity, changed stdout
        "mul(1) = 441 for n = 7\n",
        "mul(1) = 46655 for n = 9\n",  # off the golden table by one
    ])
    walls, out_bytes, problems = run.execute(
        argvs, lambda argv: (0, next(outputs), "", 0.25), tmp_path
    )
    assert walls == [0.25] * 4
    assert out_bytes[0] == len(SPECTRUM_4_CSV)
    assert [bool(found) for found in problems] == [False, True, False, True]
    assert any("differs from an earlier identical invocation" in p for p in problems[1])
    assert any("sum of multiplicities" in p for p in problems[1])


def test_documented_error_needs_exit_2():
    argv = ("spectrum", "81", "--format", "text")
    assert checks.check(argv, 2, "", "error: n = 81 exceeds --max-n 80\n", Path(".")) == []
    assert checks.check(argv, 1, "", "error: n = 81 exceeds --max-n 80\n", Path("."))
    assert checks.check(argv, 2, "traceback\n", "", Path("."))


def test_partition_checks_do_not_use_hook_lengths():
    assert [checks.branching_degree(p) for p in [(1,), (2, 1), (3, 2, 1), (4, 2, 1), (5,)]] == [
        1, 2, 16, 35, 1
    ]
    assert checks.content_sum((4, 2, 1)) == 3
    assert checks.content_sum((1, 1, 1)) == -3
    good = '{"command": "eig", "n": 7, "payload": {"character_ratio": "1/7", "degree": "35", ' \
           '"eigenvalue": 3, "partition": [4, 2, 1], "upper_bound": 19}, "status": "ok"}\n'
    argv = ("eig", "4", "2", "1", "--format", "json")
    assert checks.check(argv, 0, good, "", Path(".")) == []
    assert checks.check(argv, 0, good.replace('"35"', '"36"'), "", Path("."))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_gives_identical_list(workload):
    first = workloads.generate(workload, 7, 30)
    assert first == workloads.generate(workload, 7, 30)
    assert workloads.list_hash(first) == workloads.list_hash(workloads.generate(workload, 7, 30))
    assert first != workloads.generate(workload, 8, 30)
    assert len(workloads.generate(workload, 7, 1)) > run.TAIL_BEYOND


def test_spectrum_lists_hold_each_n_equally_often():
    argvs = workloads.generate("spectrum-serial", 3, 40)
    counts = Counter(int(argv[1]) for argv in argvs)
    assert set(counts) == set(workloads.SPECTRUM_NS)
    assert len(set(counts.values())) == 1
    assert all("--threads" not in argv for argv in argvs)


def test_partition_count_and_work_units():
    assert [workloads.partition_count(n) for n in (1, 5, 38, 44)] == [1, 7, 26015, 75175]
    assert workloads.partitions_covered(("spectrum", "44", "--format", "csv")) == 75175
    assert workloads.partitions_covered(("spectrum", "81")) == 0
    assert workloads.partitions_covered(("verify", "6")) == 5 + 7 + 11


def test_self_time_subtracts_the_union_of_children():
    children = [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0), (9.5, 12.0)]
    assert tracing.covered(children, 0.0, 10.0) == pytest.approx(3.0 + 1.0 + 0.5)
    assert tracing.self_time(0.0, 10.0, children) == pytest.approx(5.5)
    assert tracing.self_time(0.0, 10.0, []) == 10.0


def test_tracer_records_depth_and_drains_generators():
    tracer = tracing.Tracer()

    def numbers():
        yield from range(3)

    traced = tracer.wrap("partitions.numbers", numbers)
    with tracer.span("outer"):
        assert list(traced()) == [0, 1, 2]
    (inner_name, *_, inner_depth), (outer_name, *_, outer_depth) = tracer.spans
    assert (inner_name, inner_depth) == ("partitions.numbers", 1)
    assert (outer_name, outer_depth) == ("outer", 0)
    assert tracer.total("outer") >= tracer.total("partitions.numbers")


def test_checks_accept_the_program_on_a_short_cli_mix(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import tnspectrum.cli as cli

    def run_one(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue(), 0.0

    monkeypatch.chdir(tmp_path)
    argvs = workloads.generate("cli-mix", 5, 1)
    _, _, problems = run.execute(argvs, run_one, tmp_path)
    assert problems == [[]] * len(argvs)
    assert {argv[0] for argv in argvs} >= {
        "mult", "eig", "top", "witness", "tables", "verify", "oracle", "spectrum"
    }
