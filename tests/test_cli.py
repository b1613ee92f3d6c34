import argparse
import ast
import builtins
import hashlib
import importlib
import importlib.metadata
import io
import json
import math
import os
import pathlib
import random
import signal
import subprocess
import sys
import tokenize
from fractions import Fraction

import pytest

from tnspectrum import Partition, Spectrum, eigenvalue, enumerate_partitions, multiplicity, spectrum
from tnspectrum import cli, commands
from tnspectrum.cli import main
from tnspectrum.commands import ONE_MULTIPLICITIES, ZERO_MULTIPLICITIES, build_parser
from tnspectrum.spectrum import FOLD_MAX_N
from tnspectrum.witnesses import WitnessReport

# The golden cases are the CLI's output contract, replayed below in-process and in real
# processes. A per-command test exists only for what no golden case can show: a
# monkeypatched failure, a call no golden case makes, or the parser's internals.

#: stdout, stderr, exit status and edge-file digest of every case, captured
#: once from the CLI before its renderer was unified; never regenerate it
#: from the code under test.
GOLDEN_PATH = pathlib.Path(__file__).with_name("cli_golden.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())
#: the digest of the file as it was first captured, except that the three ``oracle 5``
#: cases were captured anew, without ``--tolerance``, when that option was removed, and
#: the three ``spectrum 12`` cases lost ``--threads 3`` from their argv, with their
#: captured output untouched, when ``spectrum`` stopped taking it, and the nine ``oracle``
#: cases for n = 3 (``--dump-edges``), 4 and 5 had their max deviation, the eigensolver's
#: rounding noise, edited by hand to 0 in ``oracle 2``'s form when the oracle became exact
GOLDEN_SHA256 = "665c72a92d1487f1a3d8bfd84007d9ff82f679137623d3cc63320ef2ee44f20a"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def usable_cpus(monkeypatch, count):
    """Let this process run on ``count`` CPUs: the affinity mask, the one CPU reading."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def forbidden(name):
    """A stand-in for the query ``name`` that fails any command calling it."""

    def query(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return query


def patch_query(monkeypatch, name, stand_in):
    """Replace the query ``name`` in ``cli`` and ``commands``, wherever a command calls it."""
    for module in (cli, commands):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, stand_in)


class TestSpectrumCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "eigenvalue,multiplicity"
        assert lines[1:] == ["6,1", "2,9", "0,4", "-2,9", "-6,1"]

    def test_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "0"])
        assert err.value.code == 2

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "20"], ["mult", "20", "0"], ["top", "20", "3"]],
        ids=["spectrum", "mult", "top"],
    )
    def test_forks_on_its_own_with_unchanged_output(self, capsys, monkeypatch, argv, fmt):
        # no flag asks for workers: with the size floor at 1 and two usable CPUs, main
        # forks one worker beside itself on its own, and its output is the one-CPU run's
        fork, forks = os.fork, []

        def recorded_fork():
            forks.append(os.getpid())
            return fork()

        def cpu_count():
            raise AssertionError("os.cpu_count was read")

        # the affinity mask alone sizes the pool: nothing reads the CPU count
        monkeypatch.setattr(os, "cpu_count", cpu_count)
        monkeypatch.setattr(importlib.import_module("tnspectrum.spectrum"), "PARALLEL_MIN_N", 1)
        monkeypatch.setattr(os, "fork", recorded_fork)
        usable_cpus(monkeypatch, 1)
        serial = run(capsys, *argv, "--format", fmt)
        usable_cpus(monkeypatch, 2)
        assert run(capsys, *argv, "--format", fmt) == serial
        assert serial[0] == 0
        assert forks == [os.getpid()]  # two folding processes: this one and one child


class TestEigCommand:
    def test_memory_error_is_error_record(self, capsys, monkeypatch):
        def too_large(part):
            raise MemoryError

        monkeypatch.setattr("tnspectrum.commands.degree", too_large)
        code, out, _ = run(
            capsys, "eig", "1000000000000", "--max-n", "2000000000000", "--format", "json"
        )
        assert code == 2
        record = json.loads(out)
        assert record["status"] == "error"
        assert "out of memory" in record["payload"]["message"]

    def test_character_ratio_of_every_partition(self, capsys):
        # the eigenvalue over the C(n, 2) transpositions in lowest terms; none at n = 1
        for n in range(1, 13):
            for p in enumerate_partitions(n):
                code, out, _ = run(capsys, "eig", *map(str, p), "--format", "json")
                expected = None
                if n > 1:
                    ratio = Fraction(eigenvalue(p), math.comb(n, 2))
                    expected = f"{ratio.numerator}/{ratio.denominator}"
                assert (code, json.loads(out)["payload"]["character_ratio"]) == (0, expected), p

    def test_n2_has_a_character_ratio(self, capsys):
        # the least n with a transposition; no golden case has n = 2
        code, out, _ = run(capsys, "eig", "1", "1")
        assert (code, out.splitlines()[-1]) == (0, "  character ratio  -1/1")


class TestWitnessCommand:
    def test_memory_error_is_error_record(self, capsys, monkeypatch):
        def too_large(n, target):
            raise MemoryError

        monkeypatch.setattr("tnspectrum.witnesses.verify_witness", too_large)
        code, out, _ = run(
            capsys, "witness", "1000000000000", "1", "--max-n", "2000000000000", "--format", "json"
        )
        assert code == 2
        record = json.loads(out)
        assert record["status"] == "error"
        assert "out of memory" in record["payload"]["message"]

    def test_memory_error_while_formatting_is_error_record(self, capsys, monkeypatch):
        class Unprintable(int):
            def __repr__(self):
                raise MemoryError

        def huge_witness(n, target):
            return WitnessReport(n, target, Partition([Unprintable(n)]), True)

        monkeypatch.setattr("tnspectrum.witnesses.verify_witness", huge_witness)
        for fmt in ("json", "csv", "text"):
            code, out, err = run(capsys, "witness", "20", "1", "--format", fmt)
            assert code == 2
            assert "out of memory at n = 20" in out + err


class TestOutOfMemory:
    """A ``MemoryError`` that reaches ``main`` ends in one ``error:`` line and status 2."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_query_out_of_memory(self, capsys, monkeypatch, fmt):
        def too_large(n, *, threads):
            raise MemoryError

        monkeypatch.setattr(cli, "spectrum", too_large)
        assert run(capsys, "spectrum", "44", "--format", fmt) == (2, "", "error: out of memory\n")

    def test_json_import_out_of_memory(self, capsys, monkeypatch):
        # as under a tight address-space limit, which the fold itself stays within
        real_import = builtins.__import__

        def importing(name, *args, **kwargs):
            if name == "json":
                raise MemoryError
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", importing)
        code, out, err = run(capsys, "mult", "8", "0", "--format", "json")
        assert (code, out, err) == (2, "", "error: out of memory\n")


E19, E19X4 = 10**19, 4 * 10**19  # past sys.maxsize, so no list of that length can be asked for
NINES = "9" * 4300  # the longest integer argv may spell under the default int-to-str limit
SQUARE = ["63"] * 63  # its degree has 5616 digits


class TestFoldCeiling:
    """Above ``FOLD_MAX_N`` every folding command ends in its status-2 record, unfolded."""

    @pytest.fixture
    def unfolded(self, monkeypatch):
        """Make every query a command folds with fail the test if it runs."""

        def never(n, *rest, **options):
            raise AssertionError(f"folded n = {n} above the ceiling")

        for query in ("spectrum", "multiplicity", "top_eigenvalues"):
            patch_query(monkeypatch, query, never)

    @pytest.mark.parametrize("n", [FOLD_MAX_N + 1, E19])
    @pytest.mark.parametrize(
        "command, rest",
        [("spectrum", []), ("mult", ["0"]), ("top", ["2"])],
        ids=["spectrum", "mult", "top"],
    )
    def test_ceiling_record(self, capsys, unfolded, command, rest, n):
        argv = [command, str(n), *rest, "--max-n", str(max(n, 3000)), "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "command": command,
            "n": n,
            "payload": {"message": f"n = {n} exceeds the fold ceiling {FOLD_MAX_N}"},
            "status": "error",
        }

    def test_verify_checks_n_max_before_the_first_row(self, capsys, unfolded):
        n_max = FOLD_MAX_N + 1
        argv = ["verify", str(n_max), "--max-n", str(n_max), "--format", "json"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "command": "verify",
            "n": n_max,
            "payload": {"message": f"n_max exceeds the fold ceiling {FOLD_MAX_N}"},
            "status": "error",
        }

    def test_ceiling_itself_is_folded(self, capsys, monkeypatch):
        monkeypatch.setattr("tnspectrum.cli.multiplicity", lambda n, value, *, threads: 7)
        code, out, _ = run(capsys, "mult", str(FOLD_MAX_N), "0", "--max-n", str(FOLD_MAX_N))
        assert (code, out) == (0, f"mul(0) = 7 for n = {FOLD_MAX_N}\n")


class TestFoldOutOfMemory:
    def test_factorial_table_out_of_memory(self, child_env):
        # the fold's table of k! for k <= 100000 would far outgrow a 512 MiB address
        # space; the ceiling refuses the fold before the table is built
        resource = pytest.importorskip("resource")
        cap = 512 * 2**20
        argv = ["mult", "100000", "0", "--max-n", "100000", "--format", "json"]
        result = subprocess.run(
            [sys.executable, "-m", "tnspectrum", *argv],
            capture_output=True,
            text=True,
            env=child_env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            timeout=30,
        )
        assert (result.returncode, result.stderr) == (2, "")
        assert json.loads(result.stdout) == {
            "command": "mult",
            "n": 100000,
            "payload": {"message": f"n = 100000 exceeds the fold ceiling {FOLD_MAX_N}"},
            "status": "error",
        }


class TestHugeIntegers:
    """Counts past an index's range, and integers past the 4300-digit int-to-str limit."""

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            (
                ["eig", str(E19), "--max-n", str(E19)],
                2,
                lambda: (E19, {"message": f"out of memory at n = {E19}"}),
            ),
            (
                ["witness", str(E19X4), "1", "--max-n", str(E19X4)],
                2,
                lambda: (E19X4, {"message": f"out of memory at n = {E19X4}"}),
            ),
            (
                ["eig", *SQUARE, "--max-n", "4000"],
                0,
                lambda: (
                    3969,
                    {
                        "partition": [63] * 63,
                        "eigenvalue": 0,
                        "upper_bound": 7628418,  # (3906 * 3907 - 63 * 62) / 2
                        # n! over the hook product; the hooks of the square are i + j + 1
                        "degree": str(
                            math.factorial(3969)
                            // math.prod(i + j + 1 for i in range(63) for j in range(63))
                        ),
                        "character_ratio": "0/1",
                    },
                ),
            ),
            (
                ["eig", NINES, NINES, "--max-n", "5"],
                2,
                lambda: (2 * int(NINES), {"message": f"n = {2 * int(NINES)} exceeds --max-n 5"}),
            ),
        ],
        ids=["eig-index-overflow", "witness-index-overflow", "eig-long-degree", "eig-long-n"],
    )
    def test_result_or_error_record(self, capsys, argv, code, expected):
        limit = sys.get_int_max_str_digits()
        status, out, _ = run(capsys, *argv, "--format", "json")
        assert (status, sys.get_int_max_str_digits()) == (code, limit)  # main restores the limit
        sys.set_int_max_str_digits(0)  # the expected record and its parse need long integers
        try:
            n, payload = expected()
            assert json.loads(out) == {
                "command": argv[0],
                "n": n,
                "payload": payload,
                "status": "ok" if code == 0 else "error",
            }
        finally:
            sys.set_int_max_str_digits(limit)


class TestTablesCommand:
    def test_resource_guard(self, capsys):
        code, out, _ = run(capsys, "tables", "--max-n", "10", "--format", "json")
        assert code == 2
        assert json.loads(out) == {
            "command": "tables",
            "n": 20,
            "payload": {"message": "n = 20 exceeds --max-n 10"},
            "status": "error",
        }
        for fmt in ("text", "csv"):
            assert run(capsys, "tables", "--max-n", "19", "--format", fmt) == (
                2,
                "",
                "error: n = 20 exceeds --max-n 19\n",
            )
        code, _, _ = run(capsys, "tables", "--max-n", "20")
        assert code == 0

    def test_one_multiplicity_query_per_cell(self, capsys, monkeypatch):
        asked = []

        def counting_multiplicity(n, value, **kwargs):
            asked.append((n, value))
            return multiplicity(n, value, **kwargs)

        monkeypatch.setattr("tnspectrum.commands.multiplicity", counting_multiplicity)
        monkeypatch.setattr("tnspectrum.commands.spectrum", forbidden("spectrum"))
        code, _, _ = run(capsys, "tables")
        assert code == 0
        cells = [(n, 0) for n in ZERO_MULTIPLICITIES] + [(n, 1) for n in ONE_MULTIPLICITIES]
        assert len(cells) == 20
        assert sorted(asked) == sorted(cells)


class TestOneQueryPerCommand:
    """Every eigenvalue list or multiplicity a command prints comes from the query it names."""

    @pytest.mark.parametrize(
        "query, argv",
        [
            ("spectrum", ["spectrum", "6"]),
            ("spectrum", ["verify", "6"]),
            ("spectrum", ["oracle", "3"]),
            ("multiplicity", ["mult", "8", "0"]),
            ("multiplicity", ["tables"]),
            ("top_eigenvalues", ["top", "8", "3"]),
        ],
        ids=lambda case: " ".join(case) if isinstance(case, list) else case,
    )
    def test_other_queries_unused(self, query, argv, capsys, monkeypatch):
        expected = run(capsys, *argv)
        for other in ("spectrum", "multiplicity", "top_eigenvalues"):
            if other != query:
                patch_query(monkeypatch, other, forbidden(other))
        assert run(capsys, *argv) == expected


class TestVerifyCommand:
    def test_rows_fold_in_process(self, capsys, monkeypatch):
        # every row is past the size floor here, and two CPUs would give two workers
        spectrum_module = importlib.import_module("tnspectrum.spectrum")
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", forbidden("os.fork"))
        code, out, _ = run(capsys, "verify", "5")
        assert (code, out.splitlines()[-1]) == (0, "result: all checks passed for n = 4..5")


class TestOracleCommand:
    def test_oracle_7_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["oracle", "7"])
        assert err.value.code == 2

    def test_oracle_6_is_checked(self, capsys):
        # the largest n the oracle takes; no golden case runs it
        assert run(capsys, "oracle", "6") == (
            0,
            "oracle check, n = 6: 720 vertices, 5400 edges\n"
            "numeric vs exact spectrum: AGREE (max deviation 0.000e+00)\n",
            "",
        )

    def test_arithmetic_error_is_error_record(self, capsys, monkeypatch, tmp_path):
        # a graph with one edge removed; its edge file is written before the proof refuses it
        from tnspectrum import oracle

        graph = oracle.build_graph(3)
        graph[graph[0].pop(0)].remove(0)
        monkeypatch.setattr(oracle, "build_graph", lambda n: graph)
        path = tmp_path / "edges.txt"
        code, out, _ = run(capsys, "oracle", "3", "--dump-edges", str(path), "--format", "json")
        record = json.loads(out)
        assert (code, record["n"], record["status"]) == (2, 3, "error")
        assert record["payload"]["message"].endswith("no proof that the graph is vertex-transitive")
        assert path.read_text() == "".join(f"{u} {v}\n" for u, v in oracle.edge_list(graph))

    def test_max_n_guard_comes_before_the_graph(self, capsys, tmp_path):
        path = tmp_path / "edges.txt"
        code, out, _ = run(
            capsys, "oracle", "4", "--max-n", "3", "--dump-edges", str(path), "--format", "json"
        )
        assert code == 2
        assert json.loads(out) == {
            "command": "oracle",
            "n": 4,
            "payload": {"message": "n = 4 exceeds --max-n 3"},
            "status": "error",
        }
        assert not path.exists()

    def test_empty_dump_path_is_an_os_error(self, capsys, monkeypatch, tmp_path):
        # "" names no file that can be opened, so it fails as any such path does
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "oracle", "3", "--dump-edges", "", "--format", "json")
        assert code == 2
        assert json.loads(out) == {
            "command": "oracle",
            "n": 3,
            "payload": {"message": "[Errno 2] No such file or directory: ''"},
            "status": "error",
        }
        assert list(tmp_path.iterdir()) == []

    def test_edge_dump_is_one_write(self, capsys, monkeypatch, tmp_path):
        writes = []

        def recording_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            write = handle.write
            handle.write = lambda text: writes.append(text) or write(text)
            return handle

        monkeypatch.setattr(commands, "open", recording_open, raising=False)
        path = tmp_path / "edges.txt"
        assert run(capsys, "oracle", "5", "--dump-edges", str(path))[0] == 0
        assert len(writes) == 1
        assert path.read_text() == writes[0]
        assert len(writes[0].splitlines()) == 600  # 5! vertices of degree 10


class TestFailedChecks:
    """Status 1 and the command's failure line when a check fails: each row patches the
    query its command reads to answer wrongly. No golden case reaches this path."""

    @pytest.mark.parametrize(
        "target, wrong, argv, lines",
        [
            # passes every invariant but the symmetry
            ("tnspectrum.cli.spectrum",
             lambda n, **kwargs: Spectrum(3, ((3, 1), (1, 1), (0, 2), (-2, 2))),
             ["spectrum", "3"], [f"  {'symmetric_about_zero':<34} FAIL"]),
            ("tnspectrum.commands.multiplicity", lambda n, value: 0, ["tables"],
             ["result: MISMATCH"]),
            ("tnspectrum.commands.spectrum", lambda n: Spectrum(n, spectrum(n).entries[::-1]),
             ["verify", "4"], ["result: FAILURES found for n = 4..4"]),
            ("tnspectrum.commands.spectrum", lambda n: Spectrum(2, ((1, 2),)), ["oracle", "2"],
             ["numeric vs exact spectrum: DISAGREE (max deviation 0.000e+00)",
              "  eigenvalue 1: exact multiplicity 2, numeric 1",
              "  eigenvalue -1: exact multiplicity 0, numeric 1"]),
            ("tnspectrum.witnesses.lambda_partition_odd", lambda n, lam: Partition((7,)),
             ["witness", "7", "1"], ["eigenvalue 1 witness for n = 7: (7,) FAILED"]),
        ],
        ids=["spectrum", "tables", "verify", "oracle", "witness"],
    )
    def test_status_1_and_the_failure_line(self, capsys, monkeypatch, target, wrong, argv, lines):
        monkeypatch.setattr(target, wrong)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert [line for line in lines if line not in out.splitlines()] == []


class TestGoldenReplay:
    @pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
    def test_output_unchanged(self, case, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # --dump-edges paths in the cases are relative
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])
        edges = tmp_path / "edges.txt"
        digest = hashlib.sha256(edges.read_bytes()).hexdigest() if edges.exists() else None
        assert digest == case["edges_sha256"]

    def test_golden_file_is_pinned(self):
        digest = hashlib.sha256(GOLDEN_PATH.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256, (
            f"{GOLDEN_PATH.name} differs from its first capture; it is never regenerated, "
            "so restore it and change the code instead"
        )

    def test_every_command_has_a_case_in_every_format(self):
        (commands,) = (
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        covered = {(c["argv"][0], c["argv"][c["argv"].index("--format") + 1]) for c in GOLDEN}
        assert covered == {(name, fmt) for name in commands for fmt in ("text", "json", "csv")}


def first_of_each_group(cases):
    """The first case, in file order, of each (command, exit status, stderr empty or not,
    edge file written or not) group."""
    firsts = {}
    for case in cases:
        key = (case["argv"][0], case["exit"], bool(case["stderr"]), bool(case["edges_sha256"]))
        firsts.setdefault(key, case)
    return list(firsts.values())


class TestGoldenProcessReplay:
    """The golden cases through a real ``python -m tnspectrum`` process, so the bytes that
    ``cli.run`` flushes on its way out are checked too; one case of each group."""

    CASES = first_of_each_group(GOLDEN)

    @pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
    def test_output_unchanged(self, case, child_env, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "tnspectrum", *case["argv"]],
            capture_output=True,
            cwd=tmp_path,  # --dump-edges paths in the cases are relative
            env=child_env,
        )
        edges = tmp_path / "edges.txt"
        digest = hashlib.sha256(edges.read_bytes()).hexdigest() if edges.exists() else None
        assert (result.returncode, result.stdout.decode(), result.stderr.decode(), digest) == (
            case["exit"],
            case["stdout"],
            case["stderr"],
            case["edges_sha256"],
        )

    def test_every_group_is_replayed(self):
        assert len(self.CASES) == 27
        assert sum(bool(case["edges_sha256"]) for case in self.CASES) == 1


HELP = (("-h", "--help"), 0, None, None, "==SUPPRESS==", None, "show this help message and exit")
POSITIVE = (None, "_positive_int", None, None, None, None)  # a positive-integer positional
INTEGER = (None, "int", None, None, None, None)  # an integer positional
FORMAT = (("--format",), None, None, ("text", "json", "csv"), "text", None, "output format")
MAX_N = (
    ("--max-n",), None, "_positive_int", None, 80, None, "partition-enumeration resource guard"
)
#: the options every subcommand shares, after its own -h
SHARED = [HELP, FORMAT, MAX_N]


class TestParserSurface:
    """Every action of the root parser and of each subparser, as ``--help`` shows it.

    An action is (option strings, or dest for a positional; nargs; type name;
    choices; default; metavar; help), so the check reads argparse's actions, not
    its help layout, which differs between Python versions.
    """

    SURFACE = {
        "tnspec": [
            HELP,
            (("--version",), 0, None, None, "==SUPPRESS==", None,
             "show program's version number and exit"),
            (
                "command", "A...", None,
                [
                    ("spectrum", "full spectrum with exact multiplicities"),
                    ("mult", "multiplicity of one eigenvalue"),
                    ("eig", "eigenvalue data for one partition"),
                    ("top", "largest distinct eigenvalues"),
                    ("witness", "closed-form witness partition for a small eigenvalue"),
                    ("tables", "recompute the golden zero/one multiplicity tables"),
                    ("verify", "per-n verification matrix up to n_max"),
                    ("oracle", "brute-force graph cross-check (2 <= n <= 6)"),
                ],
                None, None, None,
            ),
        ],
        "spectrum": [*SHARED, ("n", *POSITIVE)],
        "mult": [*SHARED, ("n", *POSITIVE), ("value", *INTEGER)],
        "eig": [*SHARED, ("parts", "+", "int", None, None, "part", None)],
        "top": [*SHARED, ("n", *POSITIVE), ("count", *POSITIVE)],
        "witness": [*SHARED, ("n", *POSITIVE), ("target", *INTEGER)],
        "tables": SHARED,
        "verify": [*SHARED, ("n_max", *POSITIVE)],
        "oracle": [
            *SHARED,
            ("n", None, "_oracle_n", None, None, None, None),
            (("--dump-edges",), None, None, None, None, "PATH",
             "write the edge list to PATH (zero-based ranks, one 'u v' pair per line, u < v)"),
        ],
    }

    @staticmethod
    def actions(parser):
        for action in parser._actions:
            choices = action.choices
            if isinstance(action, argparse._SubParsersAction):
                choices = [(choice.dest, choice.help) for choice in action._choices_actions]
            yield (
                tuple(action.option_strings) or action.dest,
                action.nargs,
                getattr(action.type, "__name__", None),
                choices,
                action.default,
                action.metavar,
                action.help,
            )

    def test_every_action_is_pinned(self):
        root = build_parser()
        (sub,) = (a for a in root._actions if isinstance(a, argparse._SubParsersAction))
        parsers = {"tnspec": root, **sub.choices}
        assert (root.prog, root.description) == ("tnspec", "Exact spectra of transposition graphs.")
        assert {name: list(self.actions(p)) for name, p in parsers.items()} == self.SURFACE

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert capsys.readouterr() == ("tnspec 0.1.0\n", "")


class TestArgvReader:
    """``read_argv`` reads the argv shape that scripts write as argparse reads it, and leaves
    every other argv to argparse: where it returns a namespace, ``parse_args`` returns an
    equal one."""

    #: (argv, whether the reader reads it): the usual shapes, then unusual spellings
    SPELLINGS = [
        (["mult", "8", "0"], True),
        (["eig", "5", "3", "1", "--format", "json"], True),
        (["tables", "--max-n", "20", "--format", "csv"], True),
        (["oracle", "4", "--dump-edges", "edges.txt", "--max-n", "6"], True),
        (["oracle", "4", "--dump-edges", ""], True),
        (["spectrum", "6", "--format", "json", "--format", "csv"], True),  # the last one holds
        (["mult", " 8", "1_0"], True),
        (["mult", "\u0663", "0"], True),  # ARABIC-INDIC DIGIT THREE
        (["spectrum", "6", "--form", "json"], False),
        (["spectrum", "6", "--format=json"], False),
        (["spectrum", "--", "6"], False),
        (["spectrum", "6", "--"], False),
        (["spectrum", "--format", "json", "6"], False),
        (["eig", "3", "--format", "json", "1"], False),
        (["mult", "8", "-3"], False),
        (["spectrum", "6", "--max-n", "-3"], False),
        (["oracle", "4", "--dump-edges", "-x"], False),
        (["oracle", "4", "--dump-edges", "--format"], False),
        (["-h"], False),
        (["spectrum", "-h"], False),
        (["--version"], False),
        (["spectrum", "6", "--bogus"], False),
        (["spectrum", "6", "--bogus", "1"], False),
        (["mult", "8", "0", "9"], False),
        (["mult", "8"], False),
        (["eig"], False),
        (["spectrum", "6", "--max-n"], False),
        (["spectrum", "6", "--format", "xml"], False),
        (["spectrum", "0"], False),
        (["spectrum", "6", "--max-n", "0"], False),
        (["oracle", "7"], False),
        (["spectrum", ""], False),
        (["spectrum", "1" * 5000], False),  # above the int-to-str digit limit
        (["bogus"], False),
        ([], False),
    ]

    @staticmethod
    def agree(parser, argv):
        """Whether the reader reads ``argv``; where it does, argparse reads it the same."""
        read = cli.read_argv(list(argv))
        if read is None:
            return False
        try:
            parsed = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the reader read {argv!r}, which argparse refuses")
        assert vars(read) == vars(parsed), argv
        return True

    @pytest.mark.parametrize(
        "argv, read", SPELLINGS, ids=[" ".join(argv)[:40] or "no argv" for argv, _ in SPELLINGS]
    )
    def test_spelling(self, argv, read):
        assert self.agree(build_parser(), argv) == read

    def test_seeded_draws(self):
        parser, rng = build_parser(), random.Random(2204_03153)
        argvs = [
            *TestInputContract.KNOWN_GOOD,
            *(TestInputContract.draw(rng) for _ in range(TestInputContract.CASES)),
        ]
        # the reader reads all 8 known-good argv and 168 of the 600 draws
        assert sum(self.agree(parser, argv) for argv in argvs) >= 8 + 150

    def test_table_is_the_parsers(self):
        root = build_parser()
        (sub,) = (a for a in root._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(cli.COMMANDS)
        for name, parser in sub.choices.items():
            _, _, positionals, options = cli.COMMANDS[name]
            assert [
                (a.dest, a.type, a.nargs) for a in parser._actions if not a.option_strings
            ] == [
                (dest, keywords["type"], keywords.get("nargs"))
                for dest, keywords in positionals.items()
            ]
            assert {
                tuple(a.option_strings): (a.dest, a.type, a.choices, a.default)
                for a in parser._actions
                if a.option_strings and a.dest != "help"
            } == {
                (flag,): (k["dest"], k.get("type"), k.get("choices"), k.get("default"))
                for flag, k in {**cli.SHARED_OPTIONS, **options}.items()
            }


class TestOptionErrors:
    """An argument a parser does not know ends in that parser's usage error, status 2."""

    CASES = [
        (["spectrum", "6", "--bogus"], "tnspec spectrum", "--bogus"),
        (["spectrum", "6", "7"], "tnspec spectrum", "7"),
        (["--bogus", "spectrum", "6"], "tnspec", "--bogus"),
        # no subcommand offers --threads: the folds size their own worker pool
        (["spectrum", "6", "--threads", "2"], "tnspec spectrum", "--threads 2"),
        (["mult", "6", "0", "--threads", "2"], "tnspec mult", "--threads 2"),
        (["top", "6", "1", "--threads", "2"], "tnspec top", "--threads 2"),
        (["eig", "3", "1", "--threads", "2"], "tnspec eig", "--threads 2"),
        (["witness", "9", "0", "--threads", "2"], "tnspec witness", "--threads 2"),
        (["tables", "--threads", "2"], "tnspec tables", "--threads 2"),
        (["oracle", "4", "--threads", "2"], "tnspec oracle", "--threads 2"),
        (["verify", "5", "--threads", "2"], "tnspec verify", "--threads 2"),
    ]

    @pytest.mark.parametrize("argv, prog, unknown", CASES, ids=[" ".join(c[0]) for c in CASES])
    def test_usage_of_the_parser_that_reads_it(self, capsys, argv, prog, unknown):
        with pytest.raises(SystemExit) as err:
            main(argv)
        out, stderr = capsys.readouterr()
        assert (err.value.code, out) == (2, "")
        assert stderr.startswith(f"usage: {prog} [-h] ")
        assert stderr.endswith(f"\n{prog}: error: unrecognized arguments: {unknown}\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "6", "--format", "json"],
            ["tables", "--format", "csv"],
            ["verify", "8", "--format", "json"],
        ],
    )
    def test_byte_identical_invocations(self, argv, child_env):
        cmd = [sys.executable, "-m", "tnspectrum", *argv]
        first = subprocess.run(cmd, capture_output=True, env=child_env)
        second = subprocess.run(cmd, capture_output=True, env=child_env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout


class CountingStream(io.StringIO):
    """A text stream that counts its ``write`` calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


class TestOneWritePerOutput:
    """``main`` hands each output to its stream in one ``write``: unbuffered, as under
    ``PYTHONUNBUFFERED=1``, every ``write`` is a system call."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_spectrum(self, fmt, monkeypatch):
        stdout = CountingStream()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["spectrum", "30", "--format", fmt]) == 0
        assert stdout.writes == 1

    def test_error_record(self, monkeypatch):
        stderr = CountingStream()
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(["spectrum", "81"]) == 2
        assert (stderr.writes, stderr.getvalue()) == (1, "error: n = 81 exceeds --max-n 80\n")


def tnspec_env(child_env, unbuffered):
    """``child_env`` with ``PYTHONUNBUFFERED`` set to 1 or unset."""
    env = {key: value for key, value in child_env.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def tnspec(argv, env, **kwargs):
    return subprocess.run([sys.executable, "-m", "tnspectrum", *argv], env=env, **kwargs)


class TestProcessExit:
    """How a ``tnspec`` process ends when its output cannot be written, and that it leaves no
    worker behind. Buffering decides whether ``print`` in ``main`` or the last flush meets a
    write error, so each test sets ``PYTHONUNBUFFERED`` itself."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout(self, child_env, unbuffered):
        # with fd 1 closed at start-up sys.stdout is None, and print writes nothing
        result = subprocess.run(
            ["sh", "-c", 'exec "$0" -m tnspectrum spectrum 6 >&-', sys.executable],
            stderr=subprocess.PIPE,
            env=tnspec_env(child_env, unbuffered),
        )
        assert (result.returncode, result.stderr) == (0, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_full_device(self, child_env, unbuffered):
        with open("/dev/full", "wb") as full:
            result = tnspec(
                ["spectrum", "6"],
                tnspec_env(child_env, unbuffered),
                stdout=full,
                stderr=subprocess.PIPE,
            )
        # unbuffered, main's write fails; buffered, the last flush does
        assert (result.returncode, result.stderr) == (2, b"error: No space left on device\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("n", [6, 30], ids=["small", "large"])
    def test_closed_pipe(self, child_env, n, unbuffered):
        # spectrum 30 prints 18788 bytes, more than the 8 KiB buffer, so print in main
        # meets the closed pipe; spectrum 6 fits, so buffered, only the flush meets it
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = tnspec(
                ["spectrum", str(n)],
                tnspec_env(child_env, unbuffered),
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, b"")

    @pytest.mark.parametrize("n", [44, 52])
    def test_workers_end_with_the_process(self, capsys, child_env, n):
        # past the size floor, with two usable CPUs, the process forks a worker of its own
        _, expected, _ = run(capsys, "spectrum", str(n))
        proc = subprocess.Popen(
            [sys.executable, "-m", "tnspectrum", "spectrum", str(n)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=tnspec_env(child_env, False),
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=30)
        finally:
            try:  # the probe also kills whatever the process left in its group
                os.killpg(proc.pid, signal.SIGKILL)
                left_behind = True
            except ProcessLookupError:
                left_behind = False
        assert (proc.returncode, out.decode(), err) == (0, expected, b"")
        assert not left_behind


class TestLazyImports:
    """Start-up loads only what every command runs: ``oracle`` alone loads the oracle,
    ``witness`` and ``verify`` the witness constructions, ``--format json`` ``json``, and
    nothing loads ``concurrent.futures``, ``dataclasses``, ``inspect``, ``fractions`` or
    ``decimal``. The five commands besides ``spectrum``, ``mult`` and ``top`` load
    ``tnspectrum.commands``, which holds them. A well-formed argv loads no ``argparse``
    (nor its ``gettext`` and ``locale``); help and usage errors do, and with it
    ``tnspectrum.commands``, which builds the parser. Importing the package, bare or by
    ``*``, loads none of the watched modules."""

    WATCHED = (
        "argparse",
        "gettext",
        "locale",
        "numpy",
        "concurrent.futures",
        "dataclasses",
        "inspect",
        "json",
        "fractions",
        "decimal",
        "tnspectrum.commands",
        "tnspectrum.oracle",
        "tnspectrum.witnesses",
    )

    @classmethod
    def loaded_by(cls, code, env):
        """The watched modules loaded after running ``code`` in a fresh interpreter."""
        watched = f"sorted(m for m in {cls.WATCHED!r} if m in sys.modules)"
        script = f"import sys\n{code}print({watched})\n"
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        return set(ast.literal_eval(result.stdout.splitlines()[-1]))

    @classmethod
    def loaded_after(cls, argv, env):
        """The watched modules loaded after ``import tnspectrum.cli`` and ``main(argv)``."""
        call = "" if argv is None else f"main({argv!r})\n"
        return cls.loaded_by(f"from tnspectrum.cli import main\n{call}", env)

    def test_import_loads_none_of_the_watched_modules(self, child_env):
        assert self.loaded_after(None, child_env) == set()

    @pytest.mark.parametrize(
        "code", ["import tnspectrum\n", "from tnspectrum import *\n"], ids=["bare", "star"]
    )
    def test_package_import_loads_none_of_the_watched_modules(self, code, child_env):
        assert self.loaded_by(code, child_env) == set()

    @pytest.mark.parametrize(
        "argv",
        [["mult", "8", "0"], ["spectrum", "6"], ["spectrum", "44"], ["top", "8", "3"]],
        ids=" ".join,
    )
    def test_other_folds_load_none_of_the_watched_modules(self, argv, child_env):
        assert self.loaded_after(argv, child_env) == set()

    def test_fold_commands_leave_the_commands_unloaded(self, child_env):
        # each fold command in each format, and an error record, in one interpreter
        calls = [
            *(
                [*argv, "--format", fmt]
                for argv in (["mult", "8", "0"], ["spectrum", "6"], ["top", "8", "3"])
                for fmt in ("text", "json", "csv")
            ),
            ["spectrum", "81"],
        ]
        code = "".join(f"assert main({argv!r}) == {2 if '81' in argv else 0}\n" for argv in calls)
        assert self.loaded_by(f"from tnspectrum.cli import main\n{code}", child_env) == {"json"}

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["eig", "4", "2", "1"], {"tnspectrum.commands"}),
            (["mult", "8", "0", "--format", "json"], {"json"}),
            (["witness", "14", "1"], {"tnspectrum.commands", "tnspectrum.witnesses"}),
            (["verify", "6"], {"tnspectrum.commands", "tnspectrum.witnesses"}),
            (["oracle", "4"], {"tnspectrum.commands", "tnspectrum.oracle"}),
            (["tables"], {"tnspectrum.commands"}),
        ],
        ids=["eig", "json", "witness", "verify", "oracle", "tables"],
    )
    def test_loads_only_what_the_command_runs(self, argv, expected, child_env):
        assert self.loaded_after(argv, child_env) == expected

    @pytest.mark.parametrize("argv", [["--help"], ["spectrum", "6", "--bogus"]], ids=" ".join)
    def test_help_and_usage_errors_load_argparse(self, argv, child_env):
        call = f"try:\n    main({argv!r})\nexcept SystemExit:\n    pass\n"
        loaded = self.loaded_by(f"from tnspectrum.cli import main\n{call}", child_env)
        assert {"argparse", "tnspectrum.commands"} <= loaded

    def test_main_reads_sys_argv_as_the_reader_does(self, child_env):
        # with no argument main reads sys.argv[1:], a well-formed argv, so no argparse
        code = "sys.argv = ['tnspec', 'mult', '8', '0']\nfrom tnspectrum.cli import main\nmain()\n"
        assert self.loaded_by(code, child_env) == set()

    def test_a_fold_that_forks_nothing_leaves_the_forked_fold_unloaded(self, child_env):
        # spectrum 30 folds in-process, below PARALLEL_MIN_N, so it never compiles forked.py
        script = (
            "import sys\nfrom tnspectrum.cli import main\nmain(['spectrum', '30'])\n"
            "print('tnspectrum.forked' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "False"

    def test_a_fold_past_the_floor_on_one_cpu_leaves_the_forked_fold_unloaded(self, child_env):
        # spectrum 44 is past PARALLEL_MIN_N, but one usable CPU forks nothing: the fold runs
        # in-process, prints the default run's bytes and never compiles forked.py
        call = "from tnspectrum.cli import main\nassert main(['spectrum', '44']) == 0\n"
        pinned = (
            "import os, sys\nos.sched_getaffinity = lambda pid: {0}\n"
            f"{call}print('tnspectrum.forked' in sys.modules)\n"
        )
        default, one_cpu = (
            subprocess.run([sys.executable, "-c", script], capture_output=True, env=child_env)
            for script in (call, pinned)
        )
        assert (default.returncode, one_cpu.returncode) == (0, 0), one_cpu.stderr
        assert one_cpu.stdout == default.stdout + b"False\n"


def code_tokens(path):
    """The tokens of a Python source file that carry code: no comment, line break, indent,
    dedent, encoding or end marker."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    with open(path, "rb") as source:
        return sum(token.type not in layout for token in tokenize.tokenize(source.readline))


class TestFoldPathSize:
    """What a fold command compiles. With no bytecode cache, as under
    ``PYTHONDONTWRITEBYTECODE=1``, every call compiles each package module it loads, so
    code that a fold loads but never runs costs every fold call."""

    #: The bound on the code tokens of the package modules that ``python -m tnspectrum
    #: spectrum 44`` loads, the forked fold aside. The path measured 4,108 once the five
    #: other commands and the parser moved to ``commands.py``; the bound sits below that,
    #: so the path cannot grow back. It reads 3,790 since the shard rule moved to
    #: ``forked.py`` and the package root stopped importing the oracle bounds.
    FOLD_PATH_MAX_TOKENS = 4100

    def test_spectrum_compiles_within_the_bound(self, child_env):
        script = (
            "import sys\nimport tnspectrum.__main__\nfrom tnspectrum.cli import main\n"
            "main(['spectrum', '44'])\n"
            "print(sorted((name, module.__file__) for name, module in sys.modules.items()\n"
            "    if name.partition('.')[0] == 'tnspectrum' and name != 'tnspectrum.forked'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env
        )
        assert result.returncode == 0, result.stderr
        loaded = ast.literal_eval(result.stdout.splitlines()[-1])
        tokens = {name: code_tokens(path) for name, path in loaded}
        assert sum(tokens.values()) <= self.FOLD_PATH_MAX_TOKENS, tokens


BIG = 10**30
COMMANDS = ("spectrum", "mult", "eig", "top", "witness", "tables", "verify", "oracle")


class TestInputContract:
    """Seeded random argv over the eight commands and the three formats, after one known-good
    argv per command: every one ends in a result or an error record with status 0, 1 or 2,
    and nothing but argparse's ``SystemExit`` escapes ``main``."""

    CASES = 600
    #: one argv per command that ends in status 0, whatever the draws reach
    KNOWN_GOOD = (
        ["spectrum", "6", "--format", "csv"],
        ["mult", "8", "0"],
        ["eig", "4", "2", "1", "--format", "json"],
        ["top", "8", "3"],
        ["witness", "14", "1"],
        ["tables", "--format", "csv"],
        ["verify", "6"],
        ["oracle", "4", "--format", "json"],
    )
    JUNK = ("x", "", "1.5", "nan", "-", "--", "1e3", "0x10", "--bogus", "--help", "--version")

    @staticmethod
    def draw(rng):
        """One argv. Every n is at most 25 or above the guard, so no case folds n = 26..80."""

        def integer():
            return rng.choice((rng.randint(-3, 30), rng.randint(-BIG, BIG)))

        max_n = rng.choice((None, integer()))
        guard = max_n if max_n is not None and max_n > 0 else cli.DEFAULT_MAX_N

        def size():
            return rng.choice(
                (rng.randint(-1, 7), rng.randint(-3, 25), rng.randint(-BIG, 0),
                 rng.randint(guard + 1, guard + BIG))
            )

        def parts():
            while True:
                drawn = [rng.choice((size(), integer())) for _ in range(rng.randint(1, 4))]
                if not 25 < sum(drawn) <= guard:
                    return sorted(drawn, reverse=True) if rng.random() < 0.8 else drawn

        command = rng.choice(COMMANDS)
        positional = {
            "spectrum": lambda: [size()],
            "mult": lambda: [size(), integer()],
            "eig": parts,
            "top": lambda: [size(), integer()],
            "witness": lambda: [size(), rng.choice((rng.randint(-1, 3), integer()))],
            "tables": lambda: [],
            "verify": lambda: [size()],
            "oracle": lambda: [size()],
        }[command]()
        options = ["--format", rng.choice(("text", "json", "csv"))]
        if max_n is not None:
            options += ["--max-n", str(max_n)]
        if command == "oracle" and rng.random() < 0.2:
            options += ["--dump-edges", rng.choice(("edges.txt", ".", "missing/edges.txt"))]
        if rng.random() < 0.1:  # an unknown option: argparse's usage error
            options.append("--bogus")
        argv = [command, *map(str, positional)]
        argv = argv + options if rng.random() < 0.7 else argv[:1] + options + argv[1:]
        if rng.random() < 0.15:
            argv[rng.randrange(len(argv))] = rng.choice(TestInputContract.JUNK)
        return argv

    def test_every_argv_ends_in_status_0_1_or_2(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # --dump-edges writes its relative paths here

        def status(argv):
            """The exit status of ``main(argv)``, and whether argparse let it reach a command."""
            try:
                code, parsed = main(argv), True
            except SystemExit as exc:
                code, parsed = exc.code, False
            except Exception as exc:  # noqa: BLE001 - the contract is that nothing else escapes
                pytest.fail(f"main({argv!r}) raised {exc!r}")
            capsys.readouterr()
            assert code in (0, 1, 2), argv
            return code, parsed

        # every command body, and so every import it makes, runs with status 0
        for argv in self.KNOWN_GOOD:
            assert status(argv) == (0, True), argv
        assert {argv[0] for argv in self.KNOWN_GOOD} == set(COMMANDS)
        rng = random.Random(2204_03153)
        parsed = sum(status(self.draw(rng))[1] for _ in range(self.CASES))
        # and most draws reach a command, not argparse's usage error (271 of 600)
        assert parsed >= 250


class TestEntryPoint:
    def test_console_help(self, child_env):
        result = subprocess.run(
            [sys.executable, "-m", "tnspectrum", "--help"],
            capture_output=True,
            text=True,
            env=child_env,
        )
        assert result.returncode == 0
        for name in ("spectrum", "mult", "eig", "witness", "tables", "verify", "oracle", "top"):
            assert name in result.stdout

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        value = tomllib.loads(pyproject.read_text())["project"]["scripts"]["tnspec"]
        entry = importlib.metadata.EntryPoint("tnspec", value, "console_scripts")
        assert entry.load() is cli.run
