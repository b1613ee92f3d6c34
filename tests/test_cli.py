import argparse
import hashlib
import json
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from tnspectrum import Partition, WitnessReport, multiplicity
from tnspectrum.cli import ONE_MULTIPLICITIES, ZERO_MULTIPLICITIES, build_parser, main
from tnspectrum.spectrum import FOLD_MAX_N

#: stdout, stderr, exit status and edge-file digest of every case, captured
#: once from the CLI before its renderer was unified; never regenerate it
#: from the code under test.
GOLDEN = json.loads((pathlib.Path(__file__).with_name("cli_golden.json")).read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbidden(name):
    """A stand-in for the query ``name`` that fails any command calling it."""

    def query(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return query


class TestSpectrumCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "eigenvalue,multiplicity"
        assert lines[1:] == ["6,1", "2,9", "0,4", "-2,9", "-6,1"]

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"command", "n", "payload", "status"}
        assert record["command"] == "spectrum"
        assert record["n"] == 2
        assert record["status"] == "ok"
        assert record["payload"] == [[1, "1"], [-1, "1"]]
        # eigenvalues ride as ints, multiplicities as decimal strings
        assert all(isinstance(v, int) and isinstance(m, str) for v, m in record["payload"])

    def test_text_includes_rows_and_invariants(self, capsys):
        code, out, _ = run(capsys, "spectrum", "2")
        assert code == 0
        assert "eigenvalue  multiplicity" in out
        assert out.count("PASS") == 5

    def test_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "0"])
        assert err.value.code == 2

    def test_resource_guard(self, capsys):
        code, _, err = run(capsys, "spectrum", "12", "--max-n", "10")
        assert code == 2
        assert "exceeds" in err

    def test_threads_flag_output_unchanged(self, capsys):
        _, serial, _ = run(capsys, "spectrum", "12", "--format", "json")
        _, parallel, _ = run(capsys, "spectrum", "12", "--format", "json", "--threads", "3")
        assert serial == parallel


class TestMultCommand:
    def test_golden_cell(self, capsys):
        code, out, _ = run(capsys, "mult", "8", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["payload"] == {"eigenvalue": 0, "multiplicity": "9864"}

    def test_absent_value(self, capsys):
        code, out, _ = run(capsys, "mult", "4", "5")
        assert code == 0
        assert "not an eigenvalue" in out

    def test_negative_value_argument(self, capsys):
        code, out, _ = run(capsys, "mult", "4", "-2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["n,eigenvalue,multiplicity", "4,-2,9"]


class TestEigCommand:
    def test_partition_report(self, capsys):
        code, out, _ = run(capsys, "eig", "4", "2", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["partition"] == [4, 2, 1]
        assert payload["eigenvalue"] == 3
        assert payload["degree"] == "35"
        assert payload["character_ratio"] == "1/7"
        assert payload["upper_bound"] >= payload["eigenvalue"]

    def test_single_box(self, capsys):
        code, out, _ = run(capsys, "eig", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["eigenvalue"] == 0
        assert payload["character_ratio"] is None

    def test_invalid_partition(self, capsys):
        code, _, err = run(capsys, "eig", "1", "2")
        assert code == 2
        assert "nonincreasing" in err

    def test_memory_error_is_error_record(self, capsys, monkeypatch):
        def too_large(part):
            raise MemoryError

        monkeypatch.setattr("tnspectrum.cli.degree", too_large)
        code, out, _ = run(
            capsys, "eig", "1000000000000", "--max-n", "2000000000000", "--format", "json"
        )
        assert code == 2
        record = json.loads(out)
        assert record["status"] == "error"
        assert "out of memory" in record["payload"]["message"]


class TestTopCommand:
    def test_n6(self, capsys):
        code, out, _ = run(capsys, "top", "6", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["eigenvalue,multiplicity", "15,1", "9,25", "5,81"]

    def test_count_too_large(self, capsys):
        code, _, err = run(capsys, "top", "2", "5")
        assert code == 1
        assert "distinct" in err


class TestWitnessCommand:
    def test_witness_9_0(self, capsys):
        code, out, _ = run(capsys, "witness", "9", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload == {"partition": [5, 1, 1, 1, 1], "target": 0, "verified": True}

    def test_witness_14_1(self, capsys):
        code, out, _ = run(capsys, "witness", "14", "1")
        assert code == 0
        assert "(4, 4, 4, 2)" in out
        assert "verified" in out

    def test_no_construction_is_error(self, capsys):
        code, out, err = run(capsys, "witness", "2", "0", "--format", "json")
        assert code == 1
        record = json.loads(out)
        assert record["status"] == "error"
        assert "not an eigenvalue" in record["payload"]["message"]

    def test_no_construction_text_mode(self, capsys):
        code, _, err = run(capsys, "witness", "6", "1")
        assert code == 1
        assert "no construction known" in err

    def test_resource_guard(self, capsys):
        code, out, _ = run(capsys, "witness", "81", "0", "--format", "json")
        assert code == 2
        record = json.loads(out)
        assert record["status"] == "error"
        assert "exceeds --max-n 80" in record["payload"]["message"]
        code, out, _ = run(capsys, "witness", "81", "0", "--max-n", "81")
        assert code == 0
        assert "verified" in out

    def test_memory_error_is_error_record(self, capsys, monkeypatch):
        def too_large(n, target):
            raise MemoryError

        monkeypatch.setattr("tnspectrum.cli.verify_witness", too_large)
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

        monkeypatch.setattr("tnspectrum.cli.verify_witness", huge_witness)
        for fmt in ("json", "csv", "text"):
            code, out, err = run(capsys, "witness", "20", "1", "--format", fmt)
            assert code == 2
            assert "out of memory at n = 20" in out + err


E19, E19X4 = 10**19, 4 * 10**19  # past sys.maxsize, so no list of that length can be asked for
NINES = "9" * 4300  # the longest integer argv may spell under the default int-to-str limit
SQUARE = ["63"] * 63  # its degree has 5616 digits


class TestFoldCeiling:
    """Above ``FOLD_MAX_N`` every folding command ends in its status-2 record, unfolded."""

    @pytest.fixture
    def unfolded(self, monkeypatch):
        """Make every query ``_run_fold`` can make fail the test if it runs."""

        def never(n, *rest, max_n, threads):
            raise AssertionError(f"folded n = {n} above the ceiling")

        for query in ("spectrum", "multiplicity", "top_eigenvalues"):
            monkeypatch.setattr(f"tnspectrum.cli.{query}", never)

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
        monkeypatch.setattr("tnspectrum.cli.multiplicity", lambda n, value, max_n, threads: 7)
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
            timeout=120,
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
    def test_all_cells_pass(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert "FAIL" not in out
        assert "all cells PASS" in out

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "table,n,expected,computed,status"
        assert "zero,10,790528,790528,PASS" in lines
        assert "one,16,301532774400,301532774400,PASS" in lines
        assert len(lines) == 21  # header + 10 zero rows + 10 one rows

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

        monkeypatch.setattr("tnspectrum.cli.multiplicity", counting_multiplicity)
        monkeypatch.setattr("tnspectrum.cli.spectrum", forbidden("spectrum"))
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
                monkeypatch.setattr(f"tnspectrum.cli.{other}", forbidden(other))
        assert run(capsys, *argv) == expected


class TestVerifyCommand:
    def test_passes_to_12(self, capsys):
        code, out, _ = run(capsys, "verify", "12")
        assert code == 0
        assert "all checks passed" in out

    def test_fourth_check_skipped_for_small_n(self, capsys):
        code, out, _ = run(capsys, "verify", "6", "--format", "json")
        assert code == 0
        rows = {row["n"]: row["checks"] for row in json.loads(out)["payload"]["rows"]}
        assert rows[6]["fourth"] == "SKIP"
        assert rows[4]["fourth"] == "SKIP"
        assert rows[6]["third"] == "PASS"

    def test_witness_one_skip_and_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "7", "--format", "json")
        rows = {row["n"]: row["checks"] for row in json.loads(out)["payload"]["rows"]}
        assert rows[5]["witness_one"] == "SKIP"
        assert rows[7]["witness_one"] == "PASS"

    def test_small_n_max_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "3")
        assert code == 2
        assert "at least 4" in err


class TestOracleCommand:
    def test_oracle_4(self, capsys):
        code, out, _ = run(capsys, "oracle", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["agreement"] is True
        assert payload["order"] == 24
        assert payload["max_deviation"] < 1e-6
        assert payload["discrepancies"] == []

    def test_oracle_5(self, capsys):
        code, out, _ = run(capsys, "oracle", "5")
        assert code == 0
        assert "120 vertices" in out
        assert "AGREE" in out

    def test_oracle_7_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["oracle", "7"])
        assert err.value.code == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "0", "-1e-6", "0.5", "2"])
    def test_tolerance_outside_open_interval_is_usage_error(self, tolerance):
        with pytest.raises(SystemExit) as err:
            main(["oracle", "4", f"--tolerance={tolerance}"])
        assert err.value.code == 2

    def test_tolerance_inside_open_interval(self, capsys):
        code, out, _ = run(capsys, "oracle", "4", "--tolerance", "0.25")
        assert code == 0
        assert "AGREE" in out

    def test_unwritable_edge_dump_is_error_record(self, capsys, tmp_path):
        path = tmp_path / "missing" / "edges.txt"
        code, out, _ = run(capsys, "oracle", "3", "--dump-edges", str(path), "--format", "json")
        assert code == 2
        record = json.loads(out)
        assert record["status"] == "error"
        assert "edges.txt" in record["payload"]["message"]
        code, _, err = run(capsys, "oracle", "3", "--dump-edges", str(path))
        assert code == 2
        assert err.startswith("error: ")

    def test_arithmetic_error_is_error_record(self, capsys, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 0.25)
        code, out, _ = run(capsys, "oracle", "3", "--format", "json")
        assert code == 2
        record = json.loads(out)
        assert record["status"] == "error"
        assert re.fullmatch(
            r"eigenvalue 3\.25\d* is 2\.500e-01 away from an integer \(tolerance 1e-06\)",
            record["payload"]["message"],
        )

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

    def test_edge_dump(self, capsys, tmp_path):
        path = tmp_path / "edges.txt"
        code, _, _ = run(capsys, "oracle", "3", "--dump-edges", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        pairs = [tuple(map(int, line.split())) for line in lines]
        assert all(0 <= u < v < 6 for u, v in pairs)
        assert pairs == sorted(pairs)


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

    def test_every_command_has_a_case_in_every_format(self):
        (commands,) = (
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        covered = {(c["argv"][0], c["argv"][c["argv"].index("--format") + 1]) for c in GOLDEN}
        assert covered == {(name, fmt) for name in commands for fmt in ("text", "json", "csv")}


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


class TestLazyImports:
    """Only ``oracle`` needs numpy, only a multi-worker fold needs the process pool,
    and the package itself imports neither ``dataclasses`` nor ``inspect``."""

    @staticmethod
    def loaded_after(argv, env):
        script = (
            "import sys\n"
            "from tnspectrum.cli import main\n"
            f"main({argv!r})\n"
            "watched = ('numpy', 'concurrent.futures', 'dataclasses', 'inspect')\n"
            "print(sorted(m for m in watched if m in sys.modules))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1]

    def test_mult_loads_neither_numpy_nor_the_pool(self, child_env):
        assert self.loaded_after(["mult", "8", "0"], child_env) == "[]"

    def test_oracle_loads_numpy(self, child_env):
        assert "'numpy'" in self.loaded_after(["oracle", "4"], child_env)


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
