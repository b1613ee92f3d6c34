#!/usr/bin/env python3
"""Apply each named mutant to a copy of the checkout and check that its tests kill it.

A mutant replaces one exact text, which must occur once in its file, with another.
The checkout is copied once into a temporary directory (``TMPDIR`` chooses where);
each mutant is applied to the copy alone and ``pytest -x`` runs its test files there,
under a deadline of ``DEADLINE_S`` seconds. One line per mutant says killed (with the
first failing test), survived, timed out or no verdict (pytest ended otherwise), and
the time taken. The last line counts the mutants killed and not killed. The exit
status is 1 if any mutant was not killed, 2 if an old text is stale.

Usage: python scripts/mutants.py [NAME ...]
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: Seconds a mutant's pytest run may take before it counts as timed out.
DEADLINE_S = 300


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: str = "tests/test_spectrum.py"  # the test files that must kill it, space-separated


MUTANTS = [
    Mutant('json-mult-as-int', 'src/tnspectrum/cli.py',
           'payload = [[value, str(mult)] for value, mult in pairs]',
           'payload = [[value, mult] for value, mult in pairs]',
           'tests/test_cli.py'),
    Mutant('not-an-eigenvalue-note', 'src/tnspectrum/cli.py',
           'note = "" if mult else " (not an eigenvalue)"',
           'note = ""',
           'tests/test_cli.py'),
    Mutant('ratio-text', 'src/tnspectrum/commands.py',
           'else f"{ratio.numerator}/{ratio.denominator}"',
           'else f"{ratio.denominator}/{ratio.numerator}"',
           'tests/test_cli.py'),
    Mutant('top-exit-1-to-2', 'src/tnspectrum/cli.py',
           'except ValueError as exc:\n        raise CommandError(args.n, str(exc), 1)',
           'except ValueError as exc:\n        raise CommandError(args.n, str(exc), 2)',
           'tests/test_cli.py'),
    Mutant('witness-exit-1-to-2', 'src/tnspectrum/commands.py',
           'except NoWitnessError as exc:\n        raise CommandError(args.n, str(exc), 1)',
           'except NoWitnessError as exc:\n        raise CommandError(args.n, str(exc), 2)',
           'tests/test_cli.py'),
    Mutant('tables-verdict', 'src/tnspectrum/commands.py',
           '"result: all cells PASS" if all_pass',
           '"result: all cells pass" if all_pass',
           'tests/test_cli.py'),
    Mutant('verify-floor', 'src/tnspectrum/commands.py',
           'if args.n_max < 4:',
           'if args.n_max < 3:',
           'tests/test_cli.py'),
    Mutant('agree', 'src/tnspectrum/commands.py',
           'verdict = "AGREE" if report.agreement',
           'verdict = "AGREES" if report.agreement',
           'tests/test_cli.py'),
    Mutant('csv-separator', 'src/tnspectrum/cli.py',
           '",".join(str(cell) for cell in row)',
           '";".join(str(cell) for cell in row)',
           'tests/test_cli.py'),
    Mutant('max-n-message', 'src/tnspectrum/cli.py',
           'f"{name} exceeds --max-n {args.max_n}"',
           'f"{name} is over --max-n {args.max_n}"',
           'tests/test_cli.py'),
    Mutant('edge-line-format', 'src/tnspectrum/commands.py',
           'f"{u} {v}\\n" for u, v in edge_list(graph)',
           'f"{u},{v}\\n" for u, v in edge_list(graph)',
           'tests/test_cli.py'),
    Mutant('eig-text', 'src/tnspectrum/commands.py',
           'f"  eigenvalue       {value}"',
           'f"  eigenvalue {value}"',
           'tests/test_cli.py'),
    Mutant('witness-verdict', 'src/tnspectrum/commands.py',
           'verdict = "verified" if report.verified',
           'verdict = "ok" if report.verified',
           'tests/test_cli.py'),
    Mutant('table-width', 'src/tnspectrum/cli.py',
           'f"{value:>10}  {mult}"',
           'f"{value:>8}  {mult}"',
           'tests/test_cli.py'),
    Mutant('unsorted-json', 'src/tnspectrum/cli.py',
           'json.dumps(record, sort_keys=True)',
           'json.dumps(record)',
           'tests/test_cli.py'),
    Mutant('dump-oserror-mapping', 'src/tnspectrum/commands.py',
           'except (OSError, ArithmeticError) as exc:',
           'except ArithmeticError as exc:',
           'tests/test_cli.py'),
    Mutant('subcommand-usage', 'src/tnspectrum/commands.py',
           'if extras:\n                self.error(',
           'if False:\n                self.error(',
           'tests/test_cli.py'),
    # at module level, after the names that commands.py imports from cli.py
    Mutant('commands-imported-eagerly', 'src/tnspectrum/cli.py',
           'def run() -> NoReturn:',
           'from . import commands\n\n\ndef run() -> NoReturn:',
           'tests/test_cli.py'),
    Mutant('reader-unknown-flag', 'src/tnspectrum/cli.py',
           'keywords = options.get(flag)',
           'keywords = options.get(flag, {"dest": flag})',
           'tests/test_cli.py'),
    Mutant('reader-int-for-type', 'src/tnspectrum/cli.py',
           'read[dest], words = keywords["type"](words[0]), words[1:]',
           'read[dest], words = int(words[0]), words[1:]',
           'tests/test_cli.py'),
    Mutant('reader-extra-positional', 'src/tnspectrum/cli.py',
           'if words or len(flags) % 2:',
           'if len(flags) % 2:',
           'tests/test_cli.py'),
    Mutant('reader-dash-value', 'src/tnspectrum/cli.py',
           'if keywords is None or text.startswith("-"):',
           'if keywords is None:',
           'tests/test_cli.py'),
    Mutant('reader-max-n-dropped', 'src/tnspectrum/cli.py',
           'read[keywords["dest"]] = value',
           'read[keywords["dest"]] = value if flag != "--max-n" else DEFAULT_MAX_N',
           'tests/test_cli.py'),
    Mutant('out-of-memory-unhandled', 'src/tnspectrum/cli.py',
           'except MemoryError:  # from the command or its rendering',
           'except ():  # from the command or its rendering',
           'tests/test_cli.py'),
    Mutant('mult-json-payload', 'src/tnspectrum/cli.py',
           '"multiplicity": str(mult)}',
           '"multiplicity": mult}',
           'tests/test_cli.py'),
    Mutant('oracle-json-payload', 'src/tnspectrum/commands.py',
           '"max_deviation": 0.0,  # the graph',
           '"max_deviation": 0,  # the graph',
           'tests/test_cli.py'),
    Mutant('oracle-zero-mults-kept', 'src/tnspectrum/oracle.py',
           'zip(values, mults) if mult))',
           'zip(values, mults)))',
           'tests/test_oracle.py'),
    Mutant('children-buckets-dropped', 'src/tnspectrum/forked.py',
           'mine[:] = map(add, mine, theirs)',
           'mine[:] = mine',
           'tests/test_acceptance.py'),
    Mutant('threads-positional', 'src/tnspectrum/spectrum.py',
           'def spectrum(n: int, *, threads: int = 1)',
           'def spectrum(n: int, threads: int = 1)',
           'tests/test_api.py'),
    Mutant('enumerate-zero-accepted', 'src/tnspectrum/partitions.py',
           '    if n < 1:\n',
           '    if n < 0:\n',
           'tests/test_partitions.py'),
    Mutant('hook-off-by-one', 'src/tnspectrum/partitions.py',
           'row_len - j + conj[j] - t - 1',
           'row_len - j + conj[j] - t',
           'tests/test_acceptance.py'),
    Mutant('cpu-move-skipped', 'src/tnspectrum/forked.py',
           'os.sched_setaffinity(pid, others)',
           'pass'),
    Mutant('transitivity-proof-skipped', 'src/tnspectrum/oracle.py',
           'for relabel in ((1, 0, *range(2, n)), (*range(1, n), 0)):',
           'for relabel in ():',
           'tests/test_cli.py'),
    Mutant('transposition-relabelling-alone', 'src/tnspectrum/oracle.py',
           'for relabel in ((1, 0, *range(2, n)), (*range(1, n), 0)):',
           'for relabel in ((1, 0, *range(2, n)),):',
           'tests/test_oracle.py'),
    Mutant('cycle-relabelling-alone', 'src/tnspectrum/oracle.py',
           'for relabel in ((1, 0, *range(2, n)), (*range(1, n), 0)):',
           'for relabel in ((*range(1, n), 0),):',
           'tests/test_oracle.py'),
    Mutant('integrality-proof-skipped', 'src/tnspectrum/oracle.py',
           'if any(proof):',
           'if False:',
           'tests/test_oracle.py'),
    Mutant('edge-dump-after-proof', 'src/tnspectrum/commands.py',
           'if args.dump_edges:  # before the proof, so a graph it rejects is still written',
           'if args.dump_edges and numeric_spectrum(graph):',
           'tests/test_cli.py'),
    Mutant('leaf-split-child-length', 'src/tnspectrum/spectrum.py',
           '(top - (length + 1) - 2) // 2) + 1',
           '(top - (length + 2) - 2) // 2) + 1'),
    Mutant('leaf-split-recurses-into-leaves', 'src/tnspectrum/spectrum.py',
           '(top - (length + 1) - 2) // 2) + 1',
           '(top - (length + 0) - 2) // 2) + 1'),
    Mutant('table-factor', 'src/tnspectrum/spectrum.py',
           'map(mul, range(1, top - 2 * row + 2)',
           'map(mul, range(0, top - 2 * row + 1)'),
    Mutant('leaf-conjugate-guard', 'src/tnspectrum/spectrum.py',
           'sums = strict if row < top - length - 2 else square',
           'sums = strict if row <= top - length - 2 else square'),
    Mutant('node-conjugate-guard', 'src/tnspectrum/spectrum.py',
           'sums = strict if top > m + 1 else square',
           'sums = strict if top >= m + 1 else square'),
    Mutant('pre-leaf-leaf-conjugate-guard', 'src/tnspectrum/spectrum.py',
           'sums = strict if leaf < rest - length - 3 else square',
           'sums = strict if leaf <= rest - length - 3 else square'),
    Mutant('pre-leaf-test-minus-one', 'src/tnspectrum/spectrum.py',
           '(top - (length + 1) - 3) // 3) + 1',
           '(top - (length + 1) - 3) // 3)'),
    Mutant('pre-leaf-test-plus-one', 'src/tnspectrum/spectrum.py',
           '(top - (length + 1) - 3) // 3) + 1',
           '(top - (length + 1) - 3) // 3) + 2'),
    Mutant('pre-leaf-leaves-skipped', 'src/tnspectrum/spectrum.py',
           'if row < split:',
           'if row < split - 1:'),
    Mutant('pre-leaf-content-shift', 'src/tnspectrum/spectrum.py',
           'shift = content - size + row * (row - 5) // 2',
           'shift = content + row * (row - 5) // 2'),
    Mutant('mirror-dropped', 'src/tnspectrum/spectrum.py',
           'map(add, reversed(strict), strict)',
           'reversed(strict)'),
    Mutant('child-range', 'src/tnspectrum/spectrum.py',
           'high = min(top // 2, top - length - 2)',
           'high = min(top // 2, top - length - 3)'),
    Mutant('leaf-content-shift', 'src/tnspectrum/spectrum.py',
           'content -= size  # and every box',
           'content -= 0  # and every box'),
    Mutant('root-division-unchecked', 'src/tnspectrum/spectrum.py',
           'if remainder:\n        raise ArithmeticError(f"hook',
           'if False:\n        raise ArithmeticError(f"hook'),
    Mutant('node-division-unchecked', 'src/tnspectrum/spectrum.py',
           'if remainder:\n        raise inexact(top)',
           'if False:\n        raise inexact(top)'),
    Mutant('tail-division-unchecked', 'src/tnspectrum/spectrum.py',
           'if remainder:\n                    raise inexact(row)',
           'if False:\n                    raise inexact(row)'),
    Mutant('leaf-division-unchecked', 'src/tnspectrum/spectrum.py',
           'if remainder:\n                raise inexact(rest, row)',
           'if False:\n                raise inexact(rest, row)'),
    Mutant('pre-leaf-leaf-division-unchecked', 'src/tnspectrum/spectrum.py',
           'if remainder:\n                        raise inexact(first, row, leaf)',
           'if False:\n                        raise inexact(first, row, leaf)'),
    Mutant('shard-sort-reversed', 'src/tnspectrum/spectrum.py',
           'keys.sort(key=lambda key: (key[0] * key[1], key[0]))',
           'keys.sort(key=lambda key: (key[0] * key[1], key[0]), reverse=True)'),
    Mutant('parallel-floor-minus-one', 'src/tnspectrum/spectrum.py',
           'PARALLEL_MIN_N = 40',
           'PARALLEL_MIN_N = 39'),
    Mutant('parallel-floor-plus-one', 'src/tnspectrum/spectrum.py',
           'PARALLEL_MIN_N = 40',
           'PARALLEL_MIN_N = 41'),
    Mutant('fold-ceiling-plus-one', 'src/tnspectrum/spectrum.py',
           'if n > FOLD_MAX_N:',
           'if n > FOLD_MAX_N + 1:'),
    Mutant('invariant-top-value-only', 'src/tnspectrum/spectrum.py',
           'pairs[0] == (self.n * (self.n - 1) // 2, 1)',
           'pairs[0][0] == self.n * (self.n - 1) // 2'),
    Mutant('support-content-shift', 'src/tnspectrum/spectrum.py',
           '<< (top - 1) * size',
           '<< (top - 1) * (size - top)'),
    Mutant('support-top-from-two', 'src/tnspectrum/spectrum.py',
           'for top in range(1, size + 1):',
           'for top in range(2, size + 1):'),
    Mutant('upper-bound-plus-one', 'src/tnspectrum/spectrum.py',
           '// 2 - (k - 1) * last\n',
           '// 2 - (k - 1) * last + 1\n'),
    Mutant('fork-failure-propagates', 'src/tnspectrum/forked.py',
           'except (OSError, EOFError, ValueError):  # every failure',
           'except (EOFError, ValueError):  # every failure'),
    Mutant('cut-blob-propagates', 'src/tnspectrum/forked.py',
           'except (OSError, EOFError, ValueError):  # every failure',
           'except OSError:  # every failure'),
    Mutant('failed-fork-leaks-pipe', 'src/tnspectrum/forked.py',
           '                    os.close(read)\n                    os.close(write)\n'
           '                    raise\n',
           '                    raise\n'),
    Mutant('waitpid-before-read', 'src/tnspectrum/forked.py',
           'blobs = [pipe.read() for pipe in children.values()]',
           'blobs = [os.waitpid(pid, 0) and pipe.read() for pid, pipe in children.items()]'),
    Mutant('failed-child-ignored', 'src/tnspectrum/forked.py',
           'for blob in blobs:',
           'for blob in filter(None, blobs):'),
    Mutant('failed-child-sums-kept', 'src/tnspectrum/forked.py',
           '        for mine in sums:\n            mine[:] = [0] * len(mine)\n',
           ''),
    Mutant('reaped-child-raises', 'src/tnspectrum/forked.py',
           'where SIGCHLD is ignored\n                    pass',
           'where SIGCHLD is ignored\n                    raise'),
    Mutant('failed-move-ends-the-fork', 'src/tnspectrum/forked.py',
           'or the child has ended\n                        pass',
           'or the child has ended\n                        raise'),
    Mutant('failed-fork-not-refolded', 'src/tnspectrum/spectrum.py',
           'if not folded:',
           'if workers == 1:'),
    Mutant('caller-folds-nothing', 'src/tnspectrum/forked.py',
           'drain()\n            blobs = [',
           'blobs = ['),
    Mutant('reaped-child-killed', 'src/tnspectrum/forked.py',
           'if blobs is None:  # the call raised',
           'if True:  # the call raised'),
    Mutant('left-child-not-killed', 'src/tnspectrum/forked.py',
           'os.kill(pid, SIGKILL)',
           'pass'),
    Mutant('caller-runs-the-child', 'src/tnspectrum/forked.py',
           'if pid == 0:',
           'if pid != 0:'),
    Mutant('child-keeps-its-read-end', 'src/tnspectrum/forked.py',
           'os.close(read)  # else a write',
           'pass  # else a write'),
    Mutant('raising-child-runs-on', 'src/tnspectrum/forked.py',
           'finally:\n                        os._exit(1)',
           'finally:\n                        pass'),
    Mutant('no-proc-raises', 'src/tnspectrum/forked.py',
           'except OSError:\n        return set()',
           'except OSError:\n        pass'),
    Mutant('balanced-hook-region', 'src/tnspectrum/witnesses.py',
           'inner[0] if inner else 0) + 1',
           'inner[0] if inner else 0) - 1',
           'tests/test_witnesses.py'),
    Mutant('zero-n2-guard', 'src/tnspectrum/witnesses.py',
           'if n == 2:',
           'if n == -2:',
           'tests/test_witnesses.py'),
    Mutant('lambda-lower-bound', 'src/tnspectrum/witnesses.py',
           'if not 1 <= lam <= n:\n        raise ValueError(f"need 1 <= lam <= n = {n}, got lam = {lam}")\n'
           '    return _balanced_hook(n, (lam + 1,)',
           'if not 0 <= lam <= n:\n        raise ValueError(f"need 1 <= lam <= n = {n}, got lam = {lam}")\n'
           '    return _balanced_hook(n, (lam + 1,)',
           'tests/test_witnesses.py'),
    Mutant('prefix-bound', 'src/tnspectrum/witnesses.py',
           'return 10 * k + 4',
           'return 10 * k + 3',
           'tests/test_witnesses.py'),
    Mutant('verify-fourth-skip', 'src/tnspectrum/commands.py',
           'if n <= 6',
           'if n <= 5',
           'tests/test_cli.py'),
    Mutant('verify-witness-one-skip', 'src/tnspectrum/commands.py',
           'witness_one = "SKIP"',
           'witness_one = "PASS"',
           'tests/test_cli.py'),
    Mutant('witness-verified-or', 'src/tnspectrum/witnesses.py',
           'part.n == n and eigenvalue(part) == target',
           'part.n == n or eigenvalue(part) == target',
           'tests/test_cli.py'),
    Mutant('product-sign', 'src/tnspectrum/oracle.py',
           'low - r * high',
           'low + r * high',
           'tests/test_oracle.py'),
    Mutant('spectrum-failed-status', 'src/tnspectrum/cli.py',
           '0 if all(checks.values()) else 1,',
           '0,',
           'tests/test_cli.py'),
    Mutant('tables-mismatch-verdict', 'src/tnspectrum/commands.py',
           'else "result: MISMATCH"',
           'else "result: mismatch"',
           'tests/test_cli.py'),
    Mutant('verify-failures-verdict', 'src/tnspectrum/commands.py',
           'else "FAILURES found"',
           'else "failures found"',
           'tests/test_cli.py'),
    Mutant('oracle-disagree-verdict', 'src/tnspectrum/commands.py',
           'else "DISAGREE"',
           'else "DISAGREES"',
           'tests/test_cli.py'),
    Mutant('witness-failed-verdict', 'src/tnspectrum/commands.py',
           'else "FAILED"',
           'else "failed"',
           'tests/test_cli.py'),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants (default: all)")
    return parser.parse_args(argv)


def stale(mutants):
    """The mutants whose old text does not occur exactly once in their file."""
    return [m for m in mutants if (ROOT / m.file).read_text().count(m.old) != 1]


def run(mutant, copy):
    """Apply ``mutant`` to ``copy``, run its tests, restore the file: (outcome, first failure)."""
    path = copy / mutant.file
    original = path.read_text()
    path.write_text(original.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               *mutant.tests.split()]
    child = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)  # the run and any fold worker it forked
        child.communicate()
        return "timed out", ""
    finally:
        path.write_text(original)
    if child.returncode == 0:
        # a mutant can end pytest's own process early with status 0, as a forked child would
        if re.search(r"^\d+ passed", output, re.M):
            return "survived", ""
        return "no verdict", "pytest exit status 0 with no summary"
    if child.returncode not in (1, 2):  # 1: a test failed; 2: collection failed
        return "no verdict", f"pytest exit status {child.returncode}"
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.M)
    return "killed", first.group(1) if first else "a collection error"


def main(argv=None):
    args = parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        sys.exit(f"unknown mutant: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS
    bad = stale(chosen)
    if bad:
        for m in bad:
            print(f"stale: {m.name}: its old text does not occur exactly once in {m.file}",
                  file=sys.stderr)
        return 2
    killed = failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".perfbench-*"))
        for m in chosen:
            start = time.monotonic()
            outcome, first = run(m, copy)
            killed += outcome == "killed"
            failed += outcome != "killed"
            seconds = time.monotonic() - start
            print(f"{m.name:36} {outcome:10} {seconds:6.1f} s  {first}", flush=True)
    print(f"{killed} killed, {failed} not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
