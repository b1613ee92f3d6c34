#!/usr/bin/env python3
"""Apply each mutant to a copy of the checkout and check that its tests kill it.

A mutant replaces one exact text, which must occur once in its file, with another.
With no argument every named mutant runs; an argument is a mutant's name, or a source
file under ``src/tnspectrum/``, which runs the mutants generated from that file's syntax
tree: each comparison swapped (``<``/``<=``, ``>``/``>=``, ``==``/``!=``), ``+``/``-``,
``*``/``//``, ``+=``/``-=`` and ``and``/``or`` swapped, each int literal moved by 1 where it
stays at least 0, and each simple statement replaced by ``pass``. Docstrings, imports,
strings and ``def`` and ``class`` lines are left alone. ``TESTS`` names the test files that
run against each file's mutants, unless a named mutant names its own, and ``EQUIVALENT``
lists the generated mutants that change no output, with the reason for each.

The checkout is copied once into a temporary directory (``TMPDIR`` chooses where);
each mutant is applied to the copy alone and ``pytest -x`` runs its test files there,
under a deadline of ``DEADLINE_S`` seconds. One line per mutant says killed (with the
first failing test), survived, timed out or no verdict (pytest ended otherwise), and
the time taken; a mutant that is not killed but is in ``EQUIVALENT`` shows its reason.
The last line counts the mutants killed, equivalent and not killed. The exit status is
1 if a mutant was neither killed nor equivalent, 2 if an argument is neither a mutant's
name nor a file under ``src/tnspectrum/``, or an old text is stale.

Usage: python scripts/mutants.py [NAME | src/tnspectrum/FILE.py ...]
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from bisect import bisect_left
from io import StringIO
from itertools import accumulate, pairwise
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

#: Seconds a mutant's pytest run may take before it counts as timed out.
DEADLINE_S = 300
#: Bytes of address space each process of a mutant's pytest run may map, so that a mutant
#: that allocates without end fails with MemoryError instead of exhausting the machine;
#: every test file passes under it.
MEMORY_LIMIT = 1 << 30

#: The test files that must kill each source file's generated mutants. ``tests/test_mutants.py``
#: is in none: an edit inside a named mutant's old text fails its check there, a kill that
#: tests no behaviour.
TESTS = {
    "src/tnspectrum/__init__.py": "tests/test_api.py tests/test_cli.py",
    "src/tnspectrum/__main__.py": "tests/test_cli.py",
    "src/tnspectrum/cli.py": "tests/test_cli.py",
    "src/tnspectrum/commands.py": "tests/test_cli.py",
    "src/tnspectrum/forked.py": "tests/test_spectrum.py tests/test_acceptance.py",
    "src/tnspectrum/oracle.py": "tests/test_oracle.py tests/test_api.py tests/test_cli.py",
    "src/tnspectrum/partitions.py":
        "tests/test_partitions.py tests/test_acceptance.py tests/test_oracle.py",
    "src/tnspectrum/spectrum.py": "tests/test_spectrum.py",
    "src/tnspectrum/witnesses.py": "tests/test_witnesses.py tests/test_api.py tests/test_cli.py",
}


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: str = ""  # the test files that must kill it, space-separated; "": its file's TESTS


MUTANTS = [
    Mutant('json-mult-as-int', 'src/tnspectrum/cli.py',
           'payload = [[value, str(mult)] for value, mult in pairs]',
           'payload = [[value, mult] for value, mult in pairs]'),
    Mutant('not-an-eigenvalue-note', 'src/tnspectrum/cli.py',
           'note = "" if mult else " (not an eigenvalue)"',
           'note = ""'),
    Mutant('ratio-text', 'src/tnspectrum/commands.py',
           'else f"{ratio.numerator}/{ratio.denominator}"',
           'else f"{ratio.denominator}/{ratio.numerator}"'),
    Mutant('tables-verdict', 'src/tnspectrum/commands.py',
           '"result: all cells PASS" if all_pass',
           '"result: all cells pass" if all_pass'),
    Mutant('agree', 'src/tnspectrum/commands.py',
           'verdict = "AGREE" if report.agreement',
           'verdict = "AGREES" if report.agreement'),
    Mutant('csv-separator', 'src/tnspectrum/cli.py',
           '",".join(str(cell) for cell in row)',
           '";".join(str(cell) for cell in row)'),
    Mutant('max-n-message', 'src/tnspectrum/cli.py',
           'f"{name} exceeds --max-n {args.max_n}"',
           'f"{name} is over --max-n {args.max_n}"'),
    Mutant('edge-line-format', 'src/tnspectrum/commands.py',
           'f"{u} {v}\\n" for u, v in edge_list(graph)',
           'f"{u},{v}\\n" for u, v in edge_list(graph)'),
    Mutant('eig-text', 'src/tnspectrum/commands.py',
           'f"  eigenvalue       {value}"',
           'f"  eigenvalue {value}"'),
    Mutant('witness-verdict', 'src/tnspectrum/commands.py',
           'verdict = "verified" if report.verified',
           'verdict = "ok" if report.verified'),
    Mutant('table-width', 'src/tnspectrum/cli.py',
           'f"{value:>10}  {mult}"',
           'f"{value:>8}  {mult}"'),
    Mutant('unsorted-json', 'src/tnspectrum/cli.py',
           'json.dumps(record, sort_keys=True)',
           'json.dumps(record)'),
    Mutant('dump-oserror-mapping', 'src/tnspectrum/commands.py',
           'except (OSError, ArithmeticError) as exc:',
           'except ArithmeticError as exc:'),
    # at module level, after the names that commands.py imports from cli.py
    Mutant('commands-imported-eagerly', 'src/tnspectrum/cli.py',
           'def run() -> NoReturn:',
           'from . import commands\n\n\ndef run() -> NoReturn:'),
    Mutant('reader-unknown-flag', 'src/tnspectrum/cli.py',
           'keywords = options.get(flag)',
           'keywords = options.get(flag, {"dest": flag})'),
    Mutant('reader-int-for-type', 'src/tnspectrum/cli.py',
           'read[dest], words = keywords["type"](words[0]), words[1:]',
           'read[dest], words = int(words[0]), words[1:]'),
    Mutant('reader-extra-positional', 'src/tnspectrum/cli.py',
           'if words or len(flags) % 2:',
           'if len(flags) % 2:'),
    Mutant('reader-dash-value', 'src/tnspectrum/cli.py',
           'if keywords is None or text.startswith("-"):',
           'if keywords is None:'),
    Mutant('reader-max-n-dropped', 'src/tnspectrum/cli.py',
           'read[keywords["dest"]] = value',
           'read[keywords["dest"]] = value if flag != "--max-n" else DEFAULT_MAX_N'),
    Mutant('out-of-memory-unhandled', 'src/tnspectrum/cli.py',
           'except MemoryError:  # from the command or its rendering',
           'except ():  # from the command or its rendering'),
    Mutant('mult-json-payload', 'src/tnspectrum/cli.py',
           '"multiplicity": str(mult)}',
           '"multiplicity": mult}'),
    Mutant('oracle-json-payload', 'src/tnspectrum/commands.py',
           '"max_deviation": 0.0,  # the graph',
           '"max_deviation": 0,  # the graph'),
    Mutant('oracle-zero-mults-kept', 'src/tnspectrum/oracle.py',
           'zip(values, mults) if mult))',
           'zip(values, mults)))'),
    Mutant('threads-positional', 'src/tnspectrum/spectrum.py',
           'def spectrum(n: int, *, threads: int = 1)',
           'def spectrum(n: int, threads: int = 1)',
           'tests/test_api.py'),
    Mutant('transitivity-proof-skipped', 'src/tnspectrum/oracle.py',
           'for relabel in ((1, 0, *range(2, n)), (*range(1, n), 0)):',
           'for relabel in ():',
           'tests/test_cli.py'),
    Mutant('transposition-relabelling-alone', 'src/tnspectrum/oracle.py',
           'for relabel in ((1, 0, *range(2, n)), (*range(1, n), 0)):',
           'for relabel in ((1, 0, *range(2, n)),):'),
    Mutant('cycle-relabelling-alone', 'src/tnspectrum/oracle.py',
           'for relabel in ((1, 0, *range(2, n)), (*range(1, n), 0)):',
           'for relabel in ((*range(1, n), 0),):'),
    Mutant('edge-dump-after-proof', 'src/tnspectrum/commands.py',
           'if args.dump_edges is not None:',
           'if args.dump_edges is not None and numeric_spectrum(graph):'),
    Mutant('pre-leaf-leaves-skipped', 'src/tnspectrum/spectrum.py',
           'if row < split:',
           'if row < split - 1:'),
    Mutant('pre-leaf-content-shift', 'src/tnspectrum/spectrum.py',
           'shift = content - size + row * (row - 5) // 2',
           'shift = content + row * (row - 5) // 2'),
    Mutant('mirror-dropped', 'src/tnspectrum/spectrum.py',
           'map(add, reversed(strict), strict)',
           'reversed(strict)'),
    Mutant('shard-sort-reversed', 'src/tnspectrum/spectrum.py',
           'keys.sort(key=lambda key: (key[0] * key[1], key[0]))',
           'keys.sort(key=lambda key: (key[0] * key[1], key[0]), reverse=True)'),
    Mutant('fold-ceiling-plus-one', 'src/tnspectrum/spectrum.py',
           'if n > FOLD_MAX_N:',
           'if n > FOLD_MAX_N + 1:'),
    Mutant('invariant-top-value-only', 'src/tnspectrum/spectrum.py',
           'pairs[0] == (self.n * (self.n - 1) // 2, 1)',
           'pairs[0][0] == self.n * (self.n - 1) // 2'),
    Mutant('support-content-shift', 'src/tnspectrum/spectrum.py',
           '<< (top - 1) * size',
           '<< (top - 1) * (size - top)'),
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
    Mutant('reaped-child-raises', 'src/tnspectrum/forked.py',
           'where SIGCHLD is ignored\n                    pass',
           'where SIGCHLD is ignored\n                    raise'),
    Mutant('failed-move-ends-the-fork', 'src/tnspectrum/forked.py',
           'or the child has ended\n                        pass',
           'or the child has ended\n                        raise'),
    Mutant('failed-fork-not-refolded', 'src/tnspectrum/spectrum.py',
           'if not folded:',
           'if workers == 1:'),
    Mutant('reaped-child-killed', 'src/tnspectrum/forked.py',
           'if blobs is None:  # the call raised',
           'if True:  # the call raised'),
    Mutant('zero-n2-guard', 'src/tnspectrum/witnesses.py',
           'if n == 2:',
           'if n == -2:'),
    Mutant('verify-witness-one-skip', 'src/tnspectrum/commands.py',
           'witness_one = "SKIP"',
           'witness_one = "PASS"'),
    Mutant('tables-mismatch-verdict', 'src/tnspectrum/commands.py',
           'else "result: MISMATCH"',
           'else "result: mismatch"'),
    Mutant('verify-failures-verdict', 'src/tnspectrum/commands.py',
           'else "FAILURES found"',
           'else "failures found"'),
    Mutant('oracle-disagree-verdict', 'src/tnspectrum/commands.py',
           'else "DISAGREE"',
           'else "DISAGREES"'),
    Mutant('witness-failed-verdict', 'src/tnspectrum/commands.py',
           'else "FAILED"',
           'else "failed"'),
]


#: The generated mutants that survive because they change no output on any input the
#: program can be given; each entry's name says why. An entry matches a generated mutant
#: that leaves its file the same, whatever text either one keys the edit by.
EQUIVALENT = [
    Mutant("one factorial more than _fold reads: its largest index is n",
           "src/tnspectrum/spectrum.py", "range(1, n + 1), mul", "range(1, n + 2), mul"),
    Mutant("a later child's copy of an earlier child's read end only delays a failed write",
           "src/tnspectrum/forked.py",
           "children.values():\n                            pipe.close()",
           "children.values():\n                            pass"),
    Mutant("a child's exit status is read by no one: its blob alone counts",
           "src/tnspectrum/forked.py", "os._exit(1)", "os._exit(2)"),
    Mutant("a failed child's exit status is read by no one either",
           "src/tnspectrum/forked.py", "os._exit(1)", "os._exit(0)"),
    Mutant("a child that sent its blob ends in the finally's os._exit(1), which no one reads",
           "src/tnspectrum/forked.py", "os._exit(0)", "pass"),
    Mutant("a child that sent its blob may end with status 1: no one reads it",
           "src/tnspectrum/forked.py", "os._exit(0)", "os._exit(1)"),
    Mutant("no CPU count: 0 usable CPUs fold in-process as 1 does, as only 2 or more fork",
           "src/tnspectrum/spectrum.py", "os.cpu_count() or 1", "os.cpu_count() or 0"),
    Mutant("bit 0, the column 1^size, is set by top = 1 at every size anyway",
           "src/tnspectrum/spectrum.py", "bits, sums = 0, [0]", "bits, sums = 1, [0]"),
    Mutant("below[size][0] is read for size 0 alone, which the initial [[1]] holds",
           "src/tnspectrum/spectrum.py", "bits, sums = 0, [0]", "bits, sums = 0, [1]"),
    # _fold: a call's table holds E(x) for x = low..top; the call reads it at x <= top - low + 1,
    # its pre-leaves' leaves at x <= top - 2 low + 2, and the root its own partition at x = top.
    # So a child, whose top is rest, reads its table only up to x = rest, and the root reads its
    # own only up to x = top: a longer E slice, or a root table with E(top + 1), adds entries that
    # no read reaches.
    Mutant("the child's E slice ends past the parent's table, and the child reads it only up to "
           "x = rest", "src/tnspectrum/spectrum.py", "low:top - row + 2 - low]",
           "low:top + row + 2 - low]"),
    Mutant("the child's E slice is one entry longer, and map stops at its end, past x = rest, the "
           "child's last read", "src/tnspectrum/spectrum.py", "low:top - row + 2 - low]",
           "low:top - row + 3 - low]"),
    Mutant("the child's E slice is 2 low entries longer, and map stops at its end, past x = rest, "
           "the child's last read", "src/tnspectrum/spectrum.py", "low:top - row + 2 - low]",
           "low:top - row + 2 + low]"),
    Mutant("the root's table gains E(top + 1), which no read reaches",
           "src/tnspectrum/spectrum.py", "for x in range(s, top + 1)]",
           "for x in range(s, top + 2)]"),
    Mutant("n - size and n + size have the same parity", "src/tnspectrum/witnesses.py",
           "if (n - size) % 2 == 0", "if (n + size) % 2 == 0"),
    Mutant("n - size is odd there, so + 1 and + 2 halve to the same arm",
           "src/tnspectrum/witnesses.py", "(n - size + 1) // 2", "(n - size + 2) // 2"),
    Mutant("the extra candidate -E - 1 is no eigenvalue: its multiplicity is 0 and dropped",
           "src/tnspectrum/oracle.py", "range(top, -top - 1, -1)", "range(top, -top - 2, -1)"),
    Mutant("the first walk gains an entry that the zip and the next step drop",
           "src/tnspectrum/oracle.py", "[0] * (order - 1)", "[0] * (order + 1)"),
    Mutant("the first walk gains an entry that the zip and the next step drop, too",
           "src/tnspectrum/oracle.py", "[0] * (order - 1)", "[0] * (order - 0)"),
    Mutant("the proof is negated, and only whether any entry is nonzero is read",
           "src/tnspectrum/oracle.py", "[p + coefficient * w", "[p - coefficient * w"),
]


#: Each operator token the generator swaps, and what it puts in its place.
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "+": "-", "-": "+",
         "*": "//", "//": "*", "+=": "-=", "-=": "+=", "and": "or", "or": "and"}

SIMPLE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return, ast.Raise, ast.Assert,
          ast.Delete, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)


def _nodes(node):
    """``node`` and the nodes below it, but no import, f-string or def or class line."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        children = node.body
    elif isinstance(node, (ast.Import, ast.ImportFrom, ast.JoinedStr)):
        children = []
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _nodes(child)


def generate(file):
    """The operator mutants of ``file``, a key of ``TESTS``, in the order of their sites."""
    source = (ROOT / file).read_text()
    lines = source.splitlines(keepends=True)
    starts = list(accumulate(map(len, lines), initial=0))

    def at(line, column):  # an ``ast`` position, whose column counts UTF-8 bytes
        return starts[line - 1] + len(lines[line - 1].encode()[:column].decode())

    def start(node):
        return at(node.lineno, node.col_offset)

    def end(node):
        return at(node.end_lineno, node.end_col_offset)

    tokens = [(starts[t.start[0] - 1] + t.start[1], t.string)
              for t in tokenize.generate_tokens(StringIO(source).readline) if t.string in SWAPS]
    edits = []  # (start, end, new text, what the edit does)
    for node in _nodes(ast.parse(source)):
        if isinstance(node, ast.Compare):
            gaps = pairwise([node.left, *node.comparators])
        elif isinstance(node, ast.BinOp):
            gaps = [(node.left, node.right)]
        elif isinstance(node, ast.BoolOp):
            gaps = pairwise(node.values)
        elif isinstance(node, ast.AugAssign):
            gaps = [(node.target, node.value)]
        else:
            gaps = []
        for left, right in gaps:  # the operator is the one swappable token between them
            i = bisect_left(tokens, (end(left), ""))
            if i < len(tokens) and tokens[i][0] < start(right):
                index, old = tokens[i]
                edits.append((index, index + len(old), SWAPS[old], f"{old} -> {SWAPS[old]}"))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            for value in (node.value - 1, node.value + 1):
                if value >= 0:
                    edits.append((start(node), end(node), str(value), f"{node.value} -> {value}"))
        if isinstance(node, SIMPLE) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            edits.append((start(node), end(node), "pass", f"{type(node).__name__} -> pass"))
    mutants = []
    for low, high, text, edit in sorted(edits):
        first, last = source.rfind("\n", 0, low) + 1, source.find("\n", high) + 1 or len(source)
        while source.count(source[first:last]) > 1:  # widen by whole lines until it is unique
            if first:
                first = source.rfind("\n", 0, first - 1) + 1
            else:
                last = source.find("\n", last) + 1 or len(source)
        line = source.count("\n", 0, low) + 1
        column = low - source.rfind("\n", 0, low)
        mutants.append(Mutant(f"{Path(file).name}:{line}:{column} {edit}", file,
                              source[first:last], source[first:low] + text + source[high:last]))
    return mutants


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME | src/tnspectrum/FILE.py",
                        help="run these mutants (default: every named mutant)")
    return parser.parse_args(argv)


def stale(mutants):
    """The mutants whose old text does not occur exactly once in their file."""
    return [m for m in mutants if (ROOT / m.file).read_text().count(m.old) != 1]


def equivalent(mutant):
    """The ``EQUIVALENT`` entry that leaves ``mutant``'s file as ``mutant`` does, or None."""
    source = (ROOT / mutant.file).read_text()
    mutated = source.replace(mutant.old, mutant.new)
    return next((e for e in EQUIVALENT
                 if e.file == mutant.file and source.replace(e.old, e.new) == mutated), None)


def run(mutant, copy):
    """Apply ``mutant`` to ``copy``, run its tests, restore the file: (outcome, first failure)."""
    path = copy / mutant.file
    original = path.read_text()
    path.write_text(original.replace(mutant.old, mutant.new))
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
               *(mutant.tests or TESTS[mutant.file]).split()]
    child = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, start_new_session=True,
                             preexec_fn=lambda: resource.setrlimit(
                                 resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT)))
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
    # 1: a test failed; 2: collection failed; 4: the conftest could not import the package
    if child.returncode not in (1, 2, 4):
        return "no verdict", f"pytest exit status {child.returncode}"
    first = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.M)
    return "killed", first.group(1) if first else "a collection or conftest error"


def main(argv=None):
    args = parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    chosen, refused = [], []
    for arg in args.names:
        path = Path(arg).resolve()
        file = path.relative_to(ROOT).as_posix() if path.is_relative_to(ROOT) else None
        if file in TESTS:
            chosen += generate(file)
        elif arg in known:
            chosen.append(known[arg])
        else:
            refused.append(arg)
    if refused:
        print(f"refused: {', '.join(refused)}: neither a mutant's name nor a file under "
              "src/tnspectrum/", file=sys.stderr)
        return 2
    chosen = chosen if args.names else MUTANTS
    bad = stale(chosen)
    if bad:
        for m in bad:
            print(f"stale: {m.name}: its old text does not occur exactly once in {m.file}",
                  file=sys.stderr)
        return 2
    killed = known_equivalent = failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".perfbench-*"))
        for m in chosen:
            start = time.monotonic()
            outcome, first = run(m, copy)
            entry = outcome != "killed" and equivalent(m)
            if entry:
                first = f"equivalent: {entry.name}"
            killed += outcome == "killed"
            known_equivalent += bool(entry)
            failed += outcome != "killed" and not entry
            seconds = time.monotonic() - start
            print(f"{m.name:36} {outcome:10} {seconds:6.1f} s  {first}", flush=True)
    print(f"{killed} killed, {known_equivalent} equivalent, {failed} not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
