"""Output checks for every ``tnspec`` invocation the benchmark makes.

None of them uses the hook-length formula. Spectra are checked by their
moments (sum of multiplicities n!, trace 0, square trace n!·C(n,2)), their
symmetry about zero and the closed forms of the four largest eigenvalues;
single partitions by the branching rule f(λ) = Σ f(λ − corner) and the content
sum; everything else against golden values or the program's own verdicts.
"""

from __future__ import annotations

import ast
import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import ONE_MULTIPLICITIES, ZERO_MULTIPLICITIES, option, positional_ints

VERIFY_CHECKS = 8


def check(argv, code: int, out: str, err: str, workdir: Path) -> list[str]:
    """Problems found in one invocation's exit code and output; empty when correct."""
    fmt = option(argv, "--format", "text")
    command, args = argv[0], positional_ints(argv)
    try:
        if (command, args) in (("spectrum", [81]), ("eig", [1, 2])):
            n = sum(args) if command == "eig" else args[0]
            return _check_error(command, n, fmt, code, out, err)
        if code != 0:
            return [f"exit status {code}, stderr {err.strip()[-200:]!r}"]
        payload = _json_payload(command, out, args) if fmt == "json" else None
        return CHECKERS[command](fmt, args, argv, out, payload, workdir)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, SyntaxError,
            OSError) as exc:
        return [f"{' '.join(argv)}: unreadable output or edge file: {exc!r}"]


def _json_payload(command: str, out: str, args):
    record = json.loads(out)
    if out != json.dumps(record, sort_keys=True) + "\n":
        raise ValueError("not one sorted-key JSON record")
    if record["command"] != command or record["status"] != "ok":
        raise ValueError(f"record header {record['command']!r}/{record['status']!r}")
    if command not in ("tables", "eig") and record["n"] != args[0]:
        raise ValueError(f"record n = {record['n']}")
    return record["payload"]


def _csv_rows(out: str, header: str) -> list[list[str]]:
    lines = out.splitlines()
    if not lines or lines[0] != header or header in lines[1:]:
        raise ValueError(f"csv header {lines[:1]!r} is not exactly one {header!r} line")
    return [line.split(",") for line in lines[1:]]


def _check_error(command, n, fmt, code, out, err) -> list[str]:
    problems = [] if code == 2 else [f"documented error exited {code}, not 2"]
    if fmt == "json":
        record = json.loads(out) if out else {}
        if set(record) != {"command", "n", "payload", "status"} or (
            record["command"], record["n"], record["status"]) != (command, n, "error") or (
            not isinstance(record["payload"].get("message"), str)):
            problems.append(f"not the documented error record: {out!r}")
    elif out or not err.startswith("error: "):
        problems.append(f"expected only 'error: ...' on stderr, got stdout {out!r}")
    return problems


# ----------------------------------------------------------------- spectra

def closed_form_top(n: int) -> list[tuple[int, int]]:
    """The largest eigenvalues with multiplicities; the fourth only for n > 6."""
    top = [
        (n * (n - 1) // 2, 1),
        (n * (n - 3) // 2, (n - 1) ** 2),
        ((n - 1) * (n - 4) // 2, (n * (n - 3) // 2) ** 2),
    ]
    if n > 6:
        top.append((n * (n - 5) // 2, ((n - 1) * (n - 2) // 2) ** 2))
    return top


def spectrum_problems(n: int, entries: list[tuple[int, int]]) -> list[str]:
    fact = math.factorial(n)
    lookup = dict(entries)
    top = closed_form_top(n)
    facts = {
        "values distinct and descending": all(a[0] > b[0] for a, b in zip(entries, entries[1:])),
        "multiplicities positive": all(m > 0 for _, m in entries),
        "sum of multiplicities is n!": sum(m for _, m in entries) == fact,
        "trace is 0": sum(v * m for v, m in entries) == 0,
        "square trace is n!·C(n,2)": sum(v * v * m for v, m in entries) == fact * n * (n - 1) // 2,
        "symmetric about zero": all(lookup.get(-v) == m for v, m in entries),
        "top eigenvalues match closed forms": entries[: len(top)] == top,
    }
    return [f"spectrum n = {n}: {name} fails" for name, ok in facts.items() if not ok]


def _pairs(fmt, out, payload, text_title) -> list[tuple[int, int]]:
    if fmt == "json":
        return [(int(v), int(m)) for v, m in payload]
    if fmt == "csv":
        return [(int(v), int(m)) for v, m in _csv_rows(out, "eigenvalue,multiplicity")]
    lines = out.splitlines()
    if lines[0] != text_title or lines[1] != "eigenvalue  multiplicity":
        raise ValueError(f"text header {lines[:2]!r}")
    pairs = []
    for line in lines[2:]:
        if line == "invariant checks:":
            break
        value, mult = line.split()
        pairs.append((int(value), int(mult)))
    return pairs


def _check_spectrum(fmt, args, argv, out, payload, workdir):
    n = args[0]
    title = f"spectrum of the transposition graph, n = {n} ({math.factorial(n)} vertices)"
    problems = spectrum_problems(n, _pairs(fmt, out, payload, title))
    if fmt == "text":
        verdicts = out.split("invariant checks:\n", 1)[1].splitlines()
        if len(verdicts) != 5 or not all(line.endswith(" PASS") for line in verdicts):
            problems.append(f"invariant verdicts {verdicts!r}")
    return problems


def _check_top(fmt, args, argv, out, payload, workdir):
    n, count = args
    title = f"{count} largest distinct eigenvalues for n = {n}"
    pairs = _pairs(fmt, out, payload, title)
    expected = closed_form_top(n)[:count]
    return [] if pairs == expected else [f"top {n} {count}: {pairs} != closed forms {expected}"]


def _check_mult(fmt, args, argv, out, payload, workdir):
    n, value = args
    golden = (ZERO_MULTIPLICITIES if value == 0 else ONE_MULTIPLICITIES)[n]
    if fmt == "json":
        got = (payload["eigenvalue"], int(payload["multiplicity"]))
    elif fmt == "csv":
        (row,) = _csv_rows(out, "n,eigenvalue,multiplicity")
        got = (int(row[1]), int(row[2])) if int(row[0]) == n else None
    else:
        got = (value, golden) if out == f"mul({value}) = {golden} for n = {n}\n" else out
    return [] if got == (value, golden) else [f"mult {n} {value}: {got!r}, golden {golden}"]


# ----------------------------------------------------------- one partition

def content_sum(parts) -> int:
    """Σ (column − row) over the boxes of the Young diagram: the eigenvalue."""
    return sum(row * (row - 1) // 2 - i * row for i, row in enumerate(parts))


def branching_degree(parts, memo=None) -> int:
    """Character degree by the branching rule: f(λ) = Σ f(λ with one corner box removed)."""
    memo = {} if memo is None else memo
    parts = tuple(p for p in parts if p)
    if sum(parts) <= 1:
        return 1
    if parts not in memo:
        memo[parts] = sum(
            branching_degree(parts[:i] + (row - 1,) + parts[i + 1:], memo)
            for i, row in enumerate(parts)
            if i + 1 == len(parts) or parts[i + 1] < row
        )
    return memo[parts]


def _check_eig(fmt, args, argv, out, payload, workdir):
    parts = tuple(args)
    n, k, last = sum(parts), len(parts), parts[-1]
    value = content_sum(parts)
    bound = ((n - last) * (n - last + 1) + last * (last - 2 * k + 1)) // 2
    ratio = Fraction(value, n * (n - 1) // 2) if n >= 2 else None
    ratio_text = None if ratio is None else f"{ratio.numerator}/{ratio.denominator}"
    expected = (list(parts), value, bound, str(branching_degree(parts)), ratio_text)
    if fmt == "json":
        got = (payload["partition"], payload["eigenvalue"], payload["upper_bound"],
               payload["degree"], payload["character_ratio"])
    elif fmt == "csv":
        (row,) = _csv_rows(out, "n,partition,eigenvalue,upper_bound,degree,character_ratio")
        got = (list(map(int, row[1].split())), int(row[2]), int(row[3]), row[4], row[5] or None)
    else:
        head, value_line, bound_line, degree_line, ratio_line = out.splitlines()
        ratio_field = ratio_line.split(None, 2)[2]
        got = (list(ast.literal_eval(head[len("partition "):head.index(" of n")])),
               int(value_line.split()[-1]), int(bound_line.split()[-1]), degree_line.split()[-1],
               None if ratio_field.startswith("undefined") else ratio_field)
    problems = [] if got == expected else [f"eig {parts}: {got!r}, expected {expected!r}"]
    if bound < value:
        problems.append(f"eig {parts}: bound {bound} below eigenvalue {value}")
    return problems


def _check_witness(fmt, args, argv, out, payload, workdir):
    n, target = args
    if fmt == "json":
        parts, got_target, verified = payload["partition"], payload["target"], payload["verified"]
    elif fmt == "csv":
        (row,) = _csv_rows(out, "n,target,partition,verified")
        parts, got_target, verified = list(map(int, row[2].split())), int(row[1]), row[3] == "True"
    else:
        head, _, tail = out.rstrip("\n").rpartition(" ")
        parts = list(ast.literal_eval(head.split(": ", 1)[1]))
        got_target = int(head.split()[1])
        verified = tail == "verified"
    valid = (
        sum(parts) == n
        and all(p > 0 for p in parts)
        and all(a >= b for a, b in zip(parts, parts[1:]))
    )
    if valid and verified and got_target == target and content_sum(parts) == target:
        return []
    return [f"witness {n} {target}: partition {parts} (verified {verified}) is not a witness"]


# ------------------------------------------------------- whole-run verdicts

def _check_tables(fmt, args, argv, out, payload, workdir):
    golden = {("zero", n): m for n, m in ZERO_MULTIPLICITIES.items()}
    golden.update({("one", n): m for n, m in ONE_MULTIPLICITIES.items()})
    if fmt == "json":
        rows = [(r["table"], r["n"], int(r["computed"]), r["status"]) for r in payload["rows"]]
        all_pass = payload["all_pass"] is True
    elif fmt == "csv":
        csv_rows = _csv_rows(out, "table,n,expected,computed,status")
        rows = [(t, int(n), int(c), s) for t, n, _, c, s in csv_rows]
        all_pass = True
    else:
        lines = out.splitlines()
        rows = [(t, int(n), int(c), s) for t, n, _, c, s in map(str.split, lines[2:-1])]
        all_pass = lines[-1] == "result: all cells PASS"
    cells = {(t, n): (c, s) for t, n, c, s in rows}
    if all_pass and len(rows) == len(golden) and all(
        cells.get(key) == (m, "PASS") for key, m in golden.items()
    ):
        return []
    return [f"tables: rows {rows!r} do not all PASS against the golden tables"]


def _check_verify(fmt, args, argv, out, payload, workdir):
    n_max = args[0]
    if fmt == "json":
        statuses = [s for row in payload["rows"] for s in row["checks"].values()]
        ns = [row["n"] for row in payload["rows"]]
        all_pass = payload["all_pass"] is True
    elif fmt == "csv":
        rows = _csv_rows(out, "n,check,status")
        statuses = [row[2] for row in rows]
        ns = sorted({int(row[0]) for row in rows})
        all_pass = True
    else:
        lines = out.splitlines()
        statuses = [s for line in lines[1:-1] for s in line.split()[1:]]
        ns = [int(line.split()[0]) for line in lines[1:-1]]
        all_pass = lines[-1] == f"result: all checks passed for n = 4..{n_max}"
    ok = (
        all_pass
        and ns == list(range(4, n_max + 1))
        and len(statuses) == VERIFY_CHECKS * len(ns)
        and set(statuses) <= {"PASS", "SKIP"}
    )
    return [] if ok else [f"verify {n_max}: not all checks pass"]


def _check_oracle(fmt, args, argv, out, payload, workdir):
    n = args[0]
    order, edges = math.factorial(n), math.factorial(n) * n * (n - 1) // 4
    if fmt == "json":
        ok = (payload["order"], payload["agreement"], payload["discrepancies"]) == (order, True, [])
    elif fmt == "csv":
        (row,) = _csv_rows(out, "n,order,agreement,max_deviation")
        ok = row[:3] == [str(n), str(order), "True"]
    else:
        lines = out.splitlines()
        ok = lines[0] == f"oracle check, n = {n}: {order} vertices, {edges} edges" and (
            lines[1].startswith("numeric vs exact spectrum: AGREE ") and len(lines) == 2)
    problems = [] if ok else [f"oracle {n}: no agreement"]
    dump = option(argv, "--dump-edges")
    if dump:
        problems += _edge_file_problems(workdir / dump, order, edges)
    return problems


def _edge_file_problems(path: Path, order: int, edges: int) -> list[str]:
    lines = path.read_text(encoding="ascii").splitlines()
    pairs = {tuple(map(int, line.split())) for line in lines}
    if not all(0 <= u < v < order for u, v in pairs):
        return [f"{path.name}: an edge is not a pair u < v of ranks below {order}"]
    if len(lines) != edges or len(pairs) != edges:
        return [f"{path.name}: {len(lines)} lines, {len(pairs)} distinct edges, "
                f"expected n!·C(n,2)/2 = {edges}"]
    return []


CHECKERS = {
    "spectrum": _check_spectrum,
    "top": _check_top,
    "mult": _check_mult,
    "eig": _check_eig,
    "witness": _check_witness,
    "tables": _check_tables,
    "verify": _check_verify,
    "oracle": _check_oracle,
}
