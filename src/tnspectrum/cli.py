"""Command-line front end: spectra, witnesses, golden tables, verification, oracle.

Output formats: text (human-readable), json (one record per invocation with
schema {command, n, payload, status}), csv (exactly one header line plus data
rows). Multiplicities are serialized as decimal strings in JSON because they
outgrow 64-bit integers already around n = 21. All output is deterministic:
identical invocations produce byte-identical bytes.

Each ``cmd_*`` returns an ``Output`` holding its JSON payload, CSV rows and
text lines, or raises ``CommandError`` for a documented failure. ``main`` is
the one place that picks the format, builds the JSON record and prints, so
every command's result and error take the same path.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NamedTuple

from . import __version__
from .oracle import (
    ORACLE_MAX_N,
    ORACLE_MIN_N,
    build_graph,
    check_tolerance,
    compare,
    edge_list,
    numeric_spectrum,
)
from .partitions import DEFAULT_MAX_N, Partition, degree, enumerate_partitions
from .spectrum import (
    FOLD_MAX_N,
    PARALLEL_MIN_N,
    character_ratio,
    eigenvalue,
    eigenvalue_upper_bound,
    multiplicity,
    spectrum,
    top_eigenvalues,
)
from .witnesses import NoWitnessError, verify_witness

#: Known multiplicities of the eigenvalue zero, keyed by n (n = 2 has none).
ZERO_MULTIPLICITIES = {
    1: 1,
    3: 4,
    4: 4,
    5: 36,
    6: 256,
    7: 400,
    8: 9864,
    9: 6664,
    10: 790528,
    11: 1474848,
}

#: Known multiplicities of the eigenvalue one, keyed by n.
ONE_MULTIPLICITIES = {
    7: 441,
    9: 46656,
    11: 3052225,
    13: 87609600,
    15: 2701400625,
    17: 3928998225152,
    14: 566130565,
    16: 301532774400,
    18: 274422662958600,
    20: 86181028874240000,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _oracle_n(text: str) -> int:
    value = int(text)
    if not ORACLE_MIN_N <= value <= ORACLE_MAX_N:
        raise argparse.ArgumentTypeError(
            f"oracle supports {ORACLE_MIN_N} <= n <= {ORACLE_MAX_N} only (n! vertices)"
        )
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    try:
        check_tolerance(value)
    except ValueError:
        raise argparse.ArgumentTypeError("tolerance must satisfy 0 < tolerance < 0.5") from None
    return value


class Output(NamedTuple):
    """What one command produced; ``main`` renders it in the requested format."""

    n: int
    payload: object  # the JSON record's payload
    header: str  # the CSV header line
    rows: list  # the CSV data rows
    lines: list  # the text lines
    code: int = 0


class CommandError(Exception):
    """A documented failure, raised as ``CommandError(n, message, exit_status)``."""


def _check_max_n(args, n: int, name: str | None = None, fold: bool = False) -> None:
    """The resource guard of every command that enumerates partitions of ``n``, or folds them."""
    name = name or f"n = {n}"
    if n > args.max_n:
        raise CommandError(n, f"{name} exceeds --max-n {args.max_n}", 2)
    if fold and n > FOLD_MAX_N:
        raise CommandError(n, f"{name} exceeds the fold ceiling {FOLD_MAX_N}", 2)


def _run_fold(args, query, n: int, *rest):
    """``query(n, *rest)`` behind the resource guards: every fold a command asks for."""
    _check_max_n(args, n, fold=True)
    return query(n, *rest, max_n=args.max_n, threads=args.threads)


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _eigen_table(n: int, pairs, title: str, extra_lines=(), code: int = 0) -> Output:
    """The eigenvalue/multiplicity table that ``spectrum`` and ``top`` print."""
    payload = [[value, str(mult)] for value, mult in pairs]
    table = [f"{value:>10}  {mult}" for value, mult in pairs]
    lines = [title, "eigenvalue  multiplicity", *table, *extra_lines]
    return Output(n, payload, "eigenvalue,multiplicity", pairs, lines, code)


def cmd_spectrum(args) -> Output:
    spec = _run_fold(args, spectrum, args.n)
    checks = spec.invariant_checks()
    return _eigen_table(
        args.n,
        spec.entries,
        f"spectrum of the transposition graph, n = {args.n} ({spec.order} vertices)",
        ["invariant checks:", *(f"  {name:<34} {_pass(ok)}" for name, ok in checks.items())],
        0 if all(checks.values()) else 1,
    )


def cmd_mult(args) -> Output:
    mult = _run_fold(args, multiplicity, args.n, args.value)
    note = "" if mult else " (not an eigenvalue)"
    return Output(
        args.n,
        {"eigenvalue": args.value, "multiplicity": str(mult)},
        "n,eigenvalue,multiplicity",
        [(args.n, args.value, mult)],
        [f"mul({args.value}) = {mult} for n = {args.n}{note}"],
    )


def cmd_eig(args) -> Output:
    try:
        part = Partition(args.parts)
    except ValueError as exc:
        raise CommandError(sum(args.parts), str(exc), 2) from exc
    _check_max_n(args, part.n)
    value = eigenvalue(part)
    bound = eigenvalue_upper_bound(part)
    try:
        deg = degree(part)
    except (MemoryError, OverflowError) as exc:
        raise CommandError(part.n, f"out of memory at n = {part.n}", 2) from exc
    ratio = character_ratio(part) if part.n >= 2 else None
    ratio_text = None if ratio is None else f"{ratio.numerator}/{ratio.denominator}"
    return Output(
        part.n,
        {
            "partition": list(part),
            "eigenvalue": value,
            "upper_bound": bound,
            "degree": str(deg),
            "character_ratio": ratio_text,
        },
        "n,partition,eigenvalue,upper_bound,degree,character_ratio",
        [(part.n, " ".join(map(str, part)), value, bound, deg, ratio_text or "")],
        [
            f"partition {tuple(part)} of n = {part.n}",
            f"  eigenvalue       {value}",
            f"  upper bound      {bound}",
            f"  degree           {deg}",
            f"  character ratio  {ratio_text if ratio_text is not None else 'undefined for n = 1'}",
        ],
    )


def cmd_top(args) -> Output:
    try:
        pairs = _run_fold(args, top_eigenvalues, args.n, args.count)
    except ValueError as exc:
        raise CommandError(args.n, str(exc), 1) from exc
    title = f"{args.count} largest distinct eigenvalues for n = {args.n}"
    return _eigen_table(args.n, pairs, title)


def cmd_witness(args) -> Output:
    _check_max_n(args, args.n)
    try:
        report = verify_witness(args.n, args.target)
        parts = list(report.partition)
        verdict = "verified" if report.verified else "FAILED"
        return Output(
            args.n,
            {"partition": parts, "target": report.target, "verified": report.verified},
            "n,target,partition,verified",
            [(args.n, report.target, " ".join(map(str, parts)), report.verified)],
            [
                f"eigenvalue {report.target} witness for n = {report.n}: "
                f"{tuple(report.partition)} {verdict}"
            ],
            0 if report.verified else 1,
        )
    except NoWitnessError as exc:
        raise CommandError(args.n, str(exc), 1) from exc
    except (MemoryError, OverflowError) as exc:
        raise CommandError(args.n, f"out of memory at n = {args.n}", 2) from exc


def cmd_tables(args) -> Output:
    top_n = max(max(ZERO_MULTIPLICITIES), max(ONE_MULTIPLICITIES))
    _check_max_n(args, top_n)
    rows = []
    for label, golden, target in (
        ("zero", ZERO_MULTIPLICITIES, 0),
        ("one", ONE_MULTIPLICITIES, 1),
    ):
        for n in sorted(golden):
            computed = _run_fold(args, multiplicity, n, target)
            rows.append((label, n, golden[n], computed, _pass(computed == golden[n])))
    all_pass = all(row[4] == "PASS" for row in rows)
    return Output(
        top_n,
        {
            "rows": [
                {"table": label, "n": n, "expected": str(e), "computed": str(c), "status": s}
                for label, n, e, c, s in rows
            ],
            "all_pass": all_pass,
        },
        "table,n,expected,computed,status",
        rows,
        [
            "golden multiplicity tables (eigenvalues zero and one)",
            f"{'table':<6} {'n':>3} {'expected':>20} {'computed':>20} status",
            *(
                f"{label:<6} {n:>3} {expected:>20} {computed:>20} {status}"
                for label, n, expected, computed, status in rows
            ),
            "result: all cells PASS" if all_pass else "result: MISMATCH",
        ],
        0 if all_pass else 1,
    )


def _verify_row(args, n: int) -> dict[str, str]:
    """PASS, FAIL or SKIP for each check at ``n``, in column order."""
    spec = _run_fold(args, spectrum, n)
    top = spec.entries
    checks = spec.invariant_checks()
    try:
        witness_one = _pass(verify_witness(n, 1).verified)
    except NoWitnessError:
        witness_one = "SKIP"
    partitions = enumerate_partitions(n, args.max_n)  # the default guard is 80, not --max-n
    return {
        "largest": _pass(checks["largest_eigenvalue_is_simple"]),
        "second": _pass(top[1] == (n * (n - 3) // 2, (n - 1) ** 2)),
        "third": _pass(top[2] == ((n - 1) * (n - 4) // 2, (n * (n - 3) // 2) ** 2)),
        # the fourth-largest formula needs n > 6: at n = 6 a second partition
        # shares the value and inflates the multiplicity
        "fourth": "SKIP"
        if n <= 6
        else _pass(top[3] == (n * (n - 5) // 2, ((n - 1) * (n - 2) // 2) ** 2)),
        "invariants": _pass(all(checks.values())),
        "bound": _pass(all(eigenvalue(p) <= eigenvalue_upper_bound(p) for p in partitions)),
        "witness_zero": _pass(verify_witness(n, 0).verified),
        "witness_one": witness_one,
    }


def cmd_verify(args) -> Output:
    if args.n_max < 4:
        raise CommandError(args.n_max, "n_max must be at least 4", 2)
    _check_max_n(args, args.n_max, "n_max", fold=True)
    rows = {n: _verify_row(args, n) for n in range(4, args.n_max + 1)}
    all_pass = all(status != "FAIL" for row in rows.values() for status in row.values())
    verdict = "all checks passed" if all_pass else "FAILURES found"
    return Output(
        args.n_max,
        {"rows": [{"n": n, "checks": row} for n, row in rows.items()], "all_pass": all_pass},
        "n,check,status",
        [(n, name, status) for n, row in rows.items() for name, status in row.items()],
        [
            f"{'n':>4}  " + "  ".join(f"{name:>12}" for name in rows[4]),
            *(f"{n:>4}  " + "  ".join(f"{s:>12}" for s in row.values()) for n, row in rows.items()),
            f"result: {verdict} for n = 4..{args.n_max}",
        ],
        0 if all_pass else 1,
    )


def cmd_oracle(args) -> Output:
    exact = _run_fold(args, spectrum, args.n)  # before the graph, so a refusal builds nothing
    graph = build_graph(args.n)
    try:
        if args.dump_edges:
            with open(args.dump_edges, "w", encoding="ascii") as handle:
                for u, v in edge_list(graph):
                    handle.write(f"{u} {v}\n")
        numeric = numeric_spectrum(graph)
        report = compare(exact, numeric, tolerance=args.tolerance)
    except (OSError, ArithmeticError) as exc:
        raise CommandError(args.n, str(exc), 2) from exc
    edges = int(graph.sum()) // 2
    verdict = "AGREE" if report.agreement else "DISAGREE"
    return Output(
        args.n,
        {
            "order": len(graph),
            "agreement": report.agreement,
            "max_deviation": report.max_deviation,
            "discrepancies": [
                [value, str(exact_mult), str(numeric_mult)]
                for value, exact_mult, numeric_mult in report.discrepancies
            ],
        },
        "n,order,agreement,max_deviation",
        [(args.n, len(graph), report.agreement, report.max_deviation)],
        [
            f"oracle check, n = {args.n}: {len(graph)} vertices, {edges} edges",
            f"numeric vs exact spectrum: {verdict} (max deviation {report.max_deviation:.3e})",
            *(
                f"  eigenvalue {value}: exact multiplicity {exact_mult}, numeric {numeric_mult}"
                for value, exact_mult, numeric_mult in report.discrepancies
            ),
        ],
        0 if report.agreement else 1,
    )


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", help="output format"
    )
    shared.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="worker processes for spectrum assembly, capped at the CPU count and the "
        f"shard count and used from n = {PARALLEL_MIN_N} on (output is unchanged)",
    )
    shared.add_argument(
        "--max-n",
        dest="max_n",
        type=_positive_int,
        default=DEFAULT_MAX_N,
        help="partition-enumeration resource guard",
    )

    parser = argparse.ArgumentParser(
        prog="tnspec",
        description="Exact spectra of transposition graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[shared], help="full spectrum with exact multiplicities")
    p.add_argument("n", type=_positive_int)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("mult", parents=[shared], help="multiplicity of one eigenvalue")
    p.add_argument("n", type=_positive_int)
    p.add_argument("value", type=int)
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("eig", parents=[shared], help="eigenvalue data for one partition")
    p.add_argument("parts", type=int, nargs="+", metavar="part")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("top", parents=[shared], help="largest distinct eigenvalues")
    p.add_argument("n", type=_positive_int)
    p.add_argument("count", type=_positive_int)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "witness", parents=[shared], help="closed-form witness partition for a small eigenvalue"
    )
    p.add_argument("n", type=_positive_int)
    p.add_argument("target", type=int)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser(
        "tables", parents=[shared], help="recompute the golden zero/one multiplicity tables"
    )
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", parents=[shared], help="per-n verification matrix up to n_max")
    p.add_argument("n_max", type=_positive_int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "oracle",
        parents=[shared],
        help=f"brute-force graph cross-check ({ORACLE_MIN_N} <= n <= {ORACLE_MAX_N})",
    )
    p.add_argument("n", type=_oracle_n)
    p.add_argument(
        "--tolerance",
        type=_tolerance,
        default=1e-6,
        help="integer-proximity tolerance, 0 < X < 0.5",
    )
    p.add_argument(
        "--dump-edges",
        metavar="PATH",
        help="write the edge list to PATH (zero-based ranks, one 'u v' pair per line, u < v)",
    )
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    """Run one command and render its output, or its error record, in ``--format``."""
    args = build_parser().parse_args(argv)
    # argv parses under the int-to-str digit limit; degrees and sums of parts may exceed it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            out = args.func(args)
        except CommandError as exc:
            n, message, code = exc.args
            payload, status = {"message": message}, "error"
            lines, stream = [f"error: {message}"], sys.stderr
        else:
            n, payload, status, code = out.n, out.payload, "ok", out.code
            lines, stream = out.lines, sys.stdout
            if args.format == "csv":
                lines = [out.header, *(",".join(str(cell) for cell in row) for row in out.rows)]
        if args.format == "json":
            record = {"command": args.command, "n": n, "payload": payload, "status": status}
            print(json.dumps(record, sort_keys=True))
        else:
            print(*lines, sep="\n", file=stream)
        return code
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
