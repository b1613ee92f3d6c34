"""Command-line front end: spectra, witnesses, golden tables, verification, oracle.

Output formats: text (human-readable), json (one record per invocation with
schema {command, n, payload, status}), csv (exactly one header line plus data
rows). Multiplicities are serialized as decimal strings in JSON because they
outgrow 64-bit integers already around n = 21. All output is deterministic:
identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

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
    character_ratio,
    eigenvalue,
    eigenvalue_upper_bound,
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

VERIFY_CHECKS = (
    "largest",
    "second",
    "third",
    "fourth",
    "invariants",
    "bound",
    "witness_zero",
    "witness_one",
)


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


def _emit_json(command: str, n: int, payload, status: str = "ok") -> None:
    record = {"command": command, "n": n, "payload": payload, "status": status}
    print(json.dumps(record, sort_keys=True))


def _emit_csv(header: str, rows) -> None:
    print(header)
    for row in rows:
        print(",".join(str(cell) for cell in row))


def _fail(args, command: str, n: int, message: str, code: int) -> int:
    if args.format == "json":
        _emit_json(command, n, {"message": message}, status="error")
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def cmd_spectrum(args) -> int:
    if args.n > args.max_n:
        return _fail(args, "spectrum", args.n, f"n = {args.n} exceeds --max-n {args.max_n}", 2)
    spec = spectrum(args.n, max_n=args.max_n, threads=args.threads)
    checks = spec.invariant_checks()
    if args.format == "json":
        _emit_json("spectrum", args.n, [[value, str(mult)] for value, mult in spec.entries])
    elif args.format == "csv":
        _emit_csv("eigenvalue,multiplicity", spec.entries)
    else:
        print(f"spectrum of the transposition graph, n = {args.n} ({spec.order} vertices)")
        print("eigenvalue  multiplicity")
        for value, mult in spec.entries:
            print(f"{value:>10}  {mult}")
        print("invariant checks:")
        for name, ok in checks.items():
            print(f"  {name:<34} {'PASS' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 1


def cmd_mult(args) -> int:
    if args.n > args.max_n:
        return _fail(args, "mult", args.n, f"n = {args.n} exceeds --max-n {args.max_n}", 2)
    mult = spectrum(args.n, max_n=args.max_n, threads=args.threads).multiplicity(args.value)
    if args.format == "json":
        _emit_json("mult", args.n, {"eigenvalue": args.value, "multiplicity": str(mult)})
    elif args.format == "csv":
        _emit_csv("n,eigenvalue,multiplicity", [(args.n, args.value, mult)])
    else:
        note = "" if mult else " (not an eigenvalue)"
        print(f"mul({args.value}) = {mult} for n = {args.n}{note}")
    return 0


def cmd_eig(args) -> int:
    try:
        part = Partition(args.parts)
    except ValueError as exc:
        return _fail(args, "eig", sum(args.parts), str(exc), 2)
    if part.n > args.max_n:
        return _fail(args, "eig", part.n, f"n = {part.n} exceeds --max-n {args.max_n}", 2)
    value = eigenvalue(part)
    bound = eigenvalue_upper_bound(part)
    deg = degree(part)
    ratio = character_ratio(part) if part.n >= 2 else None
    ratio_text = None if ratio is None else f"{ratio.numerator}/{ratio.denominator}"
    if args.format == "json":
        _emit_json(
            "eig",
            part.n,
            {
                "partition": list(part.parts),
                "eigenvalue": value,
                "upper_bound": bound,
                "degree": str(deg),
                "character_ratio": ratio_text,
            },
        )
    elif args.format == "csv":
        _emit_csv(
            "n,partition,eigenvalue,upper_bound,degree,character_ratio",
            [(part.n, " ".join(map(str, part.parts)), value, bound, deg, ratio_text or "")],
        )
    else:
        print(f"partition {part.parts} of n = {part.n}")
        print(f"  eigenvalue       {value}")
        print(f"  upper bound      {bound}")
        print(f"  degree           {deg}")
        print(f"  character ratio  {ratio_text if ratio_text is not None else 'undefined for n = 1'}")
    return 0


def cmd_top(args) -> int:
    if args.n > args.max_n:
        return _fail(args, "top", args.n, f"n = {args.n} exceeds --max-n {args.max_n}", 2)
    try:
        pairs = top_eigenvalues(args.n, args.count, max_n=args.max_n, threads=args.threads)
    except ValueError as exc:
        return _fail(args, "top", args.n, str(exc), 1)
    if args.format == "json":
        _emit_json("top", args.n, [[value, str(mult)] for value, mult in pairs])
    elif args.format == "csv":
        _emit_csv("eigenvalue,multiplicity", pairs)
    else:
        print(f"{args.count} largest distinct eigenvalues for n = {args.n}")
        print("eigenvalue  multiplicity")
        for value, mult in pairs:
            print(f"{value:>10}  {mult}")
    return 0


def cmd_witness(args) -> int:
    if args.n > args.max_n:
        return _fail(args, "witness", args.n, f"n = {args.n} exceeds --max-n {args.max_n}", 2)
    try:
        report = verify_witness(args.n, args.target)
    except NoWitnessError as exc:
        return _fail(args, "witness", args.n, str(exc), 1)
    parts = list(report.partition.parts)
    if args.format == "json":
        _emit_json(
            "witness",
            args.n,
            {"partition": parts, "target": report.target, "verified": report.verified},
        )
    elif args.format == "csv":
        _emit_csv(
            "n,target,partition,verified",
            [(args.n, report.target, " ".join(map(str, parts)), report.verified)],
        )
    else:
        verdict = "verified" if report.verified else "FAILED"
        print(
            f"eigenvalue {report.target} witness for n = {report.n}: "
            f"{report.partition.parts} {verdict}"
        )
    return 0 if report.verified else 1


def cmd_tables(args) -> int:
    rows = []
    spectra = {}  # both tables have rows at n = 7, 9 and 11
    for label, golden, target in (
        ("zero", ZERO_MULTIPLICITIES, 0),
        ("one", ONE_MULTIPLICITIES, 1),
    ):
        for n in sorted(golden):
            if n not in spectra:
                spectra[n] = spectrum(n, max_n=args.max_n, threads=args.threads)
            computed = spectra[n].multiplicity(target)
            status = "PASS" if computed == golden[n] else "FAIL"
            rows.append((label, n, golden[n], computed, status))
    all_pass = all(row[4] == "PASS" for row in rows)
    top_n = max(max(ZERO_MULTIPLICITIES), max(ONE_MULTIPLICITIES))
    if args.format == "json":
        payload = {
            "rows": [
                {"table": label, "n": n, "expected": str(e), "computed": str(c), "status": s}
                for label, n, e, c, s in rows
            ],
            "all_pass": all_pass,
        }
        _emit_json("tables", top_n, payload)
    elif args.format == "csv":
        _emit_csv("table,n,expected,computed,status", rows)
    else:
        print("golden multiplicity tables (eigenvalues zero and one)")
        print(f"{'table':<6} {'n':>3} {'expected':>20} {'computed':>20} status")
        for label, n, expected, computed, status in rows:
            print(f"{label:<6} {n:>3} {expected:>20} {computed:>20} {status}")
        print("result: all cells PASS" if all_pass else "result: MISMATCH")
    return 0 if all_pass else 1


def _verify_row(n: int, max_n: int, threads: int) -> dict[str, bool | None]:
    spec = spectrum(n, max_n=max_n, threads=threads)
    top = spec.entries
    row: dict[str, bool | None] = {}
    row["largest"] = top[0] == (n * (n - 1) // 2, 1)
    row["second"] = top[1] == (n * (n - 3) // 2, (n - 1) ** 2)
    row["third"] = top[2] == ((n - 1) * (n - 4) // 2, (n * (n - 3) // 2) ** 2)
    # the fourth-largest formula needs n > 6: at n = 6 a second partition
    # shares the value and inflates the multiplicity
    row["fourth"] = (
        None if n <= 6 else top[3] == (n * (n - 5) // 2, ((n - 1) * (n - 2) // 2) ** 2)
    )
    row["invariants"] = all(spec.invariant_checks().values())
    row["bound"] = all(
        eigenvalue(p) <= eigenvalue_upper_bound(p) for p in enumerate_partitions(n, max_n)
    )
    row["witness_zero"] = verify_witness(n, 0).verified
    try:
        row["witness_one"] = verify_witness(n, 1).verified
    except NoWitnessError:
        row["witness_one"] = None
    return row


def cmd_verify(args) -> int:
    if args.n_max < 4:
        return _fail(args, "verify", args.n_max, "n_max must be at least 4", 2)
    if args.n_max > args.max_n:
        return _fail(args, "verify", args.n_max, f"n_max exceeds --max-n {args.max_n}", 2)
    rows = {n: _verify_row(n, args.max_n, args.threads) for n in range(4, args.n_max + 1)}

    def status(flag):
        return "SKIP" if flag is None else ("PASS" if flag else "FAIL")

    all_pass = all(flag is not False for row in rows.values() for flag in row.values())
    if args.format == "json":
        payload = {
            "rows": [
                {"n": n, "checks": {name: status(row[name]) for name in VERIFY_CHECKS}}
                for n, row in rows.items()
            ],
            "all_pass": all_pass,
        }
        _emit_json("verify", args.n_max, payload)
    elif args.format == "csv":
        _emit_csv(
            "n,check,status",
            [(n, name, status(row[name])) for n, row in rows.items() for name in VERIFY_CHECKS],
        )
    else:
        print(f"{'n':>4}  " + "  ".join(f"{name:>12}" for name in VERIFY_CHECKS))
        for n, row in rows.items():
            print(f"{n:>4}  " + "  ".join(f"{status(row[name]):>12}" for name in VERIFY_CHECKS))
        verdict = "all checks passed" if all_pass else "FAILURES found"
        print(f"result: {verdict} for n = 4..{args.n_max}")
    return 0 if all_pass else 1


def cmd_oracle(args) -> int:
    graph = build_graph(args.n)
    try:
        if args.dump_edges:
            with open(args.dump_edges, "w", encoding="ascii") as handle:
                for u, v in edge_list(graph):
                    handle.write(f"{u} {v}\n")
        numeric = numeric_spectrum(graph, integer_tolerance=args.tolerance)
        report = compare(spectrum(args.n), numeric, tolerance=args.tolerance)
    except (OSError, ArithmeticError) as exc:
        return _fail(args, "oracle", args.n, str(exc), 2)
    if args.format == "json":
        payload = {
            "order": graph.order,
            "agreement": report.agreement,
            "max_deviation": report.max_deviation,
            "discrepancies": [
                [value, str(exact_mult), str(numeric_mult)]
                for value, exact_mult, numeric_mult in report.discrepancies
            ],
        }
        _emit_json("oracle", args.n, payload)
    elif args.format == "csv":
        _emit_csv(
            "n,order,agreement,max_deviation",
            [(args.n, graph.order, report.agreement, report.max_deviation)],
        )
    else:
        edges = int(graph.adjacency.sum()) // 2
        print(f"oracle check, n = {args.n}: {graph.order} vertices, {edges} edges")
        verdict = "AGREE" if report.agreement else "DISAGREE"
        print(f"numeric vs exact spectrum: {verdict} (max deviation {report.max_deviation:.3e})")
        for value, exact_mult, numeric_mult in report.discrepancies:
            print(f"  eigenvalue {value}: exact multiplicity {exact_mult}, numeric {numeric_mult}")
    return 0 if report.agreement else 1


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
        "shard count and used from n = 50 on (output is unchanged)",
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
