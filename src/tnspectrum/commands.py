"""The five commands that fold no query of their own, and the ``argparse`` parser.

``eig``, ``witness``, ``tables``, ``verify`` and ``oracle`` live here, apart from the
three fold commands in ``cli``, so that a ``spectrum``, ``mult`` or ``top`` call never
compiles them: ``cli.main`` imports this module only for one of these five commands, or
for an argv its reader leaves to argparse (help, ``--version`` and usage errors). Each
command imports the witnesses or the oracle itself, when it runs.
"""

from __future__ import annotations

import math

from . import __version__
from .cli import (
    COMMANDS,
    SHARED_OPTIONS,
    CommandError,
    Output,
    _check_max_n,
    _pass,
)
from .partitions import Partition, degree, enumerate_partitions
from .spectrum import (
    eigenvalue,
    eigenvalue_upper_bound,
    multiplicity,
    spectrum,
)

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
    # the character ratio at a transposition is the eigenvalue over the C(n, 2) transpositions
    pairs = part.n * (part.n - 1) // 2
    common = math.gcd(value, pairs)
    ratio_text = f"{value // common}/{pairs // common}" if pairs else None  # none at n = 1
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


def cmd_witness(args) -> Output:
    from .witnesses import NoWitnessError, verify_witness

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
            computed = multiplicity(n, target)
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


def _verify_row(n: int) -> dict[str, str]:
    """PASS, FAIL or SKIP for each check at ``n``, in column order."""
    from .witnesses import NoWitnessError, verify_witness

    spec = spectrum(n)
    checks = spec.invariant_checks()
    try:
        witness_one = _pass(verify_witness(n, 1).verified)
    except NoWitnessError:
        witness_one = "SKIP"
    partitions = enumerate_partitions(n)
    return {
        "largest": _pass(checks["largest_eigenvalue_is_simple"]),
        "second": _pass(spec.entries[1] == (n * (n - 3) // 2, (n - 1) ** 2)),
        "third": _pass(spec.entries[2] == ((n - 1) * (n - 4) // 2, (n * (n - 3) // 2) ** 2)),
        # the fourth-largest formula needs n > 6: at n = 6 a second partition
        # shares the value and inflates the multiplicity
        "fourth": "SKIP"
        if n <= 6
        else _pass(spec.entries[3] == (n * (n - 5) // 2, ((n - 1) * (n - 2) // 2) ** 2)),
        "invariants": _pass(all(checks.values())),
        "bound": _pass(all(eigenvalue(p) <= eigenvalue_upper_bound(p) for p in partitions)),
        "witness_zero": _pass(verify_witness(n, 0).verified),
        "witness_one": witness_one,
    }


def cmd_verify(args) -> Output:
    if args.n_max < 4:
        raise CommandError(args.n_max, "n_max must be at least 4", 2)
    _check_max_n(args, args.n_max, "n_max", fold=True)
    rows = {n: _verify_row(n) for n in range(4, args.n_max + 1)}
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
    from .oracle import build_graph, compare, edge_list, numeric_spectrum

    _check_max_n(args, args.n)  # before the graph, so a refusal builds nothing
    exact = spectrum(args.n)
    graph = build_graph(args.n)
    try:
        if args.dump_edges is not None:  # before the proof: a graph it rejects is still written
            with open(args.dump_edges, "w", encoding="ascii") as handle:
                handle.write("".join(f"{u} {v}\n" for u, v in edge_list(graph)))
        report = compare(exact, numeric_spectrum(graph))
    except (OSError, ArithmeticError) as exc:
        raise CommandError(args.n, str(exc), 2) from exc
    verdict = "AGREE" if report.agreement else "DISAGREE"
    return Output(
        args.n,
        {
            "order": len(graph),
            "agreement": report.agreement,
            "max_deviation": 0.0,  # the graph's spectrum is exact
            "discrepancies": [
                [value, str(exact_mult), str(numeric_mult)]
                for value, exact_mult, numeric_mult in report.discrepancies
            ],
        },
        "n,order,agreement,max_deviation",
        [(args.n, len(graph), report.agreement, 0.0)],
        [
            f"oracle check, n = {args.n}: {len(graph)} vertices, {sum(map(len, graph)) // 2} edges",
            f"numeric vs exact spectrum: {verdict} (max deviation 0.000e+00)",
            *(
                f"  eigenvalue {value}: exact multiplicity {exact_mult}, numeric {numeric_mult}"
                for value, exact_mult, numeric_mult in report.discrepancies
            ),
        ],
        0 if report.agreement else 1,
    )


def build_parser():
    """The ``argparse`` parser of ``tnspec``, built from ``COMMANDS`` and ``SHARED_OPTIONS``."""
    import argparse

    class _Subcommand(argparse.ArgumentParser):
        """A subcommand's parser: an argument it does not know ends in its own usage error.

        The root parser would report it, with the root's usage, after the subcommand returns.
        """

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            return namespace, extras

    shared = argparse.ArgumentParser(add_help=False)  # the options every subcommand takes
    for option, keywords in SHARED_OPTIONS.items():
        shared.add_argument(option, **keywords)
    parser = argparse.ArgumentParser(
        prog="tnspec",
        description="Exact spectra of transposition graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, (_, help_line, positionals, options) in COMMANDS.items():
        p = sub.add_parser(name, parents=[shared], help=help_line)
        for argument, keywords in (*positionals.items(), *options.items()):
            p.add_argument(argument, **keywords)
    return parser
