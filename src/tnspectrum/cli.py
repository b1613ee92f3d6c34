"""Command-line front end: the argv reader, the renderer and the fold commands.

Output formats: text (human-readable), json (one record per invocation with
schema {command, n, payload, status}), csv (exactly one header line plus data
rows). Multiplicities are serialized as decimal strings in JSON because they
outgrow 64-bit integers already around n = 21. All output is deterministic:
identical invocations produce byte-identical bytes.

Each ``cmd_*`` returns an ``Output`` holding its JSON payload, CSV rows and
text lines, or raises ``CommandError`` for a documented failure. ``main`` is
the one place that picks the format, builds the JSON record and prints, so
every command's result and error take the same path. Running out of memory ends in
status 2 either way: ``cmd_eig`` and ``cmd_witness`` turn a ``MemoryError`` (or an
``OverflowError``) into the error record ``out of memory at n = N`` in the requested
format, and any other ``MemoryError``, from another command or from rendering its
output, ends in the plain line ``error: out of memory`` on stderr, whatever the format.

``run`` is the process entry of ``tnspec`` and ``python -m tnspectrum``, the only two:
it calls ``main`` and ends the process once the output is flushed. Library and test
callers use ``main(argv)``, which returns the exit status.

Start-up imports only what every command needs, and this module holds only what
the three fold commands ``spectrum``, ``mult`` and ``top`` run. The other five
commands and ``build_parser`` live in ``tnspectrum.commands``, which ``main``
imports only to run one of them or to parse with argparse; ``COMMANDS`` names
each command's function, and ``main`` runs the one that ``command_function``
finds. ``json``, the oracle and the witness constructions are imported by the
code that uses them, so a command loads no module it does not run. ``argparse``
too is imported only when it is needed: ``main`` first reads the argv shape that
scripts write, the subcommand, then exactly its positionals, then options spelled
in full, each with its value, through the same type functions argparse would
call. Help, ``--version``, usage errors and every other spelling go to
``build_parser`` and argparse alone.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from .partitions import ORACLE_MAX_N, ORACLE_MIN_N
from .spectrum import FOLD_MAX_N, multiplicity, spectrum, top_eigenvalues

#: The default of ``--max-n``; p(80) is already ~1.6e7 partitions.
DEFAULT_MAX_N = 80


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError("must be a positive integer")
    return value


def _oracle_n(text: str) -> int:
    value = int(text)
    if not ORACLE_MIN_N <= value <= ORACLE_MAX_N:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(
            f"oracle supports {ORACLE_MIN_N} <= n <= {ORACLE_MAX_N} only (n! vertices)"
        )
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
    """The ``--max-n`` guard of every command; with ``fold``, the fold ceiling too."""
    name = name or f"n = {n}"
    if n > args.max_n:
        raise CommandError(n, f"{name} exceeds --max-n {args.max_n}", 2)
    if fold and n > FOLD_MAX_N:
        raise CommandError(n, f"{name} exceeds the fold ceiling {FOLD_MAX_N}", 2)


def _run_fold(args, query, n: int, *rest):
    """``query(n, *rest)`` behind the resource guards, on every worker ``spectrum`` allows.

    ``sys.maxsize`` is no cap: ``spectrum`` alone reads the usable CPUs and caps there.
    """
    _check_max_n(args, n, fold=True)
    return query(n, *rest, threads=sys.maxsize)


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


def cmd_top(args) -> Output:
    try:
        pairs = _run_fold(args, top_eigenvalues, args.n, args.count)
    except ValueError as exc:
        raise CommandError(args.n, str(exc), 1) from exc
    title = f"{args.count} largest distinct eigenvalues for n = {args.n}"
    return _eigen_table(args.n, pairs, title)


#: The options every subcommand takes; each names its ``dest``, which the argv reader sets.
SHARED_OPTIONS = {
    "--format": {
        "dest": "format",
        "choices": ("text", "json", "csv"),
        "default": "text",
        "help": "output format",
    },
    "--max-n": {
        "dest": "max_n",
        "type": _positive_int,
        "default": DEFAULT_MAX_N,
        "help": "partition-enumeration resource guard",
    },
}

_POSITIVE = {"type": _positive_int}
_INTEGER = {"type": int}

#: Each subcommand, in ``--help`` order: its function (for the five that ``commands``
#: holds, that function's name there), its help line, and its positionals and its own
#: options, each mapped to the keywords of its ``add_argument`` call.
#: ``build_parser`` and the argv reader both read this.
COMMANDS = {
    "spectrum": (cmd_spectrum, "full spectrum with exact multiplicities", {"n": _POSITIVE}, {}),
    "mult": (cmd_mult, "multiplicity of one eigenvalue", {"n": _POSITIVE, "value": _INTEGER}, {}),
    "eig": (
        "cmd_eig",
        "eigenvalue data for one partition",
        {"parts": {"type": int, "nargs": "+", "metavar": "part"}},
        {},
    ),
    "top": (cmd_top, "largest distinct eigenvalues", {"n": _POSITIVE, "count": _POSITIVE}, {}),
    "witness": (
        "cmd_witness",
        "closed-form witness partition for a small eigenvalue",
        {"n": _POSITIVE, "target": _INTEGER},
        {},
    ),
    "tables": ("cmd_tables", "recompute the golden zero/one multiplicity tables", {}, {}),
    "verify": ("cmd_verify", "per-n verification matrix up to n_max", {"n_max": _POSITIVE}, {}),
    "oracle": (
        "cmd_oracle",
        f"brute-force graph cross-check ({ORACLE_MIN_N} <= n <= {ORACLE_MAX_N})",
        {"n": {"type": _oracle_n}},
        {
            "--dump-edges": {
                "dest": "dump_edges",
                "metavar": "PATH",
                "help": "write the edge list to PATH "
                "(zero-based ranks, one 'u v' pair per line, u < v)",
            }
        },
    ),
}


def command_function(name: str):
    """The function that runs the subcommand ``name``, imported from ``commands`` if it is there."""
    func = COMMANDS[name][0]
    if isinstance(func, str):
        from . import commands

        func = getattr(commands, func)
    return func


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` returns, for the argv shape scripts write.

    That shape is the subcommand, then exactly its positionals, then options spelled in
    full, each followed by its value, and no token after the subcommand that starts with
    ``-`` but an option's name. Any other argv, or a value that its type function or
    ``choices`` refuses, reads as ``None``, and argparse reports it or parses it instead.
    """
    try:
        _, _, positionals, own = COMMANDS[argv[0]]
        rest = argv[1:]
        split = next((i for i, token in enumerate(rest) if token.startswith("-")), len(rest))
        words, flags = rest[:split], rest[split:]
        read = {"command": argv[0]}
        for dest, keywords in positionals.items():
            if not words:
                return None
            if keywords.get("nargs") == "+":  # every word left
                read[dest], words = [keywords["type"](word) for word in words], []
            else:
                read[dest], words = keywords["type"](words[0]), words[1:]
        if words or len(flags) % 2:
            return None
        options = {**SHARED_OPTIONS, **own}
        read.update((keywords["dest"], keywords.get("default")) for keywords in options.values())
        for flag, text in zip(flags[::2], flags[1::2]):
            keywords = options.get(flag)
            if keywords is None or text.startswith("-"):
                return None
            value = keywords.get("type", str)(text)
            if value not in keywords.get("choices", (value,)):
                return None
            read[keywords["dest"]] = value
    except Exception:  # noqa: BLE001 - argparse reports the error, or raises it, as before
        return None
    return SimpleNamespace(**read)


def main(argv=None) -> int:
    """Run one command and render its output, or its error record, in ``--format``."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_argv(argv)
    if args is None:
        from .commands import build_parser

        args = build_parser().parse_args(argv)
    # argv parses under the int-to-str digit limit; degrees and sums of parts may exceed it
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        try:
            out = command_function(args.command)(args)
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
            import json

            record = {"command": args.command, "n": n, "payload": payload, "status": status}
            text, stream = json.dumps(record, sort_keys=True), sys.stdout
        else:
            text = "\n".join(lines)
        if stream is not None:  # None when the process started with the descriptor closed
            stream.write(text + "\n")  # one write, however many lines
        return code
    except MemoryError:  # from the command or its rendering: no record is built
        if sys.stderr is not None:
            sys.stderr.write("error: out of memory\n")
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


def run() -> NoReturn:
    """The process entry of ``tnspec``: run ``main`` and end once its output is flushed.

    ``os._exit`` skips the interpreter's teardown, which frees every module and object
    that the OS reclaims anyway. A failed write, whether ``main``'s or the last flush's,
    ends the process with status 2: a closed pipe on stdout or stderr silently, any other
    failure after one ``error:`` line on stderr if that can still be written. Any other
    exception from ``main``, argparse's ``SystemExit`` among them, takes the ordinary exit.
    """
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError) and sys.stderr is not None:
            try:  # stderr is line-buffered, or unbuffered: the line is out before _exit
                sys.stderr.write(f"error: {exc.strerror or exc}\n")
            except OSError:
                pass
        os._exit(2)
    os._exit(code)
