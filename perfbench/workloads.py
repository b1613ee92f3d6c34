"""Seeded invocation lists for the benchmark workloads.

A run executes one fixed list of ``tnspec`` argument vectors, built from the
workload name, the seed and the run length before any timing starts, so the
input mix never depends on how fast the program is. Lists are made of blocks
whose composition is fixed and whose parameters the seed draws; the block
structure keeps the amount of work per run nearly the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random

FORMATS = ("text", "json", "csv")

#: N range of spectrum-serial: p(38) = 26 015 to p(44) = 75 175 partitions.
SPECTRUM_NS = tuple(range(38, 45))

#: Worker count of the traced run's parallel probe (the reference box has 2
#: cores). Fixed so a run never depends on the machine.
PARALLEL_THREADS = 2

#: Golden multiplicities of the eigenvalues zero and one, kept here rather than
#: read from the program so a corrupted program table cannot pass its own check.
ZERO_MULTIPLICITIES = {
    1: 1, 3: 4, 4: 4, 5: 36, 6: 256, 7: 400, 8: 9864, 9: 6664, 10: 790528, 11: 1474848,
}
ONE_MULTIPLICITIES = {
    7: 441, 9: 46656, 11: 3052225, 13: 87609600, 14: 566130565, 15: 2701400625,
    16: 301532774400, 17: 3928998225152, 18: 274422662958600, 20: 86181028874240000,
}

#: One cli-mix block: every subcommand, a dumped edge list and a documented error.
CLI_MIX_BLOCK = (
    "mult", "mult", "eig", "eig", "top", "top", "witness", "witness",
    "tables", "verify", "oracle", "oracle-dump", "spectrum", "spectrum", "error",
)

#: Wall time of one block on the 2-core reference box; ``--seconds`` divided
#: by it gives the number of blocks, so a run lasts about ``--seconds`` there.
BLOCK_SECONDS = {"spectrum-serial": 11.0, "cli-mix": 3.9}

WORKLOADS = tuple(BLOCK_SECONDS)

#: A run needs more than ten latencies for its tail percentile.
MIN_INVOCATIONS = 11


class Deck:
    """Draws values in seed-shuffled rounds, so each value recurs evenly in a run."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.pile: list = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.values)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def generate(workload: str, seed: int, seconds: float) -> list[tuple[str, ...]]:
    """The invocation list of one run; the same arguments give the same list."""
    if workload not in BLOCK_SECONDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    block_len = len(CLI_MIX_BLOCK) if workload == "cli-mix" else len(SPECTRUM_NS)
    blocks = max(-(-MIN_INVOCATIONS // block_len), round(seconds / BLOCK_SECONDS[workload]))
    if workload == "cli-mix":
        return _cli_mix(rng, blocks)
    argvs = []
    for _ in range(blocks):
        ns = list(SPECTRUM_NS)
        rng.shuffle(ns)
        argvs += [("spectrum", str(n), "--format", rng.choice(FORMATS)) for n in ns]
    return argvs


def _cli_mix(rng: random.Random, blocks: int) -> list[tuple[str, ...]]:
    decks = {
        "mult": Deck(rng, [(n, 0) for n in ZERO_MULTIPLICITIES]
                     + [(n, 1) for n in ONE_MULTIPLICITIES]),
        "eig": Deck(rng, range(1, 31)),
        "top": Deck(rng, [(n, c) for n in range(18, 25) for c in range(1, 5)]),
        "witness": Deck(rng, _witness_pairs(7, 60)),
        "verify": Deck(rng, range(16, 21)),
        "oracle": Deck(rng, range(4, 7)),
        "spectrum": Deck(rng, range(18, 25)),
        "error": Deck(rng, [("spectrum", "81"), ("eig", "1", "2")]),
        "format": Deck(rng, FORMATS),
    }
    argvs = []
    for _ in range(blocks):
        kinds = list(CLI_MIX_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "mult":
                n, value = decks["mult"].draw()
                argv = ("mult", str(n), str(value))
            elif kind == "eig":
                argv = ("eig",) + tuple(map(str, random_partition(rng, decks["eig"].draw())))
            elif kind == "top":
                n, count = decks["top"].draw()
                argv = ("top", str(n), str(count))
            elif kind == "witness":
                n, target = decks["witness"].draw()
                argv = ("witness", str(n), str(target))
            elif kind == "tables":
                argv = ("tables",)
            elif kind == "verify":
                argv = ("verify", str(decks["verify"].draw()))
            elif kind == "oracle":
                argv = ("oracle", str(decks["oracle"].draw()))
            elif kind == "oracle-dump":
                # relative path: each invocation runs in the run's scratch directory
                argv = ("oracle", str(decks["oracle"].draw()),
                        "--dump-edges", f"edges-{len(argvs)}.txt")
            elif kind == "spectrum":
                argv = ("spectrum", str(decks["spectrum"].draw()))
            else:
                argv = decks["error"].draw()
            argvs.append(argv + ("--format", decks["format"].draw()))
    return argvs


def _witness_pairs(lo: int, hi: int) -> list[tuple[int, int]]:
    """(n, target) pairs inside the documented witness validity regions."""
    pairs = []
    for n in range(lo, hi + 1):
        if n % 2:
            top = (n - 3) // 4
        else:
            top = (n - 4) // 10 if n >= 14 else 0
        pairs += [(n, t) for t in range(top + 1)]
    return pairs


def random_partition(rng: random.Random, n: int) -> list[int]:
    parts = []
    while n:
        part = rng.randint(1, n)
        parts.append(part)
        n -= part
    return sorted(parts, reverse=True)


def list_hash(argvs) -> str:
    """Short digest of an invocation list, stored in every result record."""
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()[:16]


def partition_count(n: int) -> int:
    """p(n) by the coin-change recurrence, independent of the program's own count."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def partitions_covered(argv) -> int:
    """Partitions in the spectra an invocation asks for: the base of ``partitions_per_s``."""
    command, args = argv[0], positional_ints(argv)
    if command in ("spectrum", "mult", "top", "oracle") and args[0] <= 80:
        return partition_count(args[0])
    if command == "tables":
        return sum(map(partition_count, set(ZERO_MULTIPLICITIES) | set(ONE_MULTIPLICITIES)))
    if command == "verify":
        return sum(partition_count(n) for n in range(4, args[0] + 1))
    return 0


def positional_ints(argv) -> list[int]:
    """The integer arguments before the first flag, after the subcommand."""
    values = []
    for token in argv[1:]:
        if token.startswith("--"):
            break
        values.append(int(token))
    return values


def option(argv, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default
