#!/usr/bin/env python3
"""Scan which small eigenvalues 0..K occur in the transposition-graph spectrum.

For each n the scan walks the partition stream, records which targets in 0..K
show up as eigenvalues, and stops early once all are found. The marked rows are
``min_n_for_prefix``'s bound n = 10m + 4, the even-n region of
``lambda_partition_even``; odd n need only 4m + 3. The test suite proves the
exact threshold N(k) for k <= 10, and the printed matrix shows how much earlier
the values tend to appear in practice.

Usage: python scripts/eigenvalue_prefix_scan.py --max-target 3 --max-n 40
"""

import argparse

from tnspectrum import enumerate_partitions, eigenvalue, min_n_for_prefix


def present_targets(n, targets, max_n):
    remaining = set(targets)
    found = set()
    for p in enumerate_partitions(n, max_n=max_n):
        value = eigenvalue(p)
        if value in remaining:
            remaining.remove(value)
            found.add(value)
            if not remaining:
                break
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-target", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=40)
    args = parser.parse_args()

    targets = list(range(args.max_target + 1))
    thresholds = {min_n_for_prefix(m): m for m in targets}
    print("   n  " + " ".join(f"m={m}" for m in targets))
    for n in range(2, args.max_n + 1):
        found = present_targets(n, targets, args.max_n)
        cells = " ".join(f"{'+' if m in found else '.':>3}" for m in targets)
        note = ""
        if n in thresholds:
            note = f"  <- 0..{thresholds[n]} guaranteed from here on"
        print(f"{n:>4}  {cells}{note}")


if __name__ == "__main__":
    main()
