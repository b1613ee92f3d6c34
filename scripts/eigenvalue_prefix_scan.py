#!/usr/bin/env python3
"""Scan which small eigenvalues 0..K occur in the transposition-graph spectrum.

For each n the scan reads the distinct eigenvalues from ``eigenvalue_set``, the
content-sum dynamic program, and marks which targets in 0..K are among them.
The marked rows are ``min_n_for_prefix``'s bound n = 10m + 4, the even-n region
of ``lambda_partition_even``; odd n need only 4m + 3. The test suite proves the
exact threshold N(k) for k <= 40: N(0) = 3, N(1..3) = 13, N(4..30) = 19 and
N(31..40) = 22. The printed matrix shows how much earlier than the marked
bound the values appear. A ``--max-n`` above the fold ceiling ``FOLD_MAX_N`` is
refused before the first row, with status 2.

Usage: python scripts/eigenvalue_prefix_scan.py --max-target 3 --max-n 40
"""

import argparse

from tnspectrum import eigenvalue_set
from tnspectrum.spectrum import FOLD_MAX_N
from tnspectrum.witnesses import min_n_for_prefix


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-target", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=40)
    args = parser.parse_args()
    if args.max_n > FOLD_MAX_N:
        parser.error(f"--max-n {args.max_n} exceeds the fold ceiling {FOLD_MAX_N}")

    targets = list(range(args.max_target + 1))
    thresholds = {min_n_for_prefix(m): m for m in targets}
    print("   n  " + " ".join(f"m={m}" for m in targets))
    for n in range(2, args.max_n + 1):
        found = eigenvalue_set(n)
        cells = " ".join(f"{'+' if m in found else '.':>3}" for m in targets)
        note = f"  <- 0..{thresholds[n]} guaranteed from here on" if n in thresholds else ""
        print(f"{n:>4}  {cells}{note}")


if __name__ == "__main__":
    main()
