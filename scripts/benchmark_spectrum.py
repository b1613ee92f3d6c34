#!/usr/bin/env python3
"""Time full-spectrum assembly, serial vs process-parallel.

Usage: python scripts/benchmark_spectrum.py 50 52 55 --threads 2

--threads defaults to the CPU count; spectrum() caps it there anyway. Below
n = 50 (PARALLEL_MIN_N) spectrum() folds in-process whatever --threads asks.
"""

import argparse
import os
import time

from tnspectrum import partition_count, spectrum


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ns", type=int, nargs="*", default=[50, 52, 55])
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()

    print(f"{'n':>4} {'partitions':>11} {'serial[s]':>10} {'parallel[s]':>12} identical")
    for n in args.ns:
        start = time.perf_counter()
        serial = spectrum(n)
        mid = time.perf_counter()
        parallel = spectrum(n, threads=args.threads)
        end = time.perf_counter()
        print(
            f"{n:>4} {partition_count(n):>11} {mid - start:>10.2f} "
            f"{end - mid:>12.2f} {serial == parallel}"
        )


if __name__ == "__main__":
    main()
