"""Exact spectra of transposition graphs.

A transposition graph has the n! permutations of n symbols as vertices and an
edge wherever two permutations differ by one transposition. All its adjacency
eigenvalues are integers, one per partition of n; this package computes the
full spectrum exactly with arbitrary-precision multiplicities, emits
closed-form witness partitions for small eigenvalues, and cross-checks the
whole pipeline against a brute-force graph build at small n.

The partition and spectrum names are imported with the package. The oracle
and witness names load their modules on first use, so importing the package
(or the CLI) loads neither.
"""

import importlib

from .partitions import (
    DEFAULT_MAX_N,
    ORACLE_MAX_N,
    ORACLE_MIN_N,
    Partition,
    conjugate,
    degree,
    enumerate_partitions,
    partition_count,
)
from .spectrum import (
    Spectrum,
    character_ratio,
    eigenvalue,
    eigenvalue_upper_bound,
    multiplicity,
    spectrum,
    top_eigenvalues,
)

#: The public names resolved on first access, and the module that defines each.
_LAZY = {
    **dict.fromkeys(
        ("ComparisonReport", "build_graph", "compare", "edge_list", "numeric_spectrum"),
        "oracle",
    ),
    **dict.fromkeys(
        (
            "NoWitnessError",
            "WitnessReport",
            "lambda_partition_even",
            "lambda_partition_odd",
            "min_n_for_prefix",
            "verify_witness",
            "zero_partition",
        ),
        "witnesses",
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "DEFAULT_MAX_N",
    "NoWitnessError",
    "ORACLE_MAX_N",
    "ORACLE_MIN_N",
    "Partition",
    "Spectrum",
    "WitnessReport",
    "build_graph",
    "character_ratio",
    "compare",
    "conjugate",
    "degree",
    "edge_list",
    "eigenvalue",
    "eigenvalue_upper_bound",
    "enumerate_partitions",
    "lambda_partition_even",
    "lambda_partition_odd",
    "min_n_for_prefix",
    "multiplicity",
    "numeric_spectrum",
    "partition_count",
    "spectrum",
    "top_eigenvalues",
    "verify_witness",
    "zero_partition",
]
