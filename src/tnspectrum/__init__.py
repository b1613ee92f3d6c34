"""Exact spectra of transposition graphs.

A transposition graph has the n! permutations of n symbols as vertices and an
edge wherever two permutations differ by one transposition. All its adjacency
eigenvalues are integers, one per partition of n; this package computes the
full spectrum exactly with arbitrary-precision multiplicities, emits
closed-form witness partitions for small eigenvalues, and cross-checks the
whole pipeline against a brute-force graph build at small n.

The package exports the partition and spectrum names. The witness
constructions come from ``tnspectrum.witnesses`` and the brute-force oracle
from ``tnspectrum.oracle``; importing the package (or the CLI) loads neither.
"""

from .partitions import (
    ORACLE_MAX_N,
    ORACLE_MIN_N,
    Partition,
    conjugate,
    degree,
    enumerate_partitions,
)
from .spectrum import (
    Spectrum,
    character_ratio,
    eigenvalue,
    eigenvalue_set,
    eigenvalue_upper_bound,
    multiplicity,
    spectrum,
    top_eigenvalues,
)

__version__ = "0.1.0"

__all__ = [
    "ORACLE_MAX_N",
    "ORACLE_MIN_N",
    "Partition",
    "Spectrum",
    "character_ratio",
    "conjugate",
    "degree",
    "eigenvalue",
    "eigenvalue_set",
    "eigenvalue_upper_bound",
    "enumerate_partitions",
    "multiplicity",
    "spectrum",
    "top_eigenvalues",
]
