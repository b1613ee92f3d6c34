"""Closed-form witness partitions for small eigenvalues of the transposition graph.

Every witness is a balanced hook around an inner partition nu: a first row
and a first column of the same length a = (n - |nu| + 1)/2, with row i + 1 of
length nu_i + 1. Its eigenvalue is the content sum of nu whatever n is,
because the first row's contents 0..a-1 cancel the first column's
-1..-(a-1) and the inner boxes keep theirs. It exists exactly when n - |nu|
is odd and n >= |nu| + 2 max(nu_1, len(nu)) + 1; ``_balanced_hook`` holds
that check, and each constructor is one choice of nu.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import Partition
from .spectrum import eigenvalue

__all__ = [
    "NoWitnessError",
    "WitnessReport",
    "lambda_partition_even",
    "lambda_partition_odd",
    "min_n_for_prefix",
    "verify_witness",
    "zero_partition",
]


class NoWitnessError(ValueError):
    """No closed-form witness covers the requested (n, eigenvalue) pair.

    Distinct from non-membership: the absence of a construction says nothing
    about whether the value occurs in the spectrum. Only a full spectrum
    computation decides that.
    """


class WitnessReport(NamedTuple):
    n: int
    target: int
    partition: Partition
    verified: bool


def _balanced_hook(n: int, inner: tuple[int, ...]) -> Partition:
    """The balanced hook of size ``n`` around ``inner``, whose eigenvalue is c(``inner``)."""
    size = sum(inner)
    least = size + 2 * max(len(inner), inner[0] if inner else 0) + 1
    if (n - size) % 2 == 0 or n < least:
        raise ValueError(f"need n - {size} odd and n >= {least}, got n = {n}")
    arm = (n - size + 1) // 2
    return Partition((arm,) + tuple(part + 1 for part in inner) + (1,) * (arm - 1 - len(inner)))


def zero_partition(n: int) -> Partition:
    """Partition of ``n`` with eigenvalue zero; exists for every n >= 1 except 2."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 2:
        raise NoWitnessError("zero is not an eigenvalue of the transposition graph for n = 2")
    return _balanced_hook(n, () if n % 2 else (1,))


def lambda_partition_odd(n: int, lam: int) -> Partition:
    """Partition of odd ``n`` with eigenvalue ``lam``; exists for lam >= 1 and n >= 4 lam + 3."""
    if not 1 <= lam <= n:
        raise ValueError(f"need 1 <= lam <= n = {n}, got lam = {lam}")
    return _balanced_hook(n, (lam + 1,) + (1,) * (lam - 1))


def lambda_partition_even(n: int, lam: int) -> Partition:
    """Partition of even ``n`` with eigenvalue ``lam``; exists for lam >= 1 and n >= 10 lam + 4."""
    if not 1 <= lam <= n:
        raise ValueError(f"need 1 <= lam <= n = {n}, got lam = {lam}")
    return _balanced_hook(n, (2 * lam + 1, lam + 2) + (2,) * (lam - 1) + (1,) * lam)


def min_n_for_prefix(k: int) -> int:
    """Threshold from which every value in 0..k occurs as an eigenvalue.

    Returns 10k + 4: for every n at or above it, the witness constructions
    cover each target in 0..k for both parities of n.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    return 10 * k + 4


def verify_witness(n: int, target: int) -> WitnessReport:
    """Build the applicable witness for (n, target) and check it by evaluation.

    Raises NoWitnessError when no construction covers the pair; that verdict
    is deliberately distinct from "target is not an eigenvalue".
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if target == 0:
        part = zero_partition(n)  # raises NoWitnessError for n == 2
    else:
        construct = lambda_partition_odd if n % 2 else lambda_partition_even
        try:
            part = construct(n, target)  # _balanced_hook enforces the region
        except ValueError:
            raise NoWitnessError(
                f"no construction known for eigenvalue {target} at n = {n}"
            ) from None
    verified = part.n == n and eigenvalue(part) == target
    return WitnessReport(n=n, target=target, partition=part, verified=verified)
