"""Closed-form witness partitions for small eigenvalues of the transposition graph.

Each constructor returns a partition of n whose eigenvalue is the stated
target. The validity regions are sharp: outside them the formulas stop being
nonincreasing sequences, so the constructors refuse rather than emit junk.
A repetition count of zero simply contributes no parts, which is what makes
the boundary cases of every construction come out right.
"""

from __future__ import annotations

from typing import NamedTuple

from .partitions import Partition
from .spectrum import eigenvalue


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


def zero_partition(n: int) -> Partition:
    """Partition of ``n`` with eigenvalue zero; exists for every n >= 1 except 2."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 2:
        raise NoWitnessError("zero is not an eigenvalue of the transposition graph for n = 2")
    if n % 2:
        return Partition(((n + 1) // 2,) + (1,) * ((n - 1) // 2))
    return Partition((n // 2, 2) + (1,) * ((n - 4) // 2))


def lambda_partition_odd(n: int, lam: int) -> Partition:
    """Partition of odd ``n`` with eigenvalue ``lam``, for 1 <= lam <= (n - 3)/4."""
    if n % 2 == 0 or n < 7:
        raise ValueError(f"n must be odd and >= 7, got {n}")
    if lam < 1 or 4 * lam > n - 3:
        raise ValueError(f"need 1 <= lam <= (n - 3)/4 = {(n - 3) // 4}, got lam = {lam}")
    return Partition(
        ((n - 2 * lam + 1) // 2, lam + 2)
        + (2,) * (lam - 1)
        + (1,) * ((n - 4 * lam - 1) // 2)
    )


def lambda_partition_even(n: int, lam: int) -> Partition:
    """Partition of even ``n`` with eigenvalue ``lam``, for 1 <= lam <= (n - 4)/10."""
    if n % 2 or n < 14:
        raise ValueError(f"n must be even and >= 14, got {n}")
    if lam < 1 or 10 * lam > n - 4:
        raise ValueError(f"need 1 <= lam <= (n - 4)/10 = {(n - 4) // 10}, got lam = {lam}")
    return Partition(
        ((n - 6 * lam) // 2, 2 * lam + 2, lam + 3)
        + (3,) * (lam - 1)
        + (2,) * lam
        + (1,) * ((n - 10 * lam - 4) // 2)
    )


def hook_partition(n: int, k: int) -> Partition:
    """Hook shape (n - k + 1, 1, ..., 1) with k rows; eigenvalue n(n - 2k + 1)/2."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n = {n}, got k = {k}")
    return Partition((n - k + 1,) + (1,) * (k - 1))


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
            part = construct(n, target)  # each constructor enforces its own region
        except ValueError:
            raise NoWitnessError(
                f"no construction known for eigenvalue {target} at n = {n}"
            ) from None
    verified = part.n == n and eigenvalue(part) == target
    return WitnessReport(n=n, target=target, partition=part, verified=verified)
