"""The public surface: ``__all__`` is exactly the public names, their annotations resolve,
and every public function's parameter names are pinned below."""

import inspect
import types
import typing

import pytest

import tnspectrum


def test_all_is_sorted():
    assert tnspectrum.__all__ == sorted(tnspectrum.__all__)


def test_all_lists_exactly_the_public_names():
    # dir() also lists the names the package resolves on first access
    public = sorted(
        name
        for name in dir(tnspectrum)
        if not name.startswith("_")
        and not isinstance(getattr(tnspectrum, name), types.ModuleType)
    )
    assert tnspectrum.__all__ == public


@pytest.mark.parametrize(
    "name", [name for name in tnspectrum.__all__ if callable(getattr(tnspectrum, name))]
)
def test_annotations_resolve(name):
    # numpy is imported inside the oracle functions, so no annotation may name it
    typing.get_type_hints(getattr(tnspectrum, name))


# A change to a public signature must edit this table, and CHANGES.md says why.
PUBLIC_SIGNATURES = {
    "build_graph": ("n",),
    "character_ratio": ("p",),
    "compare": ("exact", "numeric", "tolerance"),
    "conjugate": ("p",),
    "degree": ("p",),
    "edge_list": ("adjacency",),
    "eigenvalue": ("p",),
    "eigenvalue_upper_bound": ("p",),
    "enumerate_partitions": ("n", "max_n"),
    "lambda_partition_even": ("n", "lam"),
    "lambda_partition_odd": ("n", "lam"),
    "min_n_for_prefix": ("k",),
    "multiplicity": ("n", "value", "max_n", "threads"),
    "numeric_spectrum": ("adjacency",),
    "partition_count": ("n",),
    "spectrum": ("n", "max_n", "threads"),
    "top_eigenvalues": ("n", "count", "max_n", "threads"),
    "verify_witness": ("n", "target"),
    "zero_partition": ("n",),
}


def test_public_signatures_are_pinned():
    public = {name: getattr(tnspectrum, name) for name in tnspectrum.__all__}
    actual = {
        name: tuple(inspect.signature(value).parameters)
        for name, value in public.items()
        if inspect.isfunction(value)
    }
    assert actual == PUBLIC_SIGNATURES
