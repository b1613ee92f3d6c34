"""The public surface: ``__all__`` is exactly the public names, and their annotations resolve."""

import types
import typing

import pytest

import tnspectrum


def test_all_is_sorted():
    assert tnspectrum.__all__ == sorted(tnspectrum.__all__)


def test_all_lists_exactly_the_public_names():
    public = sorted(
        name
        for name, value in vars(tnspectrum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert tnspectrum.__all__ == public


@pytest.mark.parametrize(
    "name", [name for name in tnspectrum.__all__ if callable(getattr(tnspectrum, name))]
)
def test_annotations_resolve(name):
    # numpy is imported inside the oracle functions, so no annotation may name it
    typing.get_type_hints(getattr(tnspectrum, name))
