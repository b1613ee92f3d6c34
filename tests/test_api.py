"""The public surface: each public module's ``__all__`` is exactly its public names, their
annotations resolve, every public function's parameter names are pinned below, and no
module of the package, its tests or its scripts imports numpy or hypothesis, which
``pyproject.toml`` no longer lists."""

import ast
import inspect
import pathlib
import types
import typing

import pytest

import tnspectrum
from tnspectrum import oracle, witnesses

#: The package root and the two modules whose names it does not export.
MODULES = (tnspectrum, oracle, witnesses)

#: Functions a module defines without a leading underscore that are still not public.
INTERNAL = {oracle: set(), witnesses: set()}

PUBLIC = {name: getattr(module, name) for module in MODULES for name in module.__all__}


def test_all_is_sorted():
    for module in MODULES:
        assert module.__all__ == sorted(module.__all__), module.__name__


def test_all_lists_exactly_the_public_names():
    public = sorted(
        name
        for name in dir(tnspectrum)
        if not name.startswith("_")
        and not isinstance(getattr(tnspectrum, name), types.ModuleType)
    )
    assert tnspectrum.__all__ == public


@pytest.mark.parametrize("module", INTERNAL, ids=lambda module: module.__name__)
def test_all_lists_exactly_what_the_module_defines(module):
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    }
    assert INTERNAL[module] <= defined
    assert module.__all__ == sorted(defined - INTERNAL[module])


@pytest.mark.parametrize("name", [name for name, value in PUBLIC.items() if callable(value)])
def test_annotations_resolve(name):
    # under ``from __future__ import annotations`` each annotation is a string until read
    typing.get_type_hints(PUBLIC[name])


# A change to a public signature must edit this table, and CHANGES.md says why.
PUBLIC_SIGNATURES = {
    "build_graph": ("n",),
    "character_ratio": ("p",),
    "compare": ("exact", "numeric"),
    "conjugate": ("p",),
    "degree": ("p",),
    "edge_list": ("adjacency",),
    "eigenvalue": ("p",),
    "eigenvalue_set": ("n",),
    "eigenvalue_upper_bound": ("p",),
    "enumerate_partitions": ("n",),
    "lambda_partition_even": ("n", "lam"),
    "lambda_partition_odd": ("n", "lam"),
    "min_n_for_prefix": ("k",),
    "multiplicity": ("n", "value", "threads"),
    "numeric_spectrum": ("adjacency",),
    "spectrum": ("n", "threads"),
    "top_eigenvalues": ("n", "count", "threads"),
    "verify_witness": ("n", "target"),
    "zero_partition": ("n",),
}


def test_public_signatures_are_pinned():
    actual = {
        name: tuple(inspect.signature(value).parameters)
        for name, value in PUBLIC.items()
        if inspect.isfunction(value)
    }
    assert actual == PUBLIC_SIGNATURES


#: The parameters a caller must pass by keyword; every other one may also be positional.
KEYWORD_ONLY = {
    "multiplicity": {"threads"},
    "spectrum": {"threads"},
    "top_eigenvalues": {"threads"},
}


def test_parameter_kinds_are_pinned():
    for name, value in PUBLIC.items():
        if not inspect.isfunction(value):
            continue
        for parameter in inspect.signature(value).parameters.values():
            keyword_only = parameter.name in KEYWORD_ONLY.get(name, ())
            expected = parameter.KEYWORD_ONLY if keyword_only else parameter.POSITIONAL_OR_KEYWORD
            assert parameter.kind == expected, (name, parameter.name)


def importers(package):
    """Each ``path:line`` under ``src/``, ``tests/`` or ``scripts/`` that imports ``package``."""
    root = pathlib.Path(__file__).parents[1]
    for path in [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py"),
                 *(root / "scripts").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):  # a from-import's module, too
                modules = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                if package in {m.split(".")[0] for m in modules}:
                    yield f"{path}:{node.lineno}"


def test_nothing_imports_numpy():
    assert list(importers("numpy")) == []


def test_nothing_imports_hypothesis():
    assert list(importers("hypothesis")) == []
