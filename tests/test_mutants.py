"""The mutant list of ``scripts/mutants.py`` stays current; no mutant is run here."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_once(mutant):
    assert mutants.stale([mutant]) == []
    assert mutant.new != mutant.old
    assert all((ROOT / test).is_file() for test in mutant.tests.split())


def test_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_a_stale_mutant_is_refused(monkeypatch, capsys):
    stale = mutants.Mutant("stale", "src/tnspectrum/spectrum.py", "no such text", "x", "tests")
    monkeypatch.setattr(mutants, "MUTANTS", [stale])
    assert mutants.main(["stale"]) == 2
    assert "stale: stale:" in capsys.readouterr().err
