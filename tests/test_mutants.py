"""The mutants of ``scripts/mutants.py`` stay current; no mutant is run here."""

import ast
import collections
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS + mutants.EQUIVALENT,
                         ids=lambda mutant: mutant.name)
def test_old_text_occurs_once(mutant):
    assert mutants.stale([mutant]) == []
    assert mutant.new != mutant.old
    tests = mutant.tests or mutants.TESTS[mutant.file]
    assert all((ROOT / test).is_file() for test in tests.split())


def test_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_a_stale_mutant_is_refused(monkeypatch, capsys):
    stale = mutants.Mutant("stale", "src/tnspectrum/spectrum.py", "no such text", "x", "tests")
    monkeypatch.setattr(mutants, "MUTANTS", [stale])
    assert mutants.main(["stale"]) == 2
    assert "stale: stale:" in capsys.readouterr().err


@pytest.mark.parametrize("argument", ["tests/test_cli.py", "scripts/mutants.py", "README.md",
                                      "src/tnspectrum", "src/tnspectrum/absent.py", "no-such-name"])
def test_an_argument_outside_the_sources_is_refused(argument, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert mutants.main([argument]) == 2
    assert f"refused: {argument}:" in capsys.readouterr().err


def test_the_map_covers_every_source_file():
    sources = {path.relative_to(ROOT).as_posix() for path in (ROOT / "src/tnspectrum").glob("*.py")}
    assert set(mutants.TESTS) == sources
    for tests in mutants.TESTS.values():
        assert all((ROOT / test).is_file() for test in tests.split())
        assert "tests/test_mutants.py" not in tests.split()


def test_each_equivalent_is_an_edit_the_generator_makes():
    for entry in mutants.EQUIVALENT:
        assert any(mutants.equivalent(mutant) == entry for mutant in mutants.generate(entry.file))


FIXTURE = '''"""A docstring: a < b and 1 + 2."""

import os
from math import comb


def f(a, b=1):
    """Another: a - 1."""
    if a < b and b >= 2 != "a == 1":
        a += 1
    a *= 2
    for x in f"{a * 3}", "b + 1":
        return (a * b  # a - b
                // 3 - x)
'''
#: the texts no generated mutant may touch: docstrings, imports, strings and the def line;
#: an f-string's replacement field is code, and its mutants are expected
UNTOUCHED = ['"""A docstring: a < b and 1 + 2."""', "import os\n", "from math import comb\n",
             "def f(a, b=1):\n", '"""Another: a - 1."""', '"a == 1"', '"b + 1"']


def test_the_generator_on_a_fixture(monkeypatch, tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    generated = mutants.generate("fixture.py")
    edits = collections.Counter(mutant.name.split(" ", 1)[1] for mutant in generated)
    # a *= 2 is no * -> //, and the comment's - is no operator of the return's //
    assert edits == {
        "< -> <=": 1, ">= -> >": 1, "!= -> ==": 1, "and -> or": 1, "+= -> -=": 1,
        "* -> //": 2, "// -> *": 1, "- -> +": 1,
        "2 -> 1": 2, "2 -> 3": 2, "1 -> 0": 1, "1 -> 2": 1, "3 -> 2": 2, "3 -> 4": 2,
        "AugAssign -> pass": 2, "Return -> pass": 1,
    }
    assert mutants.stale(generated) == []
    for mutant in generated:
        source = FIXTURE.replace(mutant.old, mutant.new)
        ast.parse(source)
        assert all(text in source for text in UNTOUCHED), mutant.name


def test_a_path_run_fails_on_a_survivor_outside_the_table(monkeypatch, capsys):
    monkeypatch.setattr(mutants.shutil, "copytree", lambda *args, **kwargs: None)
    monkeypatch.setattr(mutants, "run", lambda mutant, copy: ("survived", ""))
    generated = mutants.generate("src/tnspectrum/witnesses.py")
    assert mutants.main([str(ROOT / "src/tnspectrum/witnesses.py")]) == 1
    out = capsys.readouterr().out
    assert out.endswith(f"0 killed, 2 equivalent, {len(generated) - 2} not killed\n")
    assert "equivalent: n - size and n + size have the same parity" in out
    assert "equivalent: n - size is odd there" in out
