"""The README's examples run, and every value the Library block shows is what the code returns."""

import pathlib
import re

from tnspectrum.cli import main

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def test_library_block_is_true():
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", README, re.S | re.M).group(1)
    lines = block.splitlines()
    namespace = {}
    shown = 0
    for i, line in enumerate(lines):
        code, _, comment = (part.strip() for part in line.partition("#"))
        if not code:
            continue
        # a value is shown after the code on its line, or alone on the next line
        if not comment and i + 1 < len(lines) and lines[i + 1].startswith("# "):
            comment = lines[i + 1][2:]
        if comment:
            assert repr(eval(code, namespace)) == comment
            shown += 1
        else:
            exec(code, namespace)
    assert shown == 4


def test_cli_examples_run(tmp_path):
    block = re.search(r"^Examples:\n\n```sh\n(.*?)^```$", README, re.S | re.M).group(1)
    edges = tmp_path / "t5-edges.txt"
    lines = block.splitlines()
    for line in lines:
        program, *argv = line.split()
        assert program == "tnspec"
        argv = [str(edges) if word == "/tmp/t5-edges.txt" else word for word in argv]
        assert main(argv) == 0, line
    assert len(lines) == 7
    assert len(edges.read_text().splitlines()) == 600  # 5! vertices of degree 10
