"""The README's Python examples run as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def python_blocks() -> list[str]:
    with open(README) as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)


def test_readme_has_python_examples():
    assert python_blocks()


@pytest.mark.parametrize("index", range(len(python_blocks())))
def test_readme_python_block_runs(index, capsys):
    exec(compile(python_blocks()[index], "README.md", "exec"), {})
    assert capsys.readouterr().out
