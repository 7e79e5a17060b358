"""Every ```python block in README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks():
    text = README.read_text(encoding="utf-8")
    for i, m in enumerate(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)):
        # blank lines in front keep a traceback's line numbers those of README.md
        yield pytest.param("\n" * text.count("\n", 0, m.start(1)) + m.group(1), id=f"block{i}")


BLOCKS = list(_blocks())


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS)
def test_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
