"""README's Python blocks run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()

#: (first line number, source) of every ```python block.
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
]


def test_blocks_are_found():
    # The quick start and the custom phase law.
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line, source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_block_runs(line, source):
    # Padded so that a traceback names the block's own README lines.
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "readme"})
