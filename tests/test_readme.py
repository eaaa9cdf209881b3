"""The README's python blocks run, and each prints what its comments say:
every comment of a block is one expected output line, in block order."""

import io
import re
import tokenize
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def comments(code: str) -> list[str]:
    tokens = tokenize.generate_tokens(io.StringIO(code).readline)
    return [tok.string.removeprefix("#").strip() for tok in tokens if tok.type == tokenize.COMMENT]


def test_python_blocks_print_their_comments():
    blocks = python_blocks()
    assert blocks, "README.md has no python block"
    for code in blocks:
        out = io.StringIO()
        with redirect_stdout(out):
            exec(compile(code, str(README), "exec"), {})
        assert out.getvalue().splitlines() == comments(code)
