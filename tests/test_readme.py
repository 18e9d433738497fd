"""The README's python example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        re.S)
    assert blocks
    for source in blocks:
        expected = [line.split("#", 1)[1].strip()
                    for line in source.splitlines()
                    if line.startswith("print(") and "#" in line]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(source, str(README), "exec"), {})
        assert out.getvalue().splitlines() == expected
