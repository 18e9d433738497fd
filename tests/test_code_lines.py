"""tools/code_lines.py counts code lines as CHANGES.md reports them."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''"""A module docstring
on two lines."""

# a comment line
import os


class Box:
    """A class docstring."""

    def size(self):
        """A function docstring,
        on two lines."""
        text = """a string that is
not a docstring"""
        return len(text)  # a trailing comment
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path, capsys):
    package = tmp_path / "package"
    package.mkdir()
    (package / "box.py").write_text(FIXTURE)
    (package / "empty.py").write_text("")
    tool = _load_tool()
    # import, class, def, the string's two lines and the return
    assert tool.code_lines(package / "box.py") == 6
    tool.main(["code_lines.py", str(package)])
    assert capsys.readouterr().out.split("\n") == [
        "    6 box.py", "    0 empty.py", "    6 total", ""]
