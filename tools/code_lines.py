"""Count the code lines of each module of the moycalc package.

A code line holds at least one token of a statement: blank lines, comment
lines and the lines of module, class and function docstrings do not
count.  A line of a multi-line string that is not a docstring counts.

Usage: python3 tools/code_lines.py [package directory]

It prints one "<count> <module>" line per module, sorted by name, and a
last "<total> total" line.  The directory defaults to src/moycalc.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path):
    """The number of code lines in the Python source file at path."""
    with tokenize.open(path) as f:
        source = f.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, DOCUMENTED)
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    root = Path(argv[1] if len(argv) > 1
                else Path(__file__).resolve().parents[1] / "src" / "moycalc")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print("%5d %s" % (count, path.name))
    print("%5d total" % total)


if __name__ == "__main__":
    main(sys.argv)
