"""Count the code lines of the sympulse package.

A code line is a line that holds a Python token other than a comment, a
docstring or whitespace: `tokenize` gives the tokens, and `ast` marks every
bare string statement (module, class and function docstrings, and any other
string standing alone as a statement) as a docstring.

usage: python tools/code_lines.py [FILE ...]
Without arguments it counts src/sympulse/*.py and prints one line per module
and the total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of lines of `source` that hold a token other than a comment,
    a docstring or whitespace."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            docstring_lines.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def main(argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [pathlib.Path(p) for p in argv] or sorted((root / "src" / "sympulse").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:12s} {count:5d}")
    print(f"{'total':12s} {total:5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
