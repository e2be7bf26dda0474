"""Count the plain lines and the code lines of each Python module in a package.

A code line is a line that holds a token other than a comment, a
docstring or whitespace: blank lines, comment-only lines and the lines
of module, class and function docstrings do not count.  A token that
spans several lines, such as a multi-line string, counts each of them.

Usage: python tools/src_lines.py [PACKAGE_DIR]   (default: src/newton_gauge)

Prints one row per module and a total row; it checks nothing.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_lines(path: Path) -> tuple[int, int]:
    """(plain lines, code lines) of one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(source)
    code = set()
    with path.open("rb") as stream:
        for token in tokenize.tokenize(stream.readline):
            if token.type in _NOT_CODE or token.start in docstrings:
                continue
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "newton_gauge"
    rows = [(path.name, *count_lines(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, plain, code in rows:
        print(f"{name:<{width}}  {plain:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
