"""Print the code lines of each package module and their total.

A code line is a line that holds a token other than a comment or a
newline, outside module, class and function docstrings.  Blank lines,
comment lines and docstring lines are not code lines.

    python tests/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's ``src/somborkit``; give another
one to count an older tree, for example one unpacked by ``git archive``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "somborkit"
# besides comments and newlines, the tokens that hold no text: a DEDENT at
# the end of a file sits on the line after the last one
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.ENCODING,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the module's, each class's and each
    function's docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in NOT_CODE:
                continue
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE_DIR
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6,} {path.name}")
    print(f"{total:6,} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
