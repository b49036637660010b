"""Count the code lines of each module of a Python package: the lines that hold a
token outside comments and docstrings, so blank lines, comment lines and the lines of
module, class and function docstrings do not count. A string that spans lines counts
every line it spans, unless it is a docstring.

    python3 tools/code_lines.py [package directory, default src/roughvol]

Prints one ``lines path`` row per module, then the total. A path that is not a
directory, such as the default run from outside the repository root, is an error:
a message on stderr and exit code 2. Standard library only.
"""
from __future__ import annotations

import ast
import pathlib
import sys
import tokenize

_NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                       tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER})
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The number of code lines of the module at ``path``."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source, str(path)))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = pathlib.Path(argv[0] if argv else "src/roughvol")
    if not package.is_dir():
        print(f"code_lines: {package} is not a directory (usage: python3 "
              "tools/code_lines.py [package directory, default src/roughvol])",
              file=sys.stderr)
        return 2
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
