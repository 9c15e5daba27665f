"""Print the code lines of each ``src/rtp`` module and their total.

    python3 tests/code_lines.py

A code line holds at least one token that is not a comment and not part
of a docstring (the first statement of a module, class or function, when
it is a string literal); blank lines count nothing. A statement that
spans several lines counts each of them. The library is read from
``src/rtp`` next to this directory, and nothing is imported from it.
pytest does not collect this script.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rtp"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the docstrings of a parsed module span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:>6}")
    print(f"{'src/rtp':<20} {total:>6}")


if __name__ == "__main__":
    main()
