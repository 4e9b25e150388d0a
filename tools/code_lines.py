"""Count the code lines of each module in ``src/z11sim``.

A code line holds at least one token that is not a comment, a newline or
an indentation change, and lies outside every docstring (the first
string statement of a module, class or function, found with ``ast``).
Blank lines, comment-only lines and docstrings are left out. The script
also prints each module's physical line count and their total, the
figure ``wc -l`` gives, then the number of settable INI values, the
keys of the package's ``config._SCHEMA``, per section and in total, and
last the number of names the package exports, ``len(__all__)``.

Run from the repository root:

    python tools/code_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import importlib
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that carry code."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/z11sim")
    total_code = total_lines = 0
    print(f"{'module':<16}{'code':>6}{'wc -l':>8}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        code, physical = code_lines(source), source.count("\n")
        total_code += code
        total_lines += physical
        print(f"{path.name:<16}{code:>6}{physical:>8}")
    print(f"{'total':<16}{total_code:>6}{total_lines:>8}")
    sys.path.insert(0, str(package.resolve().parent))
    schema = importlib.import_module(f"{package.name}.config")._SCHEMA
    print(f"\n{'INI section':<16}{'keys':>6}")
    for section, keys in schema.items():
        print(f"{section:<16}{len(keys):>6}")
    print(f"{'total':<16}{sum(map(len, schema.values())):>6}")
    print(f"\n{'exports':<16}{len(importlib.import_module(package.name).__all__):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
