"""List the lines of ``src/z11sim`` that no test runs.

The script runs the given test files or directories (default ``tests/``)
with pytest in this interpreter, under a ``sys.settrace`` line tracer
that follows only the package's frames, and ignores the tests' outcomes.
Then it prints each executable line inside a function of the package
that no test ran, one per line as ``path:line: function: source``, and
last the count, ``untested lines: N``. Pytest's own report goes to
stderr.

Executable lines are those that a function's code object maps bytecode
to (``co_lines``); module and class bodies run on import, so they are
left out. Tests that measure allocations may fail under the tracer,
whose records are allocations too; a failed test still counts the lines
it ran. The run writes no bytecode, no pytest cache and no hypothesis
database, and runs the tests from a temporary working directory, so it
leaves nothing in the repository; subprocesses that the tests start are
not traced. The standard library is all it needs beyond pytest.

Run from the repository root:

    python tools/untested_lines.py [test paths ...]
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "z11sim"


def function_codes(code: CodeType):
    """The code objects of the functions nested in ``code``, at any depth."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS:
                yield const
            yield from function_codes(const)


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> qualified function name, for every line of the
    module's functions that carries bytecode."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: dict[int, str] = {}
    for code in function_codes(module):
        for _, _, line in code.co_lines():
            if line is not None:
                lines.setdefault(line, getattr(code, "co_qualname", code.co_name))
    return lines


def run_traced(test_paths: list[str]) -> set[tuple[str, int]]:
    """Run pytest on ``test_paths`` under the tracer; the (file, line)
    pairs of the package that ran."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    args = [str(Path(p).resolve()) for p in test_paths]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(sys.stderr):
        os.chdir(scratch)
        sys.settrace(calls)
        try:
            pytest.main(["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}", *args])
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    return ran


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    # the tests' subprocesses write no bytecode either
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path.insert(0, str(PACKAGE.parent))
    ran = run_traced(argv[1:] or [str(ROOT / "tests")])
    untested = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, name in sorted(executable_lines(path).items()):
            if (str(path), line) not in ran:
                print(f"{path.relative_to(ROOT)}:{line}: {name}: {source[line - 1].strip()}")
                untested += 1
    print(f"untested lines: {untested}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
