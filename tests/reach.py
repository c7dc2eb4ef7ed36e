"""List the package functions that neither the recorded command lines nor the acceptance gate enter.

    python3 tests/reach.py

Runs ``tests/test_cli_recording.py`` (the replay of the recorded command
line slice) and ``tests/test_acceptance.py`` through pytest in this one
process under ``sys.setprofile``, then prints every function of the
``src/semifix`` modules whose code was never entered, one per line as
``module.qualname  (N lines)``, and a closing count.  A function listed
here is reached, if at all, only by unit tests or by a caller outside
the package.  Pytest does not collect this file.  A subprocess, such as
the one ``tests/test_bench_smoke.py`` starts, is invisible to an
in-process profiler, so that test is not run.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path
from types import CodeType

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "semifix"
RUNS = ("test_cli_recording.py", "test_acceptance.py")


def _functions(code: CodeType):
    """Every named function compiled inside a code object, nested ones included."""
    for const in code.co_consts:
        if isinstance(const, CodeType):
            # not a class body, comprehension or lambda
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def defined() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line) -> (module.qualname, line count) of each package function."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        for code in _functions(module):
            lines = [line for _, _, line in code.co_lines() if line is not None]
            span = max(lines) - code.co_firstlineno + 1
            out[(str(path), code.co_firstlineno)] = (f"{path.stem}.{code.co_qualname}", span)
    return out


def entered_while(run) -> tuple[set[tuple[str, int]], object]:
    """The (file, first line) of every package code object entered during run(), and its result."""
    prefix = str(PACKAGE)
    seen: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                seen.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return seen, result


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    args = ["-q", "-p", "no:cacheprovider", "--rootdir", str(TESTS.parent)]
    seen, status = entered_while(lambda: pytest.main([*args, *(str(TESTS / t) for t in RUNS)]))
    imported = Path(sys.modules["semifix"].__file__).resolve().parent
    if status != 0 or imported != PACKAGE:
        print(f"pytest exited {status} on {imported}: this is not a reach check", file=sys.stderr)
        return 1
    functions = defined()
    missed = sorted(v for k, v in functions.items() if k not in seen)
    for name, span in missed:
        print(f"{name}  ({span} lines)")
    total = sum(span for _, span in missed)
    print(f"{len(missed)} of {len(functions)} functions never entered, {total} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
