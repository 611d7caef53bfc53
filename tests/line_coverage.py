"""Fail on any line of the spotindex package that the tier-1 suite never runs.

Run from the repository root:

    python tests/line_coverage.py [pytest args]

It traces every line that runs in src/spotindex, in every thread, with the
standard library's sys.settrace and threading.settrace, started before
spotindex is imported so that module-level code counts too. It then runs
the tier-1 suite (tests/, or the pytest args given) in this process, and
lists each line of the package's code objects (co_lines) that never ran.
The exit code is pytest's where the suite fails, else 1 where a line outside
ALLOWED never ran, else 0. Tracing slows the suite about two-fold. pytest
does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spotindex"
PREFIX = f"{PACKAGE}/"

# the source text of lines that may go unrun: the console entry point when
# cli.py runs as a script, and the engine's guard for a market mask that
# rejects an instant at which every domain check passes
ALLOWED = frozenset(
    {
        "sys.exit(main())",
        'raise AssertionError(f"the market mask rejects t={t}, but every check passes")',
    }
)

# per traced file, the lines that ran
ran: defaultdict[str, set[int]] = defaultdict(set)


def _line(frame, event, arg):
    """The local trace function: records each line a package frame runs. It
    is a module function, not a closure, so that tracing makes no reference
    cycle that a test of the package's own cycles would count."""
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _trace(frame, event, arg):
    """The global trace function: _line for the package's frames."""
    return _line if frame.f_code.co_filename.startswith(PREFIX) else None


def code_lines(code) -> set[int]:
    """The lines of code and of every code object nested in it."""
    lines = {lineno for _, _, lineno in code.co_lines() if lineno}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def unrun() -> list[tuple[Path, int, str]]:
    """(file, line, text) of each line of the package's code that never
    ran."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        texts = source.splitlines()
        module = compile(source, str(path), "exec")
        for lineno in sorted(code_lines(module) - ran[str(path)]):
            missed.append((path, lineno, texts[lineno - 1].strip()))
    return missed


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        import pytest

        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        return int(code)
    missed = [(path, lineno, text) for path, lineno, text in unrun() if text not in ALLOWED]
    for path, lineno, text in missed:
        print(f"{path.relative_to(ROOT)}:{lineno}: never ran: {text}")
    print(f"{len(missed)} unrun line(s) outside the allowlist")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
