"""Lines of ``src/frozenplanet`` that a pytest selection does not run.

    PYTHONPATH=src python3 tools/line_reach.py tests/test_helium.py -q

The arguments go to ``pytest.main``, which runs in this process under a
``sys.settrace`` line tracer; with none, the whole ``tests`` directory
runs.  A module's executable lines are the line numbers of every code
object compiled from its source (``co_lines``); a line is run when the
tracer sees a line event there, or a call of the code object that starts
on it.  For each module the report gives its executable and run line
counts and the lines that did not run, as ranges.  Code run in other
threads or in subprocesses is not seen, so such lines count as not run.
The standard library is all it needs besides pytest.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "frozenplanet"


def executable_lines(path):
    """The line numbers of every code object compiled from the file."""
    stack, lines = [compile(Path(path).read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        # a module's first instruction sits at line 0, and some at no line
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def reach(paths, run):
    """``run()``'s result and {path: (executable lines, lines run)} for the
    files ``paths`` while it runs under the line tracer; the tracer in
    place before is put back."""
    hit = {os.path.realpath(p): set() for p in paths}

    @functools.cache
    def lines_of(filename):
        return hit.get(os.path.realpath(filename))

    def local(frame, event, arg):
        if event == "line":
            lines_of(frame.f_code.co_filename).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_code.co_firstlineno)
        return local

    before = sys.gettrace()
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(before)
    return result, {p: (executable_lines(p), hit[os.path.realpath(p)]) for p in paths}


def ranges(missed, lines):
    """The sorted lines ``missed`` as runs "a-b" that no other executable
    line of ``lines`` interrupts."""
    out, run = [], []
    for line in sorted(lines):
        if line in missed:
            run.append(line)
        elif run:
            out.append(run)
            run = []
    if run:
        out.append(run)
    return [f"{r[0]}-{r[-1]}" if len(r) > 1 else str(r[0]) for r in out]


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv) or [str(ROOT / "tests")]
    paths = sorted(str(p) for p in PACKAGE.glob("*.py"))
    status, found = reach(paths, lambda: pytest.main(args))
    print(f"pytest exit status {int(status)}")
    for path, (lines, run) in found.items():
        missed = lines - run
        print(f"{Path(path).name}: {len(lines)} executable, {len(lines & run)} run, "
              f"{len(missed)} not run: {', '.join(ranges(missed, lines)) or '-'}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
