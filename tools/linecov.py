"""List the lines of ``src/equijet`` that no test executes.

Run from any directory::

    python3 tools/linecov.py                 # the tier-1 suite, tests/
    python3 tools/linecov.py tests/test_mero.py -k divisor

Arguments go to pytest unchanged.  pytest runs in this process under a
``sys.settrace`` line tracer, so no coverage package is needed; the tracer
is installed before ``equijet`` is imported, so module-level lines count.
A line is executable when the compiler gives it a line-number entry in
some code object of the file.  The output is one line per module with the
ranges of executable lines that never ran, then a total.  Tracing makes
the run several times slower; pytest's exit status is returned.
"""

from __future__ import annotations

import dis
import os
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "equijet"


def executable_lines(path: Path) -> set:
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines) -> str:
    """``1-3, 7`` for the lines 1, 2, 3 and 7."""
    spans = []
    for line in sorted(lines):
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    import pytest

    hits = defaultdict(set)
    prefix = str(SRC) + os.sep

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace_calls)
    try:
        status = pytest.main(list(sys.argv[1:] if argv is None else argv) or ["-q", "tests"])
    finally:
        sys.settrace(None)

    missed_total = lines_total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = lines - hits[str(path)]
        lines_total += len(lines)
        missed_total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} missed: {ranges(missed)}")
    print(f"total: {missed_total} of {lines_total} executable lines missed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
