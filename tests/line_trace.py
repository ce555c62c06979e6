"""List the lines of src/omegapower that the tier-1 tests never run.

Run from anywhere, with the same interpreter as the tests:

    python tests/line_trace.py [extra pytest arguments]

It runs the tier-1 suite (pytest from the repository root) in this process
under sys.settrace, recording each line executed in a file of the package,
then prints every line inside a function that never ran, as
path:line: source, and a count.  Module and class bodies run at import and
are not counted.  Tests that start a subprocess run the package there,
outside the trace.  The tracer makes the run several times slower than
tier-1.  It is a measurement, not a gate: the exit status is pytest's.
"""

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "omegapower"


def function_lines(path: Path) -> set:
    """The lines that hold code inside the functions of a source file."""
    module = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines = set()
    stack = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_pytest(args) -> tuple:
    """Run pytest under a line tracer; (exit status, {file: lines run})."""
    import pytest

    files = {str(p) for p in PACKAGE.glob("*.py")}
    ran = {f: set() for f in files}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename in files:
            return local(frame, event, arg)
        return None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return int(status), ran


def main(args) -> int:
    status, ran = traced_pytest(args)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = function_lines(path)
        never = sorted(lines - ran[str(path)])
        total += len(lines)
        missed += len(never)
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} lines inside functions in src/omegapower never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
