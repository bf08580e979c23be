#!/usr/bin/env python3
"""Line-coverage gate over ``src/coretune``, with the standard library only.

Runs the test suite in this process under ``sys.settrace`` and lists every
executable line of ``src/coretune`` that no test ran, other than the lines
of ``ALLOWED``. Executable lines are those ``code.co_lines()`` maps
instructions to, over every code object compiled from a module. Code that
runs only in a subprocess (``python -m coretune.cli``) or a pool worker is
not seen, so a branch counts only when a test reaches it in-process.

    python scripts/linecov.py [pytest arguments]

Exits 1 when a line is missed or a test fails, else 0.
"""

import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "coretune")

# (module file, stripped source line) -> why no test can run it in-process.
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m coretune.cli`, in a subprocess",
    ("data.py", "else np.int64)"):
        "int64 CSR indices need more than 2**31 rows, columns or entries",
    ("learners.py", "return x if k else z"):
        "conjugate gradients on a positive definite system never meet "
        "curvature <= 0 outside rounding",
    ("learners.py", "break  # no measurable progress possible"):
        "the line search halves a descent step 40 times without an Armijo "
        "decrease only in rounding",
}


def executable_lines(path: str) -> set[int]:
    """Every line some instruction of the module's code objects maps to."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line > 0)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(pytest_args: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        # The call event stands for the def line's entry instruction.
        executed.setdefault(path, set()).add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              os.path.join(ROOT, "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed, used = [], set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - executed.get(path, set())):
            key = (name, source[line - 1].strip())
            if key in ALLOWED:
                used.add(key)
            else:
                missed.append(f"src/coretune/{name}:{line}: {key[1]}")
    for line in missed:
        print(f"not run: {line}")
    for key in sorted(set(ALLOWED) - used):
        print(f"allowlisted line was run or is gone, drop it: {key}")
    print(f"linecov: {len(missed)} unrun line(s), {len(used)} allowlisted")
    return 1 if missed or status != 0 or used != set(ALLOWED) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
