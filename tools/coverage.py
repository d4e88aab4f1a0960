#!/usr/bin/env python3
"""Line coverage of src/rucca under a pytest run, with no coverage package.

    PYTHONPATH=src python3 tools/coverage.py [pytest arguments]

run from the repository root, runs pytest in this process (with `-q` when no argument is given) under
a `sys.settrace` hook that records each line run in a file of
src/rucca. A file's executable lines are those the standard library's
`trace` module finds in its code objects, docstrings left out. After
the run it prints one line per module, `<module> <ran>/<executable>`
followed by the numbers of the lines that did not run, then a total
line, and exits with pytest's exit code.

Only this process is traced: a test that runs rucca in a subprocess
adds nothing. The hook is set before pytest imports rucca, so the
module-level lines count too. A tool that sets its own trace function
during the run (a debugger, or Hypothesis when it explains a failure)
stops the count until it restores this one.
"""

import os
import sys
import threading
import trace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.realpath(os.path.join(ROOT, "src", "rucca"))


def _sources():
    return sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                  if name.endswith(".py"))


def run(pytest_args):
    """-> (pytest's exit code, {path: set of line numbers that ran})."""
    ran = {path: set() for path in _sources()}
    by_name = {}  # code file name -> its set in ran, or None

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(os.path.realpath(name))
        if by_name[name] is None:
            return None
        by_name[name].add(frame.f_lineno)  # the call's own line
        return local

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(pytest_args):
    code, ran = run(pytest_args or ["-q"])
    total = executed = 0
    for path, lines in ran.items():
        executable = set(trace._find_executable_linenos(path))
        missing = sorted(executable - lines)
        total += len(executable)
        executed += len(executable) - len(missing)
        print("%-14s %4d/%-4d %s" % (
            os.path.basename(path), len(executable) - len(missing),
            len(executable), " ".join(map(str, missing))))
    print("total %d of %d executable lines ran; %d did not"
          % (executed, total, total - executed))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
