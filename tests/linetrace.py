"""Print each executable line of ``src/ealgebra`` that no tier-1 test runs.

Run from anywhere, with pytest's arguments if any::

    python tests/linetrace.py            # the whole tier-1 suite
    python tests/linetrace.py -x tests/test_stateio.py

The suite runs in this process under ``sys.settrace``, which records only
frames of ``src/ealgebra``.  The tracer is installed again before each
test's setup, call and teardown, because a ``RecursionError`` inside the
trace function unsets it (the nesting-depth tests raise one).  The child
processes that the golden tests start are traced too: a
``sitecustomize.py`` on ``PYTHONPATH`` loads this file in each child,
which appends the lines it ran to the file that ``EALGEBRA_LINETRACE``
names.  The report is one ``file:line: source`` line per executable line
that nothing ran, then a count on stderr.  Lines that run after a
``RecursionError`` within the same test phase read as not run (the CLI's
and the parser's branches for too deep a nesting).  It needs no
``coverage`` package; tracing took the suite from about 60 s to about
210 s on a 2-core x86 host.

The file has no ``test_`` prefix, so the suite does not collect it.
"""

from __future__ import annotations

import atexit
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ealgebra"
ENV = "EALGEBRA_LINETRACE"

SITECUSTOMIZE = """\
import importlib.util

spec = importlib.util.spec_from_file_location("_linetrace", {path!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.trace_child()
"""


def tracer(ran: set[tuple[str, int]]):
    """A global trace function adding ``(file, line)`` to ``ran`` for
    each line a frame of the package runs."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    return call


def trace_child() -> None:
    """Trace this process, and append what it ran to the file ``ENV``
    names when it exits."""
    out = os.environ.get(ENV)
    if not out:
        return
    ran: set[tuple[str, int]] = set()

    def save():
        sys.settrace(None)
        with open(out, "a", encoding="utf-8") as fh:
            fh.writelines(f"{name}\t{line}\n" for name, line in ran)

    atexit.register(save)
    sys.settrace(tracer(ran))


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that some instruction belongs to."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0 or None: no line
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    ran: set[tuple[str, int]] = set()
    trace = tracer(ran)

    class Retrace:
        """Installs the trace function before each phase of each test."""

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(trace)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.settrace(trace)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_teardown(self, item):
            sys.settrace(trace)

    with tempfile.TemporaryDirectory() as scratch:
        children = Path(scratch) / "children.txt"
        (Path(scratch) / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(path=str(Path(__file__).resolve())), encoding="utf-8"
        )
        os.environ[ENV] = str(children)
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (scratch, str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        os.chdir(ROOT)
        sys.settrace(trace)
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[Retrace()])
        finally:
            sys.settrace(None)
        if children.exists():
            for entry in children.read_text(encoding="utf-8").splitlines():
                name, line = entry.split("\t")
                ran.add((name, int(line)))
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - {n for name, n in ran if name == str(path)}):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} of {total} executable lines not run", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
