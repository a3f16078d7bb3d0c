"""Opt-in pytest plugin: list the executable lines of ``src/folnerlab`` that
no test runs.

Run it over the suite with

    PYTHONPATH=src:tests python -m pytest -q -p line_trace

It traces every Python frame of the test process with ``sys.settrace`` (and
``threading.settrace`` for threads started later), so the suite runs about
twice as long.  Code that tests run in a subprocess (``python -m
folnerlab.cli``) is not traced, and its lines are listed as unrun.  A line is executable when the compiler gives it bytecode.

The module is named outside ``test_*`` and is not imported by any
``conftest.py``, so the plain suite never loads it.
"""
from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

_SRC = (Path(__file__).resolve().parent.parent / "src" / "folnerlab").resolve()
_ran: dict = {}  # code file name -> set of line numbers run, or None if not ours


def _local(frame, event, arg):
    _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ran:
        _ran[name] = set() if Path(name).resolve().parent == _SRC else None
    if _ran[name] is None:
        return None
    _ran[name].add(frame.f_lineno)
    return _local


def _executable(path: Path) -> set:
    """The lines of ``path`` that carry bytecode, over all its code objects."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(ln for _, _, ln in code.co_lines() if ln is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    ran: dict = {}
    for name, lines in _ran.items():
        if lines is not None:
            ran.setdefault(Path(name).resolve(), set()).update(lines)
    tr, unrun, total = terminalreporter, [], 0
    for path in sorted(_SRC.glob("*.py")):
        lines = _executable(path)
        total += len(lines)
        source = path.read_text().splitlines()
        unrun += [f"{path.name}:{ln}: {source[ln - 1].strip()}"
                  for ln in sorted(lines - ran.get(path, set()))]
    tr.section("lines of src/folnerlab no test ran in process")
    for line in unrun:
        tr.write_line(line)
    tr.write_line(f"{len(unrun)} of {total} executable lines not run")
