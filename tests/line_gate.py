"""Line gate: every executable line of the package runs in the tier-1 suite.

    python tests/line_gate.py

Runs the tier-1 tests in this process under ``sys.settrace``, tracing only
frames of src/morsediag, and takes each module's executable lines from the
``co_lines()`` of its code objects.  It exits 1, naming file, line and text,
if a line never ran, unless an allowlist entry covers it: a file, an exact
snippet that must occur once in it, and the reason it is left untested.  A
snippet that no longer occurs exactly once, or that covers only lines that
ran, fails the gate by name, so the list cannot rot.  Lines that run only in
child processes (the CLI run as a program) are not seen.  Stdlib only,
besides the pytest that runs the tests; tracing makes the suite four to five
times slower (70-90 s on 2 CPUs with Python 3.11).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "morsediag"


class Allowed(NamedTuple):
    file: str      # under src/morsediag
    snippet: str   # must occur exactly once in the file; its lines need not run
    reason: str


ALLOWED = (
    Allowed("cli.py", "sys.exit(main())",
            "runs only when the CLI runs as a program, in the tests' child processes"),
    Allowed("prdiag.py",
            'raise InvalidDiagram(f"boundary Euler characteristic {chi_boundary}")',
            "safety: a valid diagram whose boundary Euler characteristic is above 2 "
            "would be a program fault"),
)


def _executable_lines(path: Path) -> dict[int, str]:
    """line number -> text of each line that some code object of the module
    attributes an instruction to."""
    text = path.read_text()
    lines, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if isinstance(c, type(code))]
    source = text.splitlines()
    return {n: source[n - 1].strip() for n in sorted(lines)}


def _allowed_lines(problems: list) -> dict[tuple[str, int], int]:
    """(file, line) -> index in ALLOWED of the snippet that spans the line."""
    out = {}
    for k, entry in enumerate(ALLOWED):
        text = (PACKAGE / entry.file).read_text()
        count = text.count(entry.snippet)
        if count != 1:
            problems.append(f"allowlist snippet occurs {count} times in "
                            f"{entry.file}: {entry.snippet}")
            continue
        first = text[:text.index(entry.snippet)].count("\n") + 1
        for n in range(first, first + entry.snippet.count("\n") + 1):
            out[entry.file, n] = k
    return out


def _run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and, per package file, the lines that ran.

    A code object's frames are line-traced only until every line it holds
    has run, so hot code costs little after its first calls."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    lines: dict = {}       # package code object -> its lines
    left: dict = {}        # package code object -> its lines not yet run
    elsewhere = set()      # code objects outside the package

    def local(frame, event, arg):
        if event == "line":
            left[frame.f_code].discard(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        todo = left.get(code)
        if todo is None:
            if code in elsewhere or not code.co_filename.startswith(prefix):
                elsewhere.add(code)
                return None
            lines[code] = {line for _, _, line in code.co_lines() if line}
            todo = left[code] = set(lines[code])
        todo.discard(frame.f_lineno)
        return local if todo else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran: dict[str, set[int]] = {}
    for code, todo in left.items():
        ran.setdefault(code.co_filename, set()).update(lines[code] - todo)
    return int(status), ran


def main() -> int:
    t0 = time.perf_counter()
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    os.chdir(ROOT)
    status, ran = _run_traced(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    problems = [] if status == 0 else [f"the tier-1 tests exited {status}"]
    allowed = _allowed_lines(problems)
    used = []   # per line that never ran and is allowlisted: its entry's index
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        seen = ran.get(str(path), set())
        lines = _executable_lines(path)
        total += len(lines)
        for n, text in lines.items():
            k = allowed.get((path.name, n))
            if n in seen:
                continue
            if k is None:
                problems.append(f"{path.name}:{n} never ran: {text}")
            else:
                used.append(k)
    problems += [f"allowlist snippet ran, so it needs no entry: {entry.file}: {entry.snippet}"
                 for k, entry in enumerate(ALLOWED) if k in set(allowed.values()) - set(used)]
    print(f"line gate: {total} executable lines, {len(used)} allowlisted, "
          f"{len(problems)} problems, {time.perf_counter() - t0:.1f} s")
    for p in problems:
        print(f"error: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
