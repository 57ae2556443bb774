"""Mutation checks: each mutant breaks the package in one place on purpose,
and the tests listed with it must fail on the broken copy.

    python tests/mutants.py

A mutant is a file under src/morsediag, an exact snippet that must occur
once in it, its replacement and the pytest node ids expected to fail (a
parametrised test fails if any of its cases does).  Each mutant is applied
to a temporary copy of src/, never to the tree, and its tests run with
PYTHONPATH pointing at the copy, one mutant at a time.  The listed tests
must first pass on the unchanged copy.  The script exits 1, naming the
mutant, if one survives or if its snippet no longer occurs exactly once.
Stdlib only, besides the pytest that runs the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str                # under src/morsediag
    snippet: str             # must occur exactly once in the file
    replacement: str
    kills: tuple[str, ...]   # pytest node ids that must fail


_DEEP_CATALOG = ("tests/test_catalog.py::test_too_deeply_nested_line_is_invalid_json",)

MUTANTS = (
    Mutant("red cycle caps typed as plain sinks", "prdiag.py",
           "sink = regions(red, 5, 6)", "sink = regions(red, 6, 6)",
           ("tests/test_prdiag.py::test_colour_swap_reverses_the_flow",
            "tests/test_prdiag.py::test_colour_swapped_six_point_flow_is_pinned")),
    Mutant("first walk dart always the edge id", "combmap.py",
           "walk = [alpha[e]]", "walk = [e]",
           ("tests/test_combmap.py::test_curve_dart_walk_walks_and_refusals",)),
    Mutant("RecursionError handler of cli._load removed", "cli.py",
           "except (OSError, ValueError, RecursionError) as exc:",
           "except (OSError, ValueError) as exc:",
           ("tests/test_cli.py::test_too_deeply_nested_json_exits_two_naming_the_file",)),
    Mutant("RecursionError handler of catalog._tail_entry removed", "catalog.py",
           "except (json.JSONDecodeError, RecursionError):\n        return None",
           "except json.JSONDecodeError:\n        return None",
           _DEEP_CATALOG),
    Mutant("RecursionError handler of load_catalog's whole-line parse removed", "catalog.py",
           "except (json.JSONDecodeError, RecursionError) as exc:",
           "except json.JSONDecodeError as exc:",
           _DEEP_CATALOG),
    Mutant("earlier-trail check of prdiag._left_turn_trail deleted", "prdiag.py",
           "or ci in pieces or ci in used:", "or ci in pieces:",
           ("tests/test_prdiag.py::test_left_turn_walk_refuses_a_piece_taken_the_other_way",)),
    Mutant("red side split by the start of to_colored_chord's boundary walk read twice",
           "prdiag.py", "if mk != marks[i - 1]]", "if i == 0 or mk != marks[i - 1]]",
           ("tests/test_prdiag.py::test_subdivided_renamed_optimal_diagrams_convert_back",)),
)


def _failed(src: Path, node_ids) -> set[str]:
    """The node ids that fail or error when pytest runs them against the
    package under ``src``, each given as listed (parameters stripped)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # not a plain pass or fail: show why
        sys.stdout.write(proc.stdout + proc.stderr)
        raise SystemExit(f"pytest exited {proc.returncode}")
    reported = [line.split()[1] for line in proc.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return {n for n in node_ids for r in reported if r == n or r.startswith(n + "[")}


def main() -> int:
    t0 = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory(prefix="morsediag-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        all_ids = sorted({n for mt in MUTANTS for n in mt.kills})
        broken = _failed(src, all_ids)
        if broken:
            print(f"the listed tests must pass unmutated; failing: {sorted(broken)}")
            return 1
        for mt in MUTANTS:
            path = src / "morsediag" / mt.file
            text = path.read_text()
            count = text.count(mt.snippet)
            if count != 1:
                problems.append(f"{mt.name}: snippet occurs {count} times in {mt.file}")
                print(f"STALE     {mt.name}")
                continue
            path.write_text(text.replace(mt.snippet, mt.replacement))
            try:
                survived = sorted(set(mt.kills) - _failed(src, mt.kills))
            finally:
                path.write_text(text)
            if survived:
                problems.append(f"{mt.name}: survived {', '.join(survived)}")
            print(f"{'SURVIVED' if survived else 'killed':9} {mt.name}")
    print(f"{len(MUTANTS)} mutants, {len(problems)} problems, "
          f"{time.perf_counter() - t0:.1f} s")
    for p in problems:
        print(f"error: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
