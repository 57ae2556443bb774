"""In-process A/B timing of two source trees on one benchmark workload.

    python tests/interleaved_ab.py A_SRC B_SRC [--workload W] [--seed N] [--passes P]

A_SRC and B_SRC are directories that each hold a ``morsediag`` package (a
checkout's ``src``).  Both are imported into this one process, under the
package names ``morsediag_a`` and ``morsediag_b``.

With ``--workload diagram-analysis`` (the default) each tree builds the
inputs of ``bench/workloads.py``'s diagram-analysis workload from the same
seed.  Every pass draws each tree's inputs anew, then runs the operations
one by one on A and on B in turn, A first on even operations and B first on
odd ones, the other way round on odd passes, so both trees see the same
machine speed, the same cache state and the same garbage-collector
pressure, to within one operation, and each operation runs first on each
tree in turn (the genus-1 class is a pass's only first operation).  An
operation is the call chain of ``DiagramAnalysis.run_pass``: rebuild,
validate, census, Morse checks, boundary flow, conversion back, the two
canonical codes and the two equivalence calls.

It prints each tree's pass times and their median, and the median over all
operations of the latency ratio B / A of the two runs of one operation, then
that median over each genus's operations alone: the 185 small genus 1-3
operations set the overall median, while the genus-4 and genus-5 ones cost
the most each.  Last it prints each tree's ``tracemalloc`` peak over one
more pass, its inputs drawn before tracing starts.  A tree compared with
itself (A/A) shows the noise floor of the ratio.  The script exits 1 if the
two trees give different outputs on any operation: the report, census, Morse
checks, boundary flow, colored class, canonical codes or equivalence
verdicts.

With ``--workload classify-g4`` every pass runs ``classify(4)`` on A and on
B in turn, A first on even passes and B first on odd ones, each after
clearing ``chord``'s caches (``_symmetry_maps``, ``_self_test`` and
``_code_format``), so every call pays the set-up that a new process pays.
The catalog round trip of each tree's report follows in the same order:
``report_entries``, ``save_catalog`` to a temporary file and
``load_catalog``.  The one-pass benchmark times classify and the round trip
together, once per process, so the machine's speed from run to run sets its
spread; here both trees run side by side.  It prints each tree's median
classify, ``save_catalog``, ``load_catalog`` and whole round trip and the
median over passes of each ratio B / A, so that the writer and the reader
can each be compared alone, then each tree's ``tracemalloc`` peak over one
more round trip.  The script exits 1 if the two trees' reports (the JSON
that ``morsediag classify`` prints, apart from ``runtime_seconds``), catalog
files or entries read back differ.  The seed does not apply.

Stdlib only; it reads ``bench/workloads.py`` and changes nothing there.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/ is put on the path above)
from tracer import MODULES  # noqa: E402


def load_tree(src: Path, name: str) -> SimpleNamespace:
    """The package under ``src/morsediag`` imported as ``name``, as the
    namespace of its modules that the workloads take."""
    pkg = src.resolve() / "morsediag"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def operation(m, canonical_colored, ccd, renamed, other) -> tuple[float, tuple]:
    """One diagram-analysis operation: its latency and its outputs as plain
    values, which two trees can compare."""
    pr = m.prdiag
    t0 = time.perf_counter()
    d = pr.from_colored_chord(ccd)
    report = pr.validate(d)
    census = pr.census(d)
    morse = pr.morse_checks(d)
    flow = pr.boundary_restriction(d)
    back = pr.to_colored_chord(d)
    code = pr.pr_canonical_code(d)
    code_renamed = pr.pr_canonical_code(renamed)
    same = pr.equivalent(d, renamed)
    differs = pr.equivalent(d, other)
    latency = time.perf_counter() - t0
    return latency, (report.to_json(), census.as_tuple(), morse.to_json(), flow.to_json(),
                     canonical_colored(back), code, code_renamed, same, differs)


def diagram_analysis(trees, args) -> int:
    runs = [workloads.DiagramAnalysis(m, args.seed, ROOT) for m in trees]
    if [c.code for c in runs[0].cases] != [c.code for c in runs[1].cases]:
        print("FAIL: the two trees draw different cases")
        return 1
    print(f"# {len(runs[0].cases)} operations a pass, seed {args.seed}, "
          f"Python {sys.version.split()[0]}")
    pass_times = [[], []]
    ratios = {}   # genus -> B/A of each of its operations
    for p in range(args.passes):
        inputs = [w.draw() for w in runs]
        totals = [0.0, 0.0]
        for i in range(len(runs[0].cases)):
            got = [None, None]
            for t in (0, 1) if (i + p) % 2 == 0 else (1, 0):
                got[t] = operation(trees[t], runs[t].canonical_colored, *inputs[t][i])
            if got[0][1] != got[1][1]:
                print(f"FAIL: pass {p}, operation {i} (genus {runs[0].cases[i].genus}): "
                      "the two trees give different outputs")
                return 1
            totals[0] += got[0][0]
            totals[1] += got[1][0]
            ratios.setdefault(runs[0].cases[i].genus, []).append(got[1][0] / got[0][0])
        for t in (0, 1):
            pass_times[t].append(totals[t])
        print(f"pass {p}: A {totals[0]:.4f} s, B {totals[1]:.4f} s, "
              f"B/A {totals[1] / totals[0]:.4f}")
    med = [statistics.median(times) for times in pass_times]
    every = [r for by_genus in ratios.values() for r in by_genus]
    ratio = statistics.median(every)
    print(f"median pass: A {med[0]:.4f} s, B {med[1]:.4f} s; median B/A over "
          f"{len(every)} operation pairs {ratio:.4f} ({(ratio - 1) * 100:+.1f} %); "
          "outputs identical")
    print("median B/A by genus: " + "; ".join(
        f"g{g} {statistics.median(r):.4f} ({len(r)} pairs)" for g, r in sorted(ratios.items())))
    peaks = []
    for t in (0, 1):
        inputs = runs[t].draw()
        tracemalloc.start()
        for case_inputs in inputs:
            operation(trees[t], runs[t].canonical_colored, *case_inputs)
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**10)
        tracemalloc.stop()
    print(f"tracemalloc peak of one more pass: A {peaks[0]:.1f} KB, B {peaks[1]:.1f} KB")
    return 0


def round_trip(m, report, path: Path) -> tuple[dict, list]:
    """One catalog round trip of a classify report: the latencies of its
    save_catalog, its load_catalog and the whole round trip, and the
    entries read back."""
    catalog = m.catalog
    t0 = time.perf_counter()
    entries = catalog.report_entries(report)
    t1 = time.perf_counter()
    catalog.save_catalog(entries, path)
    t2 = time.perf_counter()
    loaded = catalog.load_catalog(path)
    t3 = time.perf_counter()
    return {"save_catalog": t2 - t1, "load_catalog": t3 - t2, "round trip": t3 - t0}, loaded


# a catalog entry's fields, read by name from either tree's record type
ENTRY_FIELDS = ("code", "kind", "genus", "flags", "source", "tool_version")


def entry_fields(e) -> list:
    return [getattr(e, name) for name in ENTRY_FIELDS]


def classify_g4(trees, args) -> int:
    print(f"# classify(4) and the catalog round trip of its report, "
          f"Python {sys.version.split()[0]}")
    times = {step: ([], []) for step in ("classify", "save_catalog", "load_catalog", "round trip")}
    with tempfile.TemporaryDirectory(prefix="morsediag-ab-") as tmp:
        paths = [Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"]
        for p in range(args.passes):
            order = (0, 1) if p % 2 == 0 else (1, 0)
            reports, got = [None, None], [None, None]
            for t in order:
                chord = trees[t].chord
                for cached in (chord._symmetry_maps, chord._self_test, chord._code_format):
                    cached.cache_clear()   # each call pays a new process's set-up
                t0 = time.perf_counter()
                reports[t] = chord.classify(4)
                times["classify"][t].append(time.perf_counter() - t0)
            # two trees' reports are of two classes, with codes as lists or as
            # tuples, so compare the JSON they print
            outputs = [json.dumps(dict(r.to_json(), runtime_seconds=0), sort_keys=True)
                       for r in reports]
            if outputs[0] != outputs[1]:
                print(f"FAIL: pass {p}: the two trees classify genus 4 differently")
                return 1
            for t in order:
                got[t] = round_trip(trees[t], reports[t], paths[t])
                for step, latency in got[t][0].items():
                    times[step][t].append(latency)
            if paths[0].read_bytes() != paths[1].read_bytes():
                print(f"FAIL: pass {p}: the two trees write different catalogs")
                return 1
            if [entry_fields(e) for e in got[0][1]] != [entry_fields(e) for e in got[1][1]]:
                print(f"FAIL: pass {p}: the two trees read back different entries")
                return 1
            print(f"pass {p}: " + "; ".join(
                f"{step} A {a[-1]:.4f} s, B {b[-1]:.4f} s, B/A {b[-1] / a[-1]:.4f}"
                for step, (a, b) in times.items()))
        peaks = []
        for t in (0, 1):
            tracemalloc.start()   # the peak holds both lists of entries
            round_trip(trees[t], reports[t], paths[t])
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
    print(f"# {len(reports[0].base_codes) + len(reports[0].colored_codes)} genus-4 classes")
    for step, (a, b) in times.items():
        ratio = statistics.median(y / x for x, y in zip(a, b))
        print(f"median {step}: A {statistics.median(a):.4f} s, B {statistics.median(b):.4f} s; "
              f"median B/A over {len(a)} passes {ratio:.4f} ({(ratio - 1) * 100:+.1f} %)")
    print(f"tracemalloc peak of one round trip: A {peaks[0]:.2f} MB, B {peaks[1]:.2f} MB; "
          "outputs identical")
    return 0


WORKLOADS = {"diagram-analysis": diagram_analysis, "classify-g4": classify_g4}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="source tree A (holds morsediag/)")
    ap.add_argument("b", type=Path, help="source tree B (holds morsediag/)")
    ap.add_argument("--workload", choices=WORKLOADS, default="diagram-analysis")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=10)
    args = ap.parse_args()

    trees = [load_tree(args.a, "morsediag_a"), load_tree(args.b, "morsediag_b")]
    return WORKLOADS[args.workload](trees, args)


if __name__ == "__main__":
    sys.exit(main())
