"""The traced run: per-layer metrics from spans, the start-up decomposition
of a CLI call, the tracing overhead, and a comparison with the roadmap's
baseline table.

Every per-layer metric is reported on every workload; a layer the workload
does not exercise reads 0 and is listed as such.  Times and counts are per
pass of the workload's fixed work.  ``.s`` metrics are self time: a span's
duration minus that of its child spans.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import MODULES, Tracer
from workloads import SRC, Gauge, fixed_work_wall, op_latencies, run_passes

SELF_TIMES = (
    "chord.enumerate_bases", "chord.face_count", "chord.canonical_match",
    "chord.enumerate_colorings", "chord.canonical_colored", "chord.is_river",
    "prdiag.validate", "prdiag.census", "prdiag.boundary_restriction",
    "prdiag.to_colored_chord", "prdiag.from_colored_chord", "prdiag.equivalent",
    "combmap.canonical_code", "combmap._cut_walk",
    "catalog.save_catalog", "catalog.load_catalog", "catalog.verify_fixtures",
)
CALL_COUNTS = ("chord.face_count", "chord.canonical_match", "chord.canonical_colored",
               "combmap._cut_walk")
SUBCOMMANDS = ("classify", "validate", "iso", "census", "convert", "boundary",
               "fixtures", "export")
STARTUP_SAMPLES = 10
# The untraced reference passes start only if, at the traced passes' pace,
# they end this many seconds into the run; a run must end within 180 s.
REFERENCE_DEADLINE_S = 150

# Roadmap baseline rows: (label, low s, high s); single runs, +-20 % noise.
ROADMAP_NOISE = 0.20
ROADMAP_ROWS = {
    "classify-g4": (
        ("classify(3)", 0.2, 0.2),
        ("classify(4), 1 worker", 44.0, 44.0),
        ("g4 enumerate matchings + one-face filter", 16.0, 19.0),
        ("g4 canonical_match on every one-face matching", 27.0, 27.0),
        ("g4 colorings and river test", 8.0, 8.0),
    ),
    "diagram-analysis": (
        ("179 g3 diagrams: validate", 0.10, 0.10),
        ("179 g3 diagrams: census", 0.20, 0.20),
        ("179 g3 diagrams: boundary_restriction", 0.38, 0.38),
        ("179 g3 diagrams: to_colored_chord", 0.36, 0.36),
        ("179 g3 diagrams: canonical_code", 0.16, 0.16),
    ),
}


def startup_ms(gauge: Gauge) -> tuple[float, float]:
    """Best time, in ms at the gauge's reference speed, of a bare interpreter
    and of one that imports morsediag.cli, over STARTUP_SAMPLES alternating
    spawns of each."""
    cmds = ([sys.executable, "-c", "pass"],
            [sys.executable, "-c", "import morsediag.cli"])
    timed = ([], [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(STARTUP_SAMPLES):
        for k, cmd in enumerate(cmds):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True)
            timed[k].append((t0, time.perf_counter() - t0))
    return tuple(min(gauge.scaled(t0, t) for t0, t in ts) * 1e3 for ts in timed)


def _roadmap_values(name: str, tr: Tracer, best: dict, kinds: dict) -> list[float]:
    if name == "classify-g4":
        g4 = {o for o, key in enumerate(tr.op_keys) if key == "g4"}
        own = {name: t for name, (_, t) in tr.self_times(ops=g4).items()}
        top = sum(tr.duration(i) for i in tr.spans_of("chord.classify") if tr.op[i] in g4)
        bases = sum(tr.duration(i) for i in tr.spans_of("chord.enumerate_bases") if tr.op[i] in g4)
        return [
            best["g3"], best["g4"],
            own.get("chord.enumerate_bases", 0.0) + own.get("chord.face_count", 0.0),
            own.get("chord.canonical_match", 0.0),
            top - bases,
        ]
    # one call on each of the 179 genus-3 diagrams: per diagram, the best
    # over the traced passes of its top-level calls, divided by their number
    g3 = {key for key, kind in kinds.items() if kind == "g3"}
    runs = sum(1 for key in tr.op_keys if key in g3)
    out = []
    for name in ("validate", "census", "boundary_restriction", "to_colored_chord",
                 "pr_canonical_code"):
        per_op: dict[int, float] = {}
        count = 0
        for i in tr.spans_of(f"prdiag.{name}"):
            if tr.parent[i] < 0 and tr.op_keys[tr.op[i]] in g3:
                per_op[tr.op[i]] = per_op.get(tr.op[i], 0.0) + tr.duration(i)
                count += 1
        best: dict[int, float] = {}
        for op, t in per_op.items():
            key = tr.op_keys[op]
            best[key] = min(t, best.get(key, t))
        out.append(sum(best.values()) * runs / count if count else 0.0)
    return out


def traced_run(workload, seconds: float, work: Path, gauge: Gauge):
    """Traced passes for half the time, then untraced reference passes for
    the other half; returns (all operations, per-layer metrics)."""
    t0 = time.perf_counter()
    tracer = Tracer()
    traced = run_passes(workload, seconds / 2, gauge, tracer)
    traced_s = time.perf_counter() - t0
    tracer.write(work / f"spans-{workload.name}")
    # span times are raw and include the gauge's own runs (about 2 %); give
    # them at the gauge's reference speed over the traced passes, less that share
    tracer.scale = (gauge.factor(t0, t0 + traced_s)
                    * (1 - gauge.busy(t0, t0 + traced_s) / traced_s))
    bare_ms, imported_ms = startup_ms(gauge)
    name = workload.name

    npass = len(traced)
    ops_per_pass = len(traced[0])
    kinds = {op.key: op.kind for op in traced[0]}
    stats = tracer.self_times()

    def self_s(name):
        return stats.get(name, (0, 0.0))[1] / npass

    def calls(name):
        return stats.get(name, (0, 0.0))[0] / npass

    def under(name, parent):
        return sum(1 for i in tracer.spans_of(name)
                   if tracer.parent[i] >= 0 and tracer.name_at(tracer.parent[i]) == parent)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for fn in SELF_TIMES:
        m[f"{fn}.s"] = (self_s(fn), "s")
    for fn in CALL_COUNTS:
        m[f"{fn}.calls"] = (calls(fn), "count")
    m["chord.base_yield"] = (ratio(tracer.results.get("chord.enumerate_bases", 0),
                                   under("chord.canonical_match", "chord.enumerate_bases")),
                             "ratio")
    m["chord.coloring_yield"] = (ratio(tracer.results.get("chord.enumerate_colorings", 0),
                                       under("chord.canonical_colored",
                                             "chord.enumerate_colorings")), "ratio")
    m["prdiag.validate.calls_per_diagram"] = (ratio(calls("prdiag.validate"), ops_per_pass),
                                              "count")
    boundary = tracer.spans_of("prdiag.boundary_restriction")
    side = sum(1 for i in tracer.spans_of("combmap.components")
               if tracer.has_ancestor(i, "prdiag.boundary_restriction"))
    m["combmap.components.calls_per_boundary"] = (ratio(side, len(boundary)), "count")
    m["catalog.bytes_written"] = (float(workload.bytes_written), "bytes")
    m["cli.interpreter_ms"] = (bare_ms, "ms")
    m["cli.import_ms"] = (imported_ms - bare_ms, "ms")
    mains = tracer.spans_of("cli.main")
    m["cli.main_ms"] = (statistics.median(tracer.duration(i) for i in mains) * 1e3
                        if mains else 0.0, "ms")
    for sub in SUBCOMMANDS:
        ms = [tracer.duration(i) * 1e3 for i in mains
              if kinds[tracer.op_keys[tracer.op[i]]] == sub]
        m[f"cli.main_ms.{sub}"] = (statistics.median(ms) if ms else 0.0, "ms")
    for mod in MODULES:
        m[f"{mod}.self_s"] = (sum(s for fn, (_, s) in stats.items()
                                  if fn.startswith(mod + ".")) / npass, "s")
    m["trace.spans"] = (len(tracer) / npass, "count")

    ref = []
    if time.perf_counter() - t0 + traced_s < REFERENCE_DEADLINE_S:
        ref = run_passes(workload, seconds / 2, gauge)
    traced_wall = fixed_work_wall(traced)
    if ref:
        untraced_wall = fixed_work_wall(ref)
        m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        print(f"# tracing overhead: wall_s {untraced_wall:.4f} s untraced, "
              f"{traced_wall:.4f} s traced")
    else:
        m["trace.overhead_s"] = (0.0, "s")
        print(f"# tracing overhead not measured (reads 0): an untraced pass would end the run "
              f"after {REFERENCE_DEADLINE_S} s")

    print(f"# traced run: {len(tracer.swaps)} names wrapped, {npass} traced and {len(ref)} "
          f"untraced passes, {len(tracer)} spans written to {work.name}/spans-{name}.bin")
    idle = sorted(fn for fn, (value, unit) in m.items()
                  if value == 0 and not fn.startswith("trace."))
    if idle:
        print(f"# not exercised by {name} (read 0): {', '.join(idle)}")
    mean_pass = sum(op.latency for p in traced for op in p) / npass
    shares = {mod: m[f"{mod}.self_s"][0] / mean_pass for mod in MODULES}
    print("# self time share of a traced pass: "
          + ", ".join(f"{mod} {100 * s:.1f}%" for mod, s in shares.items()))
    best = op_latencies(ref or traced)
    if name == "cli-calls":
        main_ms = m["cli.main_ms"][0]
        p50 = statistics.median(best.values()) * 1e3
        print(f"# start-up: interpreter {bare_ms:.1f} ms + import {imported_ms - bare_ms:.1f} ms "
              f"+ main {main_ms:.1f} ms (median) -> start-up and import are "
              f"{100 * imported_ms / (imported_ms + main_ms):.1f}% of a call "
              f"({'untraced' if ref else 'traced'} median call {p50:.1f} ms)")
    rows = ROADMAP_ROWS.get(name, ())
    values = _roadmap_values(name, tracer, best, kinds) if rows else ()
    if rows:
        print(f"# the roadmap's rows are raw times of single runs; they are compared with this "
              f"run's raw times, taken while the gauge's reference loop ran "
              f"{gauge.REFERENCE_S * 1e3 / tracer.scale:.2f} ms (1 ms at the reference speed)")
    for (label, lo, hi), value in zip(rows, values):
        raw = value / tracer.scale
        agrees = lo / (1 + ROADMAP_NOISE) <= raw <= hi * (1 + ROADMAP_NOISE)
        base = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
        print(f"# roadmap row '{label}': baseline {base} s, measured {raw:.3f} s "
              f"({value:.3f} s at the reference speed) -> "
              f"{'agrees' if agrees else 'DISAGREES'} within +-20%")
    return [op for p in traced + ref for op in p], m
