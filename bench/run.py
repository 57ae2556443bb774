"""morsediag benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json records why each was chosen): classify-g4,
diagram-analysis and cli-calls; ``--workload all`` runs the three one after
the other, each in a fresh process, and prints every metric with its unit.
Each is one single-client closed loop: this process runs the work itself, or
for cli-calls waits on one CLI child at a time.  The package is imported from
``src/`` next to this directory, never from an installed copy; every file a
run writes goes under ``.bench_work/``.

With ``--trace 0`` the run measures the end-to-end metrics.  With ``--trace 1``
it is the separate traced run: the same work with spans around every public
function of the package, then untraced as a reference, reporting the
per-layer metrics.  Either way the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
describe the environment and the samples behind each number.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import layers
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUPS = 7          # set-ups per run; setup_s is their median


def import_package() -> SimpleNamespace:
    """Import morsediag afresh from src/ (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "morsediag" or n.startswith("morsediag.")]:
        del sys.modules[name]
    importlib.import_module("morsediag.cli")
    pkg = sys.modules["morsediag"]
    if Path(pkg.__file__).resolve().parent != SRC / "morsediag":
        raise SystemExit(f"error: morsediag imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: sys.modules[f"morsediag.{m}"] for m in tracer.MODULES})


def set_up(cls, seed: int, run_dir: Path, gauge: workloads.Gauge):
    """SETUPS times: import the package and build the workload's inputs.
    The last workload object is the one measured; the times are scaled to
    the gauge's reference speed."""
    timed = []
    for k in range(SETUPS):
        workdir = run_dir / f"setup{k}"
        workdir.mkdir()
        workload = None  # peak memory holds one set of inputs at a time
        t0 = time.perf_counter()
        m = import_package()
        workload = cls(m, seed, workdir)
        timed.append((t0, time.perf_counter() - t0))
    return workload, [gauge.scaled(t0, t) for t0, t in timed]


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(workload, passes, setup_times) -> dict:
    runs = sum(len(p) for p in passes)
    per_op = workloads.op_latencies(passes)
    wall = sum(per_op.values())
    lat = [wall] if workload.ONE_PASS else list(per_op.values())
    who = "the largest CLI child" if workload.name == "cli-calls" else "this process"
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (workload.peak_rss_mb if workload.name == "cli-calls"
                        else workloads.vm_hwm_mb(Path("/proc/self/status").read_text()), "MB"),
    }
    beyond = sum(1 for x in lat if x > percentile(lat, 0.9))
    raw = sum(op.raw for op in passes[0])
    print(f"# times are scaled to a fixed machine speed (bench/README.md); the first pass "
          f"took {raw:.4f} s unscaled, {sum(op.latency for op in passes[0]):.4f} s scaled")
    print(f"# setup_s: median of {len(setup_times)} set-ups "
          f"[{', '.join(f'{t:.4f}' for t in setup_times)}]")
    print(f"# {len(per_op)} distinct operations, each the median of its repetitions "
          f"({runs} runs in {len(passes)} passes)")
    if len(lat) == 1:
        print("# op latency: one sample, the whole fixed work (wall_s); by operation: "
              + ", ".join(f"{key} {t * 1e3:.1f} ms" for key, t in per_op.items()))
    else:
        print(f"# op latency: {len(lat)} samples, the distinct operations; "
              f"{beyond} beyond p90")
    print("# wall_s: the sum of the distinct operations' median latencies")
    print(f"# peak_rss_mb: VmHWM of {who}")
    return metrics


def report_failures(ops) -> int:
    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        print(f"FAILED {op.kind}: {op.detail}", file=sys.stderr)
    return len(failed)


def run_all(args) -> int:
    """Every workload in its own fresh process, one after the other; prints
    each one's metrics with units."""
    failed = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        failed += result["failed"]
        print(f"{name}: failed_ratio {result['failed']}/{result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(workloads.WORKLOADS)}, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "morsediag" / "__init__.py").is_file():
        print(f"error: no morsediag sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"# morsediag benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env: python={platform.python_version()} ({platform.python_implementation()}) "
          f"nproc={os.cpu_count()} platform={platform.machine()}")
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        with workloads.Gauge() as gauge:
            workload, setup_times = set_up(cls, args.seed, run_dir, gauge)
            if args.trace:
                result = layers.traced_run(workload, args.seconds, WORK, gauge)
            else:
                passes = workloads.run_passes(workload, args.seconds, gauge)
                result = ([op for p in passes for op in p],
                          end_to_end(workload, passes, setup_times))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops, metrics = result
    failed = report_failures(ops)
    print(f"# failed_ratio: {failed}/{len(ops)} = {failed / len(ops):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
