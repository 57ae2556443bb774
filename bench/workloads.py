"""The three benchmark workloads: inputs built from a seed, one pass of fixed
work, and a check of every output.

A workload object is built in set-up and then runs passes; ``run_pass``
returns one ``Op`` per operation with its latency and whether every check on
its outputs held.  Checks call functions captured in set-up, before any
tracing wrapper is installed, and run outside the timed region of the
operation.

An operation counts with its median latency over the passes of a run, so no
pass may be made cheaper by an earlier one: diagram-analysis feeds each pass
inputs of the same classes drawn anew, cli-calls starts a fresh process for
every call, and classify-g4, whose only input is the genus, runs once.
Latencies are scaled by a ``Gauge`` to one fixed machine speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Counts enumeration gives at the commit that defined this benchmark:
# (bases, colored, river_colored, river_bases) per genus.  Genus 3 gives
# 179/7, not the 177/8 recorded by acceptance criterion 3.
EXPECTED_COUNTS = {
    1: (1, 1, 1, 1),
    2: (4, 5, 2, 2),
    3: (82, 179, 7, 7),
    4: (7258, 15093, 29, 29),
}
# SHA-256 of the catalog report_entries + save_catalog write per genus, with
# an empty tool_version (as the benchmark writes them).
CATALOG_SHA256 = {
    1: "24f02a6220791cb540c59ff72876c3812216e13fa658a5994ec557b5bebff903",
    2: "0ba87ab4c9d2f22adf68fc2955ec4d16cab0fe6d437f377c1d868f5d22cb2482",
    3: "bc5c1a35efd7677ea96763d1cc898fa2cd2b7fdca158342ddd395de81986876c",
    4: "18ef16befcaae3df8bd47222b31a13aff035572edfa06810a37ce2f1bb81e432",
}
# `morsediag classify --genus 3 --out` writes tool_version "0.1.0".
CLI_G3_CATALOG_SHA256 = "2b056e88f6b34074a9e068b1b551acfcbe2f259a5b273661fcf0a225500ef8bd"


@dataclass
class Op:
    key: object          # identity of the operation; repetitions share it
    kind: str            # genus ("g4") or subcommand ("validate")
    latency: float       # seconds; scaled to the gauge's reference speed when run with one
    ok: bool
    detail: str = ""
    start: float = 0.0   # time.perf_counter() when the operation started
    raw: float = 0.0     # the measured latency, before scaling


def reference_loop(n: int = 660) -> int:
    """A fixed piece of pure-Python work of the kind the package does (small
    tuples, dict updates, sorting); about 1 ms on the machine the benchmark
    was tuned on, when it runs fast."""
    seen = {}
    for i in range(n):
        t = tuple((i * k) % 97 for k in range(8))
        seen[t] = seen.get(t, 0) + 1
        sorted(t)
    return len(seen)


class Gauge:
    """Measures how fast the machine runs while operations are timed, so that
    each latency can be given at one fixed machine speed.

    On a shared host the speed of the CPU this process gets changes by up to
    a factor of two within seconds and drifts over minutes, so raw times of
    the same work spread by 30-50 % between runs.  Inside the ``with`` block
    the process is pinned to one CPU and a background thread runs
    ``reference_loop`` every PERIOD seconds on that CPU, recording when each
    run started and ended and the CPU time it took (CPU time, because a CLI
    child on the same CPU may preempt a run).  ``scaled`` then turns an
    operation's raw time into seconds at the speed at which
    ``reference_loop`` takes REFERENCE_S: the raw time, less the gauge's own
    runs inside it, times REFERENCE_S over the mean CPU time of the gauge's
    runs during the operation (widened by PAD on each side, so that short
    operations have several).  A program that gets faster or slower changes
    the scaled time in the same proportion; the reference itself never calls
    the package.

    The thread takes the interpreter lock for one reference run at a time;
    the switch interval is raised so that the main thread cannot interrupt a
    run, and restored on leaving the block, as is the CPU affinity.
    """

    PERIOD = 0.05
    PAD = 0.25
    REFERENCE_S = 1e-3
    SWITCH_INTERVAL = 0.02

    def __init__(self):
        self.runs: list[tuple[float, float, float]] = []   # (start, end, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "Gauge":
        self.allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.allowed)})  # threads and children inherit it
        self.switch = sys.getswitchinterval()
        sys.setswitchinterval(self.SWITCH_INTERVAL)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self.switch)
        os.sched_setaffinity(0, self.allowed)

    def _sample(self) -> None:
        while not self._stop.wait(self.PERIOD):
            t0, c0 = time.perf_counter(), time.thread_time()
            reference_loop()
            self.runs.append((t0, time.perf_counter(), time.thread_time() - c0))

    def wait_until(self, t: float) -> None:
        """Block until the gauge has a run that starts after time `t`."""
        while not self.runs or self.runs[-1][0] <= t:
            time.sleep(self.PERIOD / 2)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean CPU time of the gauge's runs from PAD
        before `start` to PAD after `end`."""
        self.wait_until(end + self.PAD)
        near = [cpu for a, b, cpu in self.runs
                if start - self.PAD <= (a + b) / 2 <= end + self.PAD]
        return self.REFERENCE_S / statistics.mean(near)

    def scaled(self, start: float, latency: float) -> float:
        """An operation's raw latency, less the gauge's runs inside it, in
        seconds at the reference speed."""
        speed = self.factor(start, start + latency)
        return (latency - self.busy(start, start + latency)) * speed

    def busy(self, start: float, end: float) -> float:
        """CPU time the gauge's own runs took between `start` and `end`."""
        return sum(cpu * max(0.0, min(b, end) - max(a, start)) / (b - a)
                   for a, b, cpu in self.runs)


def run_passes(workload, seconds: float, gauge: Gauge, tracer=None) -> list[list[Op]]:
    """Whole passes of the workload's fixed work until `seconds` have gone
    by; always one, and only one if the workload says so.  Each latency is
    scaled to a fixed machine speed once the pass has ended.  With a
    tracer, its wrappers are in place during each pass but not while the
    pass's inputs are drawn."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or (time.perf_counter() < deadline and not workload.ONE_PASS):
        inputs = workload.draw()
        if tracer is not None:
            tracer.install()
        try:
            ops = workload.run_pass(inputs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for op in ops:
            op.raw = op.latency
            op.latency = workload.scaled(gauge, op)
        passes.append(ops)
    return passes


def op_latencies(passes) -> dict:
    """Each distinct operation's median latency over its repetitions in the
    run (the median, unlike the best, does not fall as a faster machine
    fits more passes into the run)."""
    reps: dict = {}
    for p in passes:
        for op in p:
            reps.setdefault(op.key, []).append(op.latency)
    return {key: statistics.median(ts) for key, ts in reps.items()}


def fixed_work_wall(passes) -> float:
    """Time to finish the workload's fixed work once: the sum over distinct
    operations of their median latencies (checks are not timed)."""
    return sum(op_latencies(passes).values())


def vm_hwm_mb(status: str) -> float:
    """Peak resident memory, in MB, from the text of a /proc/PID/status."""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM line")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def colored_inputs(m, genus: int):
    """Every colored class of one genus, as enumeration returns them."""
    out = []
    for base in m.chord.enumerate_bases(genus):
        out.extend(m.chord.enumerate_colorings(base, genus))
    return out


def sample_colored(m, genus: int, rng: random.Random):
    """A random optimal colored diagram: rejection-sample a one-face perfect
    matching of 4g points, then pick one of its non-crossing green g-subsets."""
    chord = m.chord
    pts = 4 * genus
    while True:
        order = list(range(pts))
        rng.shuffle(order)
        match = [0] * pts
        for a, b in zip(order[::2], order[1::2]):
            match[a], match[b] = b, a
        base = chord.ChordDiagram(2 * genus, tuple(match))
        if chord.face_count(base) != 1:
            continue
        chords = base.chords()
        subsets = [s for s in _subsets(len(chords), genus)
                   if not any(_cross(chords[i], chords[j]) for i in s for j in s if i < j)]
        if not subsets:
            continue
        green = set(rng.choice(subsets))
        colors = tuple(chord.GREEN if i in green else chord.RED for i in range(len(chords)))
        return chord.ColoredChordDiagram(base, colors)


def _cross(p, q) -> bool:
    (a, b), (c, d) = p, q
    return a < c < b < d or c < a < d < b


def _subsets(n: int, k: int, start: int = 0):
    if k == 0:
        yield ()
        return
    for i in range(start, n - k + 1):
        for rest in _subsets(n, k - 1, i + 1):
            yield (i,) + rest


def rename_darts(m, d, rng: random.Random):
    """The same diagram with its darts renamed by a random permutation (curve
    edge ids follow the renaming)."""
    cm = m.combmap
    s = d.surface
    n = s.n_darts
    perm = list(range(n))
    rng.shuffle(perm)
    alpha, sigma, labels = [0] * n, [0] * n, [None] * n
    for x in range(n):
        alpha[perm[x]] = perm[s.alpha[x]]
        sigma[perm[x]] = perm[s.sigma[x]]
        labels[perm[x]] = s.labels[x]
    bare = cm.CombMap(tuple(alpha), tuple(sigma), tuple(labels), frozenset())
    old_faces, new_faces = cm.face_table(s), cm.face_table(bare)
    holes = frozenset(new_faces[perm[x]] for x in range(n) if old_faces[x] in s.holes)
    surface = cm.CombMap(bare.alpha, bare.sigma, bare.labels, holes)
    curves = tuple(
        cm.EmbeddedCurve(tuple(min(perm[e], perm[s.alpha[e]]) for e in c.edges),
                         c.closed, c.label)
        for c in d.curves)
    return m.prdiag.PrDiagram(surface, curves)


# ---------------------------------------------------------------------------
# classify-g4
# ---------------------------------------------------------------------------

class ClassifyG4:
    """classify(g) for g = 1..4 on one worker; each catalog is written with
    report_entries + save_catalog and read back with load_catalog.  The seed
    does not apply: the work is fixed."""

    name = "classify-g4"
    # Classify has no input to draw anew, so a repetition could reuse what
    # the first pass computed: the work runs once.  Its four operations are
    # of very different sizes (genus 4 is over 99 % of the time), so the op
    # latency metrics take the whole pass, the time a user of classify
    # waits on, as their one sample.
    ONE_PASS = True

    def __init__(self, m, seed: int, workdir: Path):
        self.m = m
        self.workdir = workdir
        self.bytes_written = 0

    def draw(self) -> None:
        return None

    def scaled(self, gauge: Gauge, op: Op) -> float:
        return gauge.scaled(op.start, op.raw)

    def run_pass(self, inputs: None, tracer=None) -> list[Op]:
        self.bytes_written = 0
        return [self.classify(g, tracer) for g in (1, 2, 3, 4)]

    def classify(self, g: int, tracer) -> Op:
        chord, catalog = self.m.chord, self.m.catalog
        path = self.workdir / f"g{g}.jsonl"
        if tracer is not None:
            tracer.begin_op(f"g{g}")
        t0 = time.perf_counter()
        try:
            report = chord.classify(g, workers=1)
            entries = catalog.report_entries(report)
            catalog.save_catalog(entries, path)
            loaded = catalog.load_catalog(path)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            return Op(f"g{g}", f"g{g}", time.perf_counter() - t0, False, repr(exc), t0)
        latency = time.perf_counter() - t0
        self.bytes_written += path.stat().st_size
        counts = (report.bases, report.colored, report.river_colored, report.river_bases)
        problems = []
        if counts != EXPECTED_COUNTS[g]:
            problems.append(f"counts {counts} != {EXPECTED_COUNTS[g]}")
        if sha256(path) != CATALOG_SHA256[g]:
            problems.append("catalog digest differs")
        if [e.code for e in loaded] != sorted(e.code for e in entries):
            problems.append("catalog read back differs")
        return Op(f"g{g}", f"g{g}", latency, not problems, "; ".join(problems), t0)


# ---------------------------------------------------------------------------
# diagram-analysis
# ---------------------------------------------------------------------------

def dihedral_copy(m, ccd, rng: random.Random):
    """The same colored class drawn anew: the circle's points rotated by a
    random step and, with even odds, reflected (classes are taken up to the
    dihedral symmetry)."""
    n = ccd.base.points
    step, flip = rng.randrange(n), rng.random() < 0.5

    def image(x: int) -> int:
        y = (x + step) % n
        return n - 1 - y if flip else y

    match, colors = [0] * n, [""] * n
    for x, color in enumerate(ccd.point_colors()):
        match[image(x)] = image(ccd.base.match[x])
        colors[image(x)] = color
    return m.chord.colored_from_point_colors(match, colors)


@dataclass
class _Case:
    genus: int
    ccd: object          # ColoredChordDiagram
    code: str            # its canonical_colored code
    built: object        # PrDiagram rebuilt from ccd


class DiagramAnalysis:
    """All 185 colored classes of genus 1-3 plus a seeded sample of genus-4
    and genus-5 diagrams, each rebuilt and pushed through the analysis chain.

    Every pass draws its inputs anew, outside the timed region: a dihedral
    copy of each class for from_colored_chord, and for `equivalent` two
    partners with freshly renamed darts, the diagram itself and the next
    case's class.  No input of a pass equals one of an earlier pass (up to
    the few genus-1 and genus-2 diagrams a rotation maps onto themselves), so
    a cache inside the program cannot make a repetition cheaper."""

    name = "diagram-analysis"
    ONE_PASS = False
    SAMPLE = {4: 24, 5: 12}
    bytes_written = 0

    def __init__(self, m, seed: int, workdir: Path):
        self.m = m
        self.rng = rng = random.Random(seed)
        canonical_colored = m.chord.canonical_colored
        inputs = []
        for g in (1, 2, 3):
            inputs.extend((g, ccd) for ccd in colored_inputs(m, g))
        for g, count in self.SAMPLE.items():
            codes = set()
            while len(codes) < count:
                ccd = sample_colored(m, g, rng)
                code = canonical_colored(ccd)
                if code not in codes:
                    codes.add(code)
                    inputs.append((g, ccd))
        self.cases = [_Case(g, ccd, canonical_colored(ccd), m.prdiag.from_colored_chord(ccd))
                      for g, ccd in inputs]
        self.canonical_colored = canonical_colored

    def draw(self) -> list[tuple]:
        """A pass's inputs: per case (chord diagram, renamed copy, other class)."""
        m, rng, cases = self.m, self.rng, self.cases
        return [(dihedral_copy(m, case.ccd, rng), rename_darts(m, case.built, rng),
                 rename_darts(m, cases[(i + 1) % len(cases)].built, rng))
                for i, case in enumerate(cases)]

    def scaled(self, gauge: Gauge, op: Op) -> float:
        return gauge.scaled(op.start, op.raw)

    def run_pass(self, inputs: list, tracer=None) -> list[Op]:
        pr = self.m.prdiag
        ops = []
        for i, (case, (ccd, renamed, other)) in enumerate(zip(self.cases, inputs)):
            if tracer is not None:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
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
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                ops.append(Op(i, f"g{case.genus}", time.perf_counter() - t0, False, repr(exc), t0))
                continue
            latency = time.perf_counter() - t0
            g = case.genus
            roles = flow.role_counts()
            problems = [msg for bad, msg in (
                (not report.valid, f"invalid: {report.first_failure()}"),
                (census.as_tuple() != (1, 0, g, g, 0, 1), f"census {census.as_tuple()}"),
                (not morse.passed, "morse checks fail"),
                (roles != {"source": 1, "saddle": 2 * g, "sink": 1}
                 or flow.genus != census.boundary_genus, f"boundary flow {roles}"),
                (self.canonical_colored(back) != case.code, "round trip changes the class"),
                (code != code_renamed, "canonical code changes under renaming"),
                (same is not True, "renamed copy not equivalent"),
                (differs is not False, "different class equivalent"),
            ) if bad]
            ops.append(Op(i, f"g{g}", latency, not problems, "; ".join(problems), t0))
        return ops


# ---------------------------------------------------------------------------
# cli-calls
# ---------------------------------------------------------------------------

@dataclass
class _Call:
    kind: str
    argv: list
    expect_exit: int
    check: object        # callable(stdout text) -> problem string or ""


class CliCalls:
    """One `python -m morsediag.cli` child at a time over a seeded mix of
    subcommands with a fixed composition, on the shipped fixtures and on
    rebuilt genus-3 diagrams written in set-up.

    A call's time is scaled by reference starts, one before each call,
    outside its timed region, instead of by the gauge's loop: a host slows
    process creation, imports, page faults and exit at times when a
    pure-Python loop keeps its speed.  A reference start is an interpreter
    in the same environment that imports the standard modules the package
    imports and touches as much fresh memory as a call adds to a bare
    interpreter (REFERENCE_START), but runs none of the package.  A call
    counts in seconds at the speed at which a reference start takes
    REFERENCE_START_S; what the package does changes that time in
    proportion."""

    name = "cli-calls"
    ONE_PASS = False
    G3_FILES = 6
    REFERENCE_START = ("import argparse, dataclasses, enum, importlib.resources, json, typing; "
                       "b = b'x' * (8 << 20)")
    REFERENCE_START_S = 0.075
    NEAREST_STARTS = 3

    def __init__(self, m, seed: int, workdir: Path):
        self.m = m
        self.workdir = workdir
        rng = random.Random(seed)
        chord, pr = m.chord, m.prdiag
        canonical_colored = chord.canonical_colored
        fixtures = sorted(str(p) for p in m.catalog.fixture_dir().iterdir()
                          if p.name.endswith(".json"))
        optimal_fixtures = [p for p in fixtures if "g2_optimal" in p]

        g3 = rng.sample(colored_inputs(m, 3), self.G3_FILES)
        diagrams, renamed, chords, expect_pr, codes = [], [], [], [], []
        for k, ccd in enumerate(g3):
            d = pr.from_colored_chord(ccd)
            for path, obj in ((f"g3_{k}.json", pr.pr_to_json(d)),
                              (f"g3_{k}_renamed.json", pr.pr_to_json(rename_darts(m, d, rng))),
                              (f"g3_{k}_chord.json", chord.colored_to_json(ccd))):
                (workdir / path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
            diagrams.append(str(workdir / f"g3_{k}.json"))
            renamed.append(str(workdir / f"g3_{k}_renamed.json"))
            chords.append(str(workdir / f"g3_{k}_chord.json"))
            expect_pr.append(pr.pr_to_json(d))
            codes.append(canonical_colored(ccd))
        self.catalog_path = workdir / "cli_g3.jsonl"

        def keys(*names):
            def check(out):
                obj = json.loads(out)
                missing = [k for k in names if k not in obj]
                return f"missing keys {missing}" if missing else ""
            return check

        def census_check(expected):
            def check(out):
                obj = json.loads(out)
                got = tuple(obj[f"n{i}"] for i in range(1, 7))
                if expected is not None and got != expected:
                    return f"census {got}"
                return "" if obj["morse_checks"]["passed"] else "morse checks fail"
            return check

        def valid(out):
            obj = json.loads(out)
            return "" if obj["valid"] is True and len(obj["properties"]) == 5 else "not valid"

        def equivalent(flag):
            return lambda out: "" if json.loads(out) == {"equivalent": flag} else out[:80]

        def startswith(prefix):
            return lambda out: "" if out.startswith(prefix) else f"output {out[:20]!r}"

        chord_from_json = chord.chord_from_json

        def to_chord(code):
            def check(out):
                got = canonical_colored(chord_from_json(json.loads(out)))
                return "" if got == code else "converted to another class"
            return check

        def to_pr(expected):
            return lambda out: "" if json.loads(out) == expected else "rebuilt diagram differs"

        def fixtures_ok(out):
            obj = json.loads(out)
            return "" if obj["ok"] is True and not obj["failures"] else str(obj["failures"])

        def classified(out):
            obj = json.loads(out)
            got = (obj["bases"], obj["colored"], obj["river_colored"], obj["river_bases"])
            if got != EXPECTED_COUNTS[3]:
                return f"counts {got}"
            return "" if sha256(self.catalog_path) == CLI_G3_CATALOG_SHA256 else "catalog digest differs"

        i, j = rng.sample(range(self.G3_FILES), 2)
        calls = []
        for kind, check_of in (("validate", lambda g3: valid),
                               ("census", lambda g3: census_check((1, 0, 3, 3, 0, 1) if g3 else None)),
                               ("boundary", lambda g3: keys("genus", "vertices", "edges"))):
            picks = [(rng.choice(fixtures), False)] + [(p, True) for p in rng.sample(diagrams, 2)]
            calls.extend(_Call(kind, [kind, p], 0, check_of(g3)) for p, g3 in picks)
        calls += [
            _Call("export", ["export", "--format", "dot", rng.choice(fixtures + diagrams)], 0,
                  startswith("graph ")),
            _Call("export", ["export", "--format", "svg", rng.choice(optimal_fixtures + diagrams)], 0,
                  startswith("<svg")),
            _Call("export", ["export", "--format", "json", rng.choice(fixtures + diagrams)], 0,
                  keys("darts", "alpha", "sigma", "curves")),
            _Call("iso", ["iso", diagrams[i], renamed[i]], 0, equivalent(True)),
            _Call("iso", ["iso", diagrams[i], diagrams[j]], 1, equivalent(False)),
            _Call("convert", ["convert", "--to", "chord", diagrams[j]], 0, to_chord(codes[j])),
            _Call("convert", ["convert", "--to", "pr", chords[i]], 0, to_pr(expect_pr[i])),
            _Call("fixtures", ["fixtures", "verify"], 0, fixtures_ok),
            _Call("classify", ["classify", "--genus", "3", "--out", str(self.catalog_path)], 0,
                  classified),
        ]
        rng.shuffle(calls)
        self.calls = calls
        self.rss_file = workdir / "status.txt"
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{BENCH / 'rss_hook'}",
                        MORSEDIAG_WORKERS="1", MORSEDIAG_BENCH_RSS=str(self.rss_file))
        self.bare_env = {k: v for k, v in self.env.items() if k != "MORSEDIAG_BENCH_RSS"}
        self.starts: list[tuple[float, float]] = []   # (start, seconds) of each reference start
        self.bytes_written = 0
        self.peak_rss_mb = 0.0
        self.traced_stem = workdir / "child"

    def command(self, call: _Call, traced: bool) -> list:
        if traced:
            return [sys.executable, str(BENCH / "cli_child.py"), str(self.traced_stem), *call.argv]
        return [sys.executable, "-m", "morsediag.cli", *call.argv]

    def draw(self) -> None:
        return None

    def reference_start(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.REFERENCE_START], cwd=self.workdir,
                       env=self.bare_env, check=True, timeout=60)
        self.starts.append((t0, time.perf_counter() - t0))

    def scaled(self, gauge: Gauge, op: Op) -> float:
        """The call's time, less the gauge's runs inside it, times
        REFERENCE_START_S over the mean of the NEAREST_STARTS reference
        starts nearest to it in time (each less the gauge's runs inside it)."""
        near = sorted(self.starts, key=lambda s: abs(s[0] - op.start))[:self.NEAREST_STARTS]
        ref = statistics.mean(t - gauge.busy(t0, t0 + t) for t0, t in near)
        return (op.raw - gauge.busy(op.start, op.start + op.raw)) * self.REFERENCE_START_S / ref

    def run_pass(self, inputs: None, tracer=None) -> list[Op]:
        ops = []
        self.bytes_written = 0
        for k, call in enumerate(self.calls):
            self.reference_start()
            if call.kind == "classify" and self.catalog_path.exists():
                self.catalog_path.unlink()
            spans = Path(f"{self.traced_stem}.json")
            if tracer is not None:
                tracer.begin_op(k)
                spans.unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(self.command(call, tracer is not None), cwd=self.workdir,
                                      env=self.env, capture_output=True, text=True, timeout=120)
            except subprocess.TimeoutExpired:
                ops.append(Op(k, call.kind, time.perf_counter() - t0, False, "timed out", t0))
                continue
            latency = time.perf_counter() - t0
            if self.rss_file.exists():
                self.peak_rss_mb = max(self.peak_rss_mb, vm_hwm_mb(self.rss_file.read_text()))
                self.rss_file.unlink()
            if tracer is not None and spans.exists():
                tracer.absorb(Tracer.read(self.traced_stem))
            if call.kind == "classify" and self.catalog_path.exists():
                self.bytes_written += self.catalog_path.stat().st_size
            if proc.returncode != call.expect_exit:
                problem = f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            else:
                try:
                    problem = call.check(proc.stdout)
                except (ValueError, KeyError, TypeError) as exc:
                    problem = f"unexpected output: {exc!r}"
            ops.append(Op(k, call.kind, latency, not problem, problem, t0))
        return ops


WORKLOADS = {w.name: w for w in (ClassifyG4, DiagramAnalysis, CliCalls)}
