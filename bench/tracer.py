"""Timing spans around morsediag's functions, installed from outside the package.

``Tracer.install`` replaces every public function of the five modules (plus
``combmap._cut_walk``, which the roadmap names) with a wrapper that records
one span per call: function, start, end, parent span and operation id.  Every
name bound to such a function is replaced, including names bound by import
(``prdiag.canonical_code``, ``cli.validate``, the package re-exports), so a
call reaches the wrapper whichever name it goes through; ``cmb.x`` calls go
through the module attribute and are covered as well.

Generator functions are left unwrapped: a wrapper would time only the creation
of the generator, so their work counts as self time of the caller that
iterates them.  Spans are kept in flat arrays (about 26 bytes each, since the
genus-4 classification makes about 2.5 million calls) and written out once,
at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

MODULES = ("chord", "combmap", "prdiag", "catalog", "cli")
PRIVATE_TRACED = {"combmap": ("_cut_walk",)}
# Functions whose result length is summed: the classes they produce.
COUNT_RESULTS = ("chord.enumerate_bases", "chord.enumerate_colorings")
FIELDS = (("fn", "H"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.fn = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.op_keys: list = []   # op id -> the workload's key for that operation
        self.results: dict[str, int] = {}
        self.swaps: list = []     # (module, name, function, wrapper)
        self.scale = 1.0          # applied to every span time read back (a gauge's factor)

    def __len__(self) -> int:
        return len(self.fn)

    def begin_op(self, key) -> None:
        """Start an operation: spans recorded from now on carry a fresh id."""
        self.op_keys.append(key)
        self.op_id = len(self.op_keys) - 1

    def _fid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, func, fid: int):
        fns, parents, ops = self.fn, self.parent, self.op
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        if self.names[fid] not in COUNT_RESULTS:
            return traced
        results, name = self.results, self.names[fid]

        @functools.wraps(func)
        def counted(*args, **kwargs):
            out = traced(*args, **kwargs)
            results[name] = results.get(name, 0) + len(out)
            return out

        return counted

    def install(self, package: str = "morsediag") -> int:
        """Wrap the functions of the already imported package, or put the
        wrappers back after ``uninstall``; returns the number of names
        replaced."""
        if not self.swaps:
            mods = [sys.modules[package]] + [sys.modules[f"{package}.{m}"] for m in MODULES]
            wrappers = {}
            for short, mod in zip(MODULES, mods[1:]):
                for name, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and (not name.startswith("_") or name in PRIVATE_TRACED.get(short, ()))
                            and not inspect.isgeneratorfunction(obj)):
                        wrappers[obj] = self._wrap(obj, self._fid(f"{short}.{name}"))
            self.swaps = [(mod, name, obj, wrappers[obj])
                          for mod in mods for name, obj in vars(mod).items()
                          if inspect.isfunction(obj) and obj in wrappers]
        for mod, name, _, wrapper in self.swaps:
            setattr(mod, name, wrapper)
        return len(self.swaps)

    def uninstall(self) -> None:
        """Put the package's own functions back."""
        for mod, name, original, _ in self.swaps:
            setattr(mod, name, original)

    # -- persistence --------------------------------------------------------

    def write(self, stem: Path) -> None:
        """Spans as ``<stem>.bin`` (the arrays of FIELDS, in order) plus a
        ``<stem>.json`` header holding the function names and the count."""
        with open(f"{stem}.bin", "wb") as fh:
            for field, _ in FIELDS:
                getattr(self, field).tofile(fh)
        header = {"names": self.names, "count": len(self), "fields": FIELDS,
                  "op_keys": self.op_keys, "results": self.results}
        Path(f"{stem}.json").write_text(json.dumps(header))

    @classmethod
    def read(cls, stem: Path) -> "Tracer":
        header = json.loads(Path(f"{stem}.json").read_text())
        out = cls()
        out.names = list(header["names"])
        out.results = dict(header["results"])
        with open(f"{stem}.bin", "rb") as fh:
            for field, _ in FIELDS:
                getattr(out, field).fromfile(fh, header["count"])
        return out

    def absorb(self, other: "Tracer") -> None:
        """Append another process's spans, under this tracer's numbering and
        current operation."""
        base = len(self)
        remap = [self._fid(n) for n in other.names]
        self.fn.extend(array("H", (remap[f] for f in other.fn)))
        self.parent.extend(array("i", (p + base if p >= 0 else -1 for p in other.parent)))
        self.op.extend(array("i", [self.op_id]) * len(other))
        self.start.extend(other.start)
        self.end.extend(other.end)
        for name, count in other.results.items():
            self.results[name] = self.results.get(name, 0) + count

    # -- aggregation --------------------------------------------------------

    def spans_of(self, name: str) -> list[int]:
        if name not in self.names:
            return []
        fid = self.names.index(name)
        return [i for i, f in enumerate(self.fn) if f == fid]

    def self_times(self, ops=None) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), over the spans of the operations in
        `ops` (default all); self time is a span's duration minus the
        durations of its child spans."""
        n = len(self)
        dur = [(e - s) * self.scale for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, f in enumerate(self.fn):
            if ops is not None and self.op[i] not in ops:
                continue
            calls[f] += 1
            own[f] += dur[i] - covered[i]
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}

    def duration(self, i: int) -> float:
        return (self.end[i] - self.start[i]) * self.scale

    def name_at(self, i: int) -> str:
        return self.names[self.fn[i]]

    def has_ancestor(self, i: int, name: str) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_at(p) == name:
                return True
            p = self.parent[p]
        return False
