"""Persistence and provenance for classification results.

Catalogs are line-delimited JSON, one entry per line, sorted by canonical
code; files are byte-reproducible across runs (fixed ordering, no timestamps
inside entries).  Reference diagrams from the source figures ship as a
versioned fixture set inside the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable

SCHEMA_VERSION = 1
FIXTURE_SET = "v1"

KIND_BASE = "base_chord"
KIND_COLORED = "colored_chord"
KIND_PR = "pr_diagram"
_KINDS = (KIND_BASE, KIND_COLORED, KIND_PR)


class IoFailure(OSError):
    pass


class SchemaViolation(ValueError):
    pass


@dataclass(frozen=True)
class CatalogEntry:
    """One classified object; the canonical code is the deduplication key."""

    code: str
    kind: str
    genus: int
    flags: dict = field(default_factory=dict)
    source: str = "enumerated"
    tool_version: str = ""

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "code": self.code,
            "kind": self.kind,
            "genus": self.genus,
            "flags": dict(sorted(self.flags.items())),
            "source": self.source,
            "tool_version": self.tool_version,
        }


@dataclass(frozen=True)
class CatalogReport:
    """Per-genus classification counts plus all canonical codes."""

    genus: int
    symmetry: str
    bases: int
    colored: int
    river_colored: int
    river_bases: int
    base_codes: tuple[str, ...]
    colored_codes: tuple[str, ...]
    river_codes: tuple[str, ...]
    runtime_seconds: float

    def counts(self) -> dict:
        return {
            "genus": self.genus,
            "symmetry": self.symmetry,
            "bases": self.bases,
            "colored": self.colored,
            "river_colored": self.river_colored,
            "river_bases": self.river_bases,
        }

    def to_json(self) -> dict:
        out = self.counts()
        out["runtime_seconds"] = self.runtime_seconds
        out["base_codes"] = list(self.base_codes)
        out["colored_codes"] = list(self.colored_codes)
        out["river_codes"] = list(self.river_codes)
        return out


_ENTRY_FIELDS = {"schema_version", "code", "kind", "genus", "flags", "source",
                 "tool_version"}


_KIND_NAMES = {k: k for k in _KINDS}


def _entry_from_json(obj: dict, lineno: int, strings: dict) -> CatalogEntry:
    """The entry of one parsed catalog line.  Its kind is the module's own
    string, and its source and tool_version strings are shared through
    `strings` with the entries loaded before it."""
    for key in _ENTRY_FIELDS:
        if key not in obj:
            raise SchemaViolation(f"line {lineno}: missing field {key!r}")
    if obj["schema_version"] != SCHEMA_VERSION:
        raise SchemaViolation(
            f"line {lineno}: field 'schema_version' is {obj['schema_version']!r},"
            f" expected {SCHEMA_VERSION}")
    kind = _KIND_NAMES.get(obj["kind"]) if isinstance(obj["kind"], str) else None
    if kind is None:
        raise SchemaViolation(f"line {lineno}: field 'kind' is {obj['kind']!r}")
    if not isinstance(obj["code"], str) or not obj["code"]:
        raise SchemaViolation(f"line {lineno}: field 'code' must be a non-empty string")
    if not isinstance(obj["genus"], int):
        raise SchemaViolation(f"line {lineno}: field 'genus' must be an integer")
    source, tool_version = obj["source"], obj["tool_version"]
    if type(source) is str:
        source = strings.setdefault(source, source)
    if type(tool_version) is str:
        tool_version = strings.setdefault(tool_version, tool_version)
    return CatalogEntry(obj["code"], kind, obj["genus"],
                        dict(obj["flags"]), source, tool_version)


_PLAIN_TYPES = frozenset({str, int, bool, type(None)})


def _tail_key(e: CatalogEntry):
    """The fields after "code" with their types, under which entries share
    one encoded tail; None when a value of another type could compare equal
    to one that encodes differently (1.0 == 1, 0.0 == -0.0)."""
    values = (e.kind, e.genus, e.source, e.tool_version,
              *e.flags.keys(), *e.flags.values())
    types = tuple(map(type, values))
    return (types, values) if _PLAIN_TYPES.issuperset(types) else None


def save_catalog(entries: Iterable[CatalogEntry], path) -> None:
    """Write entries as sorted JSONL; duplicate codes are rejected.

    Each line is json.dumps(entry.to_json(), sort_keys=True) + "\\n".  Its
    first key is "code", so a line is the encoded code followed by a tail of
    the other fields, and one tail is encoded for all the entries with equal
    kind, genus, flags, source and tool_version.  The lines are streamed to
    the file, never held together."""
    items = sorted(entries, key=lambda e: e.code)
    seen = set()
    for e in items:
        if e.code in seen:
            raise SchemaViolation(f"duplicate code {e.code!r}")
        seen.add(e.code)
    encode = json.JSONEncoder(sort_keys=True).encode
    tails = {}

    def line(e: CatalogEntry) -> str:
        key = _tail_key(e)
        tail = tails.get(key)
        if tail is None:
            rest = e.to_json()
            del rest["code"]
            tail = ", " + encode(rest)[1:] + "\n"
            if key is not None:
                tails[key] = tail
        return '{"code": ' + encode(e.code) + tail

    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(map(line, items))
    except OSError as exc:
        raise IoFailure(f"cannot write catalog {path}: {exc}") from exc


def load_catalog(path) -> list[CatalogEntry]:
    entries = []
    seen = {}
    strings = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            # one line at a time, numbered as str.splitlines numbers the whole text
            lines = (line for chunk in fh for line in chunk.splitlines())
            for lineno, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaViolation(f"line {lineno}: invalid JSON ({exc})") from exc
                entry = _entry_from_json(obj, lineno, strings)
                if entry.code in seen:
                    raise SchemaViolation(
                        f"line {lineno}: field 'code' duplicates line {seen[entry.code]}")
                seen[entry.code] = lineno
                entries.append(entry)
    except OSError as exc:
        raise IoFailure(f"cannot read catalog {path}: {exc}") from exc
    return entries


def report_entries(report, tool_version: str = "") -> list[CatalogEntry]:
    """Catalog entries for every class in a classification report."""
    river = set(report.river_codes)
    entries = [
        CatalogEntry(code, KIND_BASE, report.genus, {"one_face": True},
                     "enumerated", tool_version)
        for code in report.base_codes
    ]
    entries.extend(
        CatalogEntry(code, KIND_COLORED, report.genus,
                     {"one_face": True, "optimal": True, "river": code in river},
                     "enumerated", tool_version)
        for code in report.colored_codes
    )
    return entries


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def fixture_dir():
    return resources.files("morsediag") / "fixtures" / FIXTURE_SET


def fixture_names() -> list[str]:
    return sorted(p.name for p in fixture_dir().iterdir() if p.name.endswith(".json"))


def load_fixture(name: str):
    """Load a shipped fixture by file name (PrDiagram)."""
    from .prdiag import pr_from_json

    path = fixture_dir() / name
    try:
        obj = json.loads(path.read_text(encoding="ascii"))
    except OSError as exc:
        raise IoFailure(f"cannot read fixture {name}: {exc}") from exc
    return pr_from_json(obj)


@dataclass(frozen=True)
class FixtureReport:
    checked: tuple[str, ...]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


_EXPECTED_CENSUS = {
    "solid_torus.json": (1, 0, 1, 1, 0, 1, 1),
    "d3_trivial.json": (1, 0, 0, 0, 0, 1, 0),
    "d3_four_a.json": (2, 0, 1, 0, 0, 1, 0),
    "d3_four_b.json": (1, 1, 0, 1, 0, 1, 0),
    "g2_optimal_1.json": (1, 0, 2, 2, 0, 1, 2),
    "g2_optimal_2.json": (1, 0, 2, 2, 0, 1, 2),
    "g2_optimal_3.json": (1, 0, 2, 2, 0, 1, 2),
    "g2_optimal_4.json": (1, 0, 2, 2, 0, 1, 2),
    "g2_optimal_5.json": (1, 0, 2, 2, 0, 1, 2),
}


def verify_fixtures() -> FixtureReport:
    """Re-check every shipped fixture: validity, expected censuses, pairwise
    non-equivalence of designated sets, and the bijection between the five
    genus-2 fixtures and the enumerated colored classes."""
    from .chord import DEFAULT_SYMMETRY, canonical_colored, classify
    from .prdiag import census, equivalent, to_colored_chord, validate

    checked = []
    failures = []

    def check(name: str, cond: bool, detail: str = ""):
        checked.append(name)
        if not cond:
            failures.append(name + (f": {detail}" if detail else ""))

    diagrams = {}
    for name in fixture_names():
        d = load_fixture(name)
        diagrams[name] = d
        rep = validate(d)
        check(f"{name} valid", rep.valid, rep.first_failure())

    for name, expected in _EXPECTED_CENSUS.items():
        if name not in diagrams:
            failures.append(f"{name}: fixture missing")
            continue
        c = census(diagrams[name])
        got = (c.n1, c.n2, c.n3, c.n4, c.n5, c.n6, c.boundary_genus)
        check(f"{name} census", got == expected, f"{got} != {expected}")

    pair = ("d3_four_a.json", "d3_four_b.json")
    if all(p in diagrams for p in pair):
        check("d3 four-point pair non-equivalent",
              not equivalent(diagrams[pair[0]], diagrams[pair[1]]))

    g2 = [n for n in sorted(diagrams) if n.startswith("g2_optimal_")]
    if g2:
        codes = set()
        for name in g2:
            codes.add(canonical_colored(to_colored_chord(diagrams[name]), DEFAULT_SYMMETRY))
        enumerated = set(classify(2, DEFAULT_SYMMETRY).colored_codes)
        check("g2 fixtures biject onto enumerated colored classes",
              codes == enumerated,
              f"{len(codes)} fixture codes vs {len(enumerated)} classes")
        for i in range(len(g2)):
            for j in range(i + 1, len(g2)):
                check(f"{g2[i]} vs {g2[j]} non-equivalent",
                      not equivalent(diagrams[g2[i]], diagrams[g2[j]]))

    return FixtureReport(tuple(checked), tuple(failures))
