"""Persistence and provenance for classification results.

Catalogs are line-delimited JSON, one entry per line, sorted by canonical
code; files are byte-reproducible across runs (fixed ordering, no timestamps
inside entries).  Reference diagrams from the source figures ship as a
versioned fixture set inside the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from importlib import resources
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as encode_string
from operator import attrgetter, is_
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


@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One classified object; the canonical code is the deduplication key.

    Its fields are slots: a catalog holds one entry per class, and an
    instance __dict__ would add to each entry's memory and to the objects
    the garbage collector tracks."""

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

_new_object = object.__new__
_set_code, _set_kind, _set_genus, _set_flags, _set_source, _set_tool_version = (
    getattr(CatalogEntry, f.name).__set__ for f in fields(CatalogEntry))


def _entry(code: str, kind: str, genus: int, flags: dict, source: str,
           tool_version: str) -> CatalogEntry:
    """CatalogEntry(code, kind, genus, flags, source, tool_version), filled
    through its slots.  The generated __init__ of a frozen dataclass sets
    each field with object.__setattr__, which costs more than the rest of
    building an entry; the entry is as frozen as any other."""
    e = _new_object(CatalogEntry)
    _set_code(e, code)
    _set_kind(e, kind)
    _set_genus(e, genus)
    _set_flags(e, flags)
    _set_source(e, source)
    _set_tool_version(e, tool_version)
    return e


def _entry_from_json(obj: dict, lineno: int, strings: dict) -> CatalogEntry:
    """The entry of one parsed catalog line.  Its kind is the module's own
    string, and its source and tool_version strings are shared through
    `strings` with the entries loaded before it.  A bool is not an int."""
    for key in _ENTRY_FIELDS:
        if key not in obj:
            raise SchemaViolation(f"line {lineno}: missing field {key!r}")
    version = obj["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaViolation(
            f"line {lineno}: field 'schema_version' is {version!r},"
            f" expected {SCHEMA_VERSION}")
    kind = _KIND_NAMES.get(obj["kind"]) if isinstance(obj["kind"], str) else None
    if kind is None:
        raise SchemaViolation(f"line {lineno}: field 'kind' is {obj['kind']!r}")
    if not isinstance(obj["code"], str) or not obj["code"]:
        raise SchemaViolation(f"line {lineno}: field 'code' must be a non-empty string")
    if type(obj["genus"]) is not int:
        raise SchemaViolation(f"line {lineno}: field 'genus' must be an integer")
    if type(obj["flags"]) is not dict:
        raise SchemaViolation(f"line {lineno}: field 'flags' must be an object")
    source, tool_version = obj["source"], obj["tool_version"]
    if type(source) is str:
        source = strings.setdefault(source, source)
    if type(tool_version) is str:
        tool_version = strings.setdefault(tool_version, tool_version)
    return _entry(obj["code"], kind, obj["genus"], dict(obj["flags"]), source, tool_version)


_PLAIN_TYPES = frozenset({str, int, bool, type(None)})


def _lines(items: Iterable[CatalogEntry]) -> Iterable[str]:
    """The catalog line of each entry: the encoded code, then the tail of
    the other fields.  A tail is encoded once per key, those fields' values
    with their types.  An entry with a value of a type other than str, int,
    bool and None gets no key and a tail of its own, as such a value could
    compare equal to one that encodes differently (1.0 == 1, 0.0 == -0.0).
    An entry whose field values are the very objects of the last entry's
    takes its tail without a lookup: consecutive entries built alike share
    them."""
    encode = json.JSONEncoder(sort_keys=True).encode
    tails = {}
    last, tail = (), ""
    for e in items:
        flags = e.flags
        values = (e.kind, e.genus, e.source, e.tool_version, *flags, *flags.values())
        if len(values) != len(last) or not all(map(is_, values, last)):
            types = tuple(map(type, values))
            key = (types, values) if _PLAIN_TYPES.issuperset(types) else None
            tail = tails.get(key)
            if tail is None:
                rest = e.to_json()
                del rest["code"]
                tail = ", " + encode(rest)[1:] + "\n"
                if key is not None:
                    tails[key] = tail
            last = values
        code = e.code
        yield '{"code": ' + (encode_string(code) if isinstance(code, str) else encode(code)) + tail


def save_catalog(entries: Iterable[CatalogEntry], path) -> None:
    """Write entries as sorted JSONL; duplicate codes are rejected.

    Each line is json.dumps(entry.to_json(), sort_keys=True) + "\\n".  Its
    first key is "code", so a line is the encoded code followed by a tail of
    the other fields, and one tail is encoded for all the entries with equal
    kind, genus, flags, source and tool_version (_lines).  The lines are
    streamed to the file, never held together."""
    items = sorted(entries, key=attrgetter("code"))
    seen = set()
    for e in items:
        if e.code in seen:
            raise SchemaViolation(f"duplicate code {e.code!r}")
        seen.add(e.code)
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(_lines(items))
    except OSError as exc:
        raise IoFailure(f"cannot write catalog {path}: {exc}") from exc


#: How every line that save_catalog writes begins: the code comes first.
_CODE_HEAD = '{"code": "'


def _tail_entry(tail: str, code: str, lineno: int, strings: dict):
    """The entry of the line `_CODE_HEAD` + the JSON string `code` + `tail`,
    from `tail` parsed alone, or None when the line must be parsed whole:
    its tail is not ', "' followed by the other members, it holds a second
    "code" member or it is not valid JSON there, or its flags are not an
    object or hold a list or an object, which no two entries may share."""
    if not tail.startswith(', "'):
        return None
    try:
        obj = json.loads("{" + tail[2:])
    except json.JSONDecodeError:
        return None
    flags = obj.get("flags")
    if "code" in obj or type(flags) is not dict or \
            any(isinstance(v, (list, dict)) for v in flags.values()):
        return None
    obj["code"] = code
    return _entry_from_json(obj, lineno, strings)


def load_catalog(path) -> list[CatalogEntry]:
    """The entries of a catalog file, in file order.  A line that is not
    ASCII or not JSON, lacks a field or fails a field's check
    (_entry_from_json), or repeats a code raises SchemaViolation naming it.

    A line that begins like every line save_catalog writes is split into
    its code, read with json.decoder.scanstring, and the tail of its other
    fields; each distinct tail is parsed and checked once (_tail_entry), and
    the entries that share it get their own copies of its flags.  Any other
    line is parsed whole with json.loads, and so is every line when a
    fast-path step fails, so that each error is reported as json.loads and
    _entry_from_json report it."""
    entries = []
    seen = {}
    strings = {}
    tails = {}      # tail -> the entry of its first line, or None
    head = len(_CODE_HEAD)
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            # one line at a time, numbered as str.splitlines numbers the whole text
            lines = (line for chunk in fh for line in chunk.splitlines())
            for lineno, line in enumerate(lines, start=1):
                if not line.isascii():
                    col, byte = next((i, ord(c) - 0xDC00) for i, c in enumerate(line)
                                     if not c.isascii())
                    raise SchemaViolation(
                        f"line {lineno}: byte 0x{byte:02x} at column {col + 1} is not ASCII")
                if not line or line.isspace():
                    continue
                entry = None
                if line.startswith(_CODE_HEAD):
                    try:
                        code, end = scanstring(line, head)
                    except json.JSONDecodeError:
                        code = ""
                    if code:
                        tail = line[end:]
                        if tail in tails:
                            first = tails[tail]
                            if first is not None:
                                entry = _entry(code, first.kind, first.genus, dict(first.flags),
                                               first.source, first.tool_version)
                        else:
                            entry = tails[tail] = _tail_entry(tail, code, lineno, strings)
                if entry is None:
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
    genus = report.genus
    entries = [_entry(code, KIND_BASE, genus, {"one_face": True}, "enumerated", tool_version)
               for code in report.base_codes]
    entries += [_entry(code, KIND_COLORED, genus,
                       {"one_face": True, "optimal": True, "river": code in river},
                       "enumerated", tool_version)
                for code in report.colored_codes]
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
