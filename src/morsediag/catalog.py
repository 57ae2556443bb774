"""Persistence and provenance for classification results.

Catalogs are line-delimited JSON, one entry per line, sorted by canonical
code; files are byte-reproducible across runs (fixed ordering, no timestamps
inside entries).  Reference diagrams from the source figures ship as a
versioned fixture set inside the package.
"""

from __future__ import annotations

import json
from itertools import combinations, islice
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii as encode_string
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from . import _formats

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


class _Flags(dict):
    """The flags of the entries that report_entries and load_catalog build,
    and of an entry built with none: one read-only dict per distinct value;
    pickle, copy and _asdict keep it so."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("catalog entry flags are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _Flags, (dict(self),)


class CatalogEntry(NamedTuple):
    """One classified object; the canonical code is the deduplication key.

    A named tuple: a catalog holds one entry per class, and a tuple has no
    instance __dict__ to add to each entry's memory.  An entry built with
    flags keeps the mapping it is given, else it shares one empty _Flags;
    e._replace(flags={...}) gives an entry other flags."""

    code: str
    kind: str
    genus: int
    flags: dict = _Flags()
    source: str = "enumerated"
    tool_version: str = ""


def _entry(code: str, kind: str, genus: int, flags: dict, source: str,
           tool_version: str) -> CatalogEntry:
    """CatalogEntry(code, kind, genus, flags, source, tool_version), built
    with tuple.__new__, which skips the Python-level __new__ that
    CatalogEntry(...) runs to bind its arguments."""
    return tuple.__new__(CatalogEntry, (code, kind, genus, flags, source, tool_version))


def _entry_from_json(obj, lineno: int) -> CatalogEntry:
    """The entry of one parsed catalog line: its fields fit
    _formats.CATALOG_LINE (a bool is not an int), its schema version is
    SCHEMA_VERSION, its kind is known and its code is not empty."""
    try:
        _formats.check(obj, _formats.CATALOG_LINE)
    except ValueError as exc:
        raise SchemaViolation(f"line {lineno}: {exc}") from exc
    if obj["schema_version"] != SCHEMA_VERSION:
        raise SchemaViolation(f"line {lineno}: field 'schema_version' is"
                              f" {obj['schema_version']!r}, expected {SCHEMA_VERSION}")
    if obj["kind"] not in _KINDS:
        raise SchemaViolation(f"line {lineno}: field 'kind' is {obj['kind']!r}")
    if not obj["code"]:
        raise SchemaViolation(f"line {lineno}: field 'code' must be a non-empty string")
    return _entry(obj["code"], obj["kind"], obj["genus"], _Flags(obj["flags"]),
                  obj["source"], obj["tool_version"])


_CODE_HEAD = '{"code": "'   # how every line that save_catalog writes begins
_TAIL = CatalogEntry._fields[1:]   # a line's fields after its code


def _read_back(code):
    """code as load_catalog reads its JSON encoding, or code itself if it has none."""
    try:
        return json.loads(encode_string(code) if isinstance(code, str) else json.dumps(code))
    except (TypeError, ValueError, RecursionError):
        return code


def save_catalog(entries: Iterable[CatalogEntry], path) -> None:
    """Write entries as sorted JSONL: each line is json.dumps of the entry's
    fields with sort_keys=True, `_CODE_HEAD` and the code, then a tail of
    the other fields.  A run of entries whose five other field objects are
    the previous entry's (compared with `is`; report_entries and
    load_catalog share them) has its tail encoded once and its first line
    read back as load_catalog reads it, as has each line whose code is no
    non-empty string.  So before the file is opened it refuses, with
    SchemaViolation, what load_catalog would refuse, with its message and
    line number, as well as a duplicate code, fields that cannot be encoded
    and codes that cannot be sorted.  Lines are written in blocks of 1024,
    never all held."""
    items = list(entries)
    try:
        items.sort(key=itemgetter(0))   # by code
    except TypeError as exc:   # a code that is not a string among strings
        code = next(e.code for e in items if not isinstance(e.code, str))
        raise SchemaViolation(f"code must be a string, not {_read_back(code)!r}") from exc
    encode = json.JSONEncoder(sort_keys=True).encode
    head = _CODE_HEAD[:-1]   # encode_string(code) brings the code's opening quote
    runs = []   # [tail, lines] for each run of entries that share their field objects
    prev_code = None
    for lineno, e in enumerate(items, start=1):
        code = e[0]   # a named tuple's field reads faster by index than by name
        new_run = (lineno == 1 or e[3] is not flags or e[1] is not kind or e[2] is not genus
                   or e[4] is not source or e[5] is not tool_version)
        if new_run:
            _, kind, genus, flags, source, tool_version = e
            own = dict(zip(_TAIL, e[1:]), schema_version=SCHEMA_VERSION)
            try:
                tail = ", " + encode(own)[1:]
                read = json.loads("{" + tail[2:])   # as load_catalog reads them
            except (TypeError, ValueError, RecursionError) as exc:
                raise SchemaViolation(f"line {lineno}: cannot encode as JSON ({exc})") from exc
            runs.append(run := [tail + "\n", 0])
        if new_run or type(code) is not str or not code:   # a run's first line, or an odd code
            _entry_from_json(dict(read, code=_read_back(code)), lineno)   # as load_catalog reads it
        if code == prev_code:
            raise SchemaViolation(f"duplicate code {code!r}")
        run[1] += 1
        prev_code = code
    pending = iter(items)
    lines = (head + encode_string(e[0]) + tail for tail, count in runs for e in islice(pending, count))
    try:
        with open(path, "w", encoding="ascii") as fh:
            # a write per block of lines: a write per line costs more than making it
            while block := "".join(islice(lines, 1024)):
                fh.write(block)
    except OSError as exc:
        raise IoFailure(f"cannot write catalog {path}: {exc}") from exc


def _tail_entry(tail: str, code: str, lineno: int) -> tuple:
    """The five fields after the code (kind, genus, flags, source,
    tool_version) of the line `_CODE_HEAD` + the JSON string `code` +
    `tail`, from `tail` parsed alone and checked (_entry_from_json), or ()
    when the line must be parsed whole: its tail is not ', "' and the other
    members, holds a second "code" member or is no valid JSON, or its flags
    hold a list or an object, which no two entries may share.  The check is
    the whole line's, which save_catalog makes of the lines it writes."""
    if not tail.startswith(', "'):
        return ()
    try:
        obj = json.loads("{" + tail[2:])
    except (json.JSONDecodeError, RecursionError):
        return ()
    if "code" in obj:
        return ()
    obj["code"] = code
    e = _entry_from_json(obj, lineno)
    if any(isinstance(v, (list, dict)) for v in e.flags.values()):
        return ()
    return e.kind, e.genus, e.flags, e.source, e.tool_version


def load_catalog(path) -> list[CatalogEntry]:
    """The entries of a catalog file, in file order.  A line that is not
    ASCII, not JSON or not a JSON object, lacks a field of
    _formats.CATALOG_LINE or has one of another type, has another schema
    version, an unknown kind or an empty code (_entry_from_json), or repeats
    a code raises SchemaViolation naming it; an unreadable file IoFailure.
    Lines end only at "\\n", "\\r\\n" or "\\r" and count from 1, so a "\\x0c"
    stays in its line; a line of whitespace alone is skipped.

    A line that begins like every line save_catalog writes is split into
    its code, read with json.decoder.scanstring, and the tail of its other
    fields.  Each distinct tail is parsed and checked once (_tail_entry);
    the entries of its lines are built from its five field objects and so
    share its read-only flags dict.  Any other line is parsed whole with
    json.loads, and so is every line when a fast-path step fails, so that
    each error is reported as json.loads and _entry_from_json report it."""
    entries = []
    seen = {}       # code -> its line
    tails = {}      # tail -> its five field objects, or () to parse its lines whole
    head = len(_CODE_HEAD)
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
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
                        fields = tails.get(tail)
                        if fields is None:
                            fields = tails[tail] = _tail_entry(tail, code, lineno)
                        if fields:
                            entry = _entry(code, *fields)
                if entry is None:
                    try:
                        obj = json.loads(line)
                    except (json.JSONDecodeError, RecursionError) as exc:
                        raise SchemaViolation(f"line {lineno}: invalid JSON ({exc})") from exc
                    entry = _entry_from_json(obj, lineno)
                first = seen.setdefault(entry.code, lineno)
                if first != lineno:
                    raise SchemaViolation(f"line {lineno}: field 'code' duplicates line {first}")
                entries.append(entry)
    except OSError as exc:
        raise IoFailure(f"cannot read catalog {path}: {exc}") from exc
    return entries


def report_entries(report, tool_version: str = "") -> list[CatalogEntry]:
    """Catalog entries for every class in a classification report; they
    share three read-only flags dicts: bases, colored, and colored river."""
    river = set(report.river_codes)
    genus = report.genus
    base = _Flags(one_face=True)
    colored = [_Flags(one_face=True, optimal=True, river=r) for r in (False, True)]
    entries = [_entry(code, KIND_BASE, genus, base, "enumerated", tool_version)
               for code in report.base_codes]
    entries += [_entry(code, KIND_COLORED, genus, colored[code in river], "enumerated",
                       tool_version)
                for code in report.colored_codes]
    return entries


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def fixture_dir() -> Path:
    return Path(__file__).parent / "fixtures" / FIXTURE_SET


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


class FixtureReport(NamedTuple):
    """The names of the fixture checks made and the failures among them."""
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
    from .chord import canonical_colored, classify
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
        got = tuple(census(diagrams[name]))
        check(f"{name} census", got == expected, f"{got} != {expected}")

    pair = ("d3_four_a.json", "d3_four_b.json")
    if all(p in diagrams for p in pair):
        check("d3 four-point pair non-equivalent",
              not equivalent(diagrams[pair[0]], diagrams[pair[1]]))

    g2 = [n for n in sorted(diagrams) if n.startswith("g2_optimal_")]
    if g2:
        codes = {canonical_colored(to_colored_chord(diagrams[name])) for name in g2}
        enumerated = set(classify(2).colored_codes)
        check("g2 fixtures biject onto enumerated colored classes",
              codes == enumerated,
              f"{len(codes)} fixture codes vs {len(enumerated)} classes")
        for a, b in combinations(g2, 2):
            check(f"{a} vs {b} non-equivalent", not equivalent(diagrams[a], diagrams[b]))

    return FixtureReport(tuple(checked), tuple(failures))
