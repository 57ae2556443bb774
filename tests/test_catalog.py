import copy
import enum
import json
import operator
import os
import pickle
import subprocess
import sys
import types
from itertools import groupby
from pathlib import Path

import pytest

import morsediag.catalog as cat
from morsediag import __version__
from morsediag.chord import canonical_colored, classify, is_river
from morsediag.prdiag import census, validate

from g4_round_trip import decode


def _entries_g2():
    return cat.report_entries(classify(2), tool_version=__version__)


def test_save_then_load_identity(tmp_path):
    entries = _entries_g2()
    assert len(entries) == 9    # 4 bases + 5 colored
    path = tmp_path / "g2.jsonl"
    cat.save_catalog(entries, path)
    loaded = cat.load_catalog(path)
    assert loaded == sorted(entries, key=lambda e: e.code)
    colored = [e for e in loaded if e.kind == cat.KIND_COLORED]
    assert len(colored) == 5


def test_empty_catalog(tmp_path):
    path = tmp_path / "empty.jsonl"
    cat.save_catalog([], path)
    assert path.read_text() == ""
    assert cat.load_catalog(path) == []


def test_duplicate_code_rejected(tmp_path):
    entries = _entries_g2()
    path = tmp_path / "dup.jsonl"
    cat.save_catalog(entries, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[0]]) + "\n")
    with pytest.raises(cat.SchemaViolation) as exc:
        cat.load_catalog(path)
    assert "line 10" in str(exc.value)
    assert "code" in str(exc.value)
    # the duplicate is found among sorted neighbours, before the file is opened
    dup = tmp_path / "dup2.jsonl"
    with pytest.raises(cat.SchemaViolation) as exc:
        cat.save_catalog(entries + [entries[0]], dup)
    assert str(exc.value) == f"duplicate code {entries[0].code!r}"
    assert not dup.exists()
    # codes are compared by value: an equal code in another string object
    code = entries[0].code
    again = entries[0]._replace(code=code[:1] + code[1:])
    assert again.code is not code
    with pytest.raises(cat.SchemaViolation, match="^duplicate code "):
        cat.save_catalog(entries + [again], dup)
    assert not dup.exists()


def test_schema_violations_carry_line_and_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = _line_fields(_entries_g2()[0])
    bad = dict(good)
    del bad["genus"]
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(cat.SchemaViolation) as exc:
        cat.load_catalog(path)
    assert "line 2" in str(exc.value) and "genus" in str(exc.value)

    for kind, message in (("chartreuse", "field 'kind' is 'chartreuse'"),
                          (["base_chord"], "kind must be a string, not ['base_chord']")):
        bad = dict(good)
        bad["kind"] = kind
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(cat.SchemaViolation) as exc:
            cat.load_catalog(path)
        assert str(exc.value) == f"line 1: {message}"

    bad = dict(good)
    bad["schema_version"] = 99
    path.write_text(json.dumps(bad) + "\n")
    with pytest.raises(cat.SchemaViolation) as exc:
        cat.load_catalog(path)
    assert "schema_version" in str(exc.value)


def _line_fields(e) -> dict:
    """The fields of the catalog line of entry e, as the entry holds them."""
    return dict(schema_version=cat.SCHEMA_VERSION,
                **{name: getattr(e, name) for name in e._fields})


def _dumped(entries) -> bytes:
    """The catalog bytes of json.dumps on each entry's fields, sorted by code."""
    return "".join(json.dumps(_line_fields(e), sort_keys=True) + "\n"
                   for e in sorted(entries, key=lambda e: e.code)).encode("ascii")


def _encoded(monkeypatch) -> list:
    """The objects that json.JSONEncoder.encode is given from now on."""
    encoded = []
    encode = json.JSONEncoder.encode
    monkeypatch.setattr(json.JSONEncoder, "encode",
                        lambda self, o: encoded.append(o) or encode(self, o))
    return encoded


def _tails(firsts) -> list:
    """The fields after the code of each entry in firsts."""
    return [{k: v for k, v in _line_fields(e).items() if k != "code"} for e in firsts]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_saved_lines_are_json_dumps_of_each_entry(g, tmp_path):
    entries = cat.report_entries(classify(g), tool_version=__version__)
    path = tmp_path / f"g{g}.jsonl"
    cat.save_catalog(entries, path)
    assert path.read_bytes() == _dumped(entries)
    loaded = cat.load_catalog(path)
    assert loaded == sorted(entries, key=lambda e: e.code)
    # the entries of the lines with one tail share its kind, source and
    # tool_version objects
    shared = {}
    for e in loaded:
        tail = json.dumps(dict(_line_fields(e), code=None), sort_keys=True)
        shared.setdefault(tail, set()).add((id(e.kind), id(e.source), id(e.tool_version)))
    assert all(len(ids) == 1 for ids in shared.values())


def test_one_tail_is_encoded_per_run_of_equal_tails(tmp_path, monkeypatch):
    # report_entries shares the field objects of entries with equal tails,
    # so save_catalog encodes a tail once per run of them in code order
    entries = sorted(cat.report_entries(classify(3), tool_version=__version__),
                     key=operator.attrgetter("code"))
    runs = [next(run) for _, run in
            groupby(entries, key=lambda e: (e.kind, sorted(e.flags.items())))]
    encoded = _encoded(monkeypatch)
    cat.save_catalog(entries, tmp_path / "g3.jsonl")
    assert encoded == _tails(runs) and 3 < len(runs) < len(entries)
    assert all(o["flags"] is e.flags for o, e in zip(encoded, runs))


def test_saved_lines_of_hand_built_entries(tmp_path):
    Entry = cat.CatalogEntry
    entries = [
        Entry("pr1|g=2|x", cat.KIND_PR, 2, {"valid": True, "census": "1,0,2,2,0,1"},
              "fixture", "0.1+d\u00e9v"),
        Entry('cd1|quote"back\\slash', cat.KIND_BASE, 1, {"one_face": True},
              "enumerated", "\u00e9"),
        # equal flags inserted in two orders, neither sorted
        Entry("ccd-a", cat.KIND_COLORED, 2, {"river": False, "optimal": True, "one_face": True}),
        Entry("ccd-b", cat.KIND_COLORED, 2, {"optimal": True, "river": False, "one_face": True}),
        # values that compare equal but encode differently share no line tail
        Entry("eq-1", cat.KIND_BASE, 1, {"x": 1}),
        Entry("eq-true", cat.KIND_BASE, 1, {"x": True}),
        Entry("eq-float", cat.KIND_BASE, 1, {"x": 1.0}),
        Entry("eq-zero", cat.KIND_BASE, 1, {"w": 0.0}),
        Entry("eq-minus-zero", cat.KIND_BASE, 1, {"w": -0.0}),
        Entry("nested", cat.KIND_PR, 3, {"b": [1, {"z": None, "a": "\u00fc"}], "a": {}}),
        Entry("no-flags", cat.KIND_COLORED, 4),
    ]
    path = tmp_path / "mixed.jsonl"
    cat.save_catalog(entries, path)
    assert path.read_bytes() == _dumped(entries)
    assert cat.load_catalog(path) == sorted(entries, key=lambda e: e.code)


class _Genus(enum.IntEnum):
    TWO = 2


class _Text(str):
    def __str__(self):   # json writes the string itself, never this
        return "not the code"


def _refusal(entries, tmp_path) -> str:
    """save_catalog's SchemaViolation message for entries, checked to leave
    an existing file byte-for-byte as it was and to create no file."""
    kept = tmp_path / "kept.jsonl"
    kept.write_bytes(b"not a catalog\n")
    for path in (kept, tmp_path / "new.jsonl"):
        with pytest.raises(cat.SchemaViolation) as exc:
            cat.save_catalog(iter(entries), path)
    assert kept.read_bytes() == b"not a catalog\n"
    assert not (tmp_path / "new.jsonl").exists()
    return str(exc.value)


@pytest.mark.parametrize("bad", [
    dict(genus=True), dict(genus=2.0), dict(kind="weird"), dict(kind=None), dict(code=""),
    dict(kind=["base_chord"]), dict(code=_Text("")), dict(genus=_Genus.TWO, kind=_Text("weird")),
], ids=["bool-genus", "float-genus", "unknown-kind", "null-kind", "empty-code", "list-kind",
        "empty-str-subclass-code", "subclassed-genus-unknown-kind"])
@pytest.mark.parametrize("at", [0, 4, 8])
def test_save_refuses_what_load_refuses(bad, at, tmp_path, monkeypatch):
    # one entry of the genus-2 catalog spoilt, the first, the last colored
    # or the last base: the message is the one load_catalog gives for the
    # line json.dumps would write for it, with the same line number
    entries = sorted(_entries_g2(), key=lambda e: e.code)
    entries[at] = entries[at]._replace(**bad)
    written = tmp_path / "dumped.jsonl"
    written.write_bytes(_dumped(entries))
    kind, message = _load_both_ways(written, monkeypatch)
    assert kind == "SchemaViolation"
    assert _refusal(entries, tmp_path) == message


def test_save_refuses_a_code_that_is_no_string(tmp_path):
    entries = sorted(_entries_g2(), key=lambda e: e.code)
    # alone, as load_catalog would refuse it; among strings, which cannot
    # be sorted with it
    assert _refusal([entries[0]._replace(code=7)], tmp_path) == \
        "line 1: code must be a string, not 7"
    assert _refusal(entries + [entries[0]._replace(code=7)], tmp_path) == \
        "code must be a string, not 7"
    # a code of a str subclass is a string, and is not the one named
    texts = [e._replace(code=_Text(e.code)) for e in entries]
    assert _refusal(texts + [entries[0]._replace(code=7)], tmp_path) == \
        "code must be a string, not 7"

    class Last:   # no string, but sorts after every string
        def __lt__(self, other):
            return False

        def __gt__(self, other):
            return True

        def __repr__(self):
            return "Last()"

    # the last of a run that shares the field objects of its first entry
    assert _refusal(entries + [entries[-1]._replace(code=Last())], tmp_path) == \
        "line 10: code must be a string, not Last()"


@pytest.mark.parametrize("code, read", [(_Genus.TWO, "2"), (("a",), "['a']")],
                         ids=["int-enum", "tuple"])
def test_save_names_a_code_that_is_no_string_as_load_reads_it(code, read, tmp_path):
    # by the JSON value load_catalog names, not by the code's repr: alone,
    # and among strings, which cannot be sorted with it
    entries = sorted(_entries_g2(), key=lambda e: e.code)
    odd = entries[0]._replace(code=code)
    written = tmp_path / "dumped.jsonl"
    written.write_text(json.dumps(_line_fields(odd)) + "\n")
    with pytest.raises(cat.SchemaViolation) as exc:
        cat.load_catalog(written)
    assert str(exc.value) == f"line 1: code must be a string, not {read}"
    assert _refusal([odd], tmp_path) == str(exc.value)
    assert _refusal(entries + [odd], tmp_path) == f"code must be a string, not {read}"


@pytest.mark.parametrize("flags", [
    {"census": {1, 2}}, {1: True, "one_face": True}, {(1, 2): True}, "cycle",
    types.MappingProxyType({"one_face": True}), [("one_face", True)], 5,
], ids=["set-value", "mixed-keys", "tuple-key", "cycle", "mapping-proxy", "list", "int"])
def test_save_refuses_flags_that_cannot_be_encoded(flags, tmp_path, monkeypatch):
    if flags == "cycle":
        flags = {"one_face": True}
        flags["self"] = flags
    entries = sorted(_entries_g2(), key=lambda e: e.code)
    entries[2] = entries[2]._replace(flags=flags)
    if not isinstance(flags, (list, int)):   # json.dumps cannot encode these
        with pytest.raises((TypeError, ValueError)):
            _dumped(entries)
        assert _refusal(entries, tmp_path).startswith("line 3: cannot encode as JSON (")
    else:   # they encode, as no JSON object, and the reader refuses them
        written = tmp_path / "dumped.jsonl"
        written.write_bytes(_dumped(entries))
        message = _load_both_ways(written, monkeypatch)[1]
        assert message.startswith("line 3: flags must be an object, not ")
        assert _refusal(entries, tmp_path) == message


@pytest.mark.parametrize("field, value", [
    ("genus", _Genus.TWO), ("code", _Text("ccd-subclass")), ("kind", _Text(cat.KIND_COLORED)),
], ids=["int-enum-genus", "str-subclass-code", "str-subclass-kind"])
def test_save_writes_what_load_reads_for_subclassed_values(field, value, tmp_path):
    # json.dumps writes the int or string each value is, which the reader
    # accepts; so the writer writes it too
    entries = sorted(_entries_g2(), key=lambda e: e.code)
    entries[4] = entries[4]._replace(**{field: value})
    entries.sort(key=lambda e: e.code)
    path = tmp_path / "subclassed.jsonl"
    cat.save_catalog(entries, path)
    assert path.read_bytes() == _dumped(entries)
    loaded = cat.load_catalog(path)
    assert loaded == entries
    assert all(type(getattr(e, field)) in (int, str) for e in loaded)


def test_save_load_save_writes_the_same_bytes_and_one_tail_per_run(tmp_path, monkeypatch):
    entries = cat.report_entries(classify(3), tool_version=__version__)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    cat.save_catalog(entries, first)
    assert first.read_bytes() == _dumped(entries)
    loaded = cat.load_catalog(first)
    runs = [next(run) for _, run in groupby(loaded, key=lambda e: id(e.flags))]
    encoded = _encoded(monkeypatch)
    cat.save_catalog(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    # loaded entries share their five field objects along a run
    assert encoded == _tails(runs) and 3 < len(runs) < len(entries)
    assert all(o["flags"] is e.flags for o, e in zip(encoded, runs))


def test_equal_flags_write_the_same_bytes_shared_or_not(tmp_path):
    Entry = cat.CatalogEntry
    shared = {"one_face": True, "optimal": True}
    fields = [(cat.KIND_BASE, 1, "enumerated", ""), (cat.KIND_BASE, 1, "enumerated", ""),
              (cat.KIND_COLORED, 1, "enumerated", ""), (cat.KIND_COLORED, 2, "enumerated", ""),
              (cat.KIND_COLORED, 2, "fixture", ""), (cat.KIND_COLORED, 2, "fixture", "0.1"),
              (cat.KIND_COLORED, 2, "fixture", "0.1")]
    one_dict = [Entry(f"c{i}", kind, genus, shared, source, version)
                for i, (kind, genus, source, version) in enumerate(fields)]
    own_dicts = [e._replace(flags=dict(shared)) for e in one_dict]
    for name, entries in (("one.jsonl", one_dict), ("own.jsonl", own_dicts)):
        cat.save_catalog(entries, tmp_path / name)
        assert (tmp_path / name).read_bytes() == _dumped(entries), name


def _outcome(path):
    """load_catalog's entries, or the type and message of what it raised."""
    try:
        return cat.load_catalog(path)
    except cat.SchemaViolation as exc:
        return type(exc).__name__, str(exc)


def _load_both_ways(path, monkeypatch):
    """The outcome of load_catalog, which must be the same when every line
    is parsed whole with json.loads (no line begins like a saved line)."""
    fast = _outcome(path)
    with monkeypatch.context() as m:
        m.setattr(cat, "_CODE_HEAD", "\x00")
        whole = _outcome(path)
    assert fast == whole
    return fast


def _jsonl(*objs) -> str:
    return "".join(json.dumps(o, sort_keys=True) + "\n" for o in objs)


def test_each_distinct_tail_is_parsed_once(tmp_path, monkeypatch):
    entries = cat.report_entries(classify(3), tool_version=__version__)
    path = tmp_path / "g3.jsonl"
    cat.save_catalog(entries, path)
    calls = []
    tail_entry = cat._tail_entry
    monkeypatch.setattr(cat, "_tail_entry", lambda *a: calls.append(a[0]) or tail_entry(*a))
    loaded = cat.load_catalog(path)
    assert loaded == sorted(entries, key=lambda e: e.code)
    # bases; colored river and not river
    assert len(calls) == len(set(calls)) == 3
    # entries that share a tail share its read-only flags dict, as those of
    # report_entries share theirs
    assert len({id(e.flags) for e in loaded}) == 3
    assert len({id(e.flags) for e in entries}) == 3
    assert all(type(e.flags) is cat._Flags for e in loaded + entries)


_MUTATORS = {
    "__setitem__": lambda f: operator.setitem(f, "one_face", False),
    "__delitem__": lambda f: operator.delitem(f, "one_face"),
    "__ior__": lambda f: operator.ior(f, {"one_face": False}),
    "clear": lambda f: f.clear(),
    "pop": lambda f: f.pop("one_face"),
    "popitem": lambda f: f.popitem(),
    "setdefault": lambda f: f.setdefault("new", True),
    "update": lambda f: f.update(one_face=False),
}


def test_package_built_flags_are_read_only(tmp_path):
    entries = cat.report_entries(classify(3), tool_version=__version__)
    path = tmp_path / "g3.jsonl"
    cat.save_catalog(entries, path)
    # a line parsed whole gets read-only flags of its own
    path.write_text(path.read_text() + json.dumps(dict(_line_fields(entries[0]), code="x")) + "\n")
    loaded = cat.load_catalog(path)
    everything = entries + loaded
    before = [(e.code, dict(e.flags)) for e in everything]
    for name, mutate in _MUTATORS.items():
        for flags in {id(e.flags): e.flags for e in everything}.values():
            with pytest.raises(TypeError, match="^catalog entry flags are read-only$"):
                mutate(flags)
        assert [(e.code, dict(e.flags)) for e in everything] == before, name


@pytest.mark.parametrize("round_trip", [
    lambda e: pickle.loads(pickle.dumps(e)),
    copy.copy,
    copy.deepcopy,
    lambda e: cat.CatalogEntry(**e._asdict()),
], ids=["pickle", "copy", "deepcopy", "asdict"])
def test_round_trips_keep_flags_read_only(round_trip):
    for e in cat.report_entries(classify(2), tool_version=__version__)[-2:]:
        again = round_trip(e)
        assert again == e and again.flags == e.flags
        assert type(again.flags) is cat._Flags
        with pytest.raises(TypeError, match="read-only"):
            again.flags["river"] = not e.flags["river"]


def test_hand_built_entries_keep_the_mapping_they_are_given():
    flags = {"one_face": True}
    built = cat.CatalogEntry("c", cat.KIND_BASE, 1, flags=flags)
    assert built.flags is flags
    # an entry built with no flags shares one empty read-only dict
    plain = cat.CatalogEntry("c", cat.KIND_BASE, 1).flags
    assert type(plain) is cat._Flags and plain == {}
    assert cat.CatalogEntry("d", cat.KIND_BASE, 2).flags is plain
    with pytest.raises(TypeError, match="read-only"):
        plain["one_face"] = True
    # replace is the way to give a package-built entry other flags
    entry = cat.report_entries(classify(1))[0]
    changed = entry._replace(flags={"one_face": False, "note": "x"})
    changed.flags["note"] = "y"
    assert changed.flags == {"one_face": False, "note": "y"}
    assert entry.flags == {"one_face": True}


@pytest.mark.parametrize("sort_keys", [True, False])
def test_fast_and_whole_line_parsing_agree_on_schema_violations(tmp_path, monkeypatch, sort_keys):
    # the cases of test_schema_violations_carry_line_and_field, with the code
    # first (as saved) or not
    good = _line_fields(_entries_g2()[0])
    path = tmp_path / "bad.jsonl"

    def outcome(*objs):
        path.write_text("".join(json.dumps(o, sort_keys=sort_keys) + "\n" for o in objs))
        return _load_both_ways(path, monkeypatch)

    bad = dict(good)
    del bad["genus"]
    assert outcome(good, bad) == ("SchemaViolation", "line 2: missing field 'genus'")
    assert outcome(dict(good, kind="chartreuse")) == \
        ("SchemaViolation", "line 1: field 'kind' is 'chartreuse'")
    assert outcome(dict(good, kind=["base_chord"])) == \
        ("SchemaViolation", "line 1: kind must be a string, not ['base_chord']")
    assert outcome(dict(good, schema_version=99)) == \
        ("SchemaViolation", "line 1: field 'schema_version' is 99, expected 1")
    for flags in (5, [["one_face", True]]):
        assert outcome(dict(good, flags=flags)) == \
            ("SchemaViolation", f"line 1: flags must be an object, not {flags!r}")


def test_fast_and_whole_line_parsing_agree_on_hand_built_entries(tmp_path, monkeypatch):
    Entry = cat.CatalogEntry
    entries = [
        Entry("pr1|g=2|x", cat.KIND_PR, 2, {"valid": True, "census": "1,0,2,2,0,1"},
              "fixture", "0.1+d\u00e9v"),
        Entry('cd1|quote"back\\slash', cat.KIND_BASE, 1, {"one_face": True},
              "enumerated", "\u00e9"),
        Entry("ccd-a", cat.KIND_COLORED, 2, {"river": False, "optimal": True, "one_face": True}),
        Entry("ccd-b", cat.KIND_COLORED, 2, {"optimal": True, "river": False, "one_face": True}),
        Entry("eq-1", cat.KIND_BASE, 1, {"x": 1}),
        Entry("eq-true", cat.KIND_BASE, 1, {"x": True}),
        Entry("eq-float", cat.KIND_BASE, 1, {"x": 1.0}),
        Entry("eq-zero", cat.KIND_BASE, 1, {"w": 0.0}),
        Entry("eq-minus-zero", cat.KIND_BASE, 1, {"w": -0.0}),
        Entry("nested", cat.KIND_PR, 3, {"b": [1, {"z": None, "a": "\u00fc"}], "a": {}}),
        Entry("nested-too", cat.KIND_PR, 3, {"b": [1, {"z": None, "a": "\u00fc"}], "a": {}}),
        Entry("no-flags", cat.KIND_COLORED, 4),
    ]
    path = tmp_path / "mixed.jsonl"
    cat.save_catalog(entries, path)
    loaded = _load_both_ways(path, monkeypatch)
    assert loaded == sorted(entries, key=lambda e: e.code)
    # a tail whose flags hold a list or an object is parsed per line
    nested = [e for e in loaded if e.code.startswith("nested")]
    assert nested[0].flags["b"] is not nested[1].flags["b"]
    assert nested[0].flags["a"] is not nested[1].flags["a"]


def test_fast_and_whole_line_parsing_agree_on_odd_lines(tmp_path, monkeypatch):
    good = _line_fields(cat.CatalogEntry("cd1-a", cat.KIND_BASE, 2, {"one_face": True}))
    other = dict(good, code="cd1-b")
    line = json.dumps(good, sort_keys=True)
    tail = line[line.index(", "):]
    path = tmp_path / "odd.jsonl"

    def outcome(text):
        path.write_text(text)
        return _load_both_ways(path, monkeypatch)

    # a seen tail with an empty code, or with the code of an earlier line
    assert outcome(_jsonl(good, dict(good, code=""))) == \
        ("SchemaViolation", "line 2: field 'code' must be a non-empty string")
    assert outcome(_jsonl(good, other, good)) == \
        ("SchemaViolation", "line 3: field 'code' duplicates line 1")
    # a second "code" member wins, spelt plainly or escaped
    for key in ('"code"', '"\\u0063ode"'):
        loaded = outcome(_jsonl(good) + '{"code": "x"' + tail[:-1] + f', {key}: "cd1-b"}}\n')
        assert [e.code for e in loaded] == ["cd1-a", "cd1-b"]
        assert outcome(_jsonl(good) + '{"code": "x"' + tail[:-1] + f', {key}: 7}}\n') == \
            ("SchemaViolation", "line 2: code must be a string, not 7")
    # other spacing and key order
    loaded = outcome(_jsonl(good) + json.dumps(other, separators=(",", ":")) + "\n"
                     + json.dumps(dict(other, code="cd1-c"), indent=None) + "\n"
                     + '{"code": "cd1-d" ' + tail + "\n\n   \n")
    assert [e.code for e in loaded] == ["cd1-a", "cd1-b", "cd1-c", "cd1-d"]
    # invalid JSON at the code, in a tail, a doubled and a trailing comma
    for text in ('{"code": "unterminated' + tail + "\n",
                 '{"code": "bad\\escape"' + tail + "\n",
                 _jsonl(good) + '{"code": "cd1-b"' + tail[:-2] + "\n",
                 '{"code": "cd1-b",' + tail + "\n",
                 '{"code": "cd1-b",}\n', '{"code": "cd1-b", }\n'):
        kind, message = outcome(text)
        assert kind == "SchemaViolation" and "invalid JSON" in message, text
    # flags that are not an object, first seen or after a good line
    for flags in ([["one_face", True]], 5):
        assert outcome(_jsonl(dict(good, flags=flags))) == \
            ("SchemaViolation", f"line 1: flags must be an object, not {flags!r}")
        assert outcome(_jsonl(good, dict(other, flags=flags))) == \
            ("SchemaViolation", f"line 2: flags must be an object, not {flags!r}")


def test_lines_that_are_no_json_objects_are_schema_violations(tmp_path, monkeypatch):
    # a number, a string naming every field, null, a bool and a list
    path = tmp_path / "scalar.jsonl"
    for line in ("5", '"schema_version code kind genus flags source tool_version"',
                 "null", "true", "[1]"):
        path.write_text(line + "\n")
        assert _load_both_ways(path, monkeypatch) == \
            ("SchemaViolation", "line 1: the top-level JSON value is not an object"), line


def test_too_deeply_nested_line_is_invalid_json(tmp_path):
    # json.loads raises RecursionError there, whose text differs between
    # Python versions: a whole line, and a tail on the fast path
    deep = "[" * 100_000 + "]" * 100_000
    good = _line_fields(cat.CatalogEntry("cd1-a", cat.KIND_BASE, 2, {"one_face": True}))
    path = tmp_path / "deep.jsonl"
    for line in (deep, '{"code": "cd1-b", "flags": ' + deep + "}"):
        path.write_text(_jsonl(good) + line + "\n")
        with pytest.raises(cat.SchemaViolation, match=r"^line 2: invalid JSON \("):
            cat.load_catalog(path)


def test_bools_are_not_integers(tmp_path, monkeypatch):
    good = _line_fields(_entries_g2()[0])
    path = tmp_path / "bool.jsonl"
    for sort_keys in (True, False):
        path.write_text(json.dumps(dict(good, genus=True), sort_keys=sort_keys) + "\n")
        assert _load_both_ways(path, monkeypatch) == \
            ("SchemaViolation", "line 1: genus must be an int, not True")
        path.write_text(json.dumps(dict(good, schema_version=True), sort_keys=sort_keys) + "\n")
        assert _load_both_ways(path, monkeypatch) == \
            ("SchemaViolation", "line 1: schema_version must be an int, not True")


def test_non_ascii_byte_names_its_line(tmp_path, monkeypatch):
    entries = _entries_g2()
    path = tmp_path / "latin.jsonl"
    cat.save_catalog(entries, path)
    lines = path.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b'"enumerated"', b'"\xc3\xa9numerated"')
    path.write_bytes(b"\n".join(lines))
    column = lines[3].index(b"\xc3") + 1
    assert _load_both_ways(path, monkeypatch) == \
        ("SchemaViolation", f"line 4: byte 0xc3 at column {column} is not ASCII")


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_lines_end_only_at_newlines(char, tmp_path, monkeypatch):
    # str.splitlines breaks lines at these characters, the file does not: a
    # line of one alone is one skipped line, and after an object it is
    # refused, as json.loads refuses it
    good = _jsonl(_line_fields(cat.CatalogEntry("cd1-a", cat.KIND_BASE, 2, {"one_face": True})))
    path = tmp_path / "breaks.jsonl"
    path.write_text(good + char + "\n{\n")
    kind, message = _load_both_ways(path, monkeypatch)
    assert kind == "SchemaViolation" and message.startswith("line 3: invalid JSON"), message
    path.write_text(good[:-1] + char + "\n")
    kind, message = _load_both_ways(path, monkeypatch)
    assert kind == "SchemaViolation" and message.startswith("line 1: invalid JSON"), message


def test_entries_stay_frozen(tmp_path):
    entries = _entries_g2()
    path = tmp_path / "g2.jsonl"
    cat.save_catalog(entries, path)
    built = cat.CatalogEntry("c", cat.KIND_BASE, 1)
    for entry in (entries[0], entries[-1], cat.load_catalog(path)[0], built):
        with pytest.raises(AttributeError):
            entry.code = "other"
        with pytest.raises(AttributeError):
            del entry.flags
        assert repr(entry).startswith(f"CatalogEntry(code={entry.code!r}, kind=")
    assert built._replace() == built


def test_io_failure(tmp_path):
    with pytest.raises(cat.IoFailure):
        cat.load_catalog(tmp_path / "missing.jsonl")
    with pytest.raises(cat.IoFailure, match="^cannot read fixture missing.json: "):
        cat.load_fixture("missing.json")


_LOAD_LINE = """
import sys
import morsediag.catalog as cat
try:
    cat.load_catalog(sys.argv[1])
except cat.SchemaViolation as exc:
    print(exc)
"""


def test_missing_field_message_is_the_same_in_every_process(tmp_path):
    # the line lacks six fields; the first in _formats.CATALOG_LINE order is named,
    # whatever order string hashing would give a set
    path = tmp_path / "one.jsonl"
    path.write_text('{"code": "x"}\n')
    src = str(Path(cat.__file__).resolve().parents[1])
    out = set()
    for seed in ("1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", _LOAD_LINE, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        out.add(done.stdout)
    assert out == {"line 1: missing field 'schema_version'\n"}


def test_catalog_bytes_reproducible(tmp_path):
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    cat.save_catalog(_entries_g2(), p1)
    cat.save_catalog(cat.report_entries(classify(2), tool_version=__version__), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_flags_recomputable_from_code(tmp_path):
    for entry in _entries_g2():
        if entry.kind != cat.KIND_COLORED:
            continue
        ccd = decode(entry.code)
        assert canonical_colored(ccd) == entry.code
        assert entry.flags["river"] == is_river(ccd)
        assert entry.flags["optimal"] and entry.flags["one_face"]


def test_verify_fixtures_clean():
    rep = cat.verify_fixtures()
    assert rep.ok, rep.failures
    assert len(rep.checked) >= 20


def test_verify_fixtures_reports_a_wrong_census_and_a_missing_fixture(monkeypatch):
    monkeypatch.setitem(cat._EXPECTED_CENSUS, "solid_torus.json", (2, 0, 1, 1, 0, 1, 1))
    monkeypatch.setitem(cat._EXPECTED_CENSUS, "gone.json", (1, 0, 0, 0, 0, 1, 0))
    rep = cat.verify_fixtures()
    assert not rep.ok
    assert rep.failures == (
        "solid_torus.json census: (1, 0, 1, 1, 0, 1, 1) != (2, 0, 1, 1, 0, 1, 1)",
        "gone.json: fixture missing")


def test_fixture_expectations_cover_all_files():
    names = set(cat.fixture_names())
    assert set(cat._EXPECTED_CENSUS) == names


def test_fixture_censuses_match_table():
    for name, expected in cat._EXPECTED_CENSUS.items():
        d = cat.load_fixture(name)
        assert validate(d).valid
        c = census(d)
        assert (c.n1, c.n2, c.n3, c.n4, c.n5, c.n6, c.boundary_genus) == expected
