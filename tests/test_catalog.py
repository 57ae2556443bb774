import dataclasses
import json

import pytest

import morsediag.catalog as cat
from morsediag import __version__
from morsediag.chord import canonical_colored, chord_from_json, classify, is_river
from morsediag.prdiag import census, validate


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
    with pytest.raises(cat.SchemaViolation):
        cat.save_catalog(entries + [entries[0]], tmp_path / "dup2.jsonl")


def test_schema_violations_carry_line_and_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = _entries_g2()[0].to_json()
    bad = dict(good)
    del bad["genus"]
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(cat.SchemaViolation) as exc:
        cat.load_catalog(path)
    assert "line 2" in str(exc.value) and "genus" in str(exc.value)

    for kind in ("chartreuse", ["base_chord"]):
        bad = dict(good)
        bad["kind"] = kind
        path.write_text(json.dumps(bad) + "\n")
        with pytest.raises(cat.SchemaViolation) as exc:
            cat.load_catalog(path)
        assert str(exc.value) == f"line 1: field 'kind' is {kind!r}"

    bad = dict(good)
    bad["schema_version"] = 99
    path.write_text(json.dumps(bad) + "\n")
    with pytest.raises(cat.SchemaViolation) as exc:
        cat.load_catalog(path)
    assert "schema_version" in str(exc.value)


def _dumped(entries) -> bytes:
    """The catalog bytes of json.dumps on each entry, sorted by code."""
    return "".join(json.dumps(e.to_json(), sort_keys=True) + "\n"
                   for e in sorted(entries, key=lambda e: e.code)).encode("ascii")


@pytest.mark.parametrize("g", [1, 2, 3])
def test_saved_lines_are_json_dumps_of_each_entry(g, tmp_path):
    entries = cat.report_entries(classify(g), tool_version=__version__)
    path = tmp_path / f"g{g}.jsonl"
    cat.save_catalog(entries, path)
    assert path.read_bytes() == _dumped(entries)
    loaded = cat.load_catalog(path)
    assert loaded == sorted(entries, key=lambda e: e.code)
    # one string object per distinct kind, source and tool_version
    assert {id(e.kind) for e in loaded} <= {id(k) for k in cat._KINDS}
    assert len({id(e.source) for e in loaded}) == 1
    assert len({id(e.tool_version) for e in loaded}) == 1


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
    # entries that share a tail share no flags dict
    assert len({id(e.flags) for e in loaded}) == len(loaded)


@pytest.mark.parametrize("sort_keys", [True, False])
def test_fast_and_whole_line_parsing_agree_on_schema_violations(tmp_path, monkeypatch, sort_keys):
    # the cases of test_schema_violations_carry_line_and_field, with the code
    # first (as saved) or not
    good = _entries_g2()[0].to_json()
    path = tmp_path / "bad.jsonl"

    def outcome(*objs):
        path.write_text("".join(json.dumps(o, sort_keys=sort_keys) + "\n" for o in objs))
        return _load_both_ways(path, monkeypatch)

    bad = dict(good)
    del bad["genus"]
    assert outcome(good, bad) == ("SchemaViolation", "line 2: missing field 'genus'")
    for kind in ("chartreuse", ["base_chord"]):
        assert outcome(dict(good, kind=kind)) == \
            ("SchemaViolation", f"line 1: field 'kind' is {kind!r}")
    assert outcome(dict(good, schema_version=99)) == \
        ("SchemaViolation", "line 1: field 'schema_version' is 99, expected 1")
    for flags in (5, [["one_face", True]]):
        assert outcome(dict(good, flags=flags)) == \
            ("SchemaViolation", "line 1: field 'flags' must be an object")


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
    good = cat.CatalogEntry("cd1-a", cat.KIND_BASE, 2, {"one_face": True}).to_json()
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
            ("SchemaViolation", "line 2: field 'code' must be a non-empty string")
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
            ("SchemaViolation", "line 1: field 'flags' must be an object")
        assert outcome(_jsonl(good, dict(other, flags=flags))) == \
            ("SchemaViolation", "line 2: field 'flags' must be an object")


def test_bools_are_not_integers(tmp_path, monkeypatch):
    good = _entries_g2()[0].to_json()
    path = tmp_path / "bool.jsonl"
    for sort_keys in (True, False):
        path.write_text(json.dumps(dict(good, genus=True), sort_keys=sort_keys) + "\n")
        assert _load_both_ways(path, monkeypatch) == \
            ("SchemaViolation", "line 1: field 'genus' must be an integer")
        path.write_text(json.dumps(dict(good, schema_version=True), sort_keys=sort_keys) + "\n")
        assert _load_both_ways(path, monkeypatch) == \
            ("SchemaViolation", "line 1: field 'schema_version' is True, expected 1")


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


def test_entries_stay_frozen(tmp_path):
    entries = _entries_g2()
    path = tmp_path / "g2.jsonl"
    cat.save_catalog(entries, path)
    built = cat.CatalogEntry("c", cat.KIND_BASE, 1)
    for entry in (entries[0], entries[-1], cat.load_catalog(path)[0], built):
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.code = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del entry.flags
        assert repr(entry).startswith(f"CatalogEntry(code={entry.code!r}, kind=")
    assert dataclasses.replace(built) == built


def test_io_failure(tmp_path):
    with pytest.raises(cat.IoFailure):
        cat.load_catalog(tmp_path / "missing.jsonl")


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
        match, cols = _decode(entry.code)
        ccd = chord_from_json({"n": len(match) // 2, "match": list(match),
                               "colors": list(cols)})
        assert canonical_colored(ccd) == entry.code
        assert entry.flags["river"] == is_river(ccd)
        assert entry.flags["optimal"] and entry.flags["one_face"]


def _decode(code):
    """(matching, chord colors) read from a "ccd1[..]|n=..|m=..|c=.." code."""
    from morsediag.chord import GREEN, RED, ChordDiagram

    mpart, cpart = code.split("|m=")[1].split("|c=")
    match = tuple(int(x) for x in mpart.split(","))
    base = ChordDiagram(len(match) // 2, match)
    cols = tuple(GREEN if cpart[a] == "g" else RED for a, b in base.chords())
    return match, cols


def test_verify_fixtures_clean():
    rep = cat.verify_fixtures()
    assert rep.ok, rep.failures
    assert len(rep.checked) >= 20


def test_fixture_expectations_cover_all_files():
    names = set(cat.fixture_names())
    assert set(cat._EXPECTED_CENSUS) == names


def test_fixture_censuses_match_table():
    for name, expected in cat._EXPECTED_CENSUS.items():
        d = cat.load_fixture(name)
        assert validate(d).valid
        c = census(d)
        assert (c.n1, c.n2, c.n3, c.n4, c.n5, c.n6, c.boundary_genus) == expected
