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
