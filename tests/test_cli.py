import json

from morsediag.cli import main
import morsediag.catalog as cat


def fixture_path(name: str) -> str:
    return str(cat.fixture_dir() / name)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_classify_genus2_counts(capsys):
    code, out, err = run(capsys, "classify", "--genus", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["bases"] == 4
    assert payload["colored"] == 5
    assert payload["river_colored"] == 2
    assert payload["symmetry"] == "dihedral"
    assert "bases" in err


def test_classify_writes_reproducible_catalog(tmp_path, capsys):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert run(capsys, "classify", "--genus", "2", "--out", str(p1))[0] == 0
    assert run(capsys, "classify", "--genus", "2", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert len(cat.load_catalog(p1)) == 9


def test_classify_to_a_missing_directory_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "c.jsonl"
    code, stdout, err = run(capsys, "classify", "--genus", "1", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: cannot write catalog {out}: ")
    assert not out.parent.exists()


def test_classify_workers_flag(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "2", "--workers", "2")
    assert code == 0
    assert json.loads(out)["colored"] == 5


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("solid_torus.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert len(payload["properties"]) == 5
    assert all(v["passed"] for v in payload["properties"].values())


def test_validate_invalid_diagram_exits_one(tmp_path, capsys):
    obj = json.loads(open(fixture_path("solid_torus.json")).read())
    obj["curves"] = obj["curves"][:1]    # orphan the red edge
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_iso_fixture_pair(capsys):
    code, out, _ = run(capsys, "iso", fixture_path("d3_four_a.json"),
                       fixture_path("d3_four_b.json"))
    assert code == 1
    assert json.loads(out) == {"equivalent": False}
    code, out, _ = run(capsys, "iso", fixture_path("solid_torus.json"),
                       fixture_path("solid_torus.json"))
    assert code == 0
    assert json.loads(out) == {"equivalent": True}


def test_census_command(monkeypatch, capsys):
    # the Morse checks come from the census: one analysis, one side
    # reduction per color
    import morsediag.prdiag as pr

    calls = []
    reduce_side = pr._side_reduction

    def counted(*args):
        calls.append(args[3])
        return reduce_side(*args)

    monkeypatch.setattr(pr, "_side_reduction", counted)
    code, out, _ = run(capsys, "census", fixture_path("solid_torus.json"))
    assert code == 0
    payload = json.loads(out)
    assert [payload[f"n{i}"] for i in range(1, 7)] == [1, 0, 1, 1, 0, 1]
    assert payload["boundary_genus"] == 1
    assert payload["morse_checks"]["passed"] is True
    assert calls == [True, False]


def test_convert_both_ways(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", "--to", "chord",
                       fixture_path("solid_torus.json"))
    assert code == 0
    chord = json.loads(out)
    assert chord["n"] == 2 and len(chord["match"]) == 4
    chord_file = tmp_path / "chord.json"
    chord_file.write_text(json.dumps(chord))
    code, out, _ = run(capsys, "convert", "--to", "pr", str(chord_file),
                       "--out", str(tmp_path / "pr.json"))
    assert code == 0
    assert json.loads(out)["curves"]
    assert (tmp_path / "pr.json").exists()


def test_convert_non_optimal_exits_one(capsys):
    code, out, _ = run(capsys, "convert", "--to", "chord",
                       fixture_path("d3_four_a.json"))
    assert code == 1
    assert json.loads(out)["error"] == "NotOptimal"
    # genus 0 has no chord diagram: a negative verdict, not a traceback
    for argv in (("convert", "--to", "chord"), ("export", "--format", "svg")):
        code, out, _ = run(capsys, *argv, fixture_path("d3_trivial.json"))
        assert code == 1, argv
        assert json.loads(out)["error"] == "NotOptimal"


def test_boundary_command(capsys):
    code, out, _ = run(capsys, "boundary", fixture_path("solid_torus.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1
    roles = [v["role"] for v in payload["vertices"]]
    assert roles.count("source") == 1 and roles.count("saddle") == 2


def test_fixtures_verify_command(capsys):
    code, out, _ = run(capsys, "fixtures", "verify")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_export_formats(tmp_path, capsys):
    code, out, _ = run(capsys, "export", "--format", "dot",
                       fixture_path("solid_torus.json"))
    assert code == 0 and out.startswith("graph")
    code, out, _ = run(capsys, "export", "--format", "svg",
                       fixture_path("g2_optimal_1.json"))
    assert code == 0 and out.startswith("<svg")
    svg_file = tmp_path / "d.svg"
    code, out, _ = run(capsys, "export", "--format", "svg",
                       fixture_path("solid_torus.json"), "--out", str(svg_file))
    assert code == 0
    assert svg_file.read_text().startswith("<svg")
    assert json.loads(out)["written"] == str(svg_file)
    code, out, _ = run(capsys, "export", "--format", "json",
                       fixture_path("solid_torus.json"))
    assert code == 0
    assert "curves" in json.loads(out)


def test_stdout_is_json_for_all_commands(tmp_path, capsys):
    invocations = [
        ("classify", "--genus", "1"),
        ("validate", fixture_path("d3_trivial.json")),
        ("census", fixture_path("d3_four_b.json")),
        ("iso", fixture_path("d3_trivial.json"), fixture_path("d3_trivial.json")),
        ("boundary", fixture_path("d3_trivial.json")),
        ("fixtures", "verify"),
        ("convert", "--to", "chord", fixture_path("g2_optimal_2.json")),
    ]
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        json.loads(out)


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(capsys, "classify")[0] == 2                       # missing --genus
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "validate", str(tmp_path / "nope.json"))[0] == 2
    not_pr = tmp_path / "x.json"
    not_pr.write_text(json.dumps({"n": 2, "match": [2, 3, 0, 1]}))
    assert run(capsys, "validate", str(not_pr))[0] == 2


def test_malformed_input_exits_two_naming_the_field(tmp_path, capsys):
    # a crash must not read as a negative verdict (exit 1)
    no_darts = tmp_path / "no_darts.json"
    no_darts.write_text(json.dumps({"curves": []}))
    obj = json.loads(open(fixture_path("solid_torus.json")).read())
    del obj["curves"][0]["closed"]
    no_closed = tmp_path / "no_closed.json"
    no_closed.write_text(json.dumps(obj))
    bad_edges = []
    for edge in (999, -1):
        with open(fixture_path("solid_torus.json")) as fh:
            obj = json.load(fh)
        obj["labels"][0]["edge"] = edge
        path = tmp_path / f"label_edge_{edge}.json"
        path.write_text(json.dumps(obj))
        bad_edges.append((path, repr(edge)))
    # fields of the wrong type, named by their JSON path; a bool() of
    # "no" or a list index must not pass for a value and read as a verdict
    bad_fields = []
    for i, (keys, value, needle) in enumerate((
            (("alpha", 0), 1.0, "alpha[0] must be an int, not 1.0"),
            (("holes",), None, "holes must be a list of ints, not None"),
            (("curves", 0, "closed"), "no", "curves[0].closed must be a bool, not 'no'"),
            (("labels", 0, "index"), [1], "labels[0].index must be an int or null, not [1]"),
            (("labels",), None, "labels must be a list of objects, not None"),
            (("curves",), None, "curves must be a list of objects, not None"),
            (("labels", 0, "edge"), 8.0, "labels[0].edge must be an int, not 8.0"),
            (("curves", 0), [1], "curves[0] must be an object, not [1]"),
            (("labels", 0, "kind"), ["u"], "unknown label kind ['u']"),
            (("curves", 0, "family"), ["u"], "unknown curve family ['u']"))):
        with open(fixture_path("solid_torus.json")) as fh:
            obj = json.load(fh)
        parent = obj
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = tmp_path / f"bad_field_{i}.json"
        path.write_text(json.dumps(obj))
        bad_fields.append((path, needle))
    good = fixture_path("solid_torus.json")
    for bad, needle in [(no_darts, "'darts'"), (no_closed, "'closed'")] + bad_edges + bad_fields:
        for argv in (("validate", str(bad)), ("census", str(bad)),
                     ("boundary", str(bad)), ("iso", good, str(bad)),
                     ("iso", str(bad), good)):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith(f"error: {bad}: ") and needle in err, err
    chord = tmp_path / "no_match.json"
    chord.write_text(json.dumps({"n": 2, "colors": ["green", "red"]}))
    code, out, err = run(capsys, "convert", "--to", "pr", str(chord))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {chord}: ") and "'match'" in err
    # chord fields of the wrong type, and values the constructors refuse
    for i, (field, value, needle) in enumerate((
            ("n", 2.0, "n must be an int, not 2.0"),
            ("n", "2", "n must be an int, not '2'"),
            ("match", "2301", "match must be a list of ints, not '2301'"),
            ("colors", "gr", "colors must be a list of strings or null, not 'gr'"),
            ("colors", ["blue", "red"], "bad color 'blue'"),
            ("match", [1, 1, 3, 2], "match is not a fixed-point-free involution"))):
        obj = {"n": 2, "match": [2, 3, 0, 1], "colors": ["green", "red"], field: value}
        chord = tmp_path / f"bad_chord_{i}.json"
        chord.write_text(json.dumps(obj))
        for argv in (("convert", "--to", "pr", str(chord)), ("export", "--format", "svg", str(chord))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith(f"error: {chord}: ") and needle in err, err
    # a top-level value that is not an object, even a string holding "curves"
    for i, value in enumerate(("curves", ["curves"], 3)):
        bad = tmp_path / f"not_object_{i}.json"
        bad.write_text(json.dumps(value))
        for argv in (("validate", str(bad)), ("export", "--format", "dot", str(bad)),
                     ("convert", "--to", "chord", str(bad))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith(f"error: {bad}: ") and "not an object" in err, err


def test_malformed_curve_edges_exit_two_naming_the_field(tmp_path, capsys):
    good = fixture_path("solid_torus.json")
    with open(good) as fh:
        obj = json.load(fh)
    obj["curves"][0]["edges"] = "ab"
    bad = tmp_path / "curve_edges.json"
    bad.write_text(json.dumps(obj))
    for argv in (("validate", str(bad)), ("iso", good, str(bad)), ("iso", str(bad), good)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and "curves[0].edges" in err, err


def test_workers_env_var(monkeypatch, capsys):
    monkeypatch.setenv("MORSEDIAG_WORKERS", "2")
    code, out, _ = run(capsys, "classify", "--genus", "1")
    assert code == 0
    assert json.loads(out)["colored"] == 1
