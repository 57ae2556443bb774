import json
import multiprocessing
from itertools import product

from morsediag.chord import classify
from morsediag.cli import main
from morsediag.combmap import build_map
from morsediag.prdiag import PrDiagram, equivalent, pr_to_json
import morsediag.catalog as cat

from conftest import disjoint_union, small_disks


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


def test_classify_workers_flag_below_one_exits_two(monkeypatch, capsys):
    # the flag wins over the variable, and 0 no longer means "unset"
    monkeypatch.setenv("MORSEDIAG_WORKERS", "2")
    for value in ("-3", "0"):
        code, out, err = run(capsys, "classify", "--genus", "1", "--workers", value)
        assert (code, out, err) == (2, "", f"error: --workers must be at least 1, not {value}\n")


def test_validate_fixture(capsys):
    code, out, _ = run(capsys, "validate", fixture_path("solid_torus.json"))
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert len(payload["properties"]) == 5
    assert all(v["passed"] for v in payload["properties"].values())


def test_empty_map_is_refused_as_having_no_darts(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"darts": 0, "alpha": [], "sigma": [], "curves": []}))
    code, out, err = run(capsys, "validate", str(empty))
    assert code == 1
    assert json.loads(out)["properties"]["p1_placement"]["witness"] == "surface has no darts"
    assert err == "invalid: p1_placement: surface has no darts\n"
    for argv in (("census", str(empty)), ("iso", str(empty), str(empty))):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert json.loads(out)["error"] == "p1_placement: surface has no darts"


def test_validate_invalid_diagram_exits_one(tmp_path, capsys):
    obj = json.loads((cat.fixture_dir() / "solid_torus.json").read_text())
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


def _write(path, d: PrDiagram) -> str:
    path.write_text(json.dumps(pr_to_json(d)))
    return str(path)


def test_iso_on_disconnected_surfaces_agrees_with_equivalent(tmp_path, capsys):
    # the 2-dart disk A beside each small disk X: the CLI once refused every
    # A + X file (exit 2) while the library compared them
    disk = build_map(2, (1, 0), (1, 0), hole_faces=(1,))
    unions = [PrDiagram(disjoint_union(disk, x), ()) for x in small_disks()]
    files = [_write(tmp_path / f"ax{i}.json", d) for i, d in enumerate(unions)]
    for (a, fa), (b, fb) in product(zip(unions, files), repeat=2):
        eq = equivalent(a, b)
        code, out, _ = run(capsys, "iso", fa, fb)
        assert (code, json.loads(out)) == (0 if eq else 1, {"equivalent": eq})
    # the pair whose codes were once both the code of A
    x = build_map(4, (1, 0, 3, 2), (1, 2, 3, 0), hole_faces=(1,))
    y = build_map(4, (1, 0, 3, 2), (2, 3, 0, 1), hole_faces=(0,))
    ax, ay = (_write(tmp_path / f"{name}.json", PrDiagram(disjoint_union(disk, z), ()))
              for name, z in (("ax", x), ("ay", y)))
    code, out, _ = run(capsys, "iso", ax, ay)
    assert (code, json.loads(out)) == (1, {"equivalent": False})


def test_census_of_a_disconnected_diagram_exits_two(tmp_path, capsys):
    four_a = cat.load_fixture("d3_four_a.json")
    disk = cat.load_fixture("d3_trivial.json").surface
    path = _write(tmp_path / "two.json",
                  PrDiagram(disjoint_union(four_a.surface, disk), four_a.curves))
    assert run(capsys, "validate", path)[0] == 0
    code, out, err = run(capsys, "census", path)
    assert (code, out, err) == (2, "", "error: euler_genus requires a connected map\n")


def test_chord_output_of_a_disconnected_diagram_exits_one(tmp_path, capsys):
    # a handlebody's boundary is connected, so a valid diagram on a
    # disconnected surface is not optimal (both commands once exited 2)
    four_a = cat.load_fixture("d3_four_a.json")
    disk = cat.load_fixture("d3_trivial.json").surface
    path = _write(tmp_path / "two.json",
                  PrDiagram(disjoint_union(four_a.surface, disk), four_a.curves))
    detail = "chord conversion requires an optimal diagram"
    for argv, verb in ((("convert", "--to", "chord", path), "convert"),
                       (("export", "--format", "svg", path), "export")):
        code, out, err = run(capsys, *argv)
        assert (code, json.loads(out)) == (1, {"error": "NotOptimal", "detail": detail})
        assert err == f"cannot {verb}: {detail}\n"


def test_census_command(monkeypatch, capsys):
    # the Morse checks come from the census: one analysis, which counts
    # each color side once
    import morsediag.prdiag as pr

    calls = []
    count_side = pr._counted_side

    def counted_side(*args):
        calls.append(("count", args[3]))
        return count_side(*args)

    monkeypatch.setattr(pr, "_counted_side", counted_side)
    code, out, _ = run(capsys, "census", fixture_path("solid_torus.json"))
    assert code == 0
    payload = json.loads(out)
    assert [payload[f"n{i}"] for i in range(1, 7)] == [1, 0, 1, 1, 0, 1]
    assert payload["boundary_genus"] == 1
    assert payload["morse_checks"]["passed"] is True
    assert calls == [("count", True), ("count", False)]


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


def test_fixtures_verify_command(capsys, monkeypatch):
    code, out, _ = run(capsys, "fixtures", "verify")
    assert code == 0
    assert json.loads(out)["ok"] is True
    # a fixture regression is a negative verdict
    monkeypatch.setitem(cat._EXPECTED_CENSUS, "gone.json", (1, 0, 0, 0, 0, 1, 0))
    code, out, _ = run(capsys, "fixtures", "verify")
    assert code == 1
    payload = json.loads(out)
    assert (payload["ok"], payload["failures"]) == (False, ["gone.json: fixture missing"])


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


def test_too_deeply_nested_json_exits_two_naming_the_file(tmp_path, capsys):
    # json.load raises RecursionError, not ValueError, on such a file
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (("validate", str(deep)), ("iso", str(deep), str(deep))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {deep}: ")


def test_malformed_input_exits_two_naming_the_field(tmp_path, capsys):
    # a crash must not read as a negative verdict (exit 1)
    no_darts = tmp_path / "no_darts.json"
    no_darts.write_text(json.dumps({"curves": []}))
    obj = json.loads((cat.fixture_dir() / "solid_torus.json").read_text())
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
    # a file that is not ASCII: a UTF-8 e-acute in a label kind, or a byte-order mark
    with open(fixture_path("solid_torus.json"), "rb") as fh:
        text = fh.read()
    not_ascii = []
    for name, data in (("utf8", text.replace(b'"u"', '"\u00e9"'.encode(), 1)),
                       ("bom", b"\xef\xbb\xbf" + text)):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        not_ascii.append((path, "'ascii' codec can't decode"))
    # one edge labeled twice on the torus, by one dart or by both: the file
    # would not round-trip, since map_to_json writes one entry per edge
    twice = []
    for second in (0, 2):
        path = tmp_path / f"labeled_twice_{second}.json"
        path.write_text(json.dumps({"darts": 4, "alpha": [2, 3, 0, 1], "sigma": [1, 2, 3, 0],
                                    "labels": [{"edge": 0, "kind": "U"},
                                               {"edge": second, "kind": "V"}],
                                    "curves": []}))
        twice.append((path, "labels[1].edge: edge 0 is labeled twice"))
    good = fixture_path("solid_torus.json")
    for bad, needle in ([(no_darts, "'darts'"), (no_closed, "'closed'")] + bad_edges + bad_fields
                        + not_ascii + twice):
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
    for bad, _ in not_ascii:
        for argv in (("convert", "--to", "chord", str(bad)), ("export", "--format", "json", str(bad))):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith(f"error: {bad}: ") and "'ascii' codec" in err, err
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


def test_no_worker_count_starts_a_process(monkeypatch, capsys):
    # every worker count, through the API, --workers or MORSEDIAG_WORKERS,
    # runs in this process: a typed 10000 starts no process, and the report
    # is the one-worker report, so repeated runs give the same codes
    def refuse(*args, **kwargs):
        raise AssertionError("classify started a process")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(multiprocessing.Process, "start", refuse)
    one = classify(2)
    for workers in (2, 10000):
        assert classify(2, workers=workers)._replace(runtime_seconds=one.runtime_seconds) == one
    monkeypatch.delenv("MORSEDIAG_WORKERS", raising=False)
    outputs = [run(capsys, "classify", "--genus", "2", *argv)
               for argv in ((), ("--workers", "10000"))]
    monkeypatch.setenv("MORSEDIAG_WORKERS", "5000")
    outputs.append(run(capsys, "classify", "--genus", "2"))
    one, *many = [(code, dict(json.loads(out), runtime_seconds=0)) for code, out, _ in outputs]
    assert one[0] == 0 and many == [one, one]


def test_workers_env_var_that_is_no_integer_exits_two(monkeypatch, capsys):
    # a count below one is refused like a word, not run on one worker
    for value, msg in (("two", "must be an integer, not 'two'"),
                       ("-2", "must be at least 1, not -2"),
                       ("0", "must be at least 1, not 0")):
        monkeypatch.setenv("MORSEDIAG_WORKERS", value)
        code, out, err = run(capsys, "classify", "--genus", "1")
        assert (code, out, err) == (2, "", f"error: MORSEDIAG_WORKERS {msg}\n"), value


def _json_paths(value, path=()):
    """The path of every value inside a JSON value, by dict keys and list
    indices, outermost first."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _json_paths(item, path + (key,))


def _path_name(path) -> str:
    """A path as messages name it: curves[1].closed."""
    return "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path).lstrip(".")


_SWAPPED = (None, True, 1.5, "x", [], {}, [0], 7)


def _mutant(obj, rng):
    """A copy of a JSON object with one fault, and how a reader names it.
    The fault is one of: a dict key dropped, named by the whole message if
    the field is required, (True, "curves[1]: missing field 'closed'"); a
    value swapped for one of another type, named by the path that starts
    the message, (False, "curves[1].closed"); or, named by None, a list
    item dropped or an int in a list (a permutation or match entry, an edge
    or hole id) shifted."""
    obj = json.loads(json.dumps(obj))
    paths = list(_json_paths(obj))[1:]
    shiftable = [p for p in paths if type(p[-1]) is int]
    how = rng.randrange(3)
    path = rng.choice(shiftable if how == 2 and shiftable else paths)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    del parent[key]
    if how == 0 and type(key) is str:
        where = _path_name(path[:-1])
        return obj, (True, f"{where + ': ' if where else ''}missing field {key!r}")
    if how == 0:
        return obj, None
    if how == 2 and type(key) is int and type(value) is int:
        parent.insert(key, value + rng.choice((-1, 1, len(parent) + 1)))
        return obj, None
    swapped = rng.choice([v for v in _SWAPPED if type(v) is not type(value)])
    if type(key) is int:
        parent.insert(key, swapped)
    else:
        parent[key] = swapped
    return obj, (False, _path_name(path))


def test_fuzzed_files_exit_zero_one_or_two_naming_the_file(tmp_path, capsys, rng):
    # every fixture, rebuilt genus-3 diagrams and chord files, each with one
    # seeded fault, through every subcommand that reads a file: no
    # traceback; exit 2 exactly when the subcommand's reader refuses the
    # file, naming the file, and the faulty field by its path where the
    # file is read in its own format; so exit 1 (a negative verdict) only
    # for a file that its format's reader accepts
    from morsediag.chord import (chord_from_json, chord_to_json, colored_to_json,
                                 enumerate_bases, enumerate_colorings)
    from morsediag.prdiag import from_colored_chord, pr_from_json, pr_to_json

    def flow_file(obj):
        # validate, census, boundary and iso read flow diagrams that list their curves
        if isinstance(obj, dict) and "curves" not in obj:
            raise ValueError("missing field 'curves'")
        return pr_from_json(obj)

    def refuses(reader, obj) -> bool:
        try:
            reader(obj)
        except ValueError:
            return True
        return False

    sources = []
    for name in cat.fixture_names():
        with open(fixture_path(name)) as fh:
            sources.append((json.load(fh), pr_from_json))
    colorings = [ccd for base in enumerate_bases(3) for ccd in enumerate_colorings(base, 3)]
    for ccd in rng.sample(colorings, 2):
        sources += [(pr_to_json(from_colored_chord(ccd)), pr_from_json),
                    (colored_to_json(ccd), chord_from_json),
                    (chord_to_json(ccd.base), chord_from_json)]
    good = fixture_path("solid_torus.json")
    codes = set()
    for i, (obj, own) in enumerate(sources):
        for j, (mutant, fault) in enumerate([(obj, None)] + [_mutant(obj, rng) for _ in range(4)]):
            path = tmp_path / f"fuzz_{i}_{j}.json"
            path.write_text(json.dumps(mutant))
            f = str(path)
            # each subcommand with its reader and the format that reader reads
            for argv, reader, fmt in (
                    (("validate", f), flow_file, pr_from_json),
                    (("census", f), flow_file, pr_from_json),
                    (("boundary", f), flow_file, pr_from_json),
                    (("iso", good, f), flow_file, pr_from_json),
                    (("convert", "--to", "chord", f), pr_from_json, pr_from_json),
                    (("convert", "--to", "pr", f), chord_from_json, chord_from_json),
                    (("export", "--format", "json", f), own, own),
                    (("export", "--format", "dot", f), own, own),
                    (("export", "--format", "svg", f), own, own)):
                code, out, err = run(capsys, *argv)
                codes.add(code)
                assert code in (0, 1, 2), (argv, mutant)
                assert (code == 2) == refuses(reader, mutant), (argv, mutant, err)
                if code == 2:
                    assert out == "" and err.startswith(f"error: {f}: "), (argv, err)
                    if fault and fmt is own:
                        dropped, name = fault
                        if not dropped:
                            assert err.startswith(f"error: {f}: {name}"), (argv, err)
                        elif "missing field" in err:
                            assert err == f"error: {f}: {name}\n", (argv, err)
    assert codes == {0, 1, 2}
