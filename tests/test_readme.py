"""The README's statements about the command line hold: each case finds its
quoted text in README.md and in what ``morsediag`` prints, with the exit
code the README states."""

import json
from pathlib import Path

import pytest

from morsediag.cli import main
from morsediag.prdiag import PrDiagram, pr_to_json
import morsediag.catalog as cat

from conftest import disjoint_union

# the README with its line breaks and indents read as single spaces
README = " ".join((Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8").split())


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def quoted(text: str) -> str:
    """``text`` after checking that the README quotes it."""
    assert text in README, text
    return text


def test_classify_genus2_prints_the_counts_the_readme_shows(capsys):
    code, out, _ = run(capsys, "classify", "--genus", "2")
    assert code == 0
    assert quoted('morsediag classify --genus 2 # {"bases": 4, "colored": 5, "river_colored": 2, ...}')
    for pair in ('"bases": 4', '"colored": 5', '"river_colored": 2'):
        assert pair in out


def _solid_torus() -> dict:
    return json.loads((cat.fixture_dir() / "solid_torus.json").read_text())


def _bad_files(tmp_path):
    """(file, README quote) of each input error the README shows."""
    no_darts = {"curves": []}
    no_closed = _solid_torus()
    del no_closed["curves"][1]["closed"]
    float_alpha = _solid_torus()
    float_alpha["alpha"][0] = 1.0
    out = []
    for name, obj, quote in (
            ("no_darts", no_darts, "error: FILE: missing field 'darts'"),
            ("no_closed", no_closed, "error: FILE: curves[1]: missing field 'closed'"),
            ("float_alpha", float_alpha, "error: FILE: alpha[0] must be an int, not 1.0")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        out.append((path, quote))
    head = b'{"curves": [], "x": "'
    utf8 = tmp_path / "utf8.json"
    utf8.write_bytes(head + b"x" * (24 - len(head)) + "é".encode() + b'"}')
    out.append((utf8, "error: FILE: 'ascii' codec can't decode byte 0xc3 in position 24: ..."))
    return out


def test_input_errors_exit_two_with_the_quoted_messages(tmp_path, capsys):
    for path, quote in _bad_files(tmp_path):
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, ""), quote
        assert err.startswith(quoted(quote).replace("FILE", str(path)).removesuffix("...")), err
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + json.dumps(_solid_torus()).encode())
    code, _, err = run(capsys, "validate", str(bom))
    assert code == 2 and quoted("byte 0xef in position 0") in err


@pytest.fixture
def disconnected(tmp_path) -> str:
    """A valid diagram on a disconnected surface: a four-point flow beside a disk."""
    four_a = cat.load_fixture("d3_four_a.json")
    disk = cat.load_fixture("d3_trivial.json").surface
    path = tmp_path / "two.json"
    path.write_text(json.dumps(pr_to_json(
        PrDiagram(disjoint_union(four_a.surface, disk), four_a.curves))))
    return str(path)


def test_census_and_boundary_of_a_disconnected_map_exit_two(disconnected, capsys):
    assert quoted("`census` and `boundary` exit 2 with")
    message = quoted("error: euler_genus requires a connected map")
    for command in ("census", "boundary"):
        assert run(capsys, command, disconnected) == (2, "", message + "\n")
    assert quoted("so `validate` and `iso` reach a verdict on them")
    assert run(capsys, "validate", disconnected)[0] == 0
    assert run(capsys, "iso", disconnected, disconnected)[0] == 0


def test_chord_output_of_a_disconnected_map_exits_one_not_optimal(disconnected, capsys):
    assert quoted("`convert --to chord` and `export --format svg` exit 1 with `NotOptimal`")
    for argv in (("convert", "--to", "chord"), ("export", "--format", "svg")):
        code, out, _ = run(capsys, *argv, disconnected)
        assert (code, json.loads(out)["error"]) == (1, "NotOptimal")


def test_worker_counts_that_are_refused_exit_two(monkeypatch, capsys):
    monkeypatch.delenv("MORSEDIAG_WORKERS", raising=False)
    message = quoted("error: --workers must be at least 1, not 0")
    assert run(capsys, "classify", "--genus", "1", "--workers", "0") == (2, "", message + "\n")
    message = quoted("error: --workers must be an integer, not 'two'")
    assert run(capsys, "classify", "--genus", "1", "--workers", "two") == (2, "", message + "\n")
    for value, text in (("two", "error: MORSEDIAG_WORKERS must be an integer, not 'two'"),
                        ("0", "error: MORSEDIAG_WORKERS must be at least 1, not 0")):
        monkeypatch.setenv("MORSEDIAG_WORKERS", value)
        assert run(capsys, "classify", "--genus", "1") == (2, "", quoted(text) + "\n")
