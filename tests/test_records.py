"""The package's records are named tuples.

No package module imports ``dataclasses``: a fresh process would pay for
importing it and for building each record's generated methods.  Every
public record survives pickle, copy and ``_replace`` unchanged, refuses
assignment, and the two chord records refuse bad fields however they are
built.
"""

from __future__ import annotations

import ast
import copy
import inspect
import pickle

import pytest

import morsediag.catalog as cat
import morsediag.chord as chord
import morsediag.combmap as cmb
import morsediag.prdiag as pr

from test_module_order import PACKAGE


def test_no_package_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


def _samples() -> dict:
    """One instance of each public record type, by name, from package outputs."""
    d = cat.load_fixture("solid_torus.json")
    ccd = pr.to_colored_chord(cat.load_fixture("g2_optimal_1.json"))
    report = pr.validate(d)
    flow = pr.boundary_restriction(d)
    classes = chord.classify(1)
    return {
        "CurveLabel": d.surface.labels[0], "CombMap": d.surface,
        "EmbeddedCurve": d.curves[0], "PrDiagram": d,
        "ChordDiagram": ccd.base, "ColoredChordDiagram": ccd,
        "CatalogReport": classes, "FixedPointType": pr.FIXED_POINT_TYPES[4],
        "PropertyVerdict": report.properties[0], "ValidityReport": report,
        "Census": pr.census(d), "MorseChecks": pr.morse_checks(d),
        "FlowVertex": flow.vertices[0], "BoundaryFlowGraph": flow,
        "CatalogEntry": cat.report_entries(classes)[0],
        "FixtureReport": cat.FixtureReport(("a valid",), ()),
    }


def test_every_public_record_type_is_sampled():
    records = {name for mod in (cmb, chord, pr, cat) for name, obj in vars(mod).items()
               if inspect.isclass(obj) and issubclass(obj, tuple) and obj.__module__ == mod.__name__
               and not name.startswith("_")}
    assert records == set(_samples())


@pytest.mark.parametrize("name", sorted(_samples()))
def test_records_round_trip_and_refuse_assignment(name):
    x = _samples()[name]
    assert type(x).__name__ == name
    for again in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x), x._replace()):
        assert type(again) is type(x) and again == x
        assert repr(again) == repr(x)
    for field in x._fields:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))


def test_kept_hashes_leave_labels_and_curves_out():
    d = cat.load_fixture("solid_torus.json")
    m = d.surface
    assert hash(m) == hash((m.alpha, m.sigma, m.holes))
    assert hash(d) == hash((m,))
    assert hash(m._replace(labels=m.labels[::-1])) == hash(m)
    assert hash(d._replace(curves=())) == hash(d)


def _bad_chords():
    """(a record built with no check, the message its check gives)."""
    base = chord.ChordDiagram(1, (1, 0))
    return [
        (tuple.__new__(chord.ChordDiagram, (2, (1, 0))), "match must list 4 partners"),
        (tuple.__new__(chord.ChordDiagram, (1, (0, 0))),
         "match is not a fixed-point-free involution at point 0"),
        (tuple.__new__(chord.ColoredChordDiagram, (base, ())), "one color per chord required"),
        (tuple.__new__(chord.ColoredChordDiagram, (base, ("blue",))), "bad color 'blue'"),
    ]


@pytest.mark.parametrize("bad, message", _bad_chords(),
                         ids=["short-match", "fixed-point", "no-color", "bad-color"])
def test_chord_records_refuse_bad_fields_however_built(bad, message):
    cls = type(bad)
    good = chord.ChordDiagram(1, (1, 0)) if cls is chord.ChordDiagram else \
        chord.ColoredChordDiagram(chord.ChordDiagram(1, (1, 0)), (chord.GREEN,))
    for build in (lambda: cls(*bad), lambda: cls(**bad._asdict()), lambda: cls._make(bad),
                  lambda: good._replace(**bad._asdict()),
                  lambda: pickle.loads(pickle.dumps(bad)), lambda: copy.copy(bad)):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
