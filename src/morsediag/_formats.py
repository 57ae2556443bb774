"""Presence and type of every field of the JSON input formats.

map_from_json, pr_from_json, chord_from_json and load_catalog pass what they
read through `check` before they build anything, so a missing or mistyped
field is a ValueError naming its JSON path: ``curves[1]: missing field
'closed'``, ``labels[0].edge must be an int, not 8.0``.  Values are left to
the readers and constructors: label kinds, curve families, permutations,
edge ids, colors, catalog kinds and schema versions.  This module imports no
other module of the package.

A format maps each key, ending in "?" if the field may be absent, to a type:
int, bool or str (a bool is not an int); object, for any value; [t], a list
of t; a dict, a nested object; (t, None), t or null.
"""

LABEL = {"edge": int, "kind": object, "index?": (int, None)}
CURVE = {"family": object, "index?": (int, None), "edges": [int], "closed": bool}
MAP = {"darts": int, "alpha": [int], "sigma": [int], "holes?": [int], "labels?": [LABEL]}
FLOW = {"curves?": [CURVE]}        # what a flow diagram adds to its map
FLOW_FILE = {"curves": [CURVE]}    # the diagram subcommands want the curves
CHORD = {"n": int, "match": [int], "colors?": ([str], None)}
CATALOG_LINE = {"schema_version": int, "code": str, "kind": str, "genus": int, "flags": {},
                "source": object, "tool_version": object}

_NAMES = {int: "an int", bool: "a bool", str: "a string"}


def _name(t) -> str:
    if isinstance(t, tuple):
        return _name(t[0]) + " or null"
    if isinstance(t, list):
        return f"a list of {_name(t[0]).split()[-1]}s"   # of ints, of objects
    return "an object" if isinstance(t, dict) else _NAMES[t]


def _check(value, t, path: str, name: str = "") -> None:
    if isinstance(t, tuple):
        if value is not None:
            _check(value, t[0], path, _name(t))
    elif isinstance(t, list):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path} must be {name or _name(t)}, not {value!r}")
        for i, item in enumerate(value):
            _check(item, t[0], f"{path}[{i}]")
    elif isinstance(t, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{path} must be an object, not {value!r}")
        _fields(value, t, path)
    elif t is not object and type(value) is not t:
        raise ValueError(f"{path} must be {name or _name(t)}, not {value!r}")


def _fields(obj: dict, fmt: dict, path: str) -> None:
    for key, t in fmt.items():
        field = key.rstrip("?")
        if field in obj:
            _check(obj[field], t, f"{path}.{field}" if path else field)
        elif field == key:
            raise ValueError(f"{path}: missing field {field!r}" if path
                             else f"missing field {field!r}")


def check(obj, fmt: dict) -> dict:
    """``obj``, if it is a JSON object whose fields fit the format ``fmt``;
    else ValueError naming the first field that does not by its path."""
    if not isinstance(obj, dict):
        raise ValueError("the top-level JSON value is not an object")
    _fields(obj, fmt, "")
    return obj
