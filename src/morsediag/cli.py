"""Command line interface.

Every successful invocation prints one JSON document to stdout; a short
human-readable summary goes to stderr.  Files are written only under --out.
Exit codes: 0 success, 1 negative verdict (invalid diagram, non-equivalent
pair, non-optimal input), 2 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import __version__, catalog
from ._formats import FLOW_FILE, check
from .chord import (
    DEFAULT_SYMMETRY,
    GREEN,
    RED,
    ColoredChordDiagram,
    SymmetryConvention,
    chord_from_json,
    chord_to_json,
    classify,
    colored_to_json,
)
from .combmap import CurveKind, _orbit_ids
from .prdiag import (
    InvalidColoring,
    InvalidDiagram,
    MorseChecks,
    NotOptimal,
    PrDiagram,
    boundary_restriction,
    census,
    equivalent,
    from_colored_chord,
    pr_from_json,
    pr_to_json,
    to_colored_chord,
    validate,
)

USAGE_ERROR = 2
NEGATIVE = 1


def _emit(obj: dict, summary: str) -> None:
    json.dump(obj, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _load(path: str, reader):
    """``reader`` of the JSON value in the file at ``path``.  A file that
    cannot be read, is not ASCII JSON, nests too deeply to parse or that the
    reader refuses (a ValueError, with the field's path) raises a ValueError
    naming the file, a usage error for main, never a negative verdict."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return reader(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_diagram(path: str) -> PrDiagram:
    """The diagram in a flow-diagram file, which lists its curves."""
    return _load(path, lambda obj: pr_from_json(check(obj, FLOW_FILE)))


def _cmd_classify(args) -> int:
    sym = SymmetryConvention(args.symmetry)
    source, value = "--workers", args.workers
    if value is None:
        source, value = "MORSEDIAG_WORKERS", os.environ.get("MORSEDIAG_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        return _usage_error(f"{source} must be an integer, not {value!r}")
    if workers < 1:
        return _usage_error(f"{source} must be at least 1, not {workers}")
    report = classify(args.genus, sym)
    if args.out:
        entries = catalog.report_entries(report, tool_version=__version__)
        catalog.save_catalog(entries, args.out)
    _emit(report.to_json(),
          f"genus {args.genus} [{sym.value}]: {report.bases} bases, "
          f"{report.colored} colored, {report.river_colored} river "
          f"({report.river_bases} river bases) in {report.runtime_seconds:.2f}s")
    return 0


def _cmd_validate(args) -> int:
    d = _load_diagram(args.file)
    rep = validate(d)
    _emit(rep.to_json(), "valid" if rep.valid else f"invalid: {rep.first_failure()}")
    return 0 if rep.valid else NEGATIVE


def _cmd_iso(args) -> int:
    a = _load_diagram(args.file_a)
    b = _load_diagram(args.file_b)
    try:
        eq = equivalent(a, b)
    except InvalidDiagram as exc:
        _emit({"equivalent": False, "error": str(exc)}, f"invalid input: {exc}")
        return NEGATIVE
    _emit({"equivalent": eq}, "equivalent" if eq else "not equivalent")
    return 0 if eq else NEGATIVE


def _cmd_census(args) -> int:
    d = _load_diagram(args.file)
    try:
        c = census(d)
    except InvalidDiagram as exc:
        _emit({"error": str(exc)}, f"invalid diagram: {exc}")
        return NEGATIVE
    out = c.to_json()
    out["morse_checks"] = MorseChecks.from_census(c).to_json()
    _emit(out, f"census {c.as_tuple()}, boundary genus {c.boundary_genus}")
    return 0


def _cmd_convert(args) -> int:
    loaded = _load(args.file, pr_from_json if args.to == "chord" else chord_from_json)
    try:
        if args.to == "chord":
            ccd = to_colored_chord(loaded)
            out = colored_to_json(ccd)
            summary = f"colored chord diagram with {ccd.base.n} chords"
        else:
            if not isinstance(loaded, ColoredChordDiagram):
                raise InvalidColoring("chord file must carry colors")
            d = from_colored_chord(loaded)
            out = pr_to_json(d)
            summary = f"flow diagram with {d.surface.n_darts} darts"
    except (InvalidDiagram, NotOptimal, InvalidColoring) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)}, f"cannot convert: {exc}")
        return NEGATIVE
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    _emit(out, summary)
    return 0


def _cmd_boundary(args) -> int:
    d = _load_diagram(args.file)
    try:
        bg = boundary_restriction(d)
    except InvalidDiagram as exc:
        _emit({"error": str(exc)}, f"invalid diagram: {exc}")
        return NEGATIVE
    counts = bg.role_counts()
    _emit(bg.to_json(),
          f"boundary flow on genus-{bg.genus} surface: "
          f"{counts['source']} sources, {counts['saddle']} saddles, "
          f"{counts['sink']} sinks, {len(bg.edges)} separatrices")
    return 0


def _cmd_fixtures(args) -> int:
    rep = catalog.verify_fixtures()
    _emit({"checked": len(rep.checked), "failures": list(rep.failures), "ok": rep.ok},
          "fixtures ok" if rep.ok else f"{len(rep.failures)} fixture regressions")
    return 0 if rep.ok else NEGATIVE


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def _chord_svg(ccd: ColoredChordDiagram) -> str:
    import math

    pts = ccd.base.points
    r, cx, cy = 180, 200, 200
    pos = {}
    for p in range(pts):
        ang = 2 * math.pi * p / pts - math.pi / 2
        pos[p] = (cx + r * math.cos(ang), cy + r * math.sin(ang))
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="400" height="400" viewBox="0 0 400 400">',
        f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="none" stroke="black" stroke-width="2"/>',
    ]
    for (a, b), col in zip(ccd.base.chords(), ccd.colors):
        (x1, y1), (x2, y2) = pos[a], pos[b]
        stroke = "#1a9641" if col == GREEN else "#d7191c"
        lines.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
                     f'stroke="{stroke}" stroke-width="3"/>')
    for p in range(pts):
        x, y = pos[p]
        lines.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="black"/>')
        lines.append(f'<text x="{x:.1f}" y="{y - 8:.1f}" font-size="12" '
                     f'text-anchor="middle">{p}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


_DOT_COLORS = {
    CurveKind.BDY: "black",
    CurveKind.U_GREEN_ARC: "green",
    CurveKind.U_GREEN_CYCLE: "darkgreen",
    CurveKind.V_RED_ARC: "red",
    CurveKind.V_RED_CYCLE: "darkred",
}


def _pr_dot(d: PrDiagram) -> str:
    m = d.surface
    vtab = _orbit_ids(m.sigma)
    lines = ["graph flowdiagram {", "  layout=neato;", "  node [shape=point];"]
    for e in m.edge_ids():
        a, b = vtab[e], vtab[m.alpha[e]]
        kind = m.labels[e].kind
        style = ' style=bold' if kind is not CurveKind.BDY else ""
        lines.append(f'  v{a} -- v{b} [color={_DOT_COLORS[kind]}{style} label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _chord_dot(ccd: ColoredChordDiagram) -> str:
    pts = ccd.base.points
    lines = ["graph chorddiagram {", "  layout=circo;"]
    for p in range(pts):
        lines.append(f"  p{p} -- p{(p + 1) % pts} [color=black];")
    for (a, b), col in zip(ccd.base.chords(), ccd.colors):
        color = "green" if col == GREEN else "red"
        lines.append(f"  p{a} -- p{b} [color={color} style=bold];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _flow_or_chord(obj):
    """A flow diagram, or a chord diagram when ``obj`` has no curves and
    either has a match or has no darts."""
    if isinstance(obj, dict) and "curves" not in obj and ("match" in obj or "darts" not in obj):
        return chord_from_json(obj)
    return pr_from_json(obj)


def _cmd_export(args) -> int:
    loaded = _load(args.file, _flow_or_chord)
    is_pr = isinstance(loaded, PrDiagram)
    try:
        if args.format == "json":
            if is_pr:
                payload = pr_to_json(loaded)
            elif isinstance(loaded, ColoredChordDiagram):
                payload = colored_to_json(loaded)
            else:
                payload = chord_to_json(loaded)
            out_text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
        elif is_pr:
            out_text = (_chord_svg(to_colored_chord(loaded)) if args.format == "svg"
                        else _pr_dot(loaded))
        else:
            # an uncolored chord diagram is drawn all red
            ccd = (loaded if isinstance(loaded, ColoredChordDiagram)
                   else ColoredChordDiagram(loaded, (RED,) * loaded.n))
            out_text = _chord_svg(ccd) if args.format == "svg" else _chord_dot(ccd)
    except (InvalidDiagram, NotOptimal, InvalidColoring) as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)}, f"cannot export: {exc}")
        return NEGATIVE
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out_text)
        _emit({"written": args.out, "format": args.format}, f"wrote {args.out}")
    else:
        sys.stdout.write(out_text)
        print(f"exported {args.format}", file=sys.stderr)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, and building it costs more than most calls."""
    ap = argparse.ArgumentParser(
        prog="morsediag",
        description="Classify, validate and convert combinatorial invariants of "
                    "Morse flows with boundary fixed points on 3-manifolds.")
    ap.add_argument("--version", action="version", version=f"morsediag {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="enumerate diagram classes at one genus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--symmetry", choices=["rotation", "dihedral"],
                   default=DEFAULT_SYMMETRY.value)
    p.add_argument("--workers",
                   help="accepted (default: MORSEDIAG_WORKERS or 1); "
                        "classification runs in one process")
    p.add_argument("--out", help="write the class catalog (JSONL) here")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("validate", help="check the five diagram properties")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("iso", help="decide equivalence of two diagrams")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("census", help="fixed point counts and boundary genus")
    p.add_argument("file")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("convert", help="between flow diagrams and colored chord diagrams")
    p.add_argument("--to", choices=["chord", "pr"], required=True)
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("boundary", help="separatrix graph of the boundary flow")
    p.add_argument("file")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("fixtures", help="fixture operations")
    p.add_argument("action", choices=["verify"])
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("export", help="render a diagram file")
    p.add_argument("--format", choices=["dot", "svg", "json"], required=True)
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
