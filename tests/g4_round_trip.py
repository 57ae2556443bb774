"""Every genus-4 colored class, rebuilt as a flow diagram and read back.

Run from the repository root (about 50 s on one CPU):

    PYTHONPATH=src python tests/g4_round_trip.py

Each colored class code of classify(4) is decoded into a colored chord
diagram and rebuilt with from_colored_chord.  The flow diagram must be
valid, have census (1, 0, 4, 4, 0, 1) and give its own class code back
through to_colored_chord and canonical_colored.  No two classes may share a
surface code (pr_canonical_code), and the SHA-256 of the sorted surface
codes, one per line, must equal SURFACE_CODES_SHA256.

Then the orientation half: each of the 30,074 classes of classify(4,
ROTATION_ONLY) is rebuilt the same way and must read back as itself under
ROTATION_ONLY.  Their mirror-free codes (pr_canonical_code(d, mirror=False))
must be 30,074 distinct ones, whose SHA-256 must equal
ROTATION_CODES_SHA256, and their mirror codes must be exactly the 15,093
surface codes above: a chiral class and its mirror image are one class with
the mirror, two without.

Dart numbering, which canonical codes ignore, is pinned next: under each
convention the JSON that the rebuilt diagrams write (pr_to_json, as
`convert --to pr` writes it), one line per class in enumeration order, must
hash to PR_JSON_SHA256.

Last, flow reversal under both conventions: each class is rebuilt, its u
and v and its U and V exchanged (conftest's _colour_swapped), and read back
as a chord diagram.  The reversed diagram must be valid and optimal, its
class must be one of the enumeration, reversing twice must give the class
back, and reversal must commute with the mirror (the circle reflected).
The counts of self-dual classes, of achiral classes (rotation only) and of
classes whose river flag differs from their reverse's must equal
REVERSAL_COUNTS.  The script exits 1 if a check fails.
tests/test_prdiag.py runs the same chains on a seeded sample and on genus
1-3 in the tier-1 suite; the file name keeps pytest from collecting this
script.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from morsediag.chord import (
    GREEN,
    RED,
    ChordDiagram,
    ColoredChordDiagram,
    SymmetryConvention,
    canonical_colored,
    classify,
    colored_from_point_colors,
)
from morsediag.prdiag import (
    census,
    from_colored_chord,
    is_optimal,
    pr_canonical_code,
    pr_to_json,
    to_colored_chord,
    validate,
)

from conftest import _colour_swapped, circle_image

GENUS = 4
SURFACE_CODES_SHA256 = "69c2c4a9258f2a189b8b6da6a28c71373f78938dcae389b773f7242151eb624a"
ROT = SymmetryConvention.ROTATION_ONLY
ROTATION_CLASSES = 30_074
ROTATION_CODES_SHA256 = "0472be1721fc14bb1d0c56053ef1656f902b5a67dbef4bd2823597304cfe6288"
DIH = SymmetryConvention.DIHEDRAL
PR_JSON_SHA256 = {
    DIH: "b4ce80731908c0eab671fc040428cadcaa4f8d207b29c7df6b3cf9df8d9d45a2",
    ROT: "7b501dc3499a360bfe77a47c1874514a25897b0aafefc04f71fa9ebedfc90e74",
}
# convention -> (self-dual classes, achiral classes, river mismatches); under
# DIHEDRAL every class is its own mirror image
REVERSAL_COUNTS = {DIH: (637, 15_093, 52), ROT: (370, 112, 100)}


def decode(code: str) -> ColoredChordDiagram:
    """The colored chord diagram a colored class code names: its least
    image, with the point colors after "|c="."""
    head, pcol = code.split("|c=")
    match = tuple(map(int, head.split("|m=")[1].split(",")))
    base = ChordDiagram(len(match) // 2, match)
    return ColoredChordDiagram(base, tuple(GREEN if pcol[a] == "g" else RED
                                           for a, _ in base.chords()))


def round_trip(code: str) -> bytes:
    """The surface code of the flow diagram rebuilt from a colored class
    code; ValueError if the diagram is invalid, has another census than an
    optimal genus-g flow or reads back as another class."""
    ccd = decode(code)
    d = from_colored_chord(ccd)
    report = validate(d)
    if not report.valid:
        raise ValueError(f"{code}: invalid diagram: {report.first_failure()}")
    g = ccd.base.n // 2
    got = census(d).as_tuple()
    if got != (1, 0, g, g, 0, 1):
        raise ValueError(f"{code}: census {got}")
    back = canonical_colored(to_colored_chord(d))
    if back != code:
        raise ValueError(f"{code}: reads back as {back}")
    return pr_canonical_code(d)


def rotation_codes(code: str) -> tuple[bytes, bytes]:
    """The mirror-free and the mirror surface code of the flow diagram
    rebuilt from a rotation-only colored class code; ValueError if it reads
    back as another rotation-only class."""
    d = from_colored_chord(decode(code))
    back = canonical_colored(to_colored_chord(d, ROT), ROT)
    if back != code:
        raise ValueError(f"{code}: reads back as {back}")
    return pr_canonical_code(d, mirror=False), pr_canonical_code(d)


def pr_json_digest(codes) -> str:
    """SHA-256 of the JSON of the flow diagrams rebuilt from colored class
    codes, json.dumps of pr_to_json with sorted keys, one line per code."""
    h = hashlib.sha256()
    for code in codes:
        d = from_colored_chord(decode(code))
        h.update((json.dumps(pr_to_json(d), sort_keys=True) + "\n").encode())
    return h.hexdigest()


def reversal(code: str, sym: SymmetryConvention) -> str:
    """The class code, under sym, of the reversed flow of a colored class:
    the class rebuilt with from_colored_chord, u and v and U and V exchanged,
    and read back with to_colored_chord; ValueError if the reversed diagram
    is not valid and optimal."""
    ccd = decode(code)
    d = _colour_swapped(from_colored_chord(ccd))
    if not (validate(d).valid and is_optimal(d, ccd.base.n // 2)):
        raise ValueError(f"{code}: the reversed flow is not a valid optimal diagram")
    return canonical_colored(to_colored_chord(d, sym), sym)


def mirrored(code: str, sym: SymmetryConvention) -> str:
    """The class code, under sym, of a colored class's mirror image: its
    circle reflected, point i going to -i."""
    ccd = decode(code)
    n = ccd.base.points
    image = circle_image(ccd.base.match, [-i % n for i in range(n)], ccd.point_colors())
    return canonical_colored(colored_from_point_colors(*image), sym)


def reversal_counts(codes, river_codes, sym: SymmetryConvention) -> tuple[int, int, int]:
    """(self-dual classes, achiral classes, classes whose river flag differs
    from their reverse's) over all class codes of one genus under sym;
    ValueError if a reverse is no class of ``codes``, reversing twice does
    not give a class back or reversal does not commute with the mirror."""
    rev = {code: reversal(code, sym) for code in codes}
    mirrors = {code: mirrored(code, sym) for code in codes}
    river = set(river_codes)
    for code, back in rev.items():
        if back not in rev:
            raise ValueError(f"{code}: reverses to {back}, no class of the enumeration")
        if rev[back] != code:
            raise ValueError(f"{code}: reverses to {back}, which reverses to {rev[back]}")
        if rev[mirrors[code]] != mirrors[back]:
            raise ValueError(f"{code}: reversal does not commute with the mirror")
    return (sum(back == code for code, back in rev.items()),
            sum(image == code for code, image in mirrors.items()),
            sum((code in river) != (back in river) for code, back in rev.items()))


def main() -> int:
    t0 = time.perf_counter()
    codes = classify(GENUS).colored_codes
    try:
        surface = sorted(map(round_trip, codes))
    except ValueError as exc:
        print(f"FAIL: {exc}")
        return 1
    distinct = len(set(surface))
    digest = hashlib.sha256(b"\n".join(surface)).hexdigest()
    print(f"genus {GENUS}: {len(codes)} colored classes round trip, {distinct} distinct "
          f"surface codes, sha256 {digest} in {time.perf_counter() - t0:.1f}s")
    if distinct != len(codes):
        print("FAIL: two classes share a surface code")
        return 1
    if digest != SURFACE_CODES_SHA256:
        print(f"FAIL: the surface codes' digest is not {SURFACE_CODES_SHA256}")
        return 1

    t0 = time.perf_counter()
    rotation = classify(GENUS, ROT).colored_codes
    try:
        free, mirror = zip(*map(rotation_codes, rotation))
    except ValueError as exc:
        print(f"FAIL: {exc}")
        return 1
    free, mirror = sorted(set(free)), set(mirror)
    free_digest = hashlib.sha256(b"\n".join(free)).hexdigest()
    print(f"genus {GENUS} rotation only: {len(rotation)} classes read back as themselves, "
          f"{len(free)} distinct mirror-free codes, sha256 {free_digest}, and {len(mirror)} "
          f"mirror codes in {time.perf_counter() - t0:.1f}s")
    if not len(rotation) == len(free) == ROTATION_CLASSES:
        print(f"FAIL: {ROTATION_CLASSES} classes and as many mirror-free codes expected")
        return 1
    if free_digest != ROTATION_CODES_SHA256:
        print(f"FAIL: the mirror-free codes' digest is not {ROTATION_CODES_SHA256}")
        return 1
    if mirror != set(surface):
        print("FAIL: the mirror codes are not the surface codes of the dihedral classes")
        return 1

    for sym, want in PR_JSON_SHA256.items():
        t0 = time.perf_counter()
        digest = pr_json_digest(classify(GENUS, sym).colored_codes)
        print(f"genus {GENUS} {sym.value}: the rebuilt diagrams' JSON has sha256 {digest} "
              f"in {time.perf_counter() - t0:.1f}s")
        if digest != want:
            print(f"FAIL: the rebuilt diagrams' JSON digest is not {want}")
            return 1

    for sym, want in REVERSAL_COUNTS.items():
        t0 = time.perf_counter()
        report = classify(GENUS, sym)
        try:
            got = reversal_counts(report.colored_codes, report.river_codes, sym)
        except ValueError as exc:
            print(f"FAIL: {exc}")
            return 1
        print(f"genus {GENUS} {sym.value}: reversal is an involution on the {report.colored} "
              f"classes that commutes with the mirror; {got[0]} self-dual, {got[1]} achiral, "
              f"{got[2]} river flags unlike the reverse's in {time.perf_counter() - t0:.1f}s")
        if got != want:
            print(f"FAIL: (self-dual, achiral, river mismatches) {want} expected")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
