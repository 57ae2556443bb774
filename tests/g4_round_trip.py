"""Every genus-4 colored class, rebuilt as a flow diagram and read back.

Run from the repository root (about 35 s on one CPU):

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
the mirror, two without.  The script exits 1 if a check fails.
tests/test_prdiag.py runs the same chains on a seeded sample and on genus
1-3 in the tier-1 suite; the file name keeps pytest from collecting this
script.
"""

from __future__ import annotations

import hashlib
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
)
from morsediag.prdiag import census, from_colored_chord, pr_canonical_code, to_colored_chord, validate

GENUS = 4
SURFACE_CODES_SHA256 = "69c2c4a9258f2a189b8b6da6a28c71373f78938dcae389b773f7242151eb624a"
ROT = SymmetryConvention.ROTATION_ONLY
ROTATION_CLASSES = 30_074
ROTATION_CODES_SHA256 = "0472be1721fc14bb1d0c56053ef1656f902b5a67dbef4bd2823597304cfe6288"


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
