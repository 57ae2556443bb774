"""Every genus-4 colored class, rebuilt as a flow diagram and read back.

Run from the repository root (about 20 s on one CPU):

    PYTHONPATH=src python tests/g4_round_trip.py

Each colored class code of classify(4) is decoded into a colored chord
diagram and rebuilt with from_colored_chord.  The flow diagram must be
valid, have census (1, 0, 4, 4, 0, 1) and give its own class code back
through to_colored_chord and canonical_colored.  No two classes may share a
surface code (pr_canonical_code), and the SHA-256 of the sorted surface
codes, one per line, must equal SURFACE_CODES_SHA256.  The script exits 1
if a check fails.  tests/test_prdiag.py runs the same chain on a seeded
sample in the tier-1 suite; the file name keeps pytest from collecting
this script.
"""

from __future__ import annotations

import hashlib
import sys
import time

from morsediag.chord import GREEN, RED, ChordDiagram, ColoredChordDiagram, canonical_colored, classify
from morsediag.prdiag import census, from_colored_chord, pr_canonical_code, to_colored_chord, validate

GENUS = 4
SURFACE_CODES_SHA256 = "69c2c4a9258f2a189b8b6da6a28c71373f78938dcae389b773f7242151eb624a"


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
