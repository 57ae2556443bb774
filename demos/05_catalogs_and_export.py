"""Persisting classification catalogs and rendering diagrams.

Catalogs are sorted line-delimited JSON keyed by canonical code; writing the
same classification twice produces byte-identical files.  Chord diagrams
render to SVG (circle plus colored chords), surface diagrams to DOT.
"""

import tempfile
from pathlib import Path

import morsediag.catalog as cat
from morsediag import __version__
from morsediag.chord import ChordDiagram, canonical_chord, classify, enumerate_bases
from morsediag.cli import _chord_svg, _pr_dot
from morsediag.prdiag import to_colored_chord

out = Path(tempfile.mkdtemp(prefix="morsediag_demo_"))

report = classify(2)
entries = cat.report_entries(report, tool_version=__version__)
path = out / "genus2.jsonl"
cat.save_catalog(entries, path)
print(f"wrote {len(entries)} entries to {path}")
print("first lines:")
for line in path.read_text().splitlines()[:3]:
    print(" ", line[:100], "...")

again = out / "genus2_again.jsonl"
cat.save_catalog(cat.report_entries(classify(2), tool_version=__version__), again)
print("byte-identical across runs:", path.read_bytes() == again.read_bytes())

loaded = cat.load_catalog(path)
print("load returns", len(loaded), "entries; river classes:",
      sum(1 for e in loaded if e.flags.get("river")))

# A class code is its catalog key wherever the circle starts: turn a genus-2
# base by one point and find its catalog line by the turned copy's code.
base = enumerate_bases(2)[0]
turned = ChordDiagram(base.n, tuple((base.match[p - 1] + 1) % base.points
                                    for p in range(base.points)))
line = next(i for i, e in enumerate(loaded, 1) if e.code == canonical_chord(turned))
print(f"base {base.match} turned to {turned.match}: catalog line {line}")

d = cat.load_fixture("g2_optimal_1.json")
svg = out / "g2_optimal_1.svg"
svg.write_text(_chord_svg(to_colored_chord(d)))
dot = out / "g2_optimal_1.dot"
dot.write_text(_pr_dot(d))
print(f"rendered {svg} and {dot}")

print("\nfixture health:")
rep = cat.verify_fixtures()
print(f"  {len(rep.checked)} checks, failures: {list(rep.failures) or 'none'}")
