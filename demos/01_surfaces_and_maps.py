"""Surfaces as combinatorial maps: rotation systems, Euler counts, components,
and the disk test of property 5.

A compact oriented surface is stored as a set of darts with two
permutations: alpha pairs the darts of each edge, sigma rotates darts
counterclockwise around each vertex.  Faces fall out as orbits of
sigma∘alpha, and boundary circles are faces marked as holes.
"""

from morsediag.combmap import (
    CurveKind,
    CurveLabel,
    EmbeddedCurve,
    build_map,
    components,
    euler_genus,
    faces,
)
from morsediag.prdiag import PrDiagram, validate

# The one-vertex torus: two edges, rotation (0 1 2 3), pairing (0 2)(1 3).
torus = build_map(4, (2, 3, 0, 1), (1, 2, 3, 0))
print("torus:")
print("  faces:", faces(torus))
print("  (chi, genus, boundary):", euler_genus(torus))

# A plain circle bounds two faces; marking one as a hole makes a disk.
disk = build_map(4, (1, 0, 3, 2), (3, 2, 1, 0), hole_faces=(0,))
print("disk:", euler_genus(disk))

# A genus-2 surface from a single vertex: the all-crossing pairing of eight
# darts has one face, so chi = 1 - 4 + 1 = -2.
genus2 = build_map(8, (4, 5, 6, 7, 0, 1, 2, 3), (1, 2, 3, 4, 5, 6, 7, 0))
print("genus-2 one-vertex map:", euler_genus(genus2))

# Maps may be disconnected: a sphere beside the torus is two components.
sphere = build_map(4, (1, 0, 3, 2), (3, 2, 1, 0))
both = build_map(8, torus.alpha + tuple(d + 4 for d in sphere.alpha),
                 torus.sigma + tuple(d + 4 for d in sphere.sigma))
print("torus beside a sphere ->", [euler_genus(p) for p in components(both)])

# Property 5 asks that surgering the cycles of one color and cutting its
# arcs leaves disks.  On this disk, two vertices joined by four edges, the
# green u-arc (edge 4) and a U-arc (edge 6) close into one cycle; the
# surgery strands a closed piece, which validate names with its
# (chi, genus, boundary).
alpha = (1, 0, 3, 2, 5, 4, 7, 6)
sigma = [0] * 8
for cyc in ((4, 7, 3, 0), (6, 5, 1, 2)):
    for i, d in enumerate(cyc):
        sigma[d] = cyc[(i + 1) % len(cyc)]
arc = CurveLabel(CurveKind.U_GREEN_ARC, 0)
cycle_arc = CurveLabel(CurveKind.U_GREEN_CYCLE, 0)
pinched = build_map(8, alpha, sigma, {4: arc, 6: cycle_arc}, hole_faces=(0,))
diagram = PrDiagram(pinched, (EmbeddedCurve((4,), False, arc),
                              EmbeddedCurve((6,), False, cycle_arc)))
print("pinched-cycle disk:", euler_genus(pinched))
print("  first failure:", validate(diagram).first_failure())
