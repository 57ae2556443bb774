"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, permutations, product
from math import factorial
from typing import NamedTuple, Optional

import pytest

from morsediag.combmap import (
    CombMap,
    CurveKind,
    CurveLabel,
    EmbeddedCurve,
    MapError,
    build_map,
    face_table,
)


def make_torus() -> CombMap:
    """One-vertex, two-edge rotation system of the torus."""
    return build_map(4, (2, 3, 0, 1), (1, 2, 3, 0))


def make_circle(hole: bool = True) -> CombMap:
    """Two-vertex circle; one face marked as hole gives the disk seed."""
    return build_map(4, (1, 0, 3, 2), (3, 2, 1, 0), hole_faces=(0,) if hole else ())


def make_sphere() -> CombMap:
    return make_circle(hole=False)


def make_genus2() -> CombMap:
    """One-vertex map of the closed genus-2 surface (all-crossing matching)."""
    return build_map(8, (4, 5, 6, 7, 0, 1, 2, 3), (1, 2, 3, 4, 5, 6, 7, 0))


def make_solid_torus_diagram():
    """Annulus with one green and one red spanning arc (hand-built)."""
    from morsediag.prdiag import PrDiagram

    alpha = (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10)
    sigma = [0] * 12
    for cyc in ([0, 8, 3], [2, 10, 1], [4, 9, 7], [6, 11, 5]):
        for i, d in enumerate(cyc):
            sigma[d] = cyc[(i + 1) % len(cyc)]
    labels = {8: CurveLabel(CurveKind.U_GREEN_ARC, 0),
              10: CurveLabel(CurveKind.V_RED_ARC, 0)}
    m = build_map(12, alpha, sigma, labels, hole_faces=(0, 4))
    return PrDiagram(m, (
        EmbeddedCurve((8,), False, CurveLabel(CurveKind.U_GREEN_ARC, 0)),
        EmbeddedCurve((10,), False, CurveLabel(CurveKind.V_RED_ARC, 0)),
    ))


def make_six_point_ball_flow():
    """A 3-ball flow with six boundary fixed points: the green cycle
    alternates one U-arc with a two-edge u-arc; a red arc crosses the u-arc."""
    from morsediag.prdiag import PrDiagram

    alpha = (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14, 17, 16)
    sigma = [0] * 18
    for cyc in ((13, 8, 5, 0), (11, 12, 1, 2), (9, 16, 10, 15),
                (4, 14, 3), (6, 17, 7)):
        for i, d in enumerate(cyc):
            sigma[d] = cyc[(i + 1) % len(cyc)]
    labels = {8: CurveLabel(CurveKind.U_GREEN_ARC, 0),
              10: CurveLabel(CurveKind.U_GREEN_ARC, 0),
              12: CurveLabel(CurveKind.U_GREEN_CYCLE, 0),
              14: CurveLabel(CurveKind.V_RED_ARC, 0),
              16: CurveLabel(CurveKind.V_RED_ARC, 0)}
    m = build_map(18, alpha, sigma, labels, hole_faces=(0, 6))
    return PrDiagram(m, (
        EmbeddedCurve((8, 10), False, CurveLabel(CurveKind.U_GREEN_ARC, 0)),
        EmbeddedCurve((12,), False, CurveLabel(CurveKind.U_GREEN_CYCLE, 0)),
        EmbeddedCurve((14, 16), False, CurveLabel(CurveKind.V_RED_ARC, 0)),
    ))


def make_pinched_cycle_diagram():
    """A disk whose single u-arc closes with a U-arc into a left-turn cycle:
    the surgery strands a closed component, so property 5 rejects it."""
    from morsediag.prdiag import PrDiagram

    alpha = (1, 0, 3, 2, 5, 4, 7, 6)
    sigma = [0] * 8
    for cyc in ((4, 7, 3, 0), (6, 5, 1, 2)):
        for i, d in enumerate(cyc):
            sigma[d] = cyc[(i + 1) % len(cyc)]
    labels = {4: CurveLabel(CurveKind.U_GREEN_ARC, 0),
              6: CurveLabel(CurveKind.U_GREEN_CYCLE, 0)}
    m = build_map(8, alpha, sigma, labels, hole_faces=(0,))
    return PrDiagram(m, (
        EmbeddedCurve((4,), False, CurveLabel(CurveKind.U_GREEN_ARC, 0)),
        EmbeddedCurve((6,), False, CurveLabel(CurveKind.U_GREEN_CYCLE, 0)),
    ))


def grid_diagram(width: int, height: int, hole_squares, curves):
    """A diagram on the width x height grid of unit squares, each cut into
    two triangles by its diagonal (x, y)-(x + 1, y + 1): the outer face and
    the squares of ``hole_squares`` (lower-left corners, kept whole) are
    holes.  ``curves`` holds (kind, closed, points), a path of grid points
    joined by grid edges; curve i takes label index i.  Edge k is darts
    2k and 2k + 1 in the order the faces first use the edges."""
    from morsediag.combmap import _face_ids
    from morsediag.prdiag import PrDiagram

    faces = []   # (points counterclockwise, whether a hole)
    for x, y in product(range(width), range(height)):
        a, b, c, e = (x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)
        faces += [([a, b, c, e], True)] if (x, y) in hole_squares else \
            [([a, b, c], False), ([a, c, e], False)]
    outer = ([(0, y) for y in range(height)] + [(x, height) for x in range(width)]
             + [(width, y) for y in range(height, 0, -1)]
             + [(x, 0) for x in range(width, 0, -1)])
    faces.append((outer, True))   # clockwise: the outer face of the others
    dart = {}   # (p, q) -> the dart of the edge pq that leaves p
    for face, _ in faces:
        for p, q in zip(face, face[1:] + face[:1]):
            if (p, q) not in dart:
                dart[p, q], dart[q, p] = len(dart), len(dart) + 1
    n = len(dart)
    sigma = [0] * n
    for face, _ in faces:   # the face after the dart p -> q is q -> r
        for p, q, r in zip(face, face[1:] + face[:1], face[2:] + face[:2]):
            sigma[dart[q, p]] = dart[q, r]
    alpha = [t ^ 1 for t in range(n)]
    fid = _face_ids(alpha, sigma)
    hole_faces = [fid[dart[face[0], face[1]]] for face, hole in faces if hole]
    labels, out = {}, []
    for i, (kind, closed, points) in enumerate(curves):
        lb = CurveLabel(kind, i)
        ends = zip(points, points[1:] + points[:1] if closed else points[1:])
        edges = tuple(min(dart[p, q], dart[q, p]) for p, q in ends)
        labels.update((e, lb) for e in edges)
        out.append(EmbeddedCurve(edges, closed, lb))
    return PrDiagram(build_map(n, alpha, sigma, labels, hole_faces), tuple(out))


def _ring(x0: int, y0: int, x1: int, y1: int) -> list:
    """The grid points round the rectangle from (x0, y0) to (x1, y1),
    counterclockwise from its lower-left corner."""
    return ([(x, y0) for x in range(x0, x1)] + [(x1, y) for y in range(y0, y1)]
            + [(x, y1) for x in range(x1, x0, -1)] + [(x0, y) for y in range(y1, y0, -1)])


def make_two_ring_pants_diagram():
    """A disk with two square holes (a pair of pants, chi = -1) and a
    closed U ring round each hole; a red arc runs from the outer boundary
    through each ring to its hole.  Surgery on the rings leaves three
    disks, chi + 2c = -1 + 4, and the two red cuts one, chi + s = -1 + 2."""
    U, v = CurveKind.U_GREEN_CYCLE, CurveKind.V_RED_ARC
    return grid_diagram(9, 5, [(2, 2), (6, 2)], [
        (U, True, _ring(1, 1, 4, 4)), (U, True, _ring(5, 1, 8, 4)),
        (v, False, [(2, 0), (2, 1), (2, 2)]), (v, False, [(6, 0), (6, 1), (6, 2)])])


def make_four_piece_cycle_diagram(inner_hole: bool = True):
    """An annulus (an 8 x 6 grid round a square hole) whose one green cycle
    alternates u, U, u, U round the hole: each u arc is a chord of the outer
    boundary, and the cycle meets that boundary only at the arc ends.  A
    red arc runs from the outer boundary across the bottom u arc to the hole.
    Without the hole the red arc runs up to the top boundary instead, and
    the disk inside the cycle caps to a sphere: property 5 fails."""
    u, U, v = CurveKind.U_GREEN_ARC, CurveKind.U_GREEN_CYCLE, CurveKind.V_RED_ARC
    red = [(4, y) for y in range(4 if inner_hole else 7)]
    return grid_diagram(8, 6, [(4, 3)] if inner_hole else [], [
        (u, False, [(1, 0), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (6, 0)]),
        (U, False, [(6, 0), (7, 1), (7, 2), (7, 3), (7, 4), (7, 5), (7, 6)]),
        (u, False, [(7, 6), (6, 5), (5, 5), (4, 5), (3, 5), (2, 5), (2, 6)]),
        (U, False, [(2, 6), (1, 5), (1, 4), (1, 3), (1, 2), (1, 1), (1, 0)]),
        (v, False, red)])


def _shuffled_darts(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def relabel_map(m: CombMap, rng: random.Random,
                perm: Optional[list[int]] = None) -> CombMap:
    """The same map with dart d renamed perm[d]; ``perm`` is drawn from
    ``rng`` when not given."""
    n = m.n_darts
    if perm is None:
        perm = _shuffled_darts(n, rng)
    alpha = [0] * n
    sigma = [0] * n
    labels = [None] * n
    for d in range(n):
        alpha[perm[d]] = perm[m.alpha[d]]
        sigma[perm[d]] = perm[m.sigma[d]]
        labels[perm[d]] = m.labels[d]
    shuffled = CombMap(tuple(alpha), tuple(sigma), tuple(labels), frozenset())
    ftab_old = face_table(m)
    ftab_new = face_table(shuffled)
    holes = frozenset(ftab_new[perm[d]] for d in range(n) if ftab_old[d] in m.holes)
    return CombMap(tuple(alpha), tuple(sigma), tuple(labels), holes)


def mirror_map(m: CombMap) -> CombMap:
    """The same surface with reversed orientation (sigma inverted)."""
    inv = [0] * m.n_darts
    for d, s in enumerate(m.sigma):
        inv[s] = d
    # alpha takes each face of m onto a face of the mirror, reversed
    fid = face_table(CombMap(m.alpha, tuple(inv), m.labels, frozenset()))
    holes = frozenset(fid[m.alpha[h]] for h in m.holes)
    return CombMap(m.alpha, tuple(inv), m.labels, holes)


def disjoint_union(a: CombMap, b: CombMap) -> CombMap:
    """Both maps side by side, the darts of ``b`` numbered after those of ``a``."""
    n = a.n_darts
    return CombMap(a.alpha + tuple(x + n for x in b.alpha),
                   a.sigma + tuple(x + n for x in b.sigma),
                   a.labels + b.labels,
                   a.holes | {h + n for h in b.holes})


@cache
def small_disks() -> tuple[CombMap, ...]:
    """The 23 disks of 2 and 4 darts with alpha pairing 2i and 2i + 1: every
    rotation and hole face that build_map accepts and that validates as a
    diagram without curves."""
    from morsediag.combmap import MapError, _face_ids
    from morsediag.prdiag import PrDiagram, validate

    out = []
    for n in (2, 4):
        alpha = tuple(d ^ 1 for d in range(n))
        for sigma in permutations(range(n)):
            for hole in sorted(set(_face_ids(alpha, sigma))):
                try:
                    m = build_map(n, alpha, sigma, hole_faces=(hole,))
                except MapError:
                    continue
                if validate(PrDiagram(m, ())).valid:
                    out.append(m)
    return tuple(out)


def random_small_map(rng: random.Random, max_edges: int = 7) -> CombMap:
    """A random connected map with 1..max_edges edges, random label kinds
    and indices on its edges and random hole faces (built without build_map,
    so a hole may border a curve edge).  Some vertices are forced to hold a
    single dart (sigma fixes it) and some loops to fill consecutive corners
    (sigma(d) == alpha(d)): the two cases where a trace's first atom is not
    (1, 2)."""
    n = 2 * rng.randint(1, max_edges)
    darts = _shuffled_darts(n, rng)
    alpha = [0] * n
    for a, b in zip(darts[::2], darts[1::2]):
        alpha[a], alpha[b] = b, a
    rotations, rest = [], _shuffled_darts(n, rng)
    while rest:
        k = 1 if rng.random() < 0.3 else rng.randint(1, 4)
        rotations.append(rest[:k])
        rest = rest[k:]
    for d in rng.sample(range(n), rng.randint(0, n // 2)):
        # move alpha(d) into the corner after d
        a = alpha[d]
        for rot in rotations:
            if a in rot:
                rot.remove(a)
        rotations = [rot for rot in rotations if rot]
        rot = next(rot for rot in rotations if d in rot)
        rot.insert(rot.index(d) + 1, a)
    while True:
        sigma = [0] * n
        for rot in rotations:
            for x, y in zip(rot, rot[1:] + rot[:1]):
                sigma[x] = y
        seen = _reached(alpha, sigma)
        if len(seen) == n:
            break
        # join a vertex outside the component of dart 0 to one inside it
        outside = next(rot for rot in rotations if rot[0] not in seen)
        rotations.remove(outside)
        next(rot for rot in rotations if rot[0] in seen).extend(outside)
    labels = [None] * n
    for d in range(n):
        if d < alpha[d]:
            kind = rng.choice(list(CurveKind))
            index = None if kind is CurveKind.BDY else rng.randrange(3)
            labels[d] = labels[alpha[d]] = CurveLabel(kind, index)
    fids = set(face_table(CombMap(tuple(alpha), tuple(sigma), tuple(labels),
                                  frozenset())).values())
    holes = frozenset(f for f in sorted(fids) if rng.random() < 0.4)
    return CombMap(tuple(alpha), tuple(sigma), tuple(labels), holes)


def relabel_diagram(d, rng: random.Random):
    """Relabeled copy of a diagram (map darts renamed, curves re-indexed)."""
    from morsediag.prdiag import PrDiagram

    m = d.surface
    perm = _shuffled_darts(m.n_darts, rng)
    m2 = relabel_map(m, rng, perm)

    def edge_image(e):
        return min(perm[e], perm[m.alpha[e]])

    curves = tuple(
        EmbeddedCurve(tuple(edge_image(e) for e in c.edges), c.closed, c.label)
        for c in d.curves
    )
    return PrDiagram(m2, curves)


_COLOUR_SWAP = {
    CurveKind.BDY: CurveKind.BDY,
    CurveKind.U_GREEN_ARC: CurveKind.V_RED_ARC,
    CurveKind.U_GREEN_CYCLE: CurveKind.V_RED_CYCLE,
    CurveKind.V_RED_ARC: CurveKind.U_GREEN_ARC,
    CurveKind.V_RED_CYCLE: CurveKind.U_GREEN_CYCLE,
}


def _colour_swapped(d):
    """d with u and v, and U and V, exchanged on the map labels and curves:
    the diagram of the reversed flow."""
    from morsediag.prdiag import PrDiagram

    def swap(lb):
        return CurveLabel(_COLOUR_SWAP[lb.kind], lb.index)

    m = d.surface
    labels = tuple(swap(lb) for lb in m.labels)
    return PrDiagram(CombMap(m.alpha, m.sigma, labels, m.holes),
                     tuple(EmbeddedCurve(c.edges, c.closed, swap(c.label)) for c in d.curves))


def subdivide_curves(d, k: int):
    """The diagram with every curve edge cut into k + 1 edges by k new
    degree-2 vertices.  New edges keep the curve's label, each curve lists
    its edges in path order, and every old dart keeps its id."""
    from morsediag.combmap import _dart_walk, _orbit_ids
    from morsediag.prdiag import PrDiagram

    m = d.surface
    alpha, sigma, labels = list(m.alpha), list(m.sigma), list(m.labels)
    vid = _orbit_ids(m.sigma)
    curves = []
    for c in d.curves:
        edges = []
        for t in _dart_walk(m, c, vid)[0]:
            end = alpha[t]
            for _ in range(k):
                p, q = len(alpha), len(alpha) + 1   # the new vertex's two darts
                alpha += [t, end]
                alpha[t], alpha[end] = p, q
                sigma += [q, p]
                labels += [c.label] * 2
                edges.append(min(t, p))
                t = q
            edges.append(min(t, end))
        curves.append(EmbeddedCurve(tuple(edges), c.closed, c.label))
    return PrDiagram(build_map(len(alpha), alpha, sigma, labels, m.holes), tuple(curves))


def brute_force_isomorphic(m1: CombMap, m2: CombMap, mirror: bool = True) -> bool:
    """Backtracking search for a dart bijection preserving sigma, alpha,
    label kinds and hole incidence.  Connected maps only: the image of one
    dart determines the whole bijection, so every root image is tried."""
    variants = [m2] + ([mirror_map(m2)] if mirror else [])
    n = m1.n_darts
    f1 = face_table(m1)
    h1 = [f1[d] in m1.holes for d in range(n)]
    for mv in variants:
        if mv.n_darts != n:
            continue
        f2 = face_table(mv)
        h2 = [f2[d] in mv.holes for d in range(mv.n_darts)]
        for root in range(n):
            mapping = {0: root}
            stack = [0]
            ok = True
            while stack and ok:
                d = stack.pop()
                img = mapping[d]
                if m1.labels[d].kind is not mv.labels[img].kind or h1[d] != h2[img]:
                    ok = False
                    break
                for nd, nimg in ((m1.sigma[d], mv.sigma[img]),
                                 (m1.alpha[d], mv.alpha[img])):
                    if nd in mapping:
                        if mapping[nd] != nimg:
                            ok = False
                            break
                    else:
                        mapping[nd] = nimg
                        stack.append(nd)
            if ok and len(mapping) == n and len(set(mapping.values())) == n:
                return True
    return False


#: Kind ordinals of the cm1 code atoms.
_CODE_KINDS = (CurveKind.BDY, CurveKind.U_GREEN_ARC, CurveKind.U_GREEN_CYCLE,
               CurveKind.V_RED_ARC, CurveKind.V_RED_CYCLE)


def reference_traces(m: CombMap, mirror: bool = True) -> dict:
    """The complete BFS trace (visit sigma then alpha) from every root of the
    map and, with ``mirror``, of its mirror, with no early abort: (whether
    mirrored, root) -> the (sigma id, alpha id, kind ordinal, hole bit) of
    each dart in BFS order.  The mirror keeps the map's dart numbers."""
    traces = {}
    for mirrored, mv in enumerate([m] + ([mirror_map(m)] if mirror else [])):
        ftab = face_table(mv)
        for root in range(mv.n_darts):
            new_id = {root: 0}
            order = [root]
            for d in order:
                for nxt in (mv.sigma[d], mv.alpha[d]):
                    if nxt not in new_id:
                        new_id[nxt] = len(order)
                        order.append(nxt)
            traces[bool(mirrored), root] = [
                (new_id[mv.sigma[d]], new_id[mv.alpha[d]],
                 _CODE_KINDS.index(mv.labels[d].kind), int(ftab[d] in mv.holes))
                for d in order]
    return traces


def reference_code(trace: list, n: int, mirror: bool) -> bytes:
    """A trace of ``reference_traces`` of a map with n darts, as cm1."""
    flat = ";".join(f"{s},{a},{k},{h}" for s, a, k, h in trace)
    return f"cm1[{'dih' if mirror else 'rot'}]|n={n}|{flat}".encode("ascii")


def reference_canonical_code(m: CombMap, mirror: bool = True) -> bytes:
    """combmap.canonical_code of a connected map from the complete traces:
    the least of ``reference_traces``."""
    if m.n_darts == 0:
        return b"cm1|empty"
    return reference_code(min(reference_traces(m, mirror).values()), m.n_darts, mirror)


def thickened_boundary_walk_faces(match) -> int:
    """Independent face-count oracle: walk the boundary of the thickened
    one-vertex diagram piece by piece (rim gaps and band sides)."""
    pts = len(match)
    pieces = [("gap", i) for i in range(pts)] + [("band", p) for p in range(pts)]

    def successor(piece):
        kind, x = piece
        if kind == "gap":
            # rim gap (x, x+1) ends at point x+1; cross that band
            return ("band", (x + 1) % pts)
        # band side entered at point x exits at the partner; continue on its gap
        return ("gap", match[x])

    seen = set()
    cycles = 0
    for start in pieces:
        if start in seen:
            continue
        cycles += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = successor(cur)
    # each boundary component consumes gap and band pieces alternately;
    # the cycle count over pieces equals the face count
    return cycles


class ChordOrbitCounts(NamedTuple):
    bases: int
    colored: int
    river_bases: int


def _perfect_matchings(points: int):
    """Every perfect matching of range(points), as a list of pairs."""
    if points == 0:
        yield []
        return
    for partner in range(1, points):
        # pair 0 with partner; renumber the rest to 0..points-3 and recurse
        rest = [x for x in range(1, points) if x != partner]
        for sub in _perfect_matchings(points - 2):
            yield [(0, partner)] + [(rest[a], rest[b]) for a, b in sub]


def match_arrays(points: int):
    """Every perfect matching of range(points) as a match array (entry i is
    the partner of i), in lexicographic order."""
    for pairs in _perfect_matchings(points):
        match = [0] * points
        for a, b in pairs:
            match[a], match[b] = b, a
        yield tuple(match)


def circle_maps(points: int, reflections: bool) -> list[tuple[int, ...]]:
    """The rotations i -> i + k of the circle's points and, with
    `reflections`, the reflections i -> k - i."""
    maps = [tuple((i + k) % points for i in range(points)) for k in range(points)]
    if reflections:
        maps += [tuple((k - i) % points for i in range(points)) for k in range(points)]
    return maps


def circle_image(match, p, colors=()) -> tuple[tuple, tuple]:
    """The matching and its point colors moved by the point map p."""
    moved, moved_colors = [0] * len(match), [None] * len(colors)
    for i, j in enumerate(match):
        moved[p[i]] = p[j]
    for i, color in enumerate(colors):
        moved_colors[p[i]] = color
    return tuple(moved), tuple(moved_colors)


def least_circle_image(match, colors=(), *, reflections: bool) -> tuple[tuple, tuple]:
    """Canonical-form oracle with no package code: the least (matching,
    point colors) image over every rotation and, with `reflections`, every
    reflection of the circle."""
    return min(circle_image(match, p, colors)
               for p in circle_maps(len(match), reflections))


def _interleave(p, q) -> bool:
    (a, b), (c, d) = sorted(p), sorted(q)
    return a < c < b < d or c < a < d < b


def _red_ends_adjacent(reds, points: int) -> bool:
    """Some choice of one end per red chord fills g consecutive positions."""
    g = len(reds)
    for sel in product(*reds):
        ends = set(sel)
        if len(ends) == g and any(
                {(s + k) % points for k in range(g)} == ends for s in sel):
            return True
    return False


@cache  # pure and shared by the chord and acceptance suites
def chord_orbit_counts(g: int, *, reflections: bool) -> ChordOrbitCounts:
    """Orbit counts of the chord model by the Cauchy-Frobenius lemma, with no
    package code: one-face matchings of 4g points (bases), the same with g
    pairwise non-crossing green chords (colored), and bases having a coloring
    with non-crossing reds whose ends can fill g consecutive positions (river
    bases).  The group is the circle's rotations, plus its reflections when
    `reflections` is set; every count is the mean number of fixed points.
    The labeled one-face count is checked against the Harer-Zagier term."""
    points = 4 * g
    group = circle_maps(points, reflections)
    fixed = [0, 0, 0]
    one_face = 0
    for pairs in _perfect_matchings(points):
        partner = [0] * points
        for a, b in pairs:
            partner[a], partner[b] = b, a
        faces, seen = 0, set()
        for start in range(points):
            if start not in seen:
                faces += 1
                x = start
                while x not in seen:
                    seen.add(x)
                    x = (partner[x] + 1) % points
        if faces != 1:
            continue
        one_face += 1
        greens = []
        river = False
        for sub in combinations(pairs, g):
            if any(_interleave(p, q) for p, q in combinations(sub, 2)):
                continue
            greens.append({x for pair in sub for x in pair})
            reds = [pair for pair in pairs if pair not in sub]
            river = river or (
                not any(_interleave(p, q) for p, q in combinations(reds, 2))
                and _red_ends_adjacent(reds, points))
        for p in group:
            if all(partner[p[x]] == p[partner[x]] for x in range(points)):
                fixed[0] += 1
                fixed[1] += sum(1 for gp in greens if {p[x] for x in gp} == gp)
                fixed[2] += river
    # Harer-Zagier: (4g)! / (4^g (2g+1)!) labeled one-face diagrams
    assert one_face == factorial(4 * g) // (4 ** g * factorial(2 * g + 1))
    assert all(f % len(group) == 0 for f in fixed), "orbit counts must be whole"
    return ChordOrbitCounts(*(f // len(group) for f in fixed))


def fixed_one_face(p) -> int:
    """The one-face matchings of the circle's points that the point map p
    fixes, made directly: the least free point takes each free partner, and
    the chord forces its whole orbit under p, or fails if the orbit meets a
    taken point or puts a chord's ends together."""
    points = len(p)
    partner = [-1] * points

    def one_face() -> bool:
        x, steps = 0, 0
        while True:
            x, steps = (partner[x] + 1) % points, steps + 1
            if x == 0:
                return steps == points

    def extend(x: int) -> int:
        if x == points:
            return int(one_face())
        if partner[x] >= 0:
            return extend(x + 1)
        total = 0
        for y in range(x + 1, points):
            placed, a, b = [], x, y
            while partner[a] != b:
                if a == b or partner[a] >= 0 or partner[b] >= 0:
                    break
                partner[a], partner[b] = b, a
                placed += (a, b)
                a, b = p[a], p[b]
            else:
                total += extend(x + 1)
            for d in placed:
                partner[d] = -1
        return total

    return extend(0)


def dihedral_base_count(g: int) -> int:
    """The base classes at genus g under the circle's rotations and
    reflections by the Cauchy-Frobenius lemma, with no package code: the
    Harer-Zagier count of one-face matchings of 4g points for the identity,
    plus the one-face matchings each other map fixes, over the 8g maps."""
    points = 4 * g
    maps = circle_maps(points, reflections=True)
    total = factorial(points) // (4 ** g * factorial(2 * g + 1))
    total += sum(fixed_one_face(p) for p in maps[1:])   # maps[0] is the identity
    assert total % len(maps) == 0, "orbit counts must be whole"
    return total // len(maps)


# ---------------------------------------------------------------------------
# Cut-by-cut reference for side reductions
# ---------------------------------------------------------------------------

def _reached(alpha, sigma) -> set:
    """The darts connected to dart 0."""
    seen = {0} if alpha else set()
    stack = list(seen)
    while stack:
        d = stack.pop()
        for nxt in (alpha[d], sigma[d]):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _rotation(sigma, d) -> list[int]:
    """The darts around d's vertex, d first.  A sigma that is no permutation
    may never lead back to d: the walk stops after len(sigma) darts."""
    rot = [d]
    while sigma[rot[-1]] != d:
        if len(rot) == len(sigma):
            raise AssertionError(f"sigma's walk from dart {d} does not return to it")
        rot.append(sigma[rot[-1]])
    return rot


def _boundary_corner(corners: list, end: str, d: int) -> int:
    """The one dart of an arc's ``end`` vertex (dart d) whose corner lies in
    a hole, from the list of such darts in rotation order."""
    if len(corners) > 1:
        raise MapError(f"vertex has two boundary corners "
                       f"(darts {corners[0]} and {corners[1]})")
    if not corners:
        raise MapError(f"arc {end} vertex (dart {d}) is not on the boundary")
    return corners[0]


def reference_cut_walk(m: CombMap, walk, closed: bool, label_q,
                       slits_are_holes: bool) -> tuple[CombMap, dict]:
    """The map cut along an oriented dart walk (``_dart_walk``), the
    curve's own darts labeled bdy and their copies ``label_q`` (the curve's
    label if None).  Darts keep their ids; the i-th walk dart and its
    partner get the Q copies n + 2i and n + 2i + 1.  Each split rotation is
    rebuilt as two lists and every dart in them rewired on copies of alpha,
    sigma and labels, then the face table and the holes of the result made
    from scratch.  A face of the cut map is a hole if it holds a dart off
    the curve that lay in a hole face, or, with ``slits_are_holes``, if it
    is one of a closed curve's two slit faces.  Returns the cut map and
    copy_q."""
    n = m.n_darts
    k = len(walk)
    ftab = face_table(m)
    alpha, sigma, labels = list(m.alpha), list(m.sigma), list(m.labels)
    curve_darts = set(walk) | {m.alpha[t] for t in walk}
    copy_q = {}
    for t in walk:
        for d in (t, m.alpha[t]):
            copy_q[d] = n + len(copy_q)
    alpha += [0] * (2 * k)
    sigma += [0] * (2 * k)
    labels += [None] * (2 * k)
    for t in walk:
        qa, qb = copy_q[t], copy_q[m.alpha[t]]
        alpha[qa], alpha[qb] = qb, qa
        labels[qa] = labels[qb] = labels[t] if label_q is None else label_q
        labels[t] = labels[m.alpha[t]] = CurveLabel(CurveKind.BDY)

    def set_cycle(cyc):
        for i, d in enumerate(cyc):
            sigma[d] = cyc[(i + 1) % len(cyc)]

    arrivals = [m.alpha[t] for t in walk]
    steps = range(k) if closed else range(k - 1)
    for i in steps:
        a, dep = arrivals[i], walk[(i + 1) % k]
        rot = _rotation(m.sigma, a)
        j = rot.index(dep)
        set_cycle([a] + rot[1:j] + [dep])
        set_cycle([copy_q[dep]] + rot[j + 1:] + [copy_q[a]])
    if not closed:
        for end, d in (("start", walk[0]), ("end", arrivals[-1])):
            rot = _rotation(m.sigma, d)
            # the corner between x and sigma(x) lies in the face of sigma(x)
            x = _boundary_corner([y for y in rot if ftab[m.sigma[y]] in m.holes], end, d)
            j = rot.index(x)
            p_side, q_side = (rot[j + 1:], rot[1:j + 1]) if end == "start" else \
                (rot[1:j + 1], rot[j + 1:])
            set_cycle([d] + p_side)
            set_cycle([copy_q[d]] + q_side)

    bare = CombMap(tuple(alpha), tuple(sigma), tuple(labels), frozenset())
    new_ftab = face_table(bare)
    holes = {new_ftab[d] for d in range(n)
             if d not in curve_darts and ftab[d] in m.holes}
    if closed and slits_are_holes:
        holes |= {new_ftab[arrivals[0]], new_ftab[copy_q[walk[0]]]}
    return CombMap(bare.alpha, bare.sigma, bare.labels, frozenset(holes)), copy_q


def reference_side_cut(d, walks, cycles, green: bool):
    """The cuts that prdiag._counted_side counts, made one by one, a
    CombMap and its face table after every cut: the cut map, the Q copy of
    each cycle's first dart (its cap's side) and each arc's (P-side,
    Q-side) darts."""
    bdy = CurveLabel(CurveKind.BDY)
    arc_kind = CurveKind.U_GREEN_ARC if green else CurveKind.V_RED_ARC
    arc_ids = sorted(ci for ci, c in enumerate(d.curves) if c.label.kind is arc_kind)
    arc_walks = {ci: list(walks[ci].darts) for ci in arc_ids}
    m = d.surface
    cap_darts = []
    for wk in sorted(cycles, key=min):
        m, copy_q = reference_cut_walk(m, wk, True, None, slits_are_holes=False)
        for ci in arc_ids:
            arc_walks[ci] = [copy_q.get(t, t) for t in arc_walks[ci]]
        cap_darts.append(copy_q[wk[0]])
    arc_copies = {}
    for ci in arc_ids:
        aw = arc_walks[ci]
        m, copy_q = reference_cut_walk(m, aw, False, bdy, slits_are_holes=True)
        arc_copies[ci] = (tuple(aw), tuple(copy_q[t] for t in aw))
    return m, cap_darts, arc_copies


def orbit_count(perm, darts) -> int:
    """How many orbits of perm meet ``darts``.  Each walk stops at a dart
    already seen, so a perm that is no permutation cannot hang it."""
    seen = set()
    count = 0
    for d in darts:
        count += d not in seen
        while d not in seen:
            seen.add(d)
            d = perm[d]
    return count


def reference_side_reduction(d, walks, cycles, green: bool):
    """prdiag._counted_side's result from reference_side_cut: the cut map's
    components and each one's (chi, genus, boundary) from its own vertex,
    edge, face and hole counts, which gives the shape of the first one that
    is not a disk."""
    from morsediag import prdiag as pr

    m, cap_darts, arc_copies = reference_side_cut(d, walks, cycles, green)
    # component index: numbered in order of smallest dart
    comp = [-1] * m.n_darts
    for start in range(m.n_darts):
        if comp[start] < 0:
            label = max(comp) + 1
            stack = [start]
            comp[start] = label
            while stack:
                x = stack.pop()
                for nxt in (m.alpha[x], m.sigma[x]):
                    if comp[nxt] < 0:
                        comp[nxt] = label
                        stack.append(nxt)
    pieces: dict = {}
    for x, k in enumerate(comp):
        pieces.setdefault(k, []).append(x)
    phi = [m.sigma[a] for a in m.alpha]
    shapes = []
    for k, darts in pieces.items():
        b = sum(comp[h] == k for h in m.holes)
        chi = orbit_count(m.sigma, darts) - len(darts) // 2 + orbit_count(phi, darts) - b
        shapes.append((chi, (2 - b - chi) // 2, b))
    return pr._SideReduction(
        comp_of_dart=comp,
        n_components=len(shapes),
        non_disk=next(((k, s) for k, s in enumerate(shapes) if s != (1, 0, 1)), None),
        cap_comp=[comp[cd] for cd in cap_darts],
        arc_copies=arc_copies,
    )


def _sample_colored(genus: int, rng: random.Random):
    """A random optimal colored diagram: a one-face matching of 4g points by
    rejection, then one of its non-crossing green g-subsets."""
    from morsediag.chord import GREEN, RED, ChordDiagram, ColoredChordDiagram, face_count

    pts = 4 * genus
    while True:
        order = list(range(pts))
        rng.shuffle(order)
        match = [0] * pts
        for a, b in zip(order[::2], order[1::2]):
            match[a], match[b] = b, a
        base = ChordDiagram(2 * genus, tuple(match))
        if face_count(base) != 1:
            continue
        chords = base.chords()
        greens = [s for s in combinations(range(len(chords)), genus)
                  if not any(_interleave(chords[i], chords[j]) for i, j in combinations(s, 2))]
        if greens:
            green = set(rng.choice(greens))
            return ColoredChordDiagram(base, tuple(GREEN if i in green else RED
                                                   for i in range(len(chords))))


def all_colored_classes(max_genus: int):
    """(genus, colored chord diagram) for every colored class of genus 1 to
    max_genus, genus by genus in enumeration order."""
    from morsediag.chord import enumerate_bases, enumerate_colorings

    for g in range(1, max_genus + 1):
        for base in enumerate_bases(g):
            for ccd in enumerate_colorings(base, g):
                yield g, ccd


@cache  # pure; shared by the combmap and prdiag suites
def analysis_corpus() -> tuple:
    """Diagrams the cut reference is checked on: the shipped fixtures, two
    hand-built diagrams whose green cycles pass through u-arcs, every colored
    class of genus 1-3, a seeded genus-4/5 sample, and a copy of each with
    renamed darts."""
    import morsediag.catalog as cat
    from morsediag.prdiag import from_colored_chord

    rng = random.Random(4093)
    out = [cat.load_fixture(name) for name in cat.fixture_names()]
    out += [make_six_point_ball_flow(), make_pinched_cycle_diagram()]
    out += [from_colored_chord(ccd) for _, ccd in all_colored_classes(3)]
    out += [from_colored_chord(_sample_colored(g, rng)) for g in (4,) * 8 + (5,) * 4]
    return tuple(out + [relabel_diagram(d, rng) for d in out])


def clear_analysis_caches():
    """Forget the analyses, with their canonical keys, that prdiag keeps of
    the last two diagrams."""
    import morsediag.prdiag as pr

    pr._analyse.cache_clear()


@pytest.fixture(autouse=True)
def _cold_analysis_caches():
    """No test depends on what an earlier test analysed."""
    clear_analysis_caches()


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def genus4_report():
    """classify(4), made once for the tests that read its codes."""
    from morsediag.chord import classify

    return classify(4)
