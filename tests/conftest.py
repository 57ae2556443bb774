"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, product
from math import factorial
from typing import NamedTuple, Optional

import pytest

from morsediag.combmap import (
    CombMap,
    CurveKind,
    CurveLabel,
    EmbeddedCurve,
    build_map,
    face_table,
    mirror_map,
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
    shuffled = CombMap(tuple(alpha), tuple(sigma), tuple(labels), frozenset(),
                       m.allow_disconnected)
    ftab_old = face_table(m)
    ftab_new = face_table(shuffled)
    holes = frozenset(ftab_new[perm[d]] for d in range(n) if ftab_old[d] in m.holes)
    return CombMap(tuple(alpha), tuple(sigma), tuple(labels), holes,
                   m.allow_disconnected)


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


def reference_canonical_code(m: CombMap, mirror: bool = True) -> bytes:
    """combmap.canonical_code without its early abort: the complete BFS
    trace (visit sigma then alpha) from every root of the map and, with
    ``mirror``, of its mirror; the least trace, serialised as cm1."""
    if m.n_darts == 0:
        return b"cm1|empty"
    traces = []
    for mv in [m] + ([mirror_map(m)] if mirror else []):
        ftab = face_table(mv)
        for root in range(mv.n_darts):
            new_id = {root: 0}
            order = [root]
            for d in order:
                for nxt in (mv.sigma[d], mv.alpha[d]):
                    if nxt not in new_id:
                        new_id[nxt] = len(order)
                        order.append(nxt)
            traces.append([(new_id[mv.sigma[d]], new_id[mv.alpha[d]],
                            _CODE_KINDS.index(mv.labels[d].kind),
                            int(ftab[d] in mv.holes)) for d in order])
    flat = ";".join(f"{s},{a},{k},{h}" for s, a, k, h in min(traces))
    return f"cm1[{'dih' if mirror else 'rot'}]|n={m.n_darts}|{flat}".encode("ascii")


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
    group = [tuple((i + k) % points for i in range(points)) for k in range(points)]
    if reflections:
        group += [tuple((k - i) % points for i in range(points)) for k in range(points)]
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


@pytest.fixture
def rng():
    return random.Random(20240817)
