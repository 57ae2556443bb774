"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, product
from math import factorial
from typing import NamedTuple, Optional

import pytest

from morsediag.combmap import (
    ArcEndpointNotOnBoundary,
    CombMap,
    CurveKind,
    CurveLabel,
    CutResult,
    EmbeddedCurve,
    build_map,
    components,
    euler_genus,
    face_table,
    hole_corner_dart,
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


def _connected(alpha, sigma) -> bool:
    return len(_reached(alpha, sigma)) == len(alpha)


def _rotation(sigma, d) -> list[int]:
    rot = [d]
    while sigma[rot[-1]] != d:
        rot.append(sigma[rot[-1]])
    return rot


def reference_cut_walk(m: CombMap, walk, closed: bool, label_p, label_q,
                       slits_are_holes: bool) -> CutResult:
    """combmap._cut_walk as a fresh map per cut: rewire copies of alpha,
    sigma and labels, then rebuild the face table, the holes and the
    connectivity flag of the result from scratch."""
    n = m.n_darts
    k = len(walk)
    ftab = face_table(m)
    alpha, sigma, labels = list(m.alpha), list(m.sigma), list(m.labels)
    curve_darts = set(walk) | {m.alpha[t] for t in walk}
    copy_p = {d: d for d in curve_darts}
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
        labels[t] = labels[m.alpha[t]] = labels[t] if label_p is None else label_p

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
            x = hole_corner_dart(m, rot, ftab)
            if x is None:
                raise ArcEndpointNotOnBoundary(
                    f"arc {end} vertex (dart {d}) is not on the boundary")
            j = rot.index(x)
            p_side, q_side = (rot[j + 1:], rot[1:j + 1]) if end == "start" else \
                (rot[1:j + 1], rot[j + 1:])
            set_cycle([d] + p_side)
            set_cycle([copy_q[d]] + q_side)

    flag = not _connected(alpha, sigma)
    bare = CombMap(tuple(alpha), tuple(sigma), tuple(labels), frozenset(), flag)
    new_ftab = face_table(bare)
    holes = {new_ftab[d] for d in range(n)
             if d not in curve_darts and ftab[d] in m.holes}
    slit_p = slit_q = None
    if closed:
        slit_p, slit_q = new_ftab[arrivals[0]], new_ftab[copy_q[walk[0]]]
        if slits_are_holes:
            holes |= {slit_p, slit_q}
    return CutResult(CombMap(bare.alpha, bare.sigma, bare.labels, frozenset(holes), flag),
                     copy_p, copy_q, slit_p, slit_q)


def reference_side_reduction(d, walks, cycles, green: bool):
    """prdiag._side_reduction cut by cut: a CombMap and its face table after
    every cut, then the components as separate maps and euler_genus of each."""
    from morsediag import prdiag as pr

    bdy = CurveLabel(CurveKind.BDY)
    arc_kind = CurveKind.U_GREEN_ARC if green else CurveKind.V_RED_ARC
    arc_ids = sorted(ci for ci, c in enumerate(d.curves) if c.label.kind is arc_kind)
    arc_walks = {ci: list(walks.walk[ci]) for ci in arc_ids}
    m = d.surface
    cap_darts = []
    for wk in sorted(cycles, key=min):
        res = reference_cut_walk(m, wk, True, bdy, None, slits_are_holes=False)
        m = res.map
        for ci in arc_ids:
            arc_walks[ci] = [res.copy_q.get(t, t) for t in arc_walks[ci]]
        cap_darts.append(res.copy_q[wk[0]])
    arc_copies = {}
    for ci in arc_ids:
        aw = arc_walks[ci]
        res = reference_cut_walk(m, aw, False, bdy, bdy, slits_are_holes=True)
        m = res.map
        arc_copies[ci] = (tuple(res.copy_p[t] for t in aw), tuple(res.copy_q[t] for t in aw))
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
    pieces = components(m, comp)
    return pr._SideReduction(
        final=m,
        comp_of_dart=comp,
        n_components=len(pieces),
        non_disk=next((k for k, p in enumerate(pieces)
                       if euler_genus(p) != (1, 0, 1)), None),
        n_cycles=len(cycles),
        cap_comp=[comp[cd] for cd in cap_darts],
        arc_sides={ci: (comp[p[0]], comp[q[0]]) for ci, (p, q) in arc_copies.items()},
        arc_end_darts={ci: (walks.walk[ci][0], d.surface.alpha[walks.walk[ci][-1]])
                       for ci in arc_ids},
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


@cache  # pure; shared by the combmap and prdiag suites
def analysis_corpus() -> tuple:
    """Diagrams the cut reference is checked on: the shipped fixtures, two
    hand-built diagrams whose green cycles pass through u-arcs, every colored
    class of genus 1-3, a seeded genus-4/5 sample, and a copy of each with
    renamed darts."""
    import morsediag.catalog as cat
    from morsediag.chord import enumerate_bases, enumerate_colorings
    from morsediag.prdiag import from_colored_chord

    rng = random.Random(4093)
    out = [cat.load_fixture(name) for name in cat.fixture_names()]
    out += [make_six_point_ball_flow(), make_pinched_cycle_diagram()]
    out += [from_colored_chord(ccd) for g in (1, 2, 3)
            for base in enumerate_bases(g) for ccd in enumerate_colorings(base, g)]
    out += [from_colored_chord(_sample_colored(g, rng)) for g in (4,) * 8 + (5,) * 4]
    return tuple(out + [relabel_diagram(d, rng) for d in out])


def clear_analysis_caches():
    """Forget the analyses and codes prdiag keeps of the last two diagrams."""
    import morsediag.prdiag as pr

    pr._analyse.cache_clear()
    pr._surface_code.cache_clear()


@pytest.fixture(autouse=True)
def _cold_analysis_caches():
    """No test depends on what an earlier test analysed."""
    clear_analysis_caches()


@pytest.fixture
def rng():
    return random.Random(20240817)
