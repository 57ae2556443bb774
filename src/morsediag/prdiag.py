"""The complete flow invariant: a surface with boundary carrying four curve
families (green arcs u and cycles U, red arcs v and cycles V).

A diagram records a Morse flow with fixed points on the boundary of an
oriented 3-manifold.  Well-formedness is the five-property criterion of the
realization theory.  Equivalence (equivalent) is label-preserving
isomorphism of one cell structure.  The fixed-point census, boundary-flow
reconstruction, optimality test and the two chord-diagram conversions for
optimal handlebody flows live here as well.

Fixed point types on the boundary of a 3-manifold, by index (p, q) where
p + q is the dimension of the stable manifold and p its dimension within the
boundary flow:

    type 1 (0,0) source     type 2 (0,1) source with entering trajectory
    type 3 (1,0) saddle     type 4 (1,1) saddle
    type 5 (2,0) sink       type 6 (2,1) sink

Green data encodes types 1-3 (sources and u-saddles), red data types 4-6.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple, Optional

from . import combmap as cmb
from ._formats import FLOW, check
from .combmap import (
    CombMap,
    CurveKind,
    CurveLabel,
    EmbeddedCurve,
    MapError,
    map_from_json,
    map_to_json,
)
from .chord import (
    DEFAULT_SYMMETRY,
    GREEN,
    RED,
    ColoredChordDiagram,
    SymmetryConvention,
    _crossing_masks,
    _crossing_within,
    _least_colored,
    colored_from_point_colors,
    face_count,
)


class InvalidDiagram(ValueError):
    pass


class NotOptimal(ValueError):
    pass


class InvalidColoring(ValueError):
    pass


class FixedPointType(NamedTuple):
    """A boundary fixed point type and its index (p, q)."""
    type_id: int
    index_pair: tuple[int, int]

    @property
    def role(self) -> str:
        p = self.index_pair[0]
        return ("source", "saddle", "sink")[p]


FIXED_POINT_TYPES = {
    1: FixedPointType(1, (0, 0)),
    2: FixedPointType(2, (0, 1)),
    3: FixedPointType(3, (1, 0)),
    4: FixedPointType(4, (1, 1)),
    5: FixedPointType(5, (2, 0)),
    6: FixedPointType(6, (2, 1)),
}

_SIDE = {   # green or not -> (arc kind, cycle kind) of that color
    True: (CurveKind.U_GREEN_ARC, CurveKind.U_GREEN_CYCLE),
    False: (CurveKind.V_RED_ARC, CurveKind.V_RED_CYCLE),
}


class PrDiagram(NamedTuple):
    """Surface map plus registry of embedded curves, a named tuple of the
    two.  It equals by both but hashes by its surface alone, which hashes
    in C (CombMap), so diagrams that differ only in curves share a hash."""

    surface: CombMap
    curves: tuple[EmbeddedCurve, ...]

    def __hash__(self) -> int:
        return hash((self.surface,))


class PropertyVerdict(NamedTuple):
    """One validity property: passed, or the witness of its failure."""
    name: str
    passed: bool
    witness: str = ""


class ValidityReport(NamedTuple):
    """The verdicts on the five validity properties, in order."""
    properties: tuple[PropertyVerdict, ...]

    @property
    def valid(self) -> bool:
        return all(p.passed for p in self.properties)

    def first_failure(self) -> str:
        for p in self.properties:
            if not p.passed:
                return f"{p.name}: {p.witness}"
        return ""

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "properties": {
                p.name: {"passed": p.passed, "witness": p.witness}
                for p in self.properties
            },
        }


class Census(NamedTuple):
    """Fixed point counts per type and the boundary-surface genus."""

    n1: int
    n2: int
    n3: int
    n4: int
    n5: int
    n6: int
    boundary_genus: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return self[:6]

    def to_json(self) -> dict:
        return self._asdict()


class FlowVertex(NamedTuple):
    """A fixed point of the boundary flow: its role and its type."""
    id: int
    role: str
    point_type: int


class BoundaryFlowGraph(NamedTuple):
    """Separatrix graph of the flow restricted to the 3-manifold boundary."""

    vertices: tuple[FlowVertex, ...]
    edges: tuple[tuple[int, int], ...]
    genus: int

    def role_counts(self) -> dict[str, int]:
        out = {"source": 0, "saddle": 0, "sink": 0}
        for v in self.vertices:
            out[v.role] += 1
        return out

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "vertices": [
                {"id": v.id, "role": v.role, "type": v.point_type}
                for v in self.vertices
            ],
            "edges": [list(e) for e in self.edges],
        }


# ---------------------------------------------------------------------------
# Structural analysis
# ---------------------------------------------------------------------------

class _Walk(NamedTuple):
    """One curve's oriented dart walk, the vertex ids it visits and its two
    ends (none for a closed curve); and the curve's kind, which the loops
    over walks read here."""

    darts: list[int]
    verts: set[int]
    ends: tuple[int, ...]
    kind: CurveKind


def _curve_walks(d: PrDiagram, vid: list[int]) -> tuple[str, tuple[_Walk, ...]]:
    """The first structural fault and, if there is none, the walk record of
    every curve, in registry order, in one loop over each curve's edges.  A
    fault is no darts, a curve registry inconsistent with the map labels
    (which wins wherever it is), else the first curve that is not a simple
    walk; "" if none."""
    m = d.surface
    if not m.n_darts:
        return "surface has no darts", ()
    n, alpha, labels = m.n_darts, m.alpha, m.labels
    owned = {}
    walks, err = [], ""
    for ci, c in enumerate(d.curves):
        label = c.label
        if label.kind is CurveKind.BDY:
            return f"curve {ci} labeled bdy", ()
        for e in c.edges:
            if not (0 <= e < n) or alpha[e] < e:
                return f"curve {ci} references non-edge {e}", ()
            if labels[e] != label:
                return f"edge {e} label does not match curve {ci}", ()
            if e in owned:
                return f"edge {e} belongs to two curves", ()
            owned[e] = ci
        if not err:   # the curve's edges are distinct edge ids
            try:
                w, vseq = cmb._dart_walk(m, c, vid)
            except MapError as exc:
                err = str(exc)
                continue
            ends = () if c.closed else (vseq[0], vseq[-1])
            walks.append(_Walk(w, set(vseq), ends, label.kind))
    for e in m.edge_ids():   # an owned edge has its curve's label, never bdy
        if e not in owned and labels[e].kind is not CurveKind.BDY:
            return f"labeled edge {e} belongs to no curve", ()
    return err, tuple(walks)


def _left_turn_trail(m: CombMap, start: dict, first: int, used: set[int]):
    """The trail that leaves ``first`` along a cycle-arc and then takes, at
    each arrival, the sigma-successor: an arc, a cycle-arc, and so on, until
    an arc's successor is ``first`` again.  ``start`` maps the first dart of
    an open piece, either way round, to (curve, its darts, whether an arc).
    Returns the trail's darts, adding its pieces to ``used``, or None.

    The successor of an oriented piece is one-to-one (sigma∘alpha is a
    bijection), so a trail can meet one of its pieces, or a piece of an
    earlier trail, only the other way round; both checks below are needed
    (test_left_turn_walk_refuses_a_piece_taken_the_other_way)."""
    alpha, sigma = m.alpha, m.sigma
    trail, pieces, dart = [], [], first
    while True:
        for want_arc in (False, True):
            ci, walk, is_arc = start.get(dart, (None, None, None))
            if ci is None or is_arc is not want_arc or ci in pieces or ci in used:
                return None
            pieces.append(ci)
            trail += walk
            dart = sigma[alpha[walk[-1]]]
        if dart == first:
            used.update(pieces)
            return trail


def _assemble_cycles(d: PrDiagram, walks: tuple[_Walk, ...], green: bool):
    """Maximal cycles alternating arcs and cycle-arcs via the left-turn rule
    (sigma-successor at shared vertices), plus closed cycle components.

    Returns (cycle dart walks, by least dart, witness or None).
    """
    m = d.surface
    arc_kind, cyc_kind = _SIDE[green]
    if all(w.kind is not cyc_kind for w in walks):
        return [], None
    alpha = m.alpha
    cycles: list[list[int]] = []
    start = {}
    for ci, w in enumerate(walks):   # a closed curve's walk has no ends
        kind, darts = w.kind, w.darts
        if kind is cyc_kind and not w.ends:
            cycles.append(darts)
        elif kind is arc_kind or kind is cyc_kind:
            back = [alpha[t] for t in reversed(darts)]
            start[darts[0]] = (ci, darts, kind is arc_kind)
            start[back[0]] = (ci, back, kind is arc_kind)
    used: set[int] = set()
    for ci, w in enumerate(walks):
        if w.kind is not cyc_kind or not w.ends or ci in used:
            continue
        darts = w.darts
        trail = (_left_turn_trail(m, start, darts[0], used)
                 or _left_turn_trail(m, start, alpha[darts[-1]], used))
        if trail is None:
            return None, (f"open {cyc_kind.value!r} component {ci} does not close "
                          f"into an alternating left-turn cycle")
        cycles.append(trail)
    return sorted(cycles, key=min), None


class _SideReduction(NamedTuple):
    """One color side's reduction, counted on the uncut surface by
    ``_counted_side``: the piece of every dart of the cut map, the pieces,
    the caps and the arc copies, in the dart and piece numbering that
    ``_counted_side`` states."""

    comp_of_dart: list[int]
    n_components: int
    # the first piece that is not a disk and its (chi, genus, boundary)
    non_disk: Optional[tuple[int, tuple[int, int, int]]]
    cap_comp: list[int]                       # per cycle: piece of its cap
    # arc curve idx -> (P-side darts, Q-side darts) of its cut, in walk order
    arc_copies: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]


def _find(parent: list[int], f: int) -> int:
    """The root of f in the union-find forest ``parent``, halving its path."""
    while parent[f] != f:
        parent[f] = f = parent[parent[f]]
    return f


def _counted_side(d: PrDiagram, walks: tuple[_Walk, ...], cycles: list[list[int]],
                  green: bool, vid: list[int], fid: list[int], hole: list[bool],
                  at: list[int], chi: int, faces: int, inner: list[int]) -> _SideReduction:
    """Surgering the side's assembled cycles and cutting its arcs, counted
    on the uncut surface, with no cut made: ``vid``, ``fid`` and ``hole``
    are its dart -> vertex id, face id and whether in a hole face, ``at``
    its vertex id -> hole dart leaving it (``_boundary_vertices``), ``chi``
    its V - E + interior faces, connected or not, ``faces`` its interior
    faces and ``inner`` its edges with an interior face on both sides, by
    their smaller dart.  The side's s arcs are disjoint and end on the
    boundary, and its c cycles are disjoint closed curves that meet the
    boundary only at arc ends (properties 1, 3 and 4).

    The cut map keeps the surface's n darts and gives each dart of the
    side's curves a new dart, its Q copy; alpha pairs the copies of an
    edge's two darts.  The cycles come first, by least dart (as
    ``_assemble_cycles`` gives them), then the arcs, in registry order:
    the copies of a curve's i-th walk dart and of its partner are top + 2i
    and top + 2i + 1, where top counts the darts before the curve's.  An
    arc on a cycle keeps the cycle's Q copies as its P side.  Pieces are
    numbered by least dart.

    The cut map's cells are the interior faces and two caps per cycle, P
    on the corner side of the cycle's darts and Q on the other side.  Its
    pieces are the edges with a hole on both sides and the classes of cells
    joined across the edges with a cell on both sides:
    - an edge on no curve of the side and no hole joins its two faces; as
      a vertex has one hole corner at most, a piece's cells meet across them;
    - surgery cuts along a cycle and caps both new circles, so the P cap
      joins the face of each cycle dart, and the Q cap that of its partner,
    - except across an arc edge: the left-turn rule leaves no dart between
      an arc and the next piece of its cycle on the P side, so the arc lies
      on the Q copy, and its cut parts the Q cap from the face beyond.
    Cutting an arc of k edges adds k + 1 vertices and k edges, surgering a
    cycle of k edges adds k vertices, k edges and two caps, so the pieces'
    chi sum to chi + s + 2c.  One piece with chi + s + 2c = 1 is a disk
    (as is every side of an optimal diagram), and no more is counted.
    Else a piece's chi counts its cells, half its darts and its vertices:
    one per hole dart (it has one hole corner), per vertex off the boundary
    and the side's curves, and a P and a Q copy per cycle vertex, but an
    arc through one splits its Q copy into boundary vertices.  Its boundary
    circles are the cycles of the hole walk that jumps from each arc end to
    the other: a cut arc's slit joins the holes at its ends; caps are not
    holes.  The first piece that is not a disk is property 5's witness."""
    m = d.surface
    alpha, sigma, n = m.alpha, m.sigma, m.n_darts
    on = [0] * n   # dart -> 1 on a cycle of the side, 2 on an arc
    copy_q, top = {}, n   # cycle dart -> its Q copy; top: the cut map's darts so far
    for wk in cycles:
        for i, t in enumerate(wk):
            copy_q[t], copy_q[alpha[t]] = top + 2 * i, top + 2 * i + 1
            on[t] = on[alpha[t]] = 1
        top += 2 * len(wk)
    arc_copies, arc_kind = {}, _SIDE[green][0]
    for ci, w in enumerate(walks):
        if w.kind is arc_kind:
            aw = w.darts   # an arc on a cycle is cut on its Q copy
            arc_copies[ci] = (tuple(map(copy_q.get, aw, aw)),
                              tuple(range(top, top + 2 * len(aw), 2)))
            top += 2 * len(aw)
            for t in aw:
                on[t] = on[alpha[t]] = 2
    # cells: face ids, then the P and Q cap of each cycle.  A hole whose id
    # sigma fixes is an edge with a hole on both sides, a piece of its own
    parent = list(range(n + 2 * len(cycles)))
    pieces = faces + 2 * len(cycles) + sum(sigma[h] == h for h in m.holes)
    joins = [(fid[x], fid[alpha[x]]) for x in inner if not on[x]]
    for j, wk in enumerate(cycles):
        joins += [(n + 2 * j, fid[t]) for t in wk]
        joins += [(n + 2 * j + 1, fid[alpha[t]]) for t in wk if on[t] != 2]
    for f, g in joins:
        f, g = _find(parent, f), _find(parent, g)
        if f != g:
            parent[f] = g
            pieces -= 1
    if pieces == 1 and chi + len(arc_copies) + 2 * len(cycles) == 1:
        return _SideReduction([0] * top, 1, None, [0] * len(cycles), arc_copies)

    # cut-map dart -> its cell; a hole dart's is the cell across its edge,
    # or the hole face of an edge with a hole on both sides
    node = [fid[a] if h else f for f, h, a in zip(fid, hole, alpha)] + [0] * (top - n)
    q_cap = {}
    for j, wk in enumerate(cycles):
        for t in wk:
            node[t] = node[alpha[t]] = n + 2 * j
            node[copy_q[t]] = node[copy_q[alpha[t]]] = q_cap[t] = n + 2 * j + 1
    for ci, (p_side, q_side) in arc_copies.items():
        for t, x, q in zip(walks[ci].darts, p_side, q_side):
            a = alpha[t]
            node[x] = node[copy_q.get(a, a)] = q_cap.get(t, fid[t])
            node[q] = node[q + 1] = q_cap.get(a, fid[a])
    rank = {}   # root cell -> piece, numbered by least dart
    comp = [rank.setdefault(_find(parent, f), len(rank)) for f in node]
    cap = [rank[_find(parent, f)] for f in range(n, len(parent))]   # P, Q of each cycle
    # twice each piece's chi: two per cell and per vertex, less one per dart
    euler = [0] * len(rank)
    for k in comp:
        euler[k] -= 1
    off = {vid[x] for x in range(n) if hole[x] or on[x]}
    for k in ([rank[_find(parent, f)] for f in set(fid) if not hole[f]]
              + [comp[x] for x in range(n) if hole[x]] + [comp[v] for v in set(vid) - off]
              + [comp[x] for p_side, q_side in arc_copies.values() for x in p_side + q_side]):
        euler[k] += 2
    arc_verts = {v for ci in arc_copies for v in walks[ci].verts}
    for j, wk in enumerate(cycles):
        euler[cap[2 * j]] += 2 + 2 * len(wk)
        euler[cap[2 * j + 1]] += 2 + 2 * sum(vid[t] not in arc_verts for t in wk)
    jump = {}
    for ci in arc_copies:
        x, y = (at[v] for v in walks[ci].ends)
        jump[x], jump[y] = y, x
    holes = [0] * len(rank)
    seen = [False] * n
    for x in range(n):
        if hole[x] and not seen[x]:
            holes[comp[x]] += 1
            while not seen[x]:
                seen[x] = True
                x = sigma[alpha[x]]
                x = jump.get(x, x)
    non_disk = next(((k, (e // 2, (2 - e // 2 - b) // 2, b))
                     for k, (e, b) in enumerate(zip(euler, holes)) if (e, b) != (2, 1)), None)
    return _SideReduction(comp, len(rank), non_disk, cap[1::2], arc_copies)

# ---------------------------------------------------------------------------
# Validation (the five-property criterion)
# ---------------------------------------------------------------------------

class _Analysis:
    """One validity analysis of a diagram: the report, the two dart tables
    ``fid`` (dart -> face id) and ``hole`` (dart -> whether in a hole face),
    which every analysis holds, valid or not, and which the side counts, the
    chord-circle walk, the canonical keys and the face invariant read, and,
    for a valid diagram, the curve walks, ``at`` (vertex id -> hole dart
    leaving it, or -1), both side reductions, each counted on the uncut
    surface, and the surface's Euler characteristic (None if disconnected).

    An analysis is shared by every call on an equal diagram (``_analyse``
    keeps the last two), so no caller may change it, except that a later
    call may fill two fields on demand: ``_surface_key`` fills ``keys``
    (mirror -> canonical key), and ``_face_invariant`` fills ``invariant``."""

    __slots__ = ("report", "fid", "hole", "walks", "at", "green", "red", "chi", "keys", "invariant")

    def __init__(self, report: ValidityReport, fid: list[int], hole: list[bool],
                 walks: tuple[_Walk, ...] = (), at: list[int] = (),
                 green: Optional[_SideReduction] = None,
                 red: Optional[_SideReduction] = None, chi: Optional[int] = None):
        self.report, self.fid, self.hole, self.walks, self.at = report, fid, hole, walks, at
        self.green, self.red, self.chi = green, red, chi
        self.keys, self.invariant = {}, None   # filled on demand, as said above


def validate(d: PrDiagram) -> ValidityReport:
    """Check the five diagram properties; failures carry a witness instead of
    raising.

    1. arc placement: u/v arcs are open, end on distinct boundary vertices,
       and their interiors (and all of any closed curve) avoid the boundary;
    2. endpoints of open U components lie among u-arc endpoints (V among v);
    3. disjointness within each family, arc/cycle interiors of one color
       disjoint, u and v endpoint sets disjoint;
    4. every U component is closed or extends through u-arcs into a closed
       left-turn cycle (same for V/v);
    5. surgering every assembled green cycle and cutting along all u-arcs
       leaves a union of disks (same for red), which ``_counted_side``
       counts on the uncut surface: validation makes no cut.
    """
    return _analyse(d).report


_PROPERTIES = ("p1_placement", "p2_cycle_endpoints", "p3_disjointness",
               "p4_left_turn_cycles", "p5_disk_reduction")


# The one report of every valid diagram; reports are frozen, so it is shared.
_VALID = ValidityReport(tuple(PropertyVerdict(name, True) for name in _PROPERTIES))


def _report(*witnesses: str) -> ValidityReport:
    """The report of the five properties' witnesses, "" for a pass (_VALID)."""
    if not any(witnesses):
        return _VALID
    return ValidityReport(tuple(PropertyVerdict(name, not w, w)
                                for name, w in zip(_PROPERTIES, witnesses)))


def _placement_witness(walks: tuple[_Walk, ...], at: list[int]) -> str:
    """Property 1, read off ``at`` (-1 off the boundary): the first curve that
    is an arc flagged closed, an arc with an end off the boundary, or a
    curve whose interior touches it; or ""."""
    for ci, w in enumerate(walks):
        if w.kind in (CurveKind.U_GREEN_ARC, CurveKind.V_RED_ARC):
            if not w.ends:   # a closed curve's walk has no ends
                return f"curve {ci}: arcs must be open"
            if not all(at[v] >= 0 for v in w.ends):
                return f"curve {ci}: endpoint not on the boundary"
        bad = [v for v in w.verts - set(w.ends) if at[v] >= 0]
        if bad:
            return f"curve {ci}: interior touches boundary vertex (dart {bad[0]})"
    return ""


def _disjointness_witness(walks: tuple[_Walk, ...], u_ends: set[int], v_ends: set[int]) -> str:
    """Property 3: the first two curves of one family (u, U, v, V) that share
    a vertex, then the first arc and cycle of one color that meet away from
    their common ends, then a vertex that ends both a u and a v arc; or ""."""
    # kind's JSON value -> its curve indices, in CurveKind order; a str
    # hashes in C, where Enum.__hash__ is a Python call
    fam = {kind: [] for kind in cmb._KIND_ORD}
    for ci, w in enumerate(walks):
        fam[w.kind._value_].append(ci)
    for kind, ids in fam.items():
        for i, j in combinations(ids, 2):
            shared = walks[i].verts & walks[j].verts
            if shared:
                return f"curves {i} and {j} ({kind}) share vertex (dart {min(shared)})"
    for arc_kind, cyc_kind in _SIDE.values():
        for i, j in product(fam[arc_kind._value_], fam[cyc_kind._value_]):
            a, b = walks[i], walks[j]
            if (a.verts & b.verts) - (set(a.ends) & set(b.ends)):
                return f"curves {i} and {j} meet away from shared endpoints"
    shared = u_ends & v_ends
    return f"u and v arcs share endpoint (dart {min(shared)})" if shared else ""


@lru_cache(maxsize=2)
def _analyse(d: PrDiagram) -> _Analysis:
    """The one analysis of d that every public call on it reads, so that
    each call validates d at most once.  Diagrams are values, so the last
    two analyses serve later calls on equal diagrams: two is the arity of
    equivalent(a, b), and a chain of calls on one diagram mixed with
    comparisons against one other analyses each once."""
    m = d.surface
    vid = cmb._orbit_ids(m.sigma)   # dart -> vertex id, its smallest dart
    fid = cmb._face_ids(m.alpha, m.sigma)
    hole = list(map(m.holes.__contains__, fid))
    tables = fid, hole
    err, walks = _curve_walks(d, vid)
    if not err:
        try:
            at = cmb._boundary_vertices(m, vid, hole)
        except MapError as exc:
            err = str(exc)
    if err:
        return _Analysis(_report(err, *["prerequisite failed"] * 4), *tables)

    p1 = _placement_witness(walks, at)
    # Property 2; an arc flagged closed, a p1 failure, has no ends
    arc_ends = {cyc_kind: {v for w in walks if w.kind is arc_kind for v in w.ends}
                for arc_kind, cyc_kind in _SIDE.values()}   # by cycle kind
    p2 = next((f"curve {ci}: endpoint (dart {v}) is not an arc endpoint"
               for ci, w in enumerate(walks) if w.kind in arc_ends
               for v in w.ends if v not in arc_ends[w.kind]), "")
    p3 = _disjointness_witness(walks, *arc_ends.values())
    green_cycles, gwit = _assemble_cycles(d, walks, green=True)
    red_cycles, rwit = _assemble_cycles(d, walks, green=False)
    p4 = gwit or rwit or ""
    if p1 or p3 or p4:
        return _Analysis(_report(p1, p2, p3, p4, "prerequisite failed"), *tables)

    # chi = V - E + interior faces, from the ids the analysis began with; both
    # side counts join faces across the edges with an interior face on each side
    faces = len(set(fid)) - len(m.holes)
    chi = len(set(vid)) - m.n_darts // 2 + faces
    inner = [x for x, a in enumerate(m.alpha) if x < a and not (hole[x] or hole[a])]
    sides = (_counted_side(d, walks, green_cycles, True, vid, *tables, at, chi, faces, inner),
             _counted_side(d, walks, red_cycles, False, vid, *tables, at, chi, faces, inner))
    p5 = ""
    for color, side in zip(("green", "red"), sides):
        if side.non_disk:
            p5 = (f"{color} reduction component {side.non_disk[0]} is not a disk "
                  f"(chi, genus, boundary) = {side.non_disk[1]}")
            break
    report = _report(p1, p2, p3, p4, p5)
    # Cutting never joins components, so a side reduction in one piece shows
    # the surface connected without a search.
    if p5 or (min(side.n_components for side in sides) > 1
                      and not cmb._is_connected(m.alpha, m.sigma)):
        return _Analysis(report, *tables, walks, at, *sides)
    return _Analysis(report, *tables, walks, at, *sides, chi=chi)


def _require_valid(d: PrDiagram) -> _Analysis:
    analysis = _analyse(d)
    if not analysis.report.valid:
        raise InvalidDiagram(analysis.report.first_failure())
    return analysis


# ---------------------------------------------------------------------------
# Census and necessary conditions
# ---------------------------------------------------------------------------

def census(d: PrDiagram) -> Census:
    """Fixed point counts: sources from the green reduction (one disk per
    source; each cycle's surgery cap accounts for one type-2 point), saddles
    from the arcs, sinks symmetrically from the red side."""
    return _census(_require_valid(d))


def _census(analysis: _Analysis) -> Census:
    green, red = analysis.green, analysis.red
    n2 = len(green.cap_comp)
    n5 = len(red.cap_comp)
    n1 = green.n_components - n2
    n6 = red.n_components - n5
    n3 = len(green.arc_copies)
    n4 = len(red.arc_copies)
    if analysis.chi is None:   # as euler_genus refuses it
        raise MapError("euler_genus requires a connected map")
    chi_boundary = 2 * analysis.chi + 2 * n2 + 2 * n5
    if chi_boundary > 2:
        raise InvalidDiagram(f"boundary Euler characteristic {chi_boundary}")
    return Census(n1, n2, n3, n4, n5, n6, (2 - chi_boundary) // 2)


class MorseChecks(NamedTuple):
    """The necessary realization conditions read off a census."""
    has_source: bool
    has_sink: bool
    euler_lhs: int
    euler_rhs: int

    @property
    def euler_ok(self) -> bool:
        return self.euler_lhs == self.euler_rhs

    @property
    def passed(self) -> bool:
        return self.has_source and self.has_sink and self.euler_ok

    @classmethod
    def from_census(cls, c: Census) -> MorseChecks:
        lhs = (c.n1 + c.n2) + (c.n5 + c.n6) - (c.n3 + c.n4)
        return cls(c.n1 >= 1, c.n6 >= 1, lhs, 2 - 2 * c.boundary_genus)

    def to_json(self) -> dict:
        return dict(self._asdict(), passed=self.passed)


def morse_checks(d: PrDiagram) -> MorseChecks:
    """Necessary conditions for realization: a source and a sink exist and
    sources + sinks - saddles of the boundary flow equals the boundary Euler
    characteristic."""
    return MorseChecks.from_census(census(d))


def is_optimal(d: PrDiagram, g: int) -> bool:
    """Minimal singularity structure on the genus-g handlebody: a connected
    surface, census (1,0,g,g,0,1) and green arcs disjoint from red arcs."""
    return _is_optimal(g, _require_valid(d))


def _is_optimal(g: int, analysis: _Analysis) -> bool:
    if analysis.chi is None or _census(analysis).as_tuple() != (1, 0, g, g, 0, 1):
        return False
    walks = analysis.walks
    return not any(walks[i].verts & walks[j].verts
                   for i, j in product(analysis.green.arc_copies, analysis.red.arc_copies))


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

def pr_canonical_code(d: PrDiagram, mirror: bool = True) -> bytes:
    """Canonical code of the labeled surface map (label kinds only, so curves
    of one family are interchangeable, matching diagram isomorphism)."""
    return cmb._key_code(_surface_key(d, _analyse(d), mirror), d.surface.n_darts, mirror)


def _surface_key(d: PrDiagram, analysis: _Analysis, mirror: bool) -> list:
    """d's canonical key, made once for each ``mirror`` and kept in d's analysis."""
    keys = analysis.keys
    if mirror not in keys:
        keys[mirror] = cmb._canonical_key(d.surface, mirror, analysis.fid)
    return keys[mirror]


def _face_invariant(d: PrDiagram, analysis: _Analysis) -> list:
    """The (hole bit, sorted label kinds of its darts) of every face of the
    surface, sorted; made from the analysis's face ids once asked for and
    kept there.  Equal keys give equal invariants, with or without the
    mirror, on connected and disconnected surfaces alike: an isomorphism of
    each component takes faces onto faces with their labels and hole bits,
    and alpha takes each face onto a face of the mirror with the same labels
    and hole bit.  The invariant is of the cells the key is made
    of; if the key is ever made of another structure, it must move with it."""
    if analysis.invariant is None:
        kinds: dict[int, list[str]] = {f: [] for f in set(analysis.fid)}
        for f, lb in zip(analysis.fid, d.surface.labels):
            kinds[f].append(lb.kind._value_)
        analysis.invariant = sorted([(analysis.hole[f], sorted(ks)) for f, ks in kinds.items()])
    return analysis.invariant


def equivalent(a: PrDiagram, b: PrDiagram, mirror: bool = True) -> bool:
    """Equivalence of the recorded flows as isomorphism of the diagrams: a
    label-preserving isomorphism of the two cell structures (with
    ``mirror``, orientation-reversing ones too), decided by canonical keys.
    It is not topological equivalence: subdividing a curve's edges changes
    the cell structure, so a diagram and its subdivision are told apart.
    Unless b's key is held, the answer is False, with no key made, when the
    face invariants differ (_face_invariant); else the two keys are
    compared, each made unless held (_surface_key)."""
    held_a, held_b = _require_valid(a), _require_valid(b)
    if mirror not in held_b.keys and _face_invariant(a, held_a) != _face_invariant(b, held_b):
        return False
    return _surface_key(a, held_a, mirror) == _surface_key(b, held_b, mirror)


# ---------------------------------------------------------------------------
# Chord diagram conversions (optimal handlebody flows)
# ---------------------------------------------------------------------------

def to_colored_chord(d: PrDiagram,
                     sym: SymmetryConvention = DEFAULT_SYMMETRY) -> ColoredChordDiagram:
    """Read the circle of the disk left by cutting the red arcs: the green
    chord endpoints and one mark per red arc side, in circular order.  The
    result is normalized to its canonical class representative
    (_least_colored).

    The circle is read on the uncut surface.  Arcs end on distinct boundary
    vertices, no vertex ends both a u and a v arc, and arc interiors avoid
    the boundary (properties 1 and 3), so the cut changes the hole faces
    only at the red arcs' ends; and the red side of an optimal diagram is
    one disk.  So the circle is the hole segments joined by the two sides of
    each red arc, each met once.  The walk starts on the least hole id and
    follows the hole faces until it is back there.  At a green arc's end it
    marks a green point; at a red arc's end it marks a red point, runs along
    that arc and leaves its other end by its one hole dart."""
    analysis = _require_valid(d)
    g = len(analysis.green.arc_copies)
    if not _is_optimal(g, analysis):
        raise NotOptimal("chord conversion requires an optimal diagram")
    if g == 0:
        raise NotOptimal("a chord diagram needs genus >= 1")
    m = d.surface
    alpha, sigma, at = m.alpha, m.sigma, analysis.at
    arc_end = {}   # an arc end's hole dart -> (color, arc, hole dart to leave by)
    for color, side in ((GREEN, analysis.green), (RED, analysis.red)):
        for ci in side.arc_copies:
            ends = [at[v] for v in analysis.walks[ci].ends]
            for x, leave in zip(ends, ends[::-1] if color == RED else ends):
                arc_end[x] = (color, ci, leave)

    start = x = min(m.holes)
    colors, arcs = [], []
    while True:
        x = sigma[alpha[x]]   # the hole dart leaving the vertex reached
        if x in arc_end:
            color, ci, x = arc_end[x]
            colors.append(color)
            arcs.append(ci)
        if x == start:
            break
    where: dict[int, list[int]] = {}   # arc -> its two points
    for pos, ci in enumerate(arcs):
        where.setdefault(ci, []).append(pos)
    match = [sum(where[ci]) - pos for pos, ci in enumerate(arcs)]
    return colored_from_point_colors(*_least_colored(match, colors, sym))


def from_colored_chord(ccd: ColoredChordDiagram) -> PrDiagram:
    """Rebuild the surface: a disk whose green chords become green arcs and
    whose red chord sides are glued in pairs into red arcs."""
    base = ccd.base
    pts = base.points
    if pts % 4 != 0:
        raise InvalidColoring("an optimal coloring has 4g points")
    g = pts // 4
    greens = ccd.green_chords()
    reds = ccd.red_chords()
    if len(greens) != g or len(reds) != g:
        raise InvalidColoring(f"expected {g} chords of each color")
    if _crossing_within(_crossing_masks(base.match)[0], ccd.colors, GREEN):
        raise InvalidColoring("green chords must be pairwise non-crossing")
    if face_count(base) != 1:
        raise InvalidColoring("base diagram must have one face")

    # Edge k is darts 2k and 2k + 1: boundary arc p -> p + 1 is edge p, then
    # come the green chords and the red seams.  Dart 2p leaves point p and
    # 2p - 1 enters it.  Chord a-b on darts e, e + 1 turns (2a, e, 2a - 1) and
    # (2b, e + 1, 2b - 1) if green; a red seam swaps 2a and 2b, gluing the sides.
    n = 2 * pts + 4 * g
    alpha = [d ^ 1 for d in range(n)]
    sigma = [0] * n
    labels = [cmb._BDY] * n
    curves = []
    for k, (a, b) in enumerate(greens + reds):
        green = k < g
        e = 2 * (pts + k)
        x, y = (2 * a, 2 * b) if green else (2 * b, 2 * a)
        into_a, into_b = (2 * a - 1) % (2 * pts), 2 * b - 1
        sigma[x], sigma[e], sigma[into_a] = e, into_a, x
        sigma[y], sigma[e + 1], sigma[into_b] = e + 1, into_b, y
        lb = CurveLabel(_SIDE[green][0], k % g)
        labels[e] = labels[e + 1] = lb
        curves.append(EmbeddedCurve((e,), False, lb))

    fid = cmb._face_ids(alpha, sigma)
    m = CombMap(tuple(alpha), tuple(sigma), tuple(labels), frozenset(fid[0:2 * pts:2]))
    return PrDiagram(m, tuple(curves))


# ---------------------------------------------------------------------------
# Boundary flow reconstruction
# ---------------------------------------------------------------------------

def boundary_restriction(d: PrDiagram) -> BoundaryFlowGraph:
    """Separatrix graph of the flow restricted to the 3-manifold boundary.

    Green regions carry the sources (one per region; a region holding a
    surgery cap is sourced by that cycle's type-2 point), arcs carry the
    saddles, red regions the sinks.  Each saddle receives one stable
    separatrix from the source of the region on each of its two sides and
    sends one unstable separatrix into the red region at each endpoint
    (green arcs; symmetrically for red).  Source placement inside a region
    is a canonical choice; only role counts, the Euler relation and
    region-incidence degrees are contractual.
    """
    analysis = _require_valid(d)
    c = _census(analysis)
    green, red = analysis.green, analysis.red

    vertices = []
    edges = []

    def add_vertex(ptype):
        vid = len(vertices)
        vertices.append(FlowVertex(vid, FIXED_POINT_TYPES[ptype].role, ptype))
        return vid

    def regions(side, cap_type, plain_type):
        """Region -> point: a cap_type point per cap, a region's first cap
        its point, and a plain_type point in each capless region."""
        point = {}
        for comp in side.cap_comp:
            point.setdefault(comp, add_vertex(cap_type))
        for comp in range(side.n_components):
            if comp not in point:
                point[comp] = add_vertex(plain_type)
        return point

    source = regions(green, 2, 1)
    saddle = {ci: add_vertex(3) for ci in green.arc_copies}
    saddle.update((ci, add_vertex(4)) for ci in red.arc_copies)
    sink = regions(red, 5, 6)

    # No curve of the other color passes through an arc end (properties 1
    # and 3), so every corner there lies in one piece of the other color's
    # reduction, and so does the cell of the end's hole dart: the face
    # across its boundary edge, at one of those corners.
    for reduction in (green, red):
        for ci, copies in reduction.arc_copies.items():
            sides = [darts[0] for darts in copies]   # P side, then Q side
            ends = [analysis.at[v] for v in analysis.walks[ci].ends]
            into, out = (sides, ends) if reduction is green else (ends, sides)
            edges += [(source[green.comp_of_dart[t]], saddle[ci]) for t in into]
            edges += [(saddle[ci], sink[red.comp_of_dart[t]]) for t in out]

    return BoundaryFlowGraph(tuple(vertices), tuple(edges), c.boundary_genus)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def pr_to_json(d: PrDiagram) -> dict:
    out = map_to_json(d.surface)
    out["curves"] = [
        {
            "family": c.label.kind.value,
            "index": c.label.index,
            "edges": list(c.edges),
            "closed": c.closed,
        }
        for c in d.curves
    ]
    return out


def pr_from_json(obj: dict) -> PrDiagram:
    """The diagram of a JSON object in the flow-diagram format: a map
    (map_from_json) with an optional curve registry.  A missing or mistyped
    field is a ValueError naming its path; an unknown curve family is a
    MapError."""
    m = map_from_json(obj)
    check(obj, FLOW)
    curves = []
    for k, item in enumerate(obj.get("curves", ())):
        family = item["family"]
        kind = cmb._KIND_BY_JSON.get(family) if type(family) is str else None
        if kind in (None, CurveKind.BDY):
            raise MapError(f"curves[{k}].family: unknown curve family {family!r}")
        curves.append(EmbeddedCurve(tuple(item["edges"]), item["closed"],
                                    CurveLabel(kind, item.get("index"))))
    return PrDiagram(m, tuple(curves))
