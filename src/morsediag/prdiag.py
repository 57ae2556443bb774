"""The complete flow invariant: a surface with boundary carrying four curve
families (green arcs u and cycles U, red arcs v and cycles V).

A diagram records a Morse flow with fixed points on the boundary of an
oriented 3-manifold.  Well-formedness is the five-property criterion of the
realization theory; equivalence of flows is isomorphism of diagrams, decided
here by canonical codes of the labeled surface map.  The fixed-point census,
boundary-flow reconstruction, optimality test and the two chord-diagram
conversions for optimal handlebody flows live here as well.

Fixed point types on the boundary of a 3-manifold, by index (p, q) where
p + q is the dimension of the stable manifold and p its dimension within the
boundary flow:

    type 1 (0,0) source     type 2 (0,1) source with entering trajectory
    type 3 (1,0) saddle     type 4 (1,1) saddle
    type 5 (2,0) sink       type 6 (2,1) sink

Green data encodes types 1-3 (sources and u-saddles), red data types 4-6.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from . import combmap as cmb
from ._formats import FLOW, check
from .combmap import (
    CombMap,
    CurveKind,
    CurveLabel,
    EmbeddedCurve,
    MapError,
    canonical_code,
    curve_dart_walk,
    euler_genus,
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


@dataclass(frozen=True)
class FixedPointType:
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

_FAMILY_KIND = {
    "u": CurveKind.U_GREEN_ARC,
    "U": CurveKind.U_GREEN_CYCLE,
    "v": CurveKind.V_RED_ARC,
    "V": CurveKind.V_RED_CYCLE,
}
_KIND_FAMILY = {v: k for k, v in _FAMILY_KIND.items()}
_BDY = CurveLabel(CurveKind.BDY)


@cmb._keeps_hash
@dataclass(frozen=True)
class PrDiagram:
    """Surface map plus registry of embedded curves (grouped by label kind)."""

    surface: CombMap
    curves: tuple[EmbeddedCurve, ...]

    def family(self, kind: CurveKind) -> list[EmbeddedCurve]:
        return [c for c in self.curves if c.label.kind is kind]

    @property
    def u_arcs(self) -> list[EmbeddedCurve]:
        return self.family(CurveKind.U_GREEN_ARC)

    @property
    def u_cycles(self) -> list[EmbeddedCurve]:
        return self.family(CurveKind.U_GREEN_CYCLE)

    @property
    def v_arcs(self) -> list[EmbeddedCurve]:
        return self.family(CurveKind.V_RED_ARC)

    @property
    def v_cycles(self) -> list[EmbeddedCurve]:
        return self.family(CurveKind.V_RED_CYCLE)


@dataclass(frozen=True)
class PropertyVerdict:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ValidityReport:
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


@dataclass(frozen=True)
class Census:
    """Fixed point counts per type and the boundary-surface genus."""

    n1: int
    n2: int
    n3: int
    n4: int
    n5: int
    n6: int
    boundary_genus: int

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.n1, self.n2, self.n3, self.n4, self.n5, self.n6)

    def count(self, type_id: int) -> int:
        return self.as_tuple()[type_id - 1]

    def to_json(self) -> dict:
        out = {f"n{i}": v for i, v in enumerate(self.as_tuple(), start=1)}
        out["boundary_genus"] = self.boundary_genus
        return out


@dataclass(frozen=True)
class FlowVertex:
    id: int
    role: str
    point_type: int


@dataclass(frozen=True)
class BoundaryFlowGraph:
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

def _structure_errors(d: PrDiagram) -> Optional[str]:
    """Consistency of the curve registry with the map labels; None if clean."""
    m = d.surface
    owned = {}
    for ci, c in enumerate(d.curves):
        if c.label.kind is CurveKind.BDY:
            return f"curve {ci} labeled bdy"
        for e in c.edges:
            if not (0 <= e < m.n_darts) or m.edge_of(e) != e:
                return f"curve {ci} references non-edge {e}"
            if m.labels[e] != c.label:
                return f"edge {e} label does not match curve {ci}"
            if e in owned:
                return f"edge {e} belongs to two curves"
            owned[e] = ci
    for e in m.edge_ids():
        if m.labels[e].kind is CurveKind.BDY:
            if e in owned:
                return f"bdy edge {e} inside a curve"
        elif e not in owned:
            return f"labeled edge {e} belongs to no curve"
    return None


@dataclass
class _Walks:
    """Oriented dart walks of every curve, plus vertex incidence tables."""

    walk: dict[int, list[int]]            # curve index -> dart walk
    end_verts: dict[int, tuple[int, int]]  # arcs: (start vertex, end vertex)
    verts: dict[int, set[int]]            # curve index -> all vertices
    inner_verts: dict[int, set[int]]      # arcs: vertices minus endpoints


def _curve_walks(d: PrDiagram, vid: list[int]) -> _Walks:
    m = d.surface
    walk, end_verts, verts, inner = {}, {}, {}, {}
    for ci, c in enumerate(d.curves):
        w = curve_dart_walk(m, c, vid)
        walk[ci] = w
        vs = {vid[w[0]]}
        for t in w:
            vs.add(vid[m.alpha[t]])
        verts[ci] = vs
        if not c.closed:
            a, b = vid[w[0]], vid[m.alpha[w[-1]]]
            end_verts[ci] = (a, b)
            inner[ci] = vs - {a, b}
        else:
            inner[ci] = vs
    return _Walks(walk, end_verts, verts, inner)


def _assemble_cycles(d: PrDiagram, walks: _Walks, green: bool):
    """Maximal cycles alternating arcs and cycle-arcs via the left-turn rule
    (sigma-successor at shared vertices), plus closed cycle components.

    Returns (cycle dart walks, witness or None).
    """
    m = d.surface
    arc_kind = CurveKind.U_GREEN_ARC if green else CurveKind.V_RED_ARC
    cyc_kind = CurveKind.U_GREEN_CYCLE if green else CurveKind.V_RED_CYCLE
    cycles: list[list[int]] = []
    open_cycle_arcs = []
    arc_ids = []
    for ci, c in enumerate(d.curves):
        if c.label.kind is cyc_kind:
            if c.closed:
                cycles.append(walks.walk[ci])
            else:
                open_cycle_arcs.append(ci)
        elif c.label.kind is arc_kind:
            arc_ids.append(ci)

    # start-dart lookup for both orientations of every open component
    def oriented(ci):
        w = walks.walk[ci]
        return [(w[0], w), (m.alpha[w[-1]], [m.alpha[t] for t in reversed(w)])]

    big_start = {}
    for ci in open_cycle_arcs:
        for s, w in oriented(ci):
            big_start[s] = (ci, w)
    arc_start = {}
    for ci in arc_ids:
        for s, w in oriented(ci):
            arc_start[s] = (ci, w)

    used_big = set()
    used_arc = set()
    for ci in sorted(open_cycle_arcs):
        if ci in used_big:
            continue
        attempt = None
        for start_dart, start_walk in oriented(ci):
            trail = list(start_walk)
            seen_big = {ci}
            seen_arc = set()
            cur_walk = start_walk
            ok = True
            while True:
                # a cycle-arc just ended; the left turn must enter an arc
                arrival = m.alpha[cur_walk[-1]]
                nxt = m.sigma[arrival]
                if nxt not in arc_start:
                    ok = False
                    break
                aj, aw = arc_start[nxt]
                if aj in seen_arc or aj in used_arc:
                    ok = False
                    break
                seen_arc.add(aj)
                trail += aw
                cur_walk = aw
                # the arc ended; close onto the start or enter a cycle-arc
                arrival = m.alpha[cur_walk[-1]]
                nxt = m.sigma[arrival]
                if nxt == start_dart:
                    break
                if nxt not in big_start:
                    ok = False
                    break
                bj, bw = big_start[nxt]
                if bj in seen_big or bj in used_big:
                    ok = False
                    break
                seen_big.add(bj)
                trail += bw
                cur_walk = bw
            if ok:
                attempt = (trail, seen_big, seen_arc)
                break
        if attempt is None:
            return None, (f"open {cyc_kind.value!r} component {ci} does not close "
                          f"into an alternating left-turn cycle")
        trail, seen_big, seen_arc = attempt
        used_big |= seen_big
        used_arc |= seen_arc
        cycles.append(trail)
    return cycles, None


@dataclass
class _SideReduction:
    """Result of the cut-and-surger reduction of one color side."""

    final: CombMap
    comp_of_dart: list[int]
    n_components: int
    non_disk: Optional[int]                   # first component that is not a disk
    n_cycles: int
    cap_comp: list[int]                       # per cycle: component of its cap
    arc_sides: dict[int, tuple[int, int]]     # arc curve idx -> (comp P, comp Q)
    arc_end_darts: dict[int, tuple[int, int]] # arc curve idx -> original end darts
    # arc curve idx -> (P-side darts, Q-side darts) of its cut, in walk order
    arc_copies: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]


def _side_reduction(d: PrDiagram, walks: _Walks, cycles: list[list[int]],
                    green: bool, fid: list[int]) -> _SideReduction:
    """Surger every assembled cycle (corner-side copy erased, the other copy
    keeps curve labels), then cut every arc of the family, all on one working
    map started from the surface's face ids ``fid``; components, faces and
    vertices are counted once, at the end."""
    arc_kind = CurveKind.U_GREEN_ARC if green else CurveKind.V_RED_ARC
    arc_ids = sorted(ci for ci, c in enumerate(d.curves)
                     if c.label.kind is arc_kind)
    arc_walks = {ci: list(walks.walk[ci]) for ci in arc_ids}
    work = cmb._WorkMap(d.surface, fid)
    cap_darts = []
    for wk in sorted(cycles, key=min):
        copy_q, _ = work.cut(wk, True, _BDY, None, slits_are_holes=False)
        # arcs embedded in this cycle survive as their label-keeping copies;
        # copy_q is keyed by exactly the darts of the cut cycle
        for ci in arc_ids:
            arc_walks[ci] = [copy_q.get(t, t) for t in arc_walks[ci]]
        cap_darts.append(copy_q[wk[0]])
    arc_copies = {}
    for ci in arc_ids:
        aw = arc_walks[ci]
        copy_q, _ = work.cut(aw, False, _BDY, _BDY, slits_are_holes=True)
        arc_copies[ci] = (tuple(aw), tuple(copy_q[t] for t in aw))
    comp = cmb._component_index(work.alpha, work.sigma)
    fid = work.face_ids()
    # per component: chi = V - E + interior faces, and the hole count
    ncomp = max(comp, default=0) + 1
    chi = [-(comp.count(c) // 2) for c in range(ncomp)]
    holes = [0] * ncomp
    for v in set(cmb._orbit_ids(work.sigma)):
        chi[comp[v]] += 1
    for f in set(fid):
        if work.in_hole[f]:
            holes[comp[f]] += 1
        else:
            chi[comp[f]] += 1
    end_darts = {}
    for ci in arc_ids:
        w = walks.walk[ci]
        end_darts[ci] = (w[0], d.surface.alpha[w[-1]])
    return _SideReduction(
        final=work.finish(fid, comp),
        comp_of_dart=comp,
        n_components=ncomp,
        non_disk=next((k for k in range(ncomp) if (chi[k], holes[k]) != (1, 1)), None),
        n_cycles=len(cycles),
        cap_comp=[comp[cd] for cd in cap_darts],
        arc_sides={ci: (comp[p[0]], comp[q[0]]) for ci, (p, q) in arc_copies.items()},
        arc_end_darts=end_darts,
        arc_copies=arc_copies,
    )

# ---------------------------------------------------------------------------
# Validation (the five-property criterion)
# ---------------------------------------------------------------------------

@dataclass
class _Analysis:
    """One validity analysis of a diagram: the report and, for a valid
    diagram, the curve walks, both side reductions and the surface's Euler
    characteristic (None if the surface is disconnected).

    An analysis is shared by every call on an equal diagram (``_analyse``
    keeps the last two), so no caller may change it."""

    report: ValidityReport
    walks: Optional[_Walks] = None
    green: Optional[_SideReduction] = None
    red: Optional[_SideReduction] = None
    chi: Optional[int] = None


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
    5. cutting along all u-arcs and surgering every assembled green cycle
       leaves a union of disks (same for red).
    """
    return _analyse(d).report


# Diagrams are frozen values, so the analyses of the last two are reused by
# later calls on equal diagrams; two is the arity of equivalent(a, b).
@lru_cache(maxsize=2)
def _analyse(d: PrDiagram) -> _Analysis:
    m = d.surface
    vid = cmb._orbit_ids(m.sigma)   # dart -> vertex id, its smallest dart
    fid = cmb._face_ids(m.alpha, m.sigma)
    err = _structure_errors(d)
    if err is None:
        try:
            walks = _curve_walks(d, vid)
            boundary_vertex = cmb._boundary_vertices(m, vid, fid)
        except MapError as exc:
            err = str(exc)
    if err is not None:
        rest = ("p2_cycle_endpoints", "p3_disjointness", "p4_left_turn_cycles",
                "p5_disk_reduction")
        return _Analysis(ValidityReport(
            (PropertyVerdict("p1_placement", False, err),)
            + tuple(PropertyVerdict(name, False, "prerequisite failed") for name in rest)))

    # Property 1
    verdicts = []
    p1_witness = ""
    for ci, c in enumerate(d.curves):
        if c.label.kind in (CurveKind.U_GREEN_ARC, CurveKind.V_RED_ARC):
            if c.closed:
                p1_witness = f"curve {ci}: arcs must be open"
                break
            a, b = walks.end_verts[ci]
            if not (boundary_vertex[a] and boundary_vertex[b]):
                p1_witness = f"curve {ci}: endpoint not on the boundary"
                break
        bad = [v for v in walks.inner_verts[ci] if boundary_vertex[v]]
        if bad:
            p1_witness = f"curve {ci}: interior touches boundary vertex (dart {bad[0]})"
            break
    verdicts.append(PropertyVerdict("p1_placement", not p1_witness, p1_witness))

    # Property 2; an arc flagged closed, a p1 failure, has no endpoints
    u_ends, v_ends = set(), set()
    for ci, c in enumerate(d.curves):
        if c.label.kind is CurveKind.U_GREEN_ARC:
            u_ends.update(walks.end_verts.get(ci, ()))
        elif c.label.kind is CurveKind.V_RED_ARC:
            v_ends.update(walks.end_verts.get(ci, ()))
    p2_witness = ""
    for ci, c in enumerate(d.curves):
        if c.closed:
            continue
        if c.label.kind is CurveKind.U_GREEN_CYCLE:
            allowed = u_ends
        elif c.label.kind is CurveKind.V_RED_CYCLE:
            allowed = v_ends
        else:
            continue
        for v in walks.end_verts[ci]:
            if v not in allowed:
                p2_witness = f"curve {ci}: endpoint (dart {v}) is not an arc endpoint"
                break
        if p2_witness:
            break
    verdicts.append(PropertyVerdict("p2_cycle_endpoints", not p2_witness, p2_witness))

    # Property 3
    fam = {kind: [] for kind in _KIND_FAMILY}   # kind -> its curve indices
    for ci, c in enumerate(d.curves):
        fam[c.label.kind].append(ci)
    p3_witness = ""
    for kind in (CurveKind.U_GREEN_ARC, CurveKind.U_GREEN_CYCLE,
                 CurveKind.V_RED_ARC, CurveKind.V_RED_CYCLE):
        ids = fam[kind]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                shared = walks.verts[ids[i]] & walks.verts[ids[j]]
                if shared:
                    p3_witness = (f"curves {ids[i]} and {ids[j]} ({kind.value}) share "
                                  f"vertex (dart {min(shared)})")
                    break
            if p3_witness:
                break
        if p3_witness:
            break
    if not p3_witness:
        for arc_kind, cyc_kind in ((CurveKind.U_GREEN_ARC, CurveKind.U_GREEN_CYCLE),
                                   (CurveKind.V_RED_ARC, CurveKind.V_RED_CYCLE)):
            for ai in fam[arc_kind]:
                a_end = set(walks.end_verts.get(ai, ()))
                for bi in fam[cyc_kind]:
                    b_end = set(walks.end_verts.get(bi, ()))
                    shared = walks.verts[ai] & walks.verts[bi]
                    if shared - (a_end & b_end):
                        p3_witness = (f"curves {ai} and {bi} meet away from shared "
                                      f"endpoints")
                        break
                if p3_witness:
                    break
            if p3_witness:
                break
    if not p3_witness and (u_ends & v_ends):
        v0 = min(u_ends & v_ends)
        p3_witness = f"u and v arcs share endpoint (dart {v0})"
    verdicts.append(PropertyVerdict("p3_disjointness", not p3_witness, p3_witness))

    # Property 4
    green_cycles, gwit = _assemble_cycles(d, walks, green=True)
    red_cycles, rwit = _assemble_cycles(d, walks, green=False)
    p4_witness = gwit or rwit or ""
    verdicts.append(PropertyVerdict("p4_left_turn_cycles", not p4_witness, p4_witness))

    # Property 5
    if p4_witness or p1_witness or p3_witness:
        verdicts.append(PropertyVerdict("p5_disk_reduction", False, "prerequisite failed"))
        return _Analysis(ValidityReport(tuple(verdicts)))
    p5_witness = ""
    sides = []
    for green, cycles in ((True, green_cycles), (False, red_cycles)):
        try:
            side = _side_reduction(d, walks, cycles, green, fid)
        except MapError as exc:
            p5_witness = f"{'green' if green else 'red'} reduction failed: {exc}"
            break
        sides.append(side)
        k = side.non_disk
        if k is not None:
            shape = euler_genus(cmb.components(side.final, side.comp_of_dart)[k])
            p5_witness = (f"{'green' if green else 'red'} reduction component {k} "
                          f"is not a disk (chi, genus, boundary) = {shape}")
            break
    verdicts.append(PropertyVerdict("p5_disk_reduction", not p5_witness, p5_witness))
    report = ValidityReport(tuple(verdicts))
    # Cutting never joins components, so a side reduction in one piece shows
    # the surface connected without a search.
    if p5_witness or (min(side.n_components for side in sides) > 1
                      and not cmb._is_connected(m.alpha, m.sigma)):
        return _Analysis(report, walks, *sides)
    # chi = V - E + interior faces, from the ids the analysis began with
    chi = len(set(vid)) - m.n_darts // 2 + len(set(fid)) - len(m.holes)
    return _Analysis(report, walks, *sides, chi=chi)


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
    return _census(d, _require_valid(d))


def _census(d: PrDiagram, analysis: _Analysis) -> Census:
    green, red = analysis.green, analysis.red
    n2 = green.n_cycles
    n5 = red.n_cycles
    n1 = green.n_components - n2
    n6 = red.n_components - n5
    n3 = len(d.u_arcs)
    n4 = len(d.v_arcs)
    if analysis.chi is None:   # as euler_genus refuses it
        raise MapError("euler_genus requires a connected map")
    chi_boundary = 2 * analysis.chi + 2 * n2 + 2 * n5
    if chi_boundary % 2 != 0 or chi_boundary > 2:
        raise InvalidDiagram(f"boundary Euler characteristic {chi_boundary}")
    return Census(n1, n2, n3, n4, n5, n6, (2 - chi_boundary) // 2)


@dataclass(frozen=True)
class MorseChecks:
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
        return {
            "has_source": self.has_source,
            "has_sink": self.has_sink,
            "euler_lhs": self.euler_lhs,
            "euler_rhs": self.euler_rhs,
            "passed": self.passed,
        }


def morse_checks(d: PrDiagram) -> MorseChecks:
    """Necessary conditions for realization: a source and a sink exist and
    sources + sinks - saddles of the boundary flow equals the boundary Euler
    characteristic."""
    return MorseChecks.from_census(census(d))


def is_optimal(d: PrDiagram, g: int) -> bool:
    """Minimal singularity structure on the genus-g handlebody: census
    (1,0,g,g,0,1) and green arcs disjoint from red arcs."""
    return _is_optimal(d, g, _require_valid(d))


def _is_optimal(d: PrDiagram, g: int, analysis: _Analysis) -> bool:
    if _census(d, analysis).as_tuple() != (1, 0, g, g, 0, 1):
        return False
    walks = analysis.walks
    u_ids = [ci for ci, cv in enumerate(d.curves)
             if cv.label.kind is CurveKind.U_GREEN_ARC]
    v_ids = [ci for ci, cv in enumerate(d.curves)
             if cv.label.kind is CurveKind.V_RED_ARC]
    for ui in u_ids:
        for vi in v_ids:
            if walks.verts[ui] & walks.verts[vi]:
                return False
    return True


# ---------------------------------------------------------------------------
# Equivalence
# ---------------------------------------------------------------------------

def pr_canonical_code(d: PrDiagram, mirror: bool = True) -> bytes:
    """Canonical code of the labeled surface map (label kinds only, so curves
    of one family are interchangeable, matching diagram isomorphism)."""
    return _surface_code(d.surface, mirror)


@lru_cache(maxsize=2)   # like _analyse: the codes of the last two surfaces
def _surface_code(m: CombMap, mirror: bool) -> bytes:
    return canonical_code(m, mirror=mirror)


def equivalent(a: PrDiagram, b: PrDiagram, mirror: bool = True) -> bool:
    """Topological equivalence of the recorded flows: label-preserving map
    isomorphism, decided by canonical-code equality."""
    _require_valid(a)
    _require_valid(b)
    return pr_canonical_code(a, mirror) == pr_canonical_code(b, mirror)


# ---------------------------------------------------------------------------
# Chord diagram conversions (optimal handlebody flows)
# ---------------------------------------------------------------------------

def to_colored_chord(d: PrDiagram,
                     sym: SymmetryConvention = DEFAULT_SYMMETRY) -> ColoredChordDiagram:
    """Cut the surface along the red arcs; the disk boundary then carries the
    green chord endpoints and one mark per red side, read off in circular
    order.  The result is normalized to its canonical class representative.

    The cut surface is the analysis's red side reduction: an optimal diagram
    has no red cycles, so that reduction cuts the red arcs and nothing else."""
    g = len(d.u_arcs)
    analysis = _require_valid(d)
    if not _is_optimal(d, g, analysis):
        raise NotOptimal("chord conversion requires an optimal diagram")
    if g == 0:
        raise NotOptimal("a chord diagram needs genus >= 1")
    red = analysis.red
    if red.n_components != 1:
        raise NotOptimal("red cut did not produce a single disk")
    m = red.final
    if len(m.holes) != 1:
        raise NotOptimal("cut surface has more than one boundary circle")
    side_of = {}   # edge id -> (v curve, side)
    for ci, copies in red.arc_copies.items():
        for side, darts in enumerate(copies):
            for t in darts:
                side_of[m.edge_of(t)] = (ci, side)
    vid = cmb._orbit_ids(m.sigma)
    vert_u = {vid[t]: ci for ci, ends in analysis.green.arc_end_darts.items()
              for t in ends}

    # walk the boundary circle from its hole id, the face's smallest dart
    (start,) = m.holes
    dart = start
    marks = []
    while True:
        v = vid[dart]
        if v in vert_u:
            marks.append(("u", vert_u[v]))
        e = m.edge_of(dart)
        if e in side_of:
            mk = ("v", side_of[e])
            if not (marks and marks[-1] == mk):
                marks.append(mk)
        dart = m.sigma[m.alpha[dart]]
        if dart == start:
            break
    if len(marks) > 1 and marks[0] == marks[-1] and marks[0][0] == "v":
        marks.pop()
    if len(marks) != 4 * g:
        raise NotOptimal(f"expected {4 * g} boundary marks, found {len(marks)}")

    pts = len(marks)
    match = [-1] * pts
    colors = [""] * pts
    where: dict[tuple, list[int]] = {}
    for pos, mk in enumerate(marks):
        key = ("u", mk[1]) if mk[0] == "u" else ("v", mk[1][0])
        where.setdefault(key, []).append(pos)
        colors[pos] = GREEN if mk[0] == "u" else RED
    for key, positions in where.items():
        if len(positions) != 2:
            raise NotOptimal(f"curve {key} meets the boundary circle {len(positions)} times")
        a, b = positions
        match[a], match[b] = b, a
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
    if _crossing_within(_crossing_masks(base.match), ccd.colors, GREEN):
        raise InvalidColoring("green chords must be pairwise non-crossing")
    if face_count(base) != 1:
        raise InvalidColoring("base diagram must have one face")

    n = 0
    def fresh():
        nonlocal n
        n += 1
        return n - 1

    arc = {p: (fresh(), fresh()) for p in range(pts)}  # boundary arc p -> p+1
    green_edge = {ch: (fresh(), fresh()) for ch in greens}
    seam = {ch: (fresh(), fresh()) for ch in reds}

    alpha = [0] * n
    for p in range(pts):
        d0, d1 = arc[p]
        alpha[d0], alpha[d1] = d1, d0
    for e in list(green_edge.values()) + list(seam.values()):
        alpha[e[0]], alpha[e[1]] = e[1], e[0]

    sigma = [0] * n
    def setrot(rot):
        for i, dart in enumerate(rot):
            sigma[dart] = rot[(i + 1) % len(rot)]

    # out of point p: arc[p][0]; into point p: arc[p-1][1]
    for p, col in enumerate(ccd.point_colors()):
        if col == GREEN:
            q = base.match[p]
            ud = green_edge[min(p, q), max(p, q)][0 if p < q else 1]
            setrot([arc[p][0], ud, arc[(p - 1) % pts][1]])
    for (a, b), e in seam.items():
        # merged endpoints: (a-, b+) and (a+, b-)
        setrot([arc[b][0], e[0], arc[(a - 1) % pts][1]])
        setrot([arc[a][0], e[1], arc[(b - 1) % pts][1]])

    labels = {}
    curves = []
    for i, ch in enumerate(greens):
        e = min(green_edge[ch])
        lb = CurveLabel(CurveKind.U_GREEN_ARC, i)
        labels[e] = lb
        curves.append(EmbeddedCurve((e,), False, lb))
    for i, ch in enumerate(reds):
        e = min(seam[ch])
        lb = CurveLabel(CurveKind.V_RED_ARC, i)
        labels[e] = lb
        curves.append(EmbeddedCurve((e,), False, lb))

    fid = cmb._face_ids(alpha, sigma)
    m = CombMap(tuple(alpha), tuple(sigma),
                tuple(labels.get(min(dd, alpha[dd]), _BDY) for dd in range(n)),
                frozenset(fid[arc[p][0]] for p in range(pts)))
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
    c = _census(d, analysis)
    green, red = analysis.green, analysis.red

    vertices = []
    edges = []

    def add_vertex(role, ptype):
        vid = len(vertices)
        vertices.append(FlowVertex(vid, role, ptype))
        return vid

    # one type-2 vertex per green cycle; capless regions get a type-1 source
    green_source = {}
    for comp in green.cap_comp:
        vid = add_vertex("source", 2)
        green_source.setdefault(comp, vid)
    for comp in range(green.n_components):
        if comp not in green_source:
            green_source[comp] = add_vertex("source", 1)

    u_ids = sorted(green.arc_sides)
    v_ids = sorted(red.arc_sides)
    saddle_of = {}
    for ci in u_ids:
        saddle_of[ci] = add_vertex("saddle", 3)
    for ci in v_ids:
        saddle_of[ci] = add_vertex("saddle", 4)

    red_sink = {}
    for comp in red.cap_comp:
        vid = add_vertex("sink", 5)
        red_sink.setdefault(comp, vid)
    for comp in range(red.n_components):
        if comp not in red_sink:
            red_sink[comp] = add_vertex("sink", 6)

    # green saddles: stable pair from adjacent green regions, unstable pair
    # into the red regions at the arc endpoints
    for ci in u_ids:
        sid = saddle_of[ci]
        for comp in green.arc_sides[ci]:
            edges.append((green_source[comp], sid))
        for dart in green.arc_end_darts[ci]:
            edges.append((sid, red_sink[red.comp_of_dart[dart]]))
    # red saddles: stable pair from the green regions at the endpoints,
    # unstable pair into adjacent red regions
    for ci in v_ids:
        sid = saddle_of[ci]
        for dart in red.arc_end_darts[ci]:
            edges.append((green_source[green.comp_of_dart[dart]], sid))
        for comp in red.arc_sides[ci]:
            edges.append((sid, red_sink[comp]))

    return BoundaryFlowGraph(tuple(vertices), tuple(edges), c.boundary_genus)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def pr_to_json(d: PrDiagram) -> dict:
    out = map_to_json(d.surface)
    out["curves"] = [
        {
            "family": _KIND_FAMILY[c.label.kind],
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
        kind = _FAMILY_KIND.get(family) if type(family) is str else None
        if kind is None:
            raise MapError(f"curves[{k}].family: unknown curve family {family!r}")
        curves.append(EmbeddedCurve(tuple(item["edges"]), item["closed"],
                                    CurveLabel(kind, item.get("index"))))
    return PrDiagram(m, tuple(curves))
