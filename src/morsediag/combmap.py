"""Edge-labeled combinatorial maps for compact oriented surfaces with boundary.

A surface is encoded as a closed combinatorial map (rotation system): darts
0..2E-1, a fixed-point-free involution ``alpha`` pairing the two darts of each
edge, and a permutation ``sigma`` giving the counterclockwise order of darts
around each vertex.  Faces are the orbits of sigma∘alpha.  Boundary circles of
the surface bound designated *hole* faces, so one uniform closed-map engine
serves surfaces with boundary; the Euler characteristic is corrected by the
hole count.

Edges carry curve labels (boundary, green/red arcs and cycles) so that curve
systems live directly on the map and canonical forms are label-aware.
"""

from __future__ import annotations

from enum import Enum
from itertools import compress, islice
from operator import eq
from typing import Iterable, NamedTuple, Optional, Sequence

from ._formats import MAP, check


class MapError(ValueError):
    """Base class for structural errors in combinatorial maps."""


class NonInvolution(MapError):
    pass


class LabelMismatch(MapError):
    pass


class CurveNotEmbedded(MapError):
    pass


class CurveNotClosed(MapError):
    pass


class CurveKind(Enum):
    """Label kinds: boundary segments and the four curve families."""

    BDY = "bdy"
    U_GREEN_ARC = "u"
    U_GREEN_CYCLE = "U"
    V_RED_ARC = "v"
    V_RED_CYCLE = "V"


# Fixed ordinal used in canonical codes, keyed by the kind's JSON value; indices
# are deliberately excluded so that isomorphism permutes curves within a family
# (curves of the same type map to curves of the same type).  The key is
# ``kind._value_`` because a str hashes in C, where ``Enum.__hash__`` is a
# Python call per dart.
_KIND_ORD = {"bdy": 0, "u": 1, "U": 2, "v": 3, "V": 4}

_KIND_BY_JSON = {k.value: k for k in CurveKind}


class CurveLabel(NamedTuple):
    """An edge's label: its kind and, on a curve, the curve's index."""
    kind: CurveKind
    index: Optional[int] = None


_BDY = CurveLabel(CurveKind.BDY)


class CombMap(NamedTuple):
    """Immutable labeled combinatorial map, a named tuple of its fields.

    ``alpha`` and ``sigma`` are permutations of 0..n_darts-1, ``labels`` holds
    one CurveLabel per dart (both darts of an edge agree), ``holes`` is the
    set of face ids (smallest dart of the face orbit) marked as holes.  It
    equals by all four fields but hashes by alpha, sigma and holes, which
    hash in C, where a label's hash is a Python call per dart; so maps that
    differ only in labels share a hash.
    """

    alpha: tuple[int, ...]
    sigma: tuple[int, ...]
    labels: tuple[CurveLabel, ...]
    holes: frozenset[int]

    def __hash__(self) -> int:
        return hash((self.alpha, self.sigma, self.holes))

    @property
    def n_darts(self) -> int:
        return len(self.alpha)

    def edge_ids(self) -> list[int]:
        return [d for d, a in enumerate(self.alpha) if d < a]


def faces(m: CombMap) -> list[tuple[int, ...]]:
    """Face orbits of sigma∘alpha, smallest dart first, sorted."""
    sigma = m.sigma
    phi = [sigma[a] for a in m.alpha]
    seen = [False] * len(phi)
    out = []
    for start in range(len(phi)):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = phi[d]
        out.append(tuple(cyc))
    return out


def _orbit_ids(perm: Sequence[int]) -> list[int]:
    """element -> smallest element of its orbit."""
    ids = [-1] * len(perm)
    for start in range(len(perm)):
        d = start
        while ids[d] < 0:
            ids[d] = start
            d = perm[d]
    return ids


def _face_ids(alpha: Sequence[int], sigma: Sequence[int]) -> list[int]:
    """dart -> face id (smallest dart of its orbit under sigma∘alpha)."""
    return _orbit_ids([sigma[a] for a in alpha])


def face_table(m: CombMap) -> dict[int, int]:
    """dart -> face id (smallest dart of its face orbit)."""
    return dict(enumerate(_face_ids(m.alpha, m.sigma)))


def _component_index(alpha: Sequence[int], sigma: Sequence[int]) -> list[int]:
    """dart -> connected component, numbered in order of smallest dart."""
    comp = [-1] * len(alpha)
    ncomp = 0
    for start in range(len(alpha)):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = ncomp
        while stack:
            d = stack.pop()
            a = alpha[d]
            if comp[a] < 0:
                comp[a] = ncomp
                stack.append(a)
            s = sigma[d]
            if comp[s] < 0:
                comp[s] = ncomp
                stack.append(s)
        ncomp += 1
    return comp


def _is_connected(alpha: Sequence[int], sigma: Sequence[int]) -> bool:
    return max(_component_index(alpha, sigma), default=-1) == 0


def _boundary_vertices(m: CombMap, vid: Sequence[int], in_hole: Sequence[bool]) -> list[bool]:
    """vertex id -> whether the vertex has a corner in a hole face, from the
    map's dart -> vertex id and dart -> whether in a hole face.  A vertex
    with two such corners would pinch the surface: MapError names its two
    smallest corner darts."""
    corner = [-1] * m.n_darts
    for x, s in enumerate(m.sigma):
        if in_hole[s]:
            v = vid[x]
            if corner[v] >= 0:
                raise MapError(f"vertex has two boundary corners (darts {corner[v]} and {x})")
            corner[v] = x
    return [c >= 0 for c in corner]


def build_map(dart_count: int,
              alpha: Sequence[int],
              sigma: Sequence[int],
              labels: Optional[Sequence[CurveLabel]] = None,
              hole_faces: Iterable[int] = ()) -> CombMap:
    """Validate and construct a CombMap.

    ``labels`` may be None (all edges boundary-plain), per-dart, or per-edge
    keyed by edge id via a dict, which names one dart of each labeled edge
    (LabelMismatch if it names both).  ``hole_faces`` holds face ids
    (smallest dart of the orbit).  The map may be disconnected.
    """
    if len(alpha) != dart_count or len(sigma) != dart_count:
        raise MapError("alpha/sigma size does not match dart count")
    if sorted(alpha) != list(range(dart_count)):
        raise MapError("alpha is not a permutation")
    if sorted(sigma) != list(range(dart_count)):
        raise MapError("sigma is not a permutation")
    for d in range(dart_count):
        if alpha[d] == d or alpha[alpha[d]] != d:
            raise NonInvolution(f"alpha is not a fixed-point-free involution at dart {d}")

    if labels is None:
        lab = tuple(_BDY for _ in range(dart_count))
    elif isinstance(labels, dict):
        full = [_BDY] * dart_count
        for edge, lb in labels.items():
            if not 0 <= edge < dart_count:
                raise LabelMismatch(f"label edge {edge} is not a dart of the map")
            if alpha[edge] in labels:
                raise LabelMismatch(f"edge {min(edge, alpha[edge])} is labeled twice")
            full[edge] = lb
            full[alpha[edge]] = lb
        lab = tuple(full)
    else:
        lab = tuple(labels)
        if len(lab) != dart_count:
            raise LabelMismatch("per-dart labels do not match dart count")
        for d in range(dart_count):
            if lab[d] != lab[alpha[d]]:
                raise LabelMismatch(f"darts of one edge carry different labels at dart {d}")

    m = CombMap(tuple(alpha), tuple(sigma), lab, frozenset(hole_faces))
    fid = _face_ids(alpha, sigma)
    for h in m.holes:
        if not (0 <= h < dart_count and fid[h] == h):
            raise MapError(f"hole id {h} is not a face id")
    in_hole = [f in m.holes for f in fid]
    for d in range(dart_count):
        if in_hole[d] and lab[d].kind is not CurveKind.BDY:
            raise LabelMismatch(f"edge bounding a hole is not labeled bdy at dart {d}")
    _boundary_vertices(m, _orbit_ids(sigma), in_hole)
    return m


def components(m: CombMap) -> list[CombMap]:
    """Connected components as separate maps with renumbered darts; the
    empty map has none."""
    n = m.n_darts
    comp = _component_index(m.alpha, m.sigma)
    ncomp = max(comp, default=-1) + 1
    if ncomp == 1:
        return [m]
    new_id = [0] * n
    out = []
    for c in range(ncomp):
        darts = [d for d in range(n) if comp[d] == c]
        for i, d in enumerate(darts):
            new_id[d] = i
        alpha = tuple(new_id[m.alpha[d]] for d in darts)
        sigma = tuple(new_id[m.sigma[d]] for d in darts)
        fid = _face_ids(alpha, sigma)
        holes = frozenset(fid[new_id[h]] for h in m.holes if comp[h] == c)
        out.append(CombMap(alpha, sigma, tuple(m.labels[d] for d in darts), holes))
    return out


def euler_genus(m: CombMap) -> tuple[int, int, int]:
    """(chi, genus, boundary_count) of a connected map.

    chi = V - E + interior faces; boundary circles are the hole faces;
    genus from chi = 2 - 2g - b, which every connected map meets with g >= 0.
    """
    if not _is_connected(m.alpha, m.sigma):
        raise MapError("euler_genus requires a connected map")
    b = len(m.holes)
    chi = (len(set(_orbit_ids(m.sigma))) - m.n_darts // 2
           + len(set(_face_ids(m.alpha, m.sigma))) - b)
    return chi, (2 - b - chi) // 2, b


class EmbeddedCurve(NamedTuple):
    """A simple curve drawn along map edges.

    ``edges`` are edge ids in traversal order; an open curve joins two
    distinct vertices, a closed one returns to its start.
    """

    edges: tuple[int, ...]
    closed: bool
    label: CurveLabel


def _dart_walk(m: CombMap, curve: EmbeddedCurve,
               vtab: Sequence[int]) -> tuple[list[int], list[int]]:
    """The oriented dart sequence t_1..t_k traversing a curve whose edges are
    distinct edge ids of the map, and the vertex ids the walk visits in
    order (a closed curve's start again at the end).

    t_i is the dart of edge i at the vertex where the traversal enters it;
    ``vtab`` is the map's dart -> vertex id (``_orbit_ids(m.sigma)``).
    Orientation: the first edge runs into the least vertex it shares with
    the second, unless it is a loop; a loop or a one-edge curve starts at its
    edge id.  Raises CurveNotEmbedded for non-paths and non-simple curves."""
    edges, closed = curve.edges, curve.closed
    if not edges:
        raise CurveNotEmbedded("curve has no edges")
    alpha = m.alpha
    e = edges[0]
    walk = [e]   # an edge id is the smaller dart of its edge
    if len(edges) == 1:
        if closed and vtab[e] != vtab[alpha[e]]:
            raise CurveNotClosed(f"single-edge curve flagged closed does not loop (edge {e})")
        if not closed and vtab[e] == vtab[alpha[e]]:
            raise CurveNotEmbedded(f"open curve on a loop edge {e}")
    else:
        shared = {vtab[e], vtab[alpha[e]]} & {vtab[edges[1]], vtab[alpha[edges[1]]]}
        if not shared:
            raise CurveNotEmbedded("consecutive curve edges share no vertex")
        if vtab[e] == min(shared) != vtab[alpha[e]]:
            walk = [alpha[e]]
        for prev, e in zip(edges, edges[1:]):
            end = vtab[alpha[walk[-1]]]
            if vtab[e] == end:
                walk.append(e)
            elif vtab[alpha[e]] == end:
                walk.append(alpha[e])
            else:
                raise CurveNotEmbedded(f"curve edges {prev} and {e} do not chain")
    # Simplicity: traversal vertices must be distinct (up to closure).
    vseq = [vtab[walk[0]]] + [vtab[alpha[t]] for t in walk]
    if closed:
        if vseq[0] != vseq[-1]:
            raise CurveNotClosed("closed curve does not return to its start")
        inner = vseq[:-1]
    else:
        if vseq[0] == vseq[-1]:
            raise CurveNotEmbedded("open curve returns to its start vertex")
        inner = vseq
    if len(set(inner)) != len(inner):
        raise CurveNotEmbedded("curve visits a vertex twice")
    return walk, vseq


# The last two cm1 fields of an atom, by the atom's tail (2·kind + hole).
_TAIL_TEXT = [f"{t >> 1},{t & 1}" for t in range(10)]


def _least_trace(alpha: Sequence[int], roots: Sequence[tuple]) -> list:
    """The least BFS relabeling trace (visit sigma then alpha) over the
    (sigma, tail, root) ``roots``.  The atom of a dart is the int
    ``(s·n + a)·10 + tail[dart]``, where s and a are the ids of its sigma and
    alpha images and ``tail[dart]`` is twice its kind ordinal plus its hole
    bit, so atoms order as the tuples (s, a, kind, hole) do; an atom is fixed
    once its dart is dequeued.

    Two traces are alive at a time.  The best is kept as its BFS state and
    the atoms it has computed, and is extended by one atom only when a rival
    ties it that far.  A rival computes atoms until it differs, storing none;
    if smaller, it is the best from that atom on, with its own state.  The
    winner is finished once, at the end."""
    n = len(alpha)
    best = None
    for sigma, tail, root in roots:
        new_id = [-1] * n
        new_id[root] = 0
        order = [root]
        if best is None:   # the first root is the best, with no atom known
            best, bsig, btail, bid, border = [], sigma, tail, new_id, order
            continue
        known = len(best)
        for head, d in enumerate(order):
            s, a = sigma[d], alpha[d]
            if new_id[s] < 0:
                new_id[s] = len(order)
                order.append(s)
            if new_id[a] < 0:
                new_id[a] = len(order)
                order.append(a)
            atom = (new_id[s] * n + new_id[a]) * 10 + tail[d]
            if head == known:   # tied so far: the best's next atom
                bd = border[head]
                s, a = bsig[bd], alpha[bd]
                if bid[s] < 0:
                    bid[s] = len(border)
                    border.append(s)
                if bid[a] < 0:
                    bid[a] = len(border)
                    border.append(a)
                best.append((bid[s] * n + bid[a]) * 10 + btail[bd])
                known += 1
            ref = best[head]
            if atom != ref:
                break
        if atom < ref:   # not when tied to the last atom
            best = best[:head]
            best.append(atom)
            bsig, btail, bid, border = sigma, tail, new_id, order
    for bd in islice(border, len(best), None):   # finish the winner
        s, a = bsig[bd], alpha[bd]
        if bid[s] < 0:
            bid[s] = len(border)
            border.append(s)
        if bid[a] < 0:
            bid[a] = len(border)
            border.append(a)
        best.append((bid[s] * n + bid[a]) * 10 + btail[bd])
    return best


def _least_roots(m: CombMap, mirror: bool, fid: Sequence[int]) -> list[tuple]:
    """(sigma, tail, root) of each root of the map and, with ``mirror``, its
    mirror whose first atom is the least, from the map's dart -> face id
    ``fid``.  The first atom orders roots by class, 0 if sigma fixes the
    root ((0, 1) as ids), 1 if sigma and alpha agree on it ((1, 1)), else 2
    ((1, 2)), then by tail; any other root's trace is larger at its first
    atom.  The mirror's sigma, sigma's inverse, fixes the darts sigma fixes
    and takes alpha(d) to d = alpha(alpha(d)) iff sigma(d) = alpha(d); so one
    C-level scan of the map finds the least class of both, and the mirror's
    roots in it are the map's (class 0) or their alpha images (1, or 2:
    every dart).  The roots of least tail over both are returned, the map's
    in dart order, then the mirror's."""
    n = m.n_darts
    alpha, sigma = m.alpha, m.sigma
    holes = m.holes
    tail = [2 * _KIND_ORD[lb.kind._value_] + (f in holes) for lb, f in zip(m.labels, fid)]
    darts = roots = range(n)   # class 2 unless a root of class 0 or 1 is present
    for image in (darts, alpha):   # class 0, then class 1
        if any(map(eq, sigma, image)):
            roots = list(compress(darts, map(eq, sigma, image)))
            break
    found = [(sigma, tail, roots)]
    if mirror:
        inv = [0] * n
        for d, s in enumerate(sigma):
            inv[s] = d
        # alpha takes each face of m onto a face of the mirror, reversed, and
        # both darts of an edge have one kind
        found.append((inv, list(map(tail.__getitem__, alpha)),
                      list(map(image.__getitem__, roots))))
    least = min(min(map(tl.__getitem__, rts)) for _, tl, rts in found)
    return [(sg, tl, root) for sg, tl, rts in found for root in rts if tl[root] == least]


def _canonical_key(m: CombMap, mirror: bool, fid: Sequence[int]) -> list:
    """What ``canonical_code`` serialises: the least trace of a connected map,
    else the sorted codes of its components ([] if empty), from the map's
    dart -> face id ``fid``.  Keys are equal iff codes are."""
    best = _least_trace(m.alpha, _least_roots(m, mirror, fid)) if m.n_darts else None
    if best is None or len(best) == m.n_darts:   # a trace covers one component
        return best or []
    return sorted(canonical_code(c, mirror) for c in components(m))


# _DECIMAL[i] is str(i): _key_code reads an atom's ids here, not formatting
# them, and replaces it by one of twice the largest dart count it has seen.
_DECIMAL: list[str] = []


def _key_code(key: list, n: int, mirror: bool) -> bytes:
    """The cm1 code of the canonical key of a map with n darts."""
    if not key:
        return b"cm1|empty"
    head = f"cm1[{'dih' if mirror else 'rot'}]|n={n}|".encode("ascii")
    if len(key) < n:
        return head + b" ".join(key)
    global _DECIMAL
    ids = _DECIMAL   # read once: a table is never changed, only replaced
    if len(ids) < n:
        ids = _DECIMAL = list(map(str, range(2 * n)))
    n10 = 10 * n
    return head + ";".join([f"{ids[x // n10]},{ids[x // 10 % n]},{_TAIL_TEXT[x % 10]}"
                            for x in key]).encode("ascii")


def canonical_code(m: CombMap, mirror: bool = True) -> bytes:
    """Label-aware canonical form of a map.

    BFS relabeling from every root dart, on the map and (when ``mirror``)
    also on the orientation-reversed map; the lexicographically least trace
    is serialized.  Codes are equal iff the maps are isomorphic through a
    label-kind-preserving homeomorphism (orientation-reversing ones allowed
    iff ``mirror``).

    A trace covers its root's component, so it is shorter than the map
    exactly when the map is disconnected; then the code lists the codes of
    all its components, sorted, after the dart count, and with ``mirror``
    each component may be mirrored on its own, as a homeomorphism may."""
    return _key_code(_canonical_key(m, mirror, _face_ids(m.alpha, m.sigma)), m.n_darts, mirror)


# ---------------------------------------------------------------------------
# JSON map format
# ---------------------------------------------------------------------------

def map_to_json(m: CombMap) -> dict:
    """JSON-ready dict: hole/edge ids are the smallest dart of the orbit;
    edges missing from "labels" are boundary."""
    labels = []
    for e in m.edge_ids():
        lb = m.labels[e]
        if lb.kind is not CurveKind.BDY:
            labels.append({"edge": e, "kind": lb.kind.value, "index": lb.index})
    return {
        "darts": m.n_darts,
        "alpha": list(m.alpha),
        "sigma": list(m.sigma),
        "labels": labels,
        "holes": sorted(m.holes),
    }


def map_from_json(obj: dict) -> CombMap:
    """The map of a JSON object in the map format.  A missing or mistyped
    field is a ValueError naming its path (``_formats.check``); an unknown
    label kind, an edge labeled twice (by one dart or both), or a map that
    build_map refuses, is a MapError."""
    check(obj, MAP)
    alpha = obj["alpha"]
    lab = {}
    first = {}   # edge id -> index of the first entry labeling it
    for k, item in enumerate(obj.get("labels", ())):
        kind = item["kind"]
        label_kind = _KIND_BY_JSON.get(kind) if type(kind) is str else None
        if label_kind is None:
            raise MapError(f"labels[{k}].kind: unknown label kind {kind!r}")
        edge = item["edge"]
        e = min(edge, alpha[edge]) if 0 <= edge < len(alpha) else edge
        if first.setdefault(e, k) != k:
            raise LabelMismatch(f"labels[{k}].edge: edge {e} is labeled twice")
        lab[edge] = CurveLabel(label_kind, item.get("index"))
    return build_map(obj["darts"], alpha, obj["sigma"], lab, obj.get("holes", ()))
