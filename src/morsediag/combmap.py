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

from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Optional, Sequence

from ._formats import MAP, check


class MapError(ValueError):
    """Base class for structural errors in combinatorial maps."""


class NonInvolution(MapError):
    pass


class DisconnectedUnlessFlagged(MapError):
    pass


class LabelMismatch(MapError):
    pass


class NonIntegerGenus(MapError):
    pass


class CurveNotEmbedded(MapError):
    pass


class ArcEndpointNotOnBoundary(MapError):
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

    @property
    def is_green(self) -> bool:
        return self in (CurveKind.U_GREEN_ARC, CurveKind.U_GREEN_CYCLE)

    @property
    def is_red(self) -> bool:
        return self in (CurveKind.V_RED_ARC, CurveKind.V_RED_CYCLE)


# Fixed ordinal used in canonical codes, keyed by the kind's JSON value; indices
# are deliberately excluded so that isomorphism permutes curves within a family
# (curves of the same type map to curves of the same type).  The key is
# ``kind._value_`` because a str hashes in C, where ``Enum.__hash__`` is a
# Python call per dart.
_KIND_ORD = {"bdy": 0, "u": 1, "U": 2, "v": 3, "V": 4}

_KIND_BY_JSON = {k.value: k for k in CurveKind}


def _keeps_hash(cls):
    """Class decorator for a frozen dataclass that is hashed often (every
    analysis cache lookup hashes its diagram): the hash of the field tuple,
    the value the generated ``__hash__`` gives, is computed on the first call
    and kept on the instance.  It never leaves the process, because string
    hashes are salted per process: pickles and copies leave it behind."""
    names = [f.name for f in fields(cls)]

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash(tuple(getattr(self, name) for name in names))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_keeps_hash
@dataclass(frozen=True)
class CurveLabel:
    kind: CurveKind
    index: Optional[int] = None


_BDY = CurveLabel(CurveKind.BDY)


@_keeps_hash
@dataclass(frozen=True)
class CombMap:
    """Immutable labeled combinatorial map.

    ``alpha`` and ``sigma`` are permutations of 0..n_darts-1, ``labels`` holds
    one CurveLabel per dart (both darts of an edge agree), ``holes`` is the
    set of face ids (smallest dart of the face orbit) marked as holes.
    """

    alpha: tuple[int, ...]
    sigma: tuple[int, ...]
    labels: tuple[CurveLabel, ...]
    holes: frozenset[int]
    allow_disconnected: bool = False

    @property
    def n_darts(self) -> int:
        return len(self.alpha)

    def edge_of(self, dart: int) -> int:
        """Edge id of a dart: the smaller dart of the alpha-pair."""
        return min(dart, self.alpha[dart])

    def edge_ids(self) -> list[int]:
        return [d for d in range(self.n_darts) if d < self.alpha[d]]


def _orbits(perm: Sequence[int]) -> list[tuple[int, ...]]:
    """Orbits of a permutation, each rotated to start at its smallest element,
    sorted by that element."""
    n = len(perm)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return out


def faces(m: CombMap) -> list[tuple[int, ...]]:
    """Face orbits of sigma∘alpha, smallest dart first, sorted."""
    phi = [m.sigma[m.alpha[d]] for d in range(m.n_darts)]
    return _orbits(phi)


def vertices(m: CombMap) -> list[tuple[int, ...]]:
    """Vertex orbits of sigma, smallest dart first, sorted."""
    return _orbits(m.sigma)


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


def vertex_table(m: CombMap) -> dict[int, int]:
    """dart -> vertex id (smallest dart of its sigma orbit)."""
    return dict(enumerate(_orbit_ids(m.sigma)))


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
    return max(_component_index(alpha, sigma), default=0) == 0


def _single_corner(corners: list[int]) -> Optional[int]:
    if len(corners) > 1:
        raise MapError(
            f"vertex has two boundary corners (darts {corners[0]} and {corners[1]})")
    return corners[0] if corners else None


def hole_corner_dart(m: CombMap, vertex_darts: Sequence[int],
                     fid: Sequence[int]) -> Optional[int]:
    """The dart x at this vertex whose corner (x -> sigma(x)) lies in a hole
    face, or None; ``fid`` is the map's dart -> face id.  The corner between
    x and sigma(x) belongs to the face orbit containing sigma(x)."""
    return _single_corner([x for x in vertex_darts if fid[m.sigma[x]] in m.holes])


def _boundary_vertices(m: CombMap, vid: Sequence[int], fid: Sequence[int]) -> list[bool]:
    """vertex id -> whether the vertex has a corner in a hole face, from the
    map's vertex and face ids.  A vertex with two such corners would pinch
    the surface: MapError names its two smallest corner darts."""
    corner = [-1] * m.n_darts
    for x, s in enumerate(m.sigma):
        if fid[s] in m.holes:
            v = vid[x]
            if corner[v] >= 0:
                _single_corner([corner[v], x])  # raises: a second corner
            corner[v] = x
    return [c >= 0 for c in corner]


def build_map(dart_count: int,
              alpha: Sequence[int],
              sigma: Sequence[int],
              labels: Optional[Sequence[CurveLabel]] = None,
              hole_faces: Iterable[int] = (),
              allow_disconnected: bool = False) -> CombMap:
    """Validate and construct a CombMap.

    ``labels`` may be None (all edges boundary-plain), per-dart, or per-edge
    keyed by edge id via a dict.  ``hole_faces`` holds face ids (smallest dart
    of the orbit).
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
    if not allow_disconnected and not _is_connected(alpha, sigma):
        raise DisconnectedUnlessFlagged(
            "map is disconnected and not flagged multi-component (dart 0)")

    if labels is None:
        lab = tuple(_BDY for _ in range(dart_count))
    elif isinstance(labels, dict):
        full = [_BDY] * dart_count
        for edge, lb in labels.items():
            if not 0 <= edge < dart_count:
                raise LabelMismatch(f"label edge {edge} is not a dart of the map")
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

    m = CombMap(tuple(alpha), tuple(sigma), lab, frozenset(hole_faces),
                allow_disconnected)
    fid = _face_ids(alpha, sigma)
    for h in m.holes:
        if not (0 <= h < dart_count and fid[h] == h):
            raise MapError(f"hole id {h} is not a face id")
    for d in range(dart_count):
        if fid[d] in m.holes and lab[d].kind is not CurveKind.BDY:
            raise LabelMismatch(f"edge bounding a hole is not labeled bdy at dart {d}")
    _boundary_vertices(m, _orbit_ids(sigma), fid)
    return m


def components(m: CombMap, comp: Optional[Sequence[int]] = None) -> list[CombMap]:
    """Connected components as separate maps with renumbered darts.

    ``comp`` is the map's dart -> component index when the caller has it."""
    n = m.n_darts
    if comp is None:
        comp = _component_index(m.alpha, m.sigma)
    ncomp = max(comp, default=0) + 1
    if ncomp <= 1:
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
        out.append(CombMap(alpha, sigma, tuple(m.labels[d] for d in darts), holes, False))
    return out


def euler_genus(m: CombMap) -> tuple[int, int, int]:
    """(chi, genus, boundary_count) of a connected map.

    chi = V - E + interior faces; boundary circles are the hole faces;
    genus from chi = 2 - 2g - b.
    """
    if not _is_connected(m.alpha, m.sigma):
        raise MapError("euler_genus requires a connected map")
    v = len(vertices(m))
    e = m.n_darts // 2
    f_int = len(faces(m)) - len(m.holes)
    chi = v - e + f_int
    b = len(m.holes)
    twog = 2 - b - chi
    if twog < 0 or twog % 2 != 0:
        raise NonIntegerGenus(f"chi={chi}, boundary={b} is not an orientable surface")
    return chi, twog // 2, b


@dataclass(frozen=True)
class EmbeddedCurve:
    """A simple curve drawn along map edges.

    ``edges`` are edge ids in traversal order; an open curve joins two
    distinct vertices, a closed one returns to its start.
    """

    edges: tuple[int, ...]
    closed: bool
    label: CurveLabel


def curve_dart_walk(m: CombMap, curve: EmbeddedCurve,
                    vtab: Optional[Sequence[int]] = None) -> list[int]:
    """Oriented dart sequence t_1..t_k traversing the curve.

    t_i is the dart of edge i at the vertex where the traversal enters it;
    ``vtab`` is the map's dart -> vertex id when the caller has it.
    Deterministic orientation: the walk starts with the smallest admissible
    dart.  Raises CurveNotEmbedded for non-paths and non-simple curves.
    """
    edges = list(curve.edges)
    if not edges:
        raise CurveNotEmbedded("curve has no edges")
    if vtab is None:
        vtab = _orbit_ids(m.sigma)
    for e in edges:
        if not (0 <= e < m.n_darts) or m.edge_of(e) != e:
            raise CurveNotEmbedded(f"edge id {e} is not an edge of the map")
    if len(set(edges)) != len(edges):
        raise CurveNotEmbedded("curve repeats an edge")

    def darts_of(e):
        return (e, m.alpha[e])

    if len(edges) == 1:
        e = edges[0]
        d0, d1 = darts_of(e)
        if curve.closed:
            if vtab[d0] != vtab[d1]:
                raise CurveNotClosed(f"single-edge curve flagged closed does not loop (edge {e})")
            walk = [min(d0, d1)]
        else:
            if vtab[d0] == vtab[d1]:
                raise CurveNotEmbedded(f"open curve on a loop edge {e}")
            walk = [min(d0, d1)]
    else:
        # Orient the first edge away from the vertex shared with the second.
        shared01 = {vtab[d] for d in darts_of(edges[0])} & {vtab[d] for d in darts_of(edges[1])}
        if not shared01:
            raise CurveNotEmbedded("consecutive curve edges share no vertex")
        walk = []
        for i, e in enumerate(edges):
            d0, d1 = darts_of(e)
            if i == 0:
                s = min(shared01)
                if vtab[d1] == s and vtab[d0] != s:
                    walk.append(d0)
                elif vtab[d0] == s and vtab[d1] != s:
                    walk.append(d1)
                else:
                    # loop edge or both ends shared: orient so the smaller dart leads
                    walk.append(min(d0, d1))
            else:
                prev_end = vtab[m.alpha[walk[-1]]]
                if vtab[d0] == prev_end:
                    walk.append(d0)
                elif vtab[d1] == prev_end:
                    walk.append(d1)
                else:
                    raise CurveNotEmbedded(f"curve edges {edges[i-1]} and {e} do not chain")
    # Simplicity: traversal vertices must be distinct (up to closure).
    vseq = [vtab[walk[0]]] + [vtab[m.alpha[t]] for t in walk]
    if curve.closed:
        if vseq[0] != vseq[-1]:
            raise CurveNotClosed("closed curve does not return to its start")
        inner = vseq[:-1]
    else:
        if vseq[0] == vseq[-1]:
            raise CurveNotEmbedded("open curve returns to its start vertex")
        inner = vseq
    if len(set(inner)) != len(inner):
        raise CurveNotEmbedded("curve visits a vertex twice")
    return walk


@dataclass(frozen=True)
class CutResult:
    """Bookkeeping from cutting along a curve.

    Darts not on the curve keep their ids.  Each curve dart d acquires two
    copies: copy_p[d] == d (the corner side of the traversal) and copy_q[d]
    (fresh id).  For closed curves the two slit faces are recorded.
    """

    map: CombMap
    copy_p: dict[int, int]
    copy_q: dict[int, int]
    slit_p_face: Optional[int]
    slit_q_face: Optional[int]


class _WorkMap:
    """A map that a sequence of cuts rewrites in place.

    ``alpha``, ``sigma`` and ``labels`` are lists; ``in_hole[d]`` says whether
    dart d lies in a hole face, read at the start from ``fid``, the map's
    dart -> face id.  A cut recomputes that flag only on the faces through
    its curve darts and their new copies, which are all the faces it
    changes, so faces and components are found once, by ``finish``."""

    def __init__(self, m: CombMap, fid: Sequence[int]):
        self.alpha = list(m.alpha)
        self.sigma = list(m.sigma)
        self.labels = list(m.labels)
        self.in_hole = [f in m.holes for f in fid]

    def face_ids(self) -> list[int]:
        return _face_ids(self.alpha, self.sigma)

    def _rotation_at(self, d: int) -> list[int]:
        rot = [d]
        x = self.sigma[d]
        while x != d:
            rot.append(x)
            x = self.sigma[x]
        return rot

    def cut(self, walk: Sequence[int], closed: bool,
            label_p: Optional[CurveLabel], label_q: Optional[CurveLabel],
            slits_are_holes: bool):
        """Cut along an oriented dart walk; returns (copy_q, slit darts), the
        slit darts lying in the P and Q slit faces of a closed curve (empty
        for an arc).  See ``_cut_walk``."""
        alpha, sigma, labels, in_hole = self.alpha, self.sigma, self.labels, self.in_hole
        n, k = len(alpha), len(walk)
        copy_q = {}
        for i, t in enumerate(walk):
            copy_q[t], copy_q[alpha[t]] = n + 2 * i, n + 2 * i + 1

        # Read every rotation and boundary corner before writing anything.
        arrivals = [alpha[t] for t in walk]
        if closed:
            pairs = [(arrivals[i], walk[(i + 1) % k]) for i in range(k)]
        else:
            pairs = [(arrivals[i], walk[i + 1]) for i in range(k - 1)]
        rotations = []
        for a, dep in pairs:
            # P: strictly between arrival and departure; Q: the rest
            rot = self._rotation_at(a)
            j = rot.index(dep)
            rotations += [[a] + rot[1:j] + [dep],
                          [copy_q[dep]] + rot[j + 1:] + [copy_q[a]]]
        # At an arc's ends the slit runs out through the boundary corner; P
        # is the side sigma-before the departure at the start and the side
        # sigma-after the arrival at the end.
        for end, d in () if closed else (("start", walk[0]), ("end", arrivals[-1])):
            rot = self._rotation_at(d)
            x = _single_corner([y for y in rot if in_hole[sigma[y]]])
            if x is None:
                raise ArcEndpointNotOnBoundary(
                    f"arc {end} vertex (dart {d}) is not on the boundary")
            j = rot.index(x) + 1
            before, after = rot[j:], rot[1:j]
            p_side, q_side = (before, after) if end == "start" else (after, before)
            rotations += [[d] + p_side, [copy_q[d]] + q_side]

        for t in walk:
            lab = labels[t]
            alpha += (len(alpha) + 1, len(alpha))
            labels += [lab if label_q is None else label_q] * 2
            labels[t] = labels[alpha[t]] = lab if label_p is None else label_p
        sigma += [0] * (2 * k)
        for rot in rotations:
            for x, y in zip(rot, rot[1:] + rot[:1]):
                sigma[x] = y

        # A face is a hole if it keeps a dart of a hole face that is not on
        # the curve, or if it is a slit face and slits become holes: the
        # curve darts and their copies count as holes only as slit darts.
        for d in copy_q:
            in_hole[d] = False
        in_hole += [False] * (2 * k)
        slits = (arrivals[0], copy_q[walk[0]]) if closed else ()
        if slits_are_holes:
            for d in slits:
                in_hole[d] = True
        done = set()
        for start in (*copy_q, *copy_q.values()):
            if start in done:
                continue
            face = []
            hole = False
            d = start
            while True:
                face.append(d)
                if not hole:
                    hole = in_hole[d]
                d = sigma[alpha[d]]
                if d == start:
                    break
            done.update(face)
            for x in face:
                in_hole[x] = hole
        return copy_q, slits

    def finish(self, fid: list[int], comp: list[int]) -> CombMap:
        """The map as it stands, from its ``face_ids`` and its
        ``_component_index``."""
        holes = frozenset(f for f in set(fid) if self.in_hole[f])
        return CombMap(tuple(self.alpha), tuple(self.sigma), tuple(self.labels),
                       holes, allow_disconnected=max(comp, default=0) > 0)


def _cut_walk(m: CombMap, walk: Sequence[int], closed: bool,
              label_p: Optional[CurveLabel], label_q: Optional[CurveLabel],
              slits_are_holes: bool) -> CutResult:
    """Cut the map along an oriented dart walk.

    The P side of the slit is the corner side: at each traversal vertex the
    darts strictly sigma-between arrival and departure.  label_p / label_q
    replace the copies' labels (None keeps the original curve label).
    """
    work = _WorkMap(m, _face_ids(m.alpha, m.sigma))
    copy_q, slits = work.cut(walk, closed, label_p, label_q, slits_are_holes)
    fid = work.face_ids()
    # Slit corners: on P the corner (departure -> arrival) lies in the face
    # of the arrival copy; on Q in the face of the departure copy.
    slit_p, slit_q = (fid[s] for s in slits) if closed else (None, None)
    comp = _component_index(work.alpha, work.sigma)
    return CutResult(work.finish(fid, comp), {d: d for d in copy_q}, copy_q, slit_p, slit_q)


def cut_along(m: CombMap, curve: EmbeddedCurve) -> CombMap:
    """Cut the surface along an embedded curve.

    The curve is doubled and both copies become boundary; chi grows by 1 for
    an arc with endpoints on the boundary and is unchanged for a closed curve.
    """
    walk = curve_dart_walk(m, curve)
    res = _cut_walk(m, walk, curve.closed, _BDY, _BDY, slits_are_holes=True)
    return res.map


def surger(m: CombMap, curve: EmbeddedCurve) -> CombMap:
    """Spherical rearrangement: cut along a closed curve and cap both new
    boundary circles with disks (chi += 2)."""
    if not curve.closed:
        raise CurveNotClosed("surgery requires a closed curve")
    walk = curve_dart_walk(m, curve)
    res = _cut_walk(m, walk, True, _BDY, _BDY, slits_are_holes=False)
    return res.map


def mirror_map(m: CombMap) -> CombMap:
    """The same surface with reversed orientation (sigma inverted)."""
    inv = [0] * m.n_darts
    for d, s in enumerate(m.sigma):
        inv[s] = d
    # alpha takes each face of m onto a face of the mirror, reversed
    fid = _face_ids(m.alpha, inv)
    holes = frozenset(fid[m.alpha[h]] for h in m.holes)
    return CombMap(m.alpha, tuple(inv), m.labels, holes, m.allow_disconnected)


# The last two cm1 fields of an atom, by the atom's tail (2·kind + hole).
_TAIL_TEXT = [f"{t >> 1},{t & 1}" for t in range(10)]


def _trace_from(sigma: Sequence[int], alpha: Sequence[int], root: int,
                tail: Sequence[int], best: Optional[list[int]]) -> Optional[list[int]]:
    """BFS relabeling trace from a root dart (visit sigma then alpha).

    The atom of a dart is the int ``(s·n + a)·10 + tail[dart]``, where s and
    a are the ids of its sigma and alpha images and ``tail[dart]`` is twice
    its kind ordinal plus its hole bit, so atoms order as the tuples
    (s, a, kind, hole) do.  An atom is fixed as soon as its dart is dequeued,
    so it is compared with ``best`` there.  Returns the trace if it is
    lexicographically smaller than ``best`` (always when best is None), else
    None, stopping at the first larger atom."""
    n = len(sigma)
    new_id = [-1] * n
    order = [root]
    new_id[root] = 0
    out = None if best is not None else []   # None while equal to best
    for head, d in enumerate(order):
        s = sigma[d]
        if new_id[s] < 0:
            new_id[s] = len(order)
            order.append(s)
        a = alpha[d]
        if new_id[a] < 0:
            new_id[a] = len(order)
            order.append(a)
        atom = (new_id[s] * n + new_id[a]) * 10 + tail[d]
        if out is None:
            ref = best[head]
            if atom > ref:
                return None
            if atom == ref:
                continue
            out = best[:head]
        out.append(atom)
    return out


def canonical_code(m: CombMap, mirror: bool = True) -> bytes:
    """Label-aware canonical form of a connected map.

    BFS relabeling from every root dart, on the map and (when ``mirror``)
    also on the orientation-reversed map; the lexicographically least trace
    is serialized.  Codes are equal iff the maps are isomorphic through a
    label-kind-preserving homeomorphism (orientation-reversing ones allowed
    iff ``mirror``).

    A root's first atom depends on its own darts only: (0, 1) if sigma fixes
    it, (1, 1) if sigma and alpha agree on it, else (1, 2), then its tail.
    Only the roots whose first atom is the least of all are traced; any
    other root's trace is larger at its first atom.
    """
    n = m.n_darts
    if n == 0:
        return b"cm1|empty"
    alpha, sigma = m.alpha, m.sigma
    kind2 = [2 * _KIND_ORD[lb.kind._value_] for lb in m.labels]
    in_hole = [f in m.holes for f in _face_ids(alpha, sigma)]
    variants = [(sigma, [k + h for k, h in zip(kind2, in_hole)])]
    if mirror:
        inv = [0] * n
        for d, s in enumerate(sigma):
            inv[s] = d
        # alpha takes each face of m onto a face of the mirror (mirror_map)
        variants.append((inv, [k + in_hole[a] for k, a in zip(kind2, alpha)]))
    first = [[t + (10 if s == r else 10 * n + (10 if s == a else 20))
              for r, (s, a, t) in enumerate(zip(sg, alpha, tail))]
             for sg, tail in variants]
    least = min(min(atoms) for atoms in first)
    best = None
    for (sg, tail), atoms in zip(variants, first):
        for root, atom in enumerate(atoms):
            if atom == least:
                tr = _trace_from(sg, alpha, root, tail, best)
                if tr is not None:
                    best = tr
    n10 = 10 * n
    flat = ";".join([f"{x // n10},{x // 10 % n},{_TAIL_TEXT[x % 10]}" for x in best])
    tag = "dih" if mirror else "rot"
    return f"cm1[{tag}]|n={n}|{flat}".encode("ascii")


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
    label kind, or a map that build_map refuses, is a MapError."""
    check(obj, MAP)
    lab = {}
    for k, item in enumerate(obj.get("labels", ())):
        kind = item["kind"]
        label_kind = _KIND_BY_JSON.get(kind) if type(kind) is str else None
        if label_kind is None:
            raise MapError(f"labels[{k}].kind: unknown label kind {kind!r}")
        lab[item["edge"]] = CurveLabel(label_kind, item.get("index"))
    return build_map(obj["darts"], obj["alpha"], obj["sigma"], lab, obj.get("holes", ()))
