from collections import Counter

import pytest

from morsediag.combmap import (
    CombMap,
    CurveKind,
    CurveLabel,
    EmbeddedCurve,
    LabelMismatch,
    MapError,
    NonInvolution,
    build_map,
    canonical_code,
    components,
    euler_genus,
    face_table,
    faces,
    map_from_json,
    map_to_json,
)
from morsediag import combmap as cmb

from conftest import (
    _colour_swapped,
    analysis_corpus,
    brute_force_isomorphic,
    disjoint_union,
    make_circle,
    make_genus2,
    make_solid_torus_diagram,
    make_torus,
    mirror_map,
    orbit_count,
    random_small_map,
    reference_canonical_code,
    reference_code,
    reference_cut_walk,
    reference_traces,
    relabel_map,
)

BDY = CurveLabel(CurveKind.BDY)


# ---------------------------------------------------------------------------
# build_map
# ---------------------------------------------------------------------------

def test_build_circle_seed():
    m = make_circle()
    assert len(faces(m)) == 2
    assert len(m.holes) == 1
    assert euler_genus(m) == (1, 0, 1)


def test_alpha_fixed_point_rejected():
    with pytest.raises(NonInvolution):
        build_map(2, (0, 1), (1, 0))


def test_torus_rotation_system():
    m = make_torus()
    assert len(faces(m)) == 1
    assert euler_genus(m) == (0, 1, 0)


def test_disconnected_map_is_built():
    # two disjoint circles: build_map builds the map, euler_genus refuses it
    m = build_map(8, (1, 0, 3, 2, 5, 4, 7, 6), (3, 2, 1, 0, 7, 6, 5, 4))
    assert len(components(m)) == 2
    with pytest.raises(MapError, match="^euler_genus requires a connected map$"):
        euler_genus(m)


def test_components_and_is_connected_agree(rng):
    # one component exactly when connected: the empty map has none and is
    # not connected, a disjoint union has two
    empty = build_map(0, (), ())
    assert components(empty) == [] and not cmb._is_connected(empty.alpha, empty.sigma)
    maps = [empty, make_torus(), make_solid_torus_diagram().surface]
    maps += [random_small_map(rng) for _ in range(40)]
    unions = [disjoint_union(a, b) for a, b in zip(maps[1:], maps[2:])]
    for m in maps + unions:
        parts = components(m)
        assert (len(parts) == 1) == cmb._is_connected(m.alpha, m.sigma)
        assert sum(c.n_darts for c in parts) == m.n_darts
    assert all(len(components(m)) == 2 for m in unions)


def test_label_mismatch_between_darts():
    labels = [BDY, CurveLabel(CurveKind.U_GREEN_ARC, 0), BDY, BDY]
    with pytest.raises(LabelMismatch):
        build_map(4, (1, 0, 3, 2), (3, 2, 1, 0), labels)


def test_edge_labeled_by_both_darts_is_refused():
    # torus with edges 0 = {0, 2} and 1 = {1, 3}: a dict naming darts 0 and
    # 2 labels edge 0 twice, where the later entry used to win silently
    U, V = CurveLabel(CurveKind.U_GREEN_CYCLE), CurveLabel(CurveKind.V_RED_CYCLE)
    for labels in ({0: U, 2: V}, {2: V, 0: U}):
        with pytest.raises(LabelMismatch, match="^edge 0 is labeled twice$"):
            build_map(4, (2, 3, 0, 1), (1, 2, 3, 0), labels)
    assert build_map(4, (2, 3, 0, 1), (1, 2, 3, 0), {2: V, 1: U}).labels == (V, U, V, U)


def test_hole_edge_must_be_boundary():
    labels = {0: CurveLabel(CurveKind.U_GREEN_ARC, 0)}
    with pytest.raises(LabelMismatch):
        build_map(4, (1, 0, 3, 2), (3, 2, 1, 0), labels, hole_faces=(0,))


def test_wrong_label_count_and_non_face_hole_are_refused():
    with pytest.raises(LabelMismatch, match="^per-dart labels do not match dart count$"):
        build_map(4, (1, 0, 3, 2), (3, 2, 1, 0), [BDY] * 3)
    for hole in (2, 4):   # dart 2 lies on face 0; 4 is no dart
        with pytest.raises(MapError, match=f"^hole id {hole} is not a face id$"):
            build_map(4, (1, 0, 3, 2), (3, 2, 1, 0), hole_faces=(hole,))


# ---------------------------------------------------------------------------
# faces / euler
# ---------------------------------------------------------------------------

def test_faces_partition():
    for m in (make_torus(), make_circle(), make_genus2(),
              make_solid_torus_diagram().surface):
        seen = []
        for cyc in faces(m):
            seen.extend(cyc)
        assert sorted(seen) == list(range(m.n_darts))


def test_disjoint_chords_ribbon_graph_has_three_faces():
    m = build_map(4, (1, 0, 3, 2), (1, 2, 3, 0))
    assert len(faces(m)) == 3


def test_euler_disk_with_two_holes():
    from morsediag.chord import ChordDiagram, ColoredChordDiagram
    from morsediag.prdiag import from_colored_chord

    ccd = ColoredChordDiagram(ChordDiagram(4, (2, 3, 0, 1, 6, 7, 4, 5)),
                              ("green", "red", "green", "red"))
    m = from_colored_chord(ccd).surface
    assert euler_genus(m) == (-1, 0, 3)


def test_euler_identity_after_operations():
    for m in (make_torus(), make_circle(), make_genus2()):
        chi, g, b = euler_genus(m)
        v = orbit_count(m.sigma, range(m.n_darts))
        e = m.n_darts // 2
        f_int = len(faces(m)) - len(m.holes)
        assert v - e + f_int + b == 2 - 2 * g


def _graph_map(ends) -> CombMap:
    """A map whose edge i joins the vertices ends[i]: dart 2i at the first,
    dart 2i + 1 at the second, each rotation in dart order."""
    at = {}
    for i, (a, b) in enumerate(ends):
        at.setdefault(a, []).append(2 * i)
        at.setdefault(b, []).append(2 * i + 1)
    sigma = [0] * (2 * len(ends))
    for darts in at.values():
        for k, d in enumerate(darts):
            sigma[d] = darts[(k + 1) % len(darts)]
    return build_map(len(sigma), [d ^ 1 for d in range(len(sigma))], sigma)


_PATH3 = [(0, 1), (1, 2), (2, 3)]
_LOLLIPOP = [(0, 1), (1, 2), (2, 3), (3, 1)]
_FIGURE8 = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]


@pytest.mark.parametrize("ends, edges, closed, outcome", [
    # walks: t_i is the dart of edge i where the traversal enters it
    (_PATH3, (0, 2, 4), False, [0, 2, 4]),
    ([(1, 0), (1, 2)], (0, 2), False, [1, 2]),          # starts at alpha[edges[0]]
    ([(0, 1), (0, 1)], (0, 2), True, [1, 2]),           # two edges, one vertex pair
    ([(0, 0)], (0,), True, [0]),
    ([(0, 1)], (0,), False, [0]),
    # every refusal, word for word; named ids, so a reworded message keeps them
    pytest.param(_PATH3, (), False, "MapError: curve has no edges", id="no-edges"),
    pytest.param(_PATH3, (0,), True,
                 "MapError: single-edge curve flagged closed does not loop (edge 0)",
                 id="closed-single-edge-no-loop"),
    pytest.param([(0, 0)], (0,), False, "MapError: open curve on a loop edge 0",
                 id="open-on-a-loop"),
    pytest.param(_PATH3, (0, 4), False, "MapError: consecutive curve edges share no vertex",
                 id="edges-share-no-vertex"),
    pytest.param(_PATH3 + [(3, 4)], (0, 2, 6), False,
                 "MapError: curve edges 2 and 6 do not chain", id="edges-do-not-chain"),
    pytest.param(_PATH3, (0, 2), True,
                 "MapError: closed curve does not return to its start", id="closed-no-return"),
    pytest.param([(0, 1), (1, 2), (2, 0)], (0, 2, 4), False,
                 "MapError: open curve returns to its start vertex", id="open-returns"),
    pytest.param(_LOLLIPOP, (0, 2, 4, 6), False, "MapError: curve visits a vertex twice",
                 id="lollipop-twice"),
    pytest.param(_FIGURE8, (0, 2, 4, 6, 8, 10), True, "MapError: curve visits a vertex twice",
                 id="figure-eight-twice"),
    pytest.param([(0, 0), (0, 1)], (0, 2), False, "MapError: curve visits a vertex twice",
                 id="loop-first-twice"),
])
def test_dart_walk_walks_and_refusals(ends, edges, closed, outcome):
    m = _graph_map(ends)
    curve = EmbeddedCurve(edges, closed, BDY)
    try:
        got = cmb._dart_walk(m, curve, cmb._orbit_ids(m.sigma))[0]
    except MapError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == outcome


# ---------------------------------------------------------------------------
# cut then reglue restores the map
# ---------------------------------------------------------------------------

def _reglue(orig: CombMap, cut: CombMap, copy_q: dict, walk, closed: bool) -> CombMap:
    """Invert a cut using only the cut map and the copy bookkeeping: both
    copies of each curve dart are bdy, and the curve darts take back their
    labels from the original map."""
    n = orig.n_darts
    sigma = list(cut.sigma[:n])
    labels = list(cut.labels[:n])
    for d, q in copy_q.items():
        assert cut.labels[d] == cut.labels[q] == BDY
        labels[d] = orig.labels[d]

    def rotation(m, start):
        rot = [start]
        x = m.sigma[start]
        while x != start:
            rot.append(x)
            x = m.sigma[x]
        return rot

    def assign(cycle):
        for i, d in enumerate(cycle):
            sigma[d] = cycle[(i + 1) % len(cycle)]

    arrivals = [orig.alpha[t] for t in walk]
    if closed:
        pairs = [(arrivals[i], walk[(i + 1) % len(walk)]) for i in range(len(walk))]
    else:
        pairs = [(arrivals[i], walk[i + 1]) for i in range(len(walk) - 1)]
    for a, dep in pairs:
        p_rot = rotation(cut, a)            # [a, X..., dep]
        q_rot = rotation(cut, copy_q[dep])  # [dep_q, Y..., a_q]
        x_side = p_rot[1:-1]
        y_side = q_rot[1:-1]
        assign([a] + x_side + [dep] + y_side)
    if not closed:
        t1 = walk[0]
        p_rot = rotation(cut, t1)               # [t1, P...]
        q_rot = rotation(cut, copy_q[t1])   # [t1_q, Q...]
        assign([t1] + q_rot[1:] + p_rot[1:])
        ak = orig.alpha[walk[-1]]
        p_rot = rotation(cut, ak)
        q_rot = rotation(cut, copy_q[ak])
        assign([ak] + p_rot[1:] + q_rot[1:])

    glued = CombMap(orig.alpha, tuple(sigma), tuple(labels), frozenset())
    ftab_orig = face_table(orig)
    ftab_new = face_table(glued)
    curve_darts = set(walk) | {orig.alpha[t] for t in walk}
    holes = frozenset(ftab_new[d] for d in range(n)
                      if d not in curve_darts and ftab_orig[d] in orig.holes)
    return CombMap(orig.alpha, tuple(sigma), tuple(labels), holes)


@pytest.mark.parametrize("case", ["torus_loop", "solid_torus_u", "genus2_loop",
                                  "solid_torus_v"])
def test_cut_then_reglue_restores_code(case):
    if case == "torus_loop":
        m, curve = make_torus(), EmbeddedCurve((0,), True, BDY)
    elif case == "genus2_loop":
        m, curve = make_genus2(), EmbeddedCurve((0,), True, BDY)
    else:
        d = make_solid_torus_diagram()
        m = d.surface
        curve = d.curves[0] if case.endswith("_u") else d.curves[1]
    walk = cmb._dart_walk(m, curve, cmb._orbit_ids(m.sigma))[0]
    # a closed curve's two slit faces stay faces, the caps of a surgery
    cut, copy_q = reference_cut_walk(m, walk, curve.closed, BDY, slits_are_holes=False)
    # the i-th curve dart and its partner get the copies n + 2i and n + 2i + 1,
    # which alpha pairs
    n = m.n_darts
    assert copy_q == {d: n + 2 * i + j for i, t in enumerate(walk)
                      for j, d in enumerate((t, m.alpha[t]))}
    assert cut.n_darts == n + 2 * len(walk)
    assert all(cut.alpha[n + 2 * i] == n + 2 * i + 1 for i in range(len(walk)))
    glued = _reglue(m, cut, copy_q, walk, curve.closed)
    assert canonical_code(glued) == canonical_code(m)


# ---------------------------------------------------------------------------
# canonical codes
# ---------------------------------------------------------------------------

def test_canonical_code_relabeling_invariance(rng):
    maps = [make_torus(), make_circle(), make_genus2(),
            make_solid_torus_diagram().surface]
    for m in maps:
        code = canonical_code(m)
        for _ in range(25):
            assert canonical_code(relabel_map(m, rng)) == code


def test_labels_enter_the_code():
    # a one-chord disk is not reversal-symmetric: two sources against one
    import morsediag.catalog as cat

    d = cat.load_fixture("d3_four_a.json")
    m, m2 = d.surface, _colour_swapped(d).surface
    assert canonical_code(m2) != canonical_code(m)
    assert not brute_force_isomorphic(m, m2)


def test_solid_torus_is_reversal_symmetric():
    # the optimal flow on the solid torus is unique, so exchanging the green
    # and red arcs gives an isomorphic labeled map (confirmed by the
    # backtracking oracle, not only by code equality)
    d = make_solid_torus_diagram()
    m, m2 = d.surface, _colour_swapped(d).surface
    assert canonical_code(m2) == canonical_code(m)
    assert brute_force_isomorphic(m, m2)


def test_empty_map_code():
    for mirror in (True, False):
        assert canonical_code(build_map(0, (), ()), mirror) == b"cm1|empty"


def test_euler_genus_refuses_the_empty_map():
    # no darts make no connected surface
    with pytest.raises(MapError, match="^euler_genus requires a connected map$"):
        euler_genus(build_map(0, (), ()))


def test_curve_index_does_not_enter_code():
    d = make_solid_torus_diagram()
    m = d.surface
    relab = tuple(
        CurveLabel(lb.kind, 7) if lb.kind is not CurveKind.BDY else lb
        for lb in m.labels
    )
    m2 = CombMap(m.alpha, m.sigma, relab, m.holes)
    assert canonical_code(m2) == canonical_code(m)


def test_mirror_map_same_surface():
    for m in (make_torus(), make_solid_torus_diagram().surface):
        mm = mirror_map(m)
        assert euler_genus(mm) == euler_genus(m)
        assert canonical_code(mm, mirror=True) == canonical_code(m, mirror=True)


def test_chiral_map_detected_without_mirror():
    # some labeled surface must differ from its mirror under the
    # orientation-preserving code; genus-2 conversions provide one
    from morsediag.chord import enumerate_bases, enumerate_colorings
    from morsediag.prdiag import from_colored_chord

    found = False
    for b in enumerate_bases(2):
        for ccd in enumerate_colorings(b, 2):
            m = from_colored_chord(ccd).surface
            if canonical_code(m, mirror=False) != canonical_code(mirror_map(m), mirror=False):
                found = True
                assert canonical_code(m, mirror=True) == canonical_code(mirror_map(m), mirror=True)
    assert found


def test_brute_force_isomorphism_agrees_with_codes(rng):
    import morsediag.catalog as cat

    diagrams = [cat.load_fixture(n).surface
                for n in ("d3_trivial.json", "d3_four_a.json",
                          "d3_four_b.json", "solid_torus.json")]
    diagrams += [relabel_map(m, rng) for m in diagrams]
    for i, a in enumerate(diagrams):
        for b in diagrams[i:]:
            assert (canonical_code(a) == canonical_code(b)) == \
                brute_force_isomorphic(a, b)


def test_canonical_code_equals_full_trace_reference(rng):
    # the raced traces must give the code of the complete search, on the
    # analysis corpus (the fixtures, every class of genus 1-3, seeded genus-4
    # and genus-5 diagrams, and a renamed copy of each) and on small random
    # maps with degree-1 vertices and loops in consecutive corners, whose
    # first atoms are (0, 1) and (1, 1): canonical_code traces only the
    # roots with the least first atom
    maps = [d.surface for d in analysis_corpus()]
    assert len(maps) == 416 and {48, 60} <= {m.n_darts for m in maps}
    small = [random_small_map(rng) for _ in range(400)]
    first_atoms = Counter()
    late = ties = 0
    for m in maps + small:
        for mirror in (True, False):
            traces = reference_traces(m, mirror)
            least = min(traces.values())
            code = reference_code(least, m.n_darts, mirror)
            assert canonical_code(m, mirror) == code
            first_atoms[code.split(b"|")[2][:4]] += 1
            traced = [(sg is not m.sigma, root) for sg, _, root
                      in cmb._least_roots(m, mirror, cmb._face_ids(m.alpha, m.sigma))]
            late += traces[traced[0]] != least   # a later root wins
            ties += sum(traces[r] == least for r in traced) > 1   # a rival ties to the end
    assert min(first_atoms[atom] for atom in (b"0,1,", b"1,1,", b"1,2,")) >= 100
    assert late >= 500 and ties >= 100


def test_disconnected_codes_list_the_full_trace_codes_of_components(rng):
    # the race runs across components: of different sizes, and of one size
    # where a renamed copy ties the best to its last atom
    maps = [d.surface for d in analysis_corpus()]
    pairs = list(zip(maps[::40], maps[7::40]))
    pairs += [(m, relabel_map(m, rng)) for m in maps[::40]]
    assert {a.n_darts == b.n_darts for a, b in pairs} == {True, False}
    for a, b in pairs:
        u = disjoint_union(a, b)
        for mirror in (True, False):
            parts = sorted(reference_canonical_code(c, mirror) for c in (a, b))
            head = f"cm1[{'dih' if mirror else 'rot'}]|n={u.n_darts}|".encode("ascii")
            assert canonical_code(u, mirror) == head + b" ".join(parts)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_map_json_roundtrip():
    for m in (make_torus(), make_circle(), make_solid_torus_diagram().surface):
        m2 = map_from_json(map_to_json(m))
        assert m2 == m


def test_map_json_rejects_unknown_kind():
    obj = map_to_json(make_solid_torus_diagram().surface)
    obj["labels"][0]["kind"] = "chartreuse"
    with pytest.raises(MapError):
        map_from_json(obj)
