from collections import Counter

import pytest

from morsediag.combmap import (
    ArcEndpointNotOnBoundary,
    CombMap,
    CurveKind,
    CurveLabel,
    CurveNotClosed,
    CurveNotEmbedded,
    DisconnectedUnlessFlagged,
    EmbeddedCurve,
    LabelMismatch,
    MapError,
    NonInvolution,
    build_map,
    canonical_code,
    components,
    cut_along,
    euler_genus,
    face_table,
    faces,
    map_from_json,
    map_to_json,
    mirror_map,
    surger,
    vertex_table,
    vertices,
)
from morsediag import combmap as cmb

from conftest import (
    analysis_corpus,
    brute_force_isomorphic,
    make_circle,
    make_genus2,
    make_solid_torus_diagram,
    make_sphere,
    make_torus,
    random_small_map,
    reference_canonical_code,
    reference_cut_walk,
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


def test_disconnected_needs_flag():
    # two disjoint circles
    alpha = (1, 0, 3, 2, 5, 4, 7, 6)
    sigma = (3, 2, 1, 0, 7, 6, 5, 4)
    with pytest.raises(DisconnectedUnlessFlagged):
        build_map(8, alpha, sigma)
    m = build_map(8, alpha, sigma, allow_disconnected=True)
    assert len(components(m)) == 2


def test_label_mismatch_between_darts():
    labels = [BDY, CurveLabel(CurveKind.U_GREEN_ARC, 0), BDY, BDY]
    with pytest.raises(LabelMismatch):
        build_map(4, (1, 0, 3, 2), (3, 2, 1, 0), labels)


def test_hole_edge_must_be_boundary():
    labels = {0: CurveLabel(CurveKind.U_GREEN_ARC, 0)}
    with pytest.raises(LabelMismatch):
        build_map(4, (1, 0, 3, 2), (3, 2, 1, 0), labels, hole_faces=(0,))


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
        v = len(vertices(m))
        e = m.n_darts // 2
        f_int = len(faces(m)) - len(m.holes)
        assert v - e + f_int + b == 2 - 2 * g


# ---------------------------------------------------------------------------
# cut / surgery
# ---------------------------------------------------------------------------

def test_cut_torus_along_loop_gives_annulus():
    m = make_torus()
    cut = cut_along(m, EmbeddedCurve((0,), True, BDY))
    assert euler_genus(cut) == (0, 0, 2)
    assert cut.n_darts == m.n_darts + 2


def test_cut_annulus_spanning_arc_gives_disk():
    d = make_solid_torus_diagram()
    cut = cut_along(d.surface, d.curves[0])
    assert euler_genus(cut) == (1, 0, 1)


def test_cut_one_holed_disk_along_green_arc():
    # disk with one hole cut along the green arc -> disk
    d = make_solid_torus_diagram()
    assert euler_genus(d.surface) == (0, 0, 2)
    assert euler_genus(cut_along(d.surface, d.curves[0])) == (1, 0, 1)


def test_cut_arc_needs_boundary_endpoints():
    # the sphere has no boundary at all
    m = make_sphere()
    with pytest.raises(ArcEndpointNotOnBoundary,
                       match=r"^arc start vertex \(dart 0\) is not on the boundary$"):
        cut_along(m, EmbeddedCurve((0,), False, BDY))


def test_cut_rejects_bad_curves():
    d = make_solid_torus_diagram()
    with pytest.raises(CurveNotEmbedded):
        cut_along(d.surface, EmbeddedCurve((8, 8), False, BDY))
    with pytest.raises(CurveNotClosed):
        surger(d.surface, d.curves[0])


def test_surger_torus_gives_sphere():
    m = surger(make_torus(), EmbeddedCurve((0,), True, BDY))
    assert euler_genus(m) == (2, 0, 0)


def test_surger_sphere_equator_gives_two_spheres():
    m = surger(make_sphere(), EmbeddedCurve((0, 2), True, BDY))
    assert m.allow_disconnected
    assert [euler_genus(c) for c in components(m)] == [(2, 0, 0), (2, 0, 0)]


def test_surger_genus2_drops_genus():
    m = surger(make_genus2(), EmbeddedCurve((0,), True, BDY))
    assert euler_genus(m) == (0, 1, 0)


def test_surger_chi_plus_two_genus_never_up():
    cases = [
        (make_torus(), EmbeddedCurve((0,), True, BDY)),
        (make_genus2(), EmbeddedCurve((0,), True, BDY)),
        (make_sphere(), EmbeddedCurve((0, 2), True, BDY)),
    ]
    for m, c in cases:
        chi0 = euler_genus(m)[0]
        g0 = euler_genus(m)[1]
        out = surger(m, c)
        parts = components(out)
        chi1 = sum(euler_genus(p)[0] for p in parts)
        assert chi1 == chi0 + 2
        assert all(euler_genus(p)[1] <= g0 for p in parts)


def test_cut_walk_matches_cut_by_cut_reference():
    for d in analysis_corpus():
        m = d.surface
        vtab = vertex_table(m)
        for curve in d.curves:
            walk = cmb.curve_dart_walk(m, curve, vtab)
            for slits_are_holes in (True, False):
                args = (m, walk, curve.closed, BDY, None, slits_are_holes)
                assert cmb._cut_walk(*args) == reference_cut_walk(*args)


# ---------------------------------------------------------------------------
# cut then reglue restores the map
# ---------------------------------------------------------------------------

def _reglue(orig: CombMap, res, walk, closed: bool) -> CombMap:
    """Invert a cut using only the cut map and the copy bookkeeping."""
    n = orig.n_darts
    cut = res.map
    sigma = list(cut.sigma[:n])

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
        q_rot = rotation(cut, res.copy_q[dep])  # [dep_q, Y..., a_q]
        x_side = p_rot[1:-1]
        y_side = q_rot[1:-1]
        assign([a] + x_side + [dep] + y_side)
    if not closed:
        t1 = walk[0]
        p_rot = rotation(cut, t1)               # [t1, P...]
        q_rot = rotation(cut, res.copy_q[t1])   # [t1_q, Q...]
        assign([t1] + q_rot[1:] + p_rot[1:])
        ak = orig.alpha[walk[-1]]
        p_rot = rotation(cut, ak)
        q_rot = rotation(cut, res.copy_q[ak])
        assign([ak] + p_rot[1:] + q_rot[1:])

    glued = CombMap(orig.alpha, tuple(sigma), tuple(cut.labels[:n]), frozenset())
    ftab_orig = face_table(orig)
    ftab_new = face_table(glued)
    curve_darts = set(walk) | {orig.alpha[t] for t in walk}
    holes = frozenset(ftab_new[d] for d in range(n)
                      if d not in curve_darts and ftab_orig[d] in orig.holes)
    return CombMap(orig.alpha, tuple(sigma), tuple(cut.labels[:n]), holes)


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
    walk = cmb.curve_dart_walk(m, curve)
    res = cmb._cut_walk(m, walk, curve.closed, None, None,
                        slits_are_holes=not curve.closed)
    glued = _reglue(m, res, walk, curve.closed)
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


def _swap_colors(m: CombMap) -> CombMap:
    swapped = []
    for lb in m.labels:
        if lb.kind is CurveKind.U_GREEN_ARC:
            swapped.append(CurveLabel(CurveKind.V_RED_ARC, lb.index))
        elif lb.kind is CurveKind.V_RED_ARC:
            swapped.append(CurveLabel(CurveKind.U_GREEN_ARC, lb.index))
        else:
            swapped.append(lb)
    return CombMap(m.alpha, m.sigma, tuple(swapped), m.holes)


def test_labels_enter_the_code():
    # a one-chord disk is not reversal-symmetric: two sources against one
    import morsediag.catalog as cat

    m = cat.load_fixture("d3_four_a.json").surface
    m2 = _swap_colors(m)
    assert canonical_code(m2) != canonical_code(m)
    assert not brute_force_isomorphic(m, m2)


def test_solid_torus_is_reversal_symmetric():
    # the optimal flow on the solid torus is unique, so exchanging the green
    # and red arcs gives an isomorphic labeled map (confirmed by the
    # backtracking oracle, not only by code equality)
    m = make_solid_torus_diagram().surface
    m2 = _swap_colors(m)
    assert canonical_code(m2) == canonical_code(m)
    assert brute_force_isomorphic(m, m2)


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
    # the early-abort traces must give the code of the complete search
    import morsediag.catalog as cat
    from morsediag.chord import enumerate_bases, enumerate_colorings
    from morsediag.prdiag import from_colored_chord

    maps = [cat.load_fixture(n).surface for n in cat.fixture_names()]
    assert len(maps) == 9
    maps += [from_colored_chord(ccd).surface
             for g in (1, 2, 3) for b in enumerate_bases(g)
             for ccd in enumerate_colorings(b, g)]
    assert len(maps) == 9 + 185
    maps += [relabel_map(m, rng) for m in maps]
    # Small random maps with degree-1 vertices and loops in consecutive
    # corners, whose first atoms are (0, 1) and (1, 1): canonical_code traces
    # only the roots with the least first atom.
    small = [random_small_map(rng) for _ in range(400)]
    first_atoms = Counter()
    for m in maps + small:
        for mirror in (True, False):
            code = reference_canonical_code(m, mirror)
            assert canonical_code(m, mirror) == code
            first_atoms[code.split(b"|")[2][:4]] += 1
    assert min(first_atoms[atom] for atom in (b"0,1,", b"1,1,", b"1,2,")) >= 100


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
