import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import morsediag.catalog as cat
from morsediag.chord import (
    GREEN,
    RED,
    ChordDiagram,
    ColoredChordDiagram,
    SymmetryConvention,
    canonical_colored,
    chord_from_json,
    chord_to_json,
    classify,
    colored_to_json,
    enumerate_bases,
    enumerate_colorings,
)
from morsediag.combmap import (
    CombMap,
    CurveKind,
    CurveLabel,
    EmbeddedCurve,
    MapError,
    build_map,
    euler_genus,
)
import morsediag.combmap as cmb
import morsediag.prdiag as pr
from morsediag.prdiag import (
    FIXED_POINT_TYPES,
    Census,
    InvalidColoring,
    InvalidDiagram,
    NotOptimal,
    PrDiagram,
    boundary_restriction,
    census,
    equivalent,
    from_colored_chord,
    is_optimal,
    morse_checks,
    pr_canonical_code,
    pr_from_json,
    pr_to_json,
    to_colored_chord,
    validate,
)

from conftest import (
    _colour_swapped,
    all_colored_classes,
    analysis_corpus,
    chord_orbit_counts,
    clear_analysis_caches,
    disjoint_union,
    least_circle_image,
    make_circle,
    make_four_piece_cycle_diagram,
    make_pinched_cycle_diagram,
    make_six_point_ball_flow,
    make_solid_torus_diagram,
    make_sphere,
    make_torus,
    make_two_ring_pants_diagram,
    mirror_map,
    reference_side_cut,
    reference_side_reduction,
    relabel_diagram,
    small_disks,
    subdivide_curves,
)
from g4_round_trip import reversal, reversal_counts, round_trip

G1_COLORED = ColoredChordDiagram(ChordDiagram(2, (2, 3, 0, 1)), (GREEN, RED))
ROT, DIH = SymmetryConvention.ROTATION_ONLY, SymmetryConvention.DIHEDRAL


# ---------------------------------------------------------------------------
# fixed point types
# ---------------------------------------------------------------------------

def test_fixed_point_type_table():
    assert FIXED_POINT_TYPES[1].index_pair == (0, 0)
    assert FIXED_POINT_TYPES[2].index_pair == (0, 1)
    assert FIXED_POINT_TYPES[3].index_pair == (1, 0)
    assert FIXED_POINT_TYPES[4].index_pair == (1, 1)
    assert FIXED_POINT_TYPES[5].index_pair == (2, 0)
    assert FIXED_POINT_TYPES[6].index_pair == (2, 1)
    assert [FIXED_POINT_TYPES[i].role for i in range(1, 7)] == \
        ["source", "source", "saddle", "saddle", "sink", "sink"]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_solid_torus_all_properties_pass():
    rep = validate(make_solid_torus_diagram())
    assert rep.valid
    assert [p.passed for p in rep.properties] == [True] * 5


def test_fixtures_are_valid():
    for name in cat.fixture_names():
        rep = validate(cat.load_fixture(name))
        assert rep.valid, (name, rep.first_failure())


def test_shared_endpoint_violates_property3():
    # two spanning arcs of the annulus forced through the same endpoints
    alpha = (1, 0, 3, 2, 5, 4, 7, 6)
    sigma = [0] * 8
    for cyc in ([0, 4, 6, 1], [2, 7, 5, 3]):
        for i, d in enumerate(cyc):
            sigma[d] = cyc[(i + 1) % len(cyc)]
    labels = {4: CurveLabel(CurveKind.U_GREEN_ARC, 0),
              6: CurveLabel(CurveKind.V_RED_ARC, 0)}
    m = build_map(8, alpha, sigma, labels, hole_faces=(0, 2))
    d = PrDiagram(m, (
        EmbeddedCurve((4,), False, CurveLabel(CurveKind.U_GREEN_ARC, 0)),
        EmbeddedCurve((6,), False, CurveLabel(CurveKind.V_RED_ARC, 0)),
    ))
    rep = validate(d)
    assert not rep.valid
    verdicts = {p.name: p for p in rep.properties}
    assert not verdicts["p3_disjointness"].passed
    assert "share" in verdicts["p3_disjointness"].witness or \
        "endpoint" in verdicts["p3_disjointness"].witness


def test_two_region_disk_passes_property5():
    d = cat.load_fixture("d3_four_a.json")
    rep = validate(d)
    assert rep.valid
    assert census(d).as_tuple() == (2, 0, 1, 0, 0, 1)


def test_registry_label_mismatch_is_reported():
    st = make_solid_torus_diagram()
    green, red = st.curves
    bdy = EmbeddedCurve((0,), False, CurveLabel(CurveKind.BDY))
    closed = green._replace(closed=True)
    for curves, witness in [
        ((green,), "labeled edge 10 belongs to no curve"),
        ((green, red, bdy), "curve 2 labeled bdy"),
        ((green._replace(edges=(9,)), red), "curve 0 references non-edge 9"),
        ((green, green, red), "edge 8 belongs to two curves"),
        # a curve that is no walk, unless a registry fault comes after it
        ((closed, red), "single-edge curve flagged closed does not loop (edge 8)"),
        ((closed, red, bdy), "curve 2 labeled bdy"),
    ]:
        rep = validate(PrDiagram(st.surface, curves))
        assert [p.witness for p in rep.properties] == [witness] + ["prerequisite failed"] * 4


def test_arc_through_a_boundary_vertex_is_reported():
    # a disk whose boundary circle has vertices at darts 0, 1 and 3, and a
    # two-edge green arc from 0's vertex through 1's to 3's
    sigma = [0] * 10
    for cyc in ((0, 5, 6), (1, 7, 8, 2), (3, 9, 4)):
        for i, d in enumerate(cyc):
            sigma[d] = cyc[(i + 1) % len(cyc)]
    u = CurveLabel(CurveKind.U_GREEN_ARC, 0)
    m = build_map(10, (1, 0, 3, 2, 5, 4, 7, 6, 9, 8), sigma, {6: u, 8: u}, hole_faces=(1,))
    rep = validate(PrDiagram(m, (EmbeddedCurve((6, 8), False, u),)))
    assert rep.first_failure() == \
        "p1_placement: curve 0: interior touches boundary vertex (dart 1)"


def test_vertex_on_two_boundary_circles_is_reported():
    # one vertex whose corners lie in two hole faces: build_map refuses the
    # map, and validate reports it where it used to raise
    bdy = CurveLabel(CurveKind.BDY)
    m = CombMap((1, 0, 3, 2), (1, 2, 3, 0), (bdy,) * 4, frozenset({0, 1}))
    with pytest.raises(MapError, match=r"^vertex has two boundary corners \(darts 0 and 1\)$"):
        build_map(4, m.alpha, m.sigma, m.labels, m.holes)
    assert validate(PrDiagram(m, ())).to_json() == {
        "valid": False,
        "properties": {
            "p1_placement": {"passed": False,
                             "witness": "vertex has two boundary corners (darts 0 and 1)"},
            "p2_cycle_endpoints": {"passed": False, "witness": "prerequisite failed"},
            "p3_disjointness": {"passed": False, "witness": "prerequisite failed"},
            "p4_left_turn_cycles": {"passed": False, "witness": "prerequisite failed"},
            "p5_disk_reduction": {"passed": False, "witness": "prerequisite failed"},
        },
    }


# ---------------------------------------------------------------------------
# census / morse checks
# ---------------------------------------------------------------------------

def test_census_examples():
    assert census(make_solid_torus_diagram()).as_tuple() == (1, 0, 1, 1, 0, 1)
    assert census(make_solid_torus_diagram()).boundary_genus == 1
    triv = cat.load_fixture("d3_trivial.json")
    c = census(triv)
    assert c.as_tuple() == (1, 0, 0, 0, 0, 1) and c.boundary_genus == 0
    d2 = from_colored_chord(next(ccd for g, ccd in all_colored_classes(2) if g == 2))
    c2 = census(d2)
    assert c2.as_tuple() == (1, 0, 2, 2, 0, 1) and c2.boundary_genus == 2


def test_census_requires_validity():
    st = make_solid_torus_diagram()
    broken = PrDiagram(st.surface, (st.curves[0],))
    with pytest.raises(InvalidDiagram):
        census(broken)


def test_census_with_green_cycle():
    c = census(cat.load_fixture("d3_four_b.json"))
    assert c.as_tuple() == (1, 1, 0, 1, 0, 1)
    assert c.boundary_genus == 0


def test_morse_checks_pass_on_fixtures():
    for name in cat.fixture_names():
        mc = morse_checks(cat.load_fixture(name))
        assert mc.passed, name


def test_morse_euler_arithmetic_detects_violation():
    # a hypothetical census failing the boundary Euler relation
    c = Census(1, 0, 1, 0, 0, 1, 0)
    lhs = (c.n1 + c.n2) + (c.n5 + c.n6) - (c.n3 + c.n4)
    assert lhs == 1 and lhs != 2 - 2 * c.boundary_genus


# ---------------------------------------------------------------------------
# optimality
# ---------------------------------------------------------------------------

def test_solid_torus_is_optimal():
    assert is_optimal(make_solid_torus_diagram(), 1)
    assert not is_optimal(make_solid_torus_diagram(), 2)


def test_parallel_pairs_genus2_diagram_is_optimal():
    # a disk with two holes, each joined to the outer boundary by one green
    # and one red arc: the planar genus-2 diagram
    planar = ColoredChordDiagram(ChordDiagram(4, (2, 3, 0, 1, 6, 7, 4, 5)),
                                 (GREEN, RED, GREEN, RED))
    d = from_colored_chord(planar)
    from morsediag.combmap import euler_genus

    assert euler_genus(d.surface) == (-1, 0, 3)
    assert is_optimal(d, 2)


def test_extra_arc_breaks_optimality():
    a = cat.load_fixture("d3_four_a.json")
    assert not is_optimal(a, 1)     # census (2,0,1,0,0,1)


# ---------------------------------------------------------------------------
# conversions
# ---------------------------------------------------------------------------

def test_solid_torus_chord_conversion():
    ccd = to_colored_chord(make_solid_torus_diagram())
    assert canonical_colored(ccd) == canonical_colored(G1_COLORED)


def test_conversion_requires_optimal():
    with pytest.raises(NotOptimal):
        to_colored_chord(cat.load_fixture("d3_four_a.json"))
    # the trivial flow is optimal at genus 0, where no chord diagram exists
    with pytest.raises(NotOptimal, match="genus >= 1"):
        to_colored_chord(cat.load_fixture("d3_trivial.json"))


def test_from_colored_chord_rejects_bad_input():
    with pytest.raises(InvalidColoring):
        from_colored_chord(ColoredChordDiagram(ChordDiagram(2, (2, 3, 0, 1)),
                                               (GREEN, GREEN)))
    crossing_greens = ColoredChordDiagram(
        ChordDiagram(4, (4, 5, 6, 7, 0, 1, 2, 3)),
        (GREEN, GREEN, RED, RED))
    with pytest.raises(InvalidColoring):
        from_colored_chord(crossing_greens)
    nested = ChordDiagram(2, (1, 0, 3, 2))     # three faces
    with pytest.raises(InvalidColoring):
        from_colored_chord(ColoredChordDiagram(nested, (GREEN, RED)))
    six = ChordDiagram(3, (3, 4, 5, 0, 1, 2))  # 4g + 2 points
    with pytest.raises(InvalidColoring, match="an optimal coloring has 4g points"):
        from_colored_chord(ColoredChordDiagram(six, (GREEN, RED, RED)))


def test_roundtrip_small_genus():
    for g, ccd in all_colored_classes(2):
        d = from_colored_chord(ccd)
        assert validate(d).valid
        assert is_optimal(d, g)
        back = to_colored_chord(d)
        assert canonical_colored(back) == canonical_colored(ccd)
        again = from_colored_chord(back)
        assert equivalent(d, again)


@pytest.mark.parametrize("k", [1, 2])
def test_subdivided_renamed_optimal_diagrams_convert_back(k):
    # every g1-3 class rebuilt, each curve edge cut into k + 1 edges, darts
    # renamed: arcs of several edges, whose interior vertices the chord
    # circle's walk passes over when it jumps from one red arc end to the other
    rng = random.Random(1000 + k)
    for g, ccd in all_colored_classes(3):
        d = relabel_diagram(subdivide_curves(from_colored_chord(ccd), k), rng)
        assert validate(d).valid
        c = census(d)
        assert (c.as_tuple(), c.boundary_genus) == ((1, 0, g, g, 0, 1), g)
        assert canonical_colored(to_colored_chord(d)) == canonical_colored(ccd)
        assert boundary_restriction(d).role_counts() == {"source": 1, "saddle": 2 * g, "sink": 1}


def _chord_off_the_red_cut(d: PrDiagram, sym: SymmetryConvention) -> tuple:
    """The colored chord diagram of an optimal diagram read off the red cut
    map of reference_side_cut: walk its one hole face, mark each vertex that
    ends a u-arc and each edge on a side of a v-arc, and keep each run's last
    mark (a red side of several edges is one run, which the start may split).
    Returns the least (matching, point colors) image over the circle's
    rotations and, under DIHEDRAL, its reflections."""
    _, walks = pr._curve_walks(d, cmb._orbit_ids(d.surface.sigma))
    m, _, arc_copies = reference_side_cut(d, walks, [], green=False)
    side_of = {min(t, m.alpha[t]): (ci, side) for ci, copies in arc_copies.items()
               for side, darts in enumerate(copies) for t in darts}
    vid = cmb._orbit_ids(m.sigma)
    vert_u = {vid[t]: ci for ci, (c, w) in enumerate(zip(d.curves, walks))
              if c.label.kind is CurveKind.U_GREEN_ARC
              for t in (w.darts[0], d.surface.alpha[w.darts[-1]])}
    (start,) = m.holes
    marks, x = [], start
    while True:
        if vid[x] in vert_u:
            marks.append(("u", vert_u[vid[x]]))
        e = min(x, m.alpha[x])
        if e in side_of:
            marks.append(("v", side_of[e]))
        x = m.sigma[m.alpha[x]]
        if x == start:
            break
    marks = [mk for i, mk in enumerate(marks) if mk != marks[i - 1]]
    arc = [ci if kind == "u" else ci[0] for kind, ci in marks]
    match = [next(j for j, b in enumerate(arc) if b == a and j != i) for i, a in enumerate(arc)]
    colors = [GREEN if kind == "u" else RED for kind, _ in marks]
    return least_circle_image(match, colors, reflections=sym is DIH)


def test_chord_circle_read_uncut_matches_the_red_cut_reference():
    # to_colored_chord reads the circle on the uncut surface; the reference
    # cuts the red arcs and walks the cut map's hole.  Every optimal corpus
    # diagram, and copies with each curve edge cut into k + 1 edges and
    # darts renamed, under both conventions
    rng = random.Random(25)
    optimal = []
    for d in analysis_corpus():
        g = sum(c.label.kind is CurveKind.U_GREEN_ARC for c in d.curves)
        if g and validate(d).valid and is_optimal(d, g):
            optimal.append(d)
    diagrams = optimal + [relabel_diagram(subdivide_curves(d, k), rng)
                          for k in (1, 2) for d in optimal]
    for d in diagrams:
        for sym in (ROT, DIH):
            ccd = to_colored_chord(d, sym)
            assert (ccd.base.match, ccd.point_colors()) == _chord_off_the_red_cut(d, sym)
    assert len(diagrams) == 3 * 406


def test_rotation_only_classes_convert_back_and_count_as_the_surface_codes():
    # a circle read the wrong way round gives each chiral class its mirror,
    # which only ROTATION_ONLY tells apart.  Every rotation-only class of
    # genus 1-3 converts back as itself; rebuilt, the classes give as many
    # distinct mirror-free surface codes as Burnside counts rotation-only
    # classes, and as many mirror codes as it counts dihedral ones
    counts = []
    for g in (1, 2, 3):
        diagrams = []
        for base in enumerate_bases(g, ROT):
            for ccd in enumerate_colorings(base, g, ROT):
                d = from_colored_chord(ccd)
                assert canonical_colored(to_colored_chord(d, ROT), ROT) == \
                    canonical_colored(ccd, ROT)
                diagrams.append(d)
        codes = [len({pr_canonical_code(d, mirror) for d in diagrams})
                 for mirror in (False, True)]
        assert [len(diagrams), *codes] == [
            chord_orbit_counts(g, reflections=False).colored,
            chord_orbit_counts(g, reflections=False).colored,
            chord_orbit_counts(g, reflections=True).colored]
        counts.append(codes)
    assert counts == [[1, 1], [8, 5], [342, 179]]


def test_genus4_sample_round_trips_through_flow_diagrams(genus4_report):
    # a seeded sample of the genus-4 colored classes: each rebuilds to a valid
    # flow diagram with census (1,0,4,4,0,1) that reads back as its own class,
    # and no two share a surface code; tests/g4_round_trip.py checks them all
    sample = random.Random(4).sample(genus4_report.colored_codes, 1000)
    assert len(set(map(round_trip, sample))) == len(sample)


def test_genus1_conversion_equals_hand_fixture():
    assert equivalent(from_colored_chord(G1_COLORED), make_solid_torus_diagram())


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_equivalence_under_relabeling(rng):
    for name in ("solid_torus.json", "d3_four_b.json", "g2_optimal_3.json"):
        d = cat.load_fixture(name)
        for _ in range(5):
            copy = relabel_diagram(d, rng)
            assert equivalent(d, copy)
            assert census(copy).as_tuple() == census(d).as_tuple()


def test_four_point_fixtures_not_equivalent():
    a = cat.load_fixture("d3_four_a.json")
    b = cat.load_fixture("d3_four_b.json")
    assert not equivalent(a, b)


def test_genus2_classes_pairwise_inequivalent():
    codes = set()
    diagrams = [from_colored_chord(ccd) for g, ccd in all_colored_classes(2) if g == 2]
    for d in diagrams:
        codes.add(pr_canonical_code(d))
    assert len(codes) == 5


def test_equivalent_requires_valid_inputs():
    st = make_solid_torus_diagram()
    broken = PrDiagram(st.surface, (st.curves[0],))
    with pytest.raises(InvalidDiagram):
        equivalent(broken, st)


def test_each_diagram_is_analysed_once_across_calls(monkeypatch, rng):
    # the first public call on a diagram runs its one validity analysis,
    # which counts each side of an optimal diagram.  Later calls on
    # an equal diagram run no analysis, and equivalent analyses each of its
    # arguments at most once and makes the canonical key of each it does not
    # hold, unless their face invariants differ: then it makes no key.  Face
    # ids are found once per diagram, by its analysis
    events = []
    face_id_calls = []
    count_side = pr._counted_side
    key, face_ids = cmb._canonical_key, cmb._face_ids

    def counted_side(*args):
        events.append(("count", args[3]))
        return count_side(*args)

    def counted_key(*args):
        events.append("key")
        return key(*args)

    def counted_face_ids(*args):
        face_id_calls.append(args)
        return face_ids(*args)

    def cold():
        clear_analysis_caches()
        events.clear()

    monkeypatch.setattr(pr, "_counted_side", counted_side)
    monkeypatch.setattr(cmb, "_canonical_key", counted_key)
    monkeypatch.setattr(cmb, "_face_ids", counted_face_ids)
    ccd = next(ccd for g, ccd in all_colored_classes(3) if g == 3)
    d = from_colored_chord(ccd)
    counts = [("count", True), ("count", False)]
    ops = {"validate": validate, "census": census, "morse_checks": morse_checks,
           "is_optimal": lambda x: is_optimal(x, 3),
           "boundary_restriction": boundary_restriction, "to_colored_chord": to_colored_chord}
    for name, first in ops.items():
        cold()
        first(d)
        assert events == counts, name
        events.clear()
        for op in ops.values():
            op(from_colored_chord(ccd))   # an equal diagram, built anew
        assert events == [], name
    other = relabel_diagram(d, rng)
    cold()
    face_id_calls.clear()
    assert equivalent(d, other)
    assert events == counts + counts + ["key", "key"]
    assert len(face_id_calls) == 2
    events.clear()
    # both keys are held, so no key is made
    assert equivalent(other, d)
    assert pr_canonical_code(d) == pr_canonical_code(other)
    for op in ops.values():
        op(d)
        op(other)
    assert events == []
    cold()
    validate(d)
    assert equivalent(d, d)
    assert events == counts + ["key"]
    # one diagram-analysis benchmark operation: the calls on d, the codes of
    # d and of a renamed copy, and d compared with that copy and with
    # another class; it cuts nothing
    third = from_colored_chord(next(ccd for g, ccd in all_colored_classes(3) if g == 3
                                    and from_colored_chord(ccd) != d))
    cold()
    for op in ops.values():
        op(d)
    pr_canonical_code(d)
    pr_canonical_code(other)
    assert equivalent(d, other) and not equivalent(d, third)
    assert events == counts + ["key"] + counts + ["key"] + counts + ["key"]
    # a class whose face invariant differs from d's: two analyses and no key
    apart = next(x for x in (from_colored_chord(ccd) for g, ccd in all_colored_classes(3)
                             if g == 3)
                 if pr._face_invariant(x, pr._analyse(x)) != pr._face_invariant(d, pr._analyse(d)))
    cold()
    face_id_calls.clear()
    assert not equivalent(d, apart)
    assert events == counts + counts
    assert len(face_id_calls) == 2
    # a side with cycles is counted too: d3_four_b has a closed green one,
    # the six-point flow a green one through a u-arc; and the analysis holds
    # the piece of every dart, which the flow reads: d3_four_a's u-arc
    # leaves two green pieces.  No call cuts
    for diagram in (cat.load_fixture("d3_four_b.json"), make_six_point_ball_flow(),
                    cat.load_fixture("d3_four_a.json")):
        for first in (validate, census, boundary_restriction):
            cold()
            first(diagram)
            assert events == counts, first
            events.clear()
            for op in (validate, census, boundary_restriction):
                op(diagram)
            assert events == [], first


# ---------------------------------------------------------------------------
# hashes
# ---------------------------------------------------------------------------

def _fresh_copy(d: PrDiagram) -> PrDiagram:
    m = d.surface
    return PrDiagram(CombMap(m.alpha, m.sigma, tuple(CurveLabel(lb.kind, lb.index)
                                                     for lb in m.labels),
                             m.holes),
                     tuple(EmbeddedCurve(c.edges, c.closed, CurveLabel(c.label.kind, c.label.index))
                           for c in d.curves))


def test_kept_hash_is_the_named_fields_hash_and_fields_stay_as_they_were():
    d = cat.load_fixture("solid_torus.json")
    m = d.surface
    texts = (repr(d), repr(m), repr(m.labels[0]))
    assert hash(d) == hash((d.surface,))
    assert hash(m) == hash((m.alpha, m.sigma, m.holes))
    assert hash(m.labels[0]) == hash((m.labels[0].kind, m.labels[0].index))
    assert (repr(d), repr(m), repr(m.labels[0])) == texts
    assert PrDiagram._fields == ("surface", "curves")
    assert CombMap._fields == ("alpha", "sigma", "labels", "holes")
    assert CurveLabel._fields == ("kind", "index")
    # a diagram equals a fresh copy, both ways, and hashes like it
    fresh = _fresh_copy(d)
    assert d == fresh and fresh == d and hash(fresh) == hash(d)
    relabeled = PrDiagram(CombMap(m.alpha, m.sigma, m.labels[::-1], m.holes), d.curves)
    assert relabeled != d and d != relabeled
    with pytest.raises(AttributeError):
        d.curves = ()


def test_replace_gives_a_copy_hashed_by_its_own_named_fields():
    d = cat.load_fixture("solid_torus.json")
    m = d.surface
    fewer = d._replace(curves=d.curves[:1])
    assert hash(fewer) == hash(PrDiagram(m, d.curves[:1])) == hash(d)
    no_holes = m._replace(holes=frozenset())
    assert hash(no_holes) == hash(CombMap(m.alpha, m.sigma, m.labels, frozenset())) \
        == hash((m.alpha, m.sigma, frozenset()))
    assert d._replace() == d and hash(d._replace()) == hash(d)


def test_diagrams_differing_only_in_labels_hash_alike_and_keep_their_own_analyses():
    # the solid torus and a copy whose u arc and boundary edge 0 trade
    # labels, the u curve following: same alpha, sigma and holes, so the
    # hash, which leaves labels out, is shared, and equality tells them
    # apart, in the analysis cache too
    d = cat.load_fixture("solid_torus.json")
    m = d.surface
    trade = {0: 8, 1: 9, 8: 0, 9: 1}
    labels = tuple(m.labels[trade.get(x, x)] for x in range(m.n_darts))
    moved = PrDiagram(CombMap(m.alpha, m.sigma, labels, m.holes),
                      tuple(EmbeddedCurve(tuple(trade.get(e, e) for e in c.edges), c.closed,
                                          c.label) for c in d.curves))
    assert sorted(labels, key=repr) == sorted(m.labels, key=repr)
    assert hash(moved) == hash(d) and hash(moved.surface) == hash(m)
    assert moved != d and d != moved and moved.surface != m
    pr._analyse.cache_clear()
    first, second = pr._analyse(d), pr._analyse(moved)
    assert first is not second and pr._analyse.cache_info().currsize == 2
    assert pr._analyse(d) is first and pr._analyse(moved) is second
    assert validate(d).valid and validate(d) is first.report
    assert validate(moved) is second.report
    assert second.report.first_failure() == \
        "p3_disjointness: u and v arcs share endpoint (dart 1)"
    for mirror in (True, False):
        assert pr_canonical_code(moved, mirror) != pr_canonical_code(d, mirror)
        assert first.keys[mirror] != second.keys[mirror]


_PICKLE_IN = """
import pickle, sys
import morsediag.catalog as cat
import morsediag.prdiag as pr
d = cat.load_fixture("solid_torus.json")
pr.validate(d)   # hashes the diagram and its surface
with open(sys.argv[1], "wb") as fh:
    pickle.dump(d, fh)
"""

_LOAD_IN = """
import pickle, sys
import morsediag.catalog as cat
import morsediag.prdiag as pr
with open(sys.argv[1], "rb") as fh:
    loaded = pickle.load(fh)
fresh = cat.load_fixture("solid_torus.json")
assert loaded == fresh
assert hash(loaded) == hash(fresh)
assert hash(loaded.surface) == hash(fresh.surface)
assert [hash(lb) for lb in loaded.surface.labels] == [hash(lb) for lb in fresh.surface.labels]
report = pr.validate(fresh)
info = pr._analyse.cache_info()
assert pr.validate(loaded) is report
assert pr._analyse.cache_info().hits == info.hits + 1
print("ok")
"""


def test_a_pickled_diagram_hashes_like_a_fresh_one_in_another_process(tmp_path):
    # string hashes are salted per process, so no hash may travel in a pickle
    path = str(tmp_path / "d.pickle")
    src = str(Path(pr.__file__).resolve().parents[1])
    for seed, script in (("1", _PICKLE_IN), ("2", _LOAD_IN)):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", script, path], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


# ---------------------------------------------------------------------------
# boundary restriction
# ---------------------------------------------------------------------------

def test_boundary_restriction_solid_torus():
    bg = boundary_restriction(make_solid_torus_diagram())
    assert bg.genus == 1
    assert bg.role_counts() == {"source": 1, "saddle": 2, "sink": 1}
    types = sorted(v.point_type for v in bg.vertices)
    assert types == [1, 3, 4, 6]
    # every saddle carries two stable and two unstable separatrices
    for v in bg.vertices:
        if v.role == "saddle":
            assert sum(1 for e in bg.edges if e[1] == v.id) == 2
            assert sum(1 for e in bg.edges if e[0] == v.id) == 2
    # sources only outgoing, sinks only incoming
    for v in bg.vertices:
        if v.role == "source":
            assert all(e[1] != v.id for e in bg.edges)
        if v.role == "sink":
            assert all(e[0] != v.id for e in bg.edges)


def test_boundary_restriction_trivial_flow():
    bg = boundary_restriction(cat.load_fixture("d3_trivial.json"))
    assert bg.genus == 0
    assert bg.role_counts() == {"source": 1, "saddle": 0, "sink": 1}
    assert bg.edges == ()


def test_boundary_restriction_type2_source():
    bg = boundary_restriction(cat.load_fixture("d3_four_b.json"))
    types = sorted(v.point_type for v in bg.vertices)
    assert types == [1, 2, 4, 6]
    assert bg.genus == 0


def test_colour_swap_reverses_the_flow():
    # sources and sinks mirror each other: validity is unchanged, the census
    # comes out reversed, and each separatrix (type a -> type b) becomes one
    # of type 7 - b -> 7 - a
    valid = red_caps = 0
    for d in analysis_corpus():
        s = _colour_swapped(d)
        assert validate(s).valid == validate(d).valid
        if not validate(d).valid:
            continue
        valid += 1
        assert census(s).as_tuple() == census(d).as_tuple()[::-1]
        red_caps += census(s).n5 > 0
        bd, bs = boundary_restriction(d), boundary_restriction(s)
        assert bs.genus == bd.genus
        tp = [v.point_type for v in bd.vertices]   # vertex ids are 0, 1, ...
        ts = [v.point_type for v in bs.vertices]
        assert sorted((7 - tp[b], 7 - tp[a]) for a, b in bd.edges) == \
            sorted((ts[a], ts[b]) for a, b in bs.edges)
    assert (valid, red_caps) == (414, 4)


def test_colour_swapped_six_point_flow_is_pinned():
    # the green cycle becomes a red one, whose cap is a type-5 sink
    s = _colour_swapped(make_six_point_ball_flow())
    assert census(s).as_tuple() == (1, 0, 1, 1, 1, 2)
    bg = boundary_restriction(s)
    assert [v.point_type for v in bg.vertices] == [1, 3, 4, 5, 6, 6]
    assert [list(e) for e in bg.edges] == \
        [[0, 1], [0, 1], [1, 4], [1, 5], [0, 2], [0, 2], [2, 3], [2, 4]]


@pytest.mark.parametrize("sym, counts, river_g3", [
    (DIH, [(1, 1, 0), (5, 5, 0), (51, 179, 8)], (4, 4, 3, 0)),
    (ROT, [(1, 1, 0), (4, 2, 0), (36, 16, 16)], (8, 8, 4, 0)),
], ids=["dihedral", "rotation"])
def test_reversal_is_an_involution_on_the_colored_classes(sym, counts, river_g3):
    # the reversed flow's red arcs are the rebuilt green chords, so
    # to_colored_chord reads the circle across the other family.  At genus
    # 1-3 every reverse is a valid optimal diagram of an enumerated class,
    # reversing twice gives the class back and reversal commutes with the
    # mirror.  Per genus: (self-dual, achiral, river flag unlike the
    # reverse's) classes; the river test is not reversal-invariant
    got = []
    for g in (1, 2, 3):
        report = classify(g, sym)
        got.append(reversal_counts(report.colored_codes, report.river_codes, sym))
    assert got == counts
    # the genus-3 mismatches split (README, "Reference counts"): river
    # classes whose reverse is not river, non-river classes whose reverse
    # is, self-dual river classes and river classes reversing to another
    river = set(report.river_codes)
    rev = {code: reversal(code, sym) for code in report.colored_codes}
    assert (sum(c in river and b not in river for c, b in rev.items()),
            sum(c not in river and b in river for c, b in rev.items()),
            sum(c in river and b == c for c, b in rev.items()),
            sum(c in river and b in river and b != c for c, b in rev.items())) == river_g3


def test_boundary_euler_relation_over_catalog():
    for g, ccd in all_colored_classes(2):
        d = from_colored_chord(ccd)
        bg = boundary_restriction(d)
        counts = bg.role_counts()
        assert counts["source"] + counts["sink"] - counts["saddle"] == 2 - 2 * bg.genus
        c = census(d)
        per_type = {}
        for v in bg.vertices:
            per_type[v.point_type] = per_type.get(v.point_type, 0) + 1
        assert per_type.get(1, 0) == c.n1
        assert per_type.get(3, 0) == c.n3
        assert per_type.get(4, 0) == c.n4
        assert per_type.get(6, 0) == c.n6


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_pr_json_roundtrip():
    for name in ("solid_torus.json", "d3_four_b.json", "g2_optimal_1.json"):
        d = cat.load_fixture(name)
        d2 = pr_from_json(pr_to_json(d))
        assert equivalent(d, d2)
        assert census(d2).as_tuple() == census(d).as_tuple()


# ---------------------------------------------------------------------------
# alternating cycles (open U components absorbed into left-turn cycles)
# ---------------------------------------------------------------------------

def test_alternating_cycle_diagram_is_valid():
    d = make_six_point_ball_flow()
    from morsediag.combmap import euler_genus

    assert euler_genus(d.surface) == (0, 0, 2)
    rep = validate(d)
    assert rep.valid, rep.first_failure()


def test_alternating_cycle_census_and_boundary():
    d = make_six_point_ball_flow()
    c = census(d)
    assert c.as_tuple() == (2, 1, 1, 1, 0, 1)
    assert c.boundary_genus == 0
    assert morse_checks(d).passed     # 3 sources + 1 sink - 2 saddles = 2
    bg = boundary_restriction(d)
    assert sorted(v.point_type for v in bg.vertices) == [1, 1, 2, 3, 4, 6]
    roles = bg.role_counts()
    assert roles["source"] + roles["sink"] - roles["saddle"] == 2


def test_alternating_cycle_census_invariant_under_relabeling(rng):
    d = make_six_point_ball_flow()
    for _ in range(5):
        copy = relabel_diagram(d, rng)
        assert validate(copy).valid
        assert census(copy).as_tuple() == (2, 1, 1, 1, 0, 1)
        assert equivalent(copy, d)


def test_pinched_cycle_fails_disk_reduction():
    rep = validate(make_pinched_cycle_diagram())
    verdicts = {p.name: p for p in rep.properties}
    assert verdicts["p4_left_turn_cycles"].passed
    assert not verdicts["p5_disk_reduction"].passed
    assert verdicts["p5_disk_reduction"].witness == (
        "green reduction component 2 is not a disk (chi, genus, boundary) = (2, 0, 0)")


def _curves_only(sigma, kinds) -> PrDiagram:
    """A map with no boundary whose edge i (darts 2i, 2i + 1) is the open
    curve i of ``kinds[i]``: p1 fails, but p4 still walks every piece."""
    labels = {2 * i: CurveLabel(kind, i) for i, kind in enumerate(kinds)}
    m = build_map(len(sigma), [t ^ 1 for t in range(len(sigma))], sigma, labels)
    return PrDiagram(m, tuple(EmbeddedCurve((e,), False, lb) for e, lb in labels.items()))


def test_left_turn_walk_refuses_a_piece_taken_the_other_way():
    U, u = CurveKind.U_GREEN_CYCLE, CurveKind.U_GREEN_ARC
    witness = "open 'U' component 1 does not close into an alternating left-turn cycle"
    # From U0 the walk takes u2 backwards, then U1, u4 and U3, then u2
    # forwards: a piece of its own trail the other way round.  From U0
    # backwards, (U0, u4) closes; from U1 either way round the walk then
    # meets u4 or U0, pieces of that earlier trail.
    own = _curves_only([8, 5, 10, 9, 2, 3, 4, 11, 7, 1, 6, 0], [U, U, u, U, u, u])
    # (U0, u2) closes; from U1 the walk takes u2 backwards, a piece of an
    # earlier trail.
    earlier = _curves_only([3, 4, 1, 5, 2, 0], [U, U, u])
    for d in (own, earlier):
        p4 = validate(d).properties[3]
        assert (p4.name, p4.passed, p4.witness) == ("p4_left_turn_cycles", False, witness)


def test_disk_reduction_witness_names_the_component():
    # d3_four_a's u-arc cuts its disk into green components 0 and 1; a closed
    # torus beside it is component 2, and the witness gives that one's shape
    four_a = cat.load_fixture("d3_four_a.json")
    d = PrDiagram(disjoint_union(four_a.surface, make_torus()), four_a.curves)
    analysis = pr._analyse(d)
    assert analysis.green.n_components == 3
    assert analysis.report.properties[-1].witness == (
        "green reduction component 2 is not a disk (chi, genus, boundary) = (0, 1, 0)")


def test_disconnected_surfaces_are_compared_component_by_component(rng):
    # the 2-dart disk A beside either of two non-isomorphic 4-dart disks X,
    # Y: a trace covers its root's component only, so A + X and A + Y once
    # shared the code of A
    disk = build_map(2, (1, 0), (1, 0), hole_faces=(1,))
    x = build_map(4, (1, 0, 3, 2), (1, 2, 3, 0), hole_faces=(1,))
    y = build_map(4, (1, 0, 3, 2), (2, 3, 0, 1), hole_faces=(0,))
    ax, ay, xa = (PrDiagram(disjoint_union(p, q), ())
                  for p, q in ((disk, x), (disk, y), (x, disk)))
    assert all(validate(d).valid for d in (ax, ay, xa))
    for mirror in (True, False):
        assert not equivalent(PrDiagram(x, ()), PrDiagram(y, ()), mirror)
        assert not equivalent(ax, ay, mirror)
        assert equivalent(ax, xa, mirror)
        assert equivalent(ax, relabel_diagram(ax, rng), mirror)
    # the code lists the components' codes, and a connected code is unchanged
    assert pr_canonical_code(ax) == b"cm1[dih]|n=6|" + b" ".join(
        sorted([cmb.canonical_code(disk), cmb.canonical_code(x)]))
    assert cmb.canonical_code(x) == b"cm1[dih]|n=4|1,1,0,0;2,0,0,0;3,3,0,0;0,2,0,1"


def test_census_of_a_disconnected_surface_raises_like_euler_genus():
    four_a = cat.load_fixture("d3_four_a.json")
    disk = cat.load_fixture("d3_trivial.json").surface
    d = PrDiagram(disjoint_union(four_a.surface, disk), four_a.curves)
    assert validate(d).valid
    with pytest.raises(MapError, match="^euler_genus requires a connected map$"):
        census(d)
    # a handlebody's boundary is connected: the diagram is not optimal
    assert not is_optimal(d, 1)
    with pytest.raises(NotOptimal, match="^chord conversion requires an optimal diagram$"):
        to_colored_chord(d)


def test_json_round_trip_is_the_identity():
    # through JSON text and back: maps and flow diagrams of the fixtures, the
    # corpus and disconnected surfaces (map_from_json once refused those),
    # and chord diagrams with and without colors
    def via_text(obj):
        return json.loads(json.dumps(obj))

    disks = small_disks()
    diagrams = list(analysis_corpus())
    diagrams += [PrDiagram(disjoint_union(a, b), ()) for a in disks for b in disks]
    for name in cat.fixture_names():
        d = cat.load_fixture(name)
        diagrams += [d, PrDiagram(disjoint_union(d.surface, disks[-1]), d.curves)]
    for d in diagrams:
        assert cmb.map_from_json(via_text(cmb.map_to_json(d.surface))) == d.surface
        assert pr_from_json(via_text(pr_to_json(d))) == d
    for _, ccd in all_colored_classes(3):
        assert chord_from_json(via_text(colored_to_json(ccd))) == ccd
        assert chord_from_json(via_text(chord_to_json(ccd.base))) == ccd.base


def _invariant(d: PrDiagram) -> list:
    return pr._face_invariant(d, pr._analyse(d))


def _mirrored(d: PrDiagram) -> PrDiagram:
    """The diagram on the mirror surface: alpha, and so the edge ids, stay."""
    return PrDiagram(mirror_map(d.surface), d.curves)


def test_equal_codes_have_equal_face_invariants(rng):
    # equivalent answers False, tracing nothing, when the face invariants
    # differ: sound only if equal codes give equal invariants, with and
    # without the mirror, on the corpus and its renamed, mirrored and
    # subdivided copies.  The invariant tells many classes apart.
    corpus = analysis_corpus()
    diagrams = list(corpus) + [relabel_diagram(d, rng) for d in corpus]
    diagrams += [_mirrored(d) for d in corpus] + [subdivide_curves(d, 1) for d in corpus]
    for mirror in (True, False):
        invariants = {}   # code -> the invariant of its first diagram
        for d in diagrams:
            code = pr_canonical_code(d, mirror)
            assert invariants.setdefault(code, _invariant(d)) == _invariant(d)
        distinct = {repr(inv) for inv in invariants.values()}
        assert len(invariants) == {True: 403, False: 581}[mirror]
        assert len(distinct) == 153


def test_equivalent_agrees_with_comparing_codes(rng):
    # equivalent compares keys when b's is held, and otherwise answers
    # False, making no key, when the face invariants differ, on connected
    # and disconnected surfaces alike; else it compares keys.  Both unheld
    # cases occur on connected pairs, the second also for unequal codes:
    # among them a chiral diagram and its mirror without the mirror
    pick = random.Random(18)
    sample = pick.sample([d for d in analysis_corpus() if validate(d).valid], 10)
    unions = pick.sample(list(product(small_disks(), repeat=2)), 3)
    chiral = next(d for d in analysis_corpus()
                  if pr_canonical_code(d, False) != pr_canonical_code(_mirrored(d), False))
    diagrams = sample + [relabel_diagram(d, rng) for d in sample] + [chiral, _mirrored(chiral)]
    diagrams += [PrDiagram(disjoint_union(*pair), ()) for x, y in unions
                 for pair in ((x, y), (y, x))]
    for mirror in (True, False):
        codes = [pr_canonical_code(d, mirror) for d in diagrams]
        same = 0
        # unheld pairs: (both connected, equal invariants, equal codes)
        paths = Counter()
        for held in (False, True):
            for (a, code_a), (b, code_b) in product(zip(diagrams, codes), repeat=2):
                clear_analysis_caches()
                if held:
                    pr_canonical_code(a, mirror)
                    pr_canonical_code(b, mirror)
                    assert mirror in pr._analyse(b).keys
                else:
                    connected = None not in (pr._analyse(a).chi, pr._analyse(b).chi)
                    tie = _invariant(a) == _invariant(b)
                    paths[connected, tie, code_a == code_b] += 1
                    clear_analysis_caches()
                assert equivalent(a, b, mirror) == (code_a == code_b)
                if not held:   # keys are made iff the invariants tie
                    made = [mirror in pr._analyse(x).keys for x in (a, b)]
                    assert made == [tie, tie]
                same += code_a == code_b
        assert same > 2 * len(diagrams)   # a renamed copy is equivalent too
        assert paths[True, False, True] == paths[False, False, True] == 0
        assert min(paths[True, False, False], paths[True, True, False],
                   paths[True, True, True], paths[False, False, False]) > 0


def _cycle_diagrams() -> list:
    """The hand-built diagrams with cycles on a grid, and their colour
    swaps, whose cycles are red."""
    out = [make_two_ring_pants_diagram(), make_four_piece_cycle_diagram(),
           make_four_piece_cycle_diagram(inner_hole=False)]
    return out + [_colour_swapped(d) for d in out]


def test_hand_built_cycle_diagrams_by_hand():
    # Pants: chi = 1 - 2 = -1 (a disk less two square holes).  Surgery on
    # the two closed U rings leaves the annulus inside each ring, capped,
    # and the rest, capped twice: three disks, so n1 = 3 - 2 caps = 1 and
    # n2 = 2.  The two red arcs, outer boundary to each hole, leave one
    # disk: n4 = 2, n6 = 1.  Boundary chi = 2(-1) + 2 * 2 = 2, genus 0.
    # Four-piece cycle: an annulus (chi = 0) with one green cycle u U u U
    # round the hole, meeting the outer boundary at the four arc ends.
    # Surgery and the two u cuts leave the capped annulus inside the
    # cycle, the strip under each u arc, and the Q cap with the strips
    # beside the two U arcs: four disks, 0 + 2 + 2 * 1, so n1 = 3, n2 = 1,
    # n3 = 2.  The red arc, outer boundary to the hole, cuts the annulus to
    # a disk: n4 = 1, n6 = 1.  Boundary chi = 2 * 0 + 2 * 1 = 2, genus 0.
    # Without the hole, the disk inside the cycle caps to a sphere, the
    # second piece by least dart.  The colour swaps reverse each census.
    pants, four, sphere = _cycle_diagrams()[:3]
    assert [euler_genus(d.surface) for d in (pants, four, sphere)] == \
        [(-1, 0, 3), (0, 0, 2), (1, 0, 1)]
    expected = {pants: (1, 2, 0, 2, 0, 1), four: (3, 1, 2, 1, 0, 1)}
    for d, counts in expected.items():
        for copy in (d, relabel_diagram(d, random.Random(7)), _mirrored(d)):
            c = census(copy)
            assert (c.as_tuple(), c.boundary_genus) == (counts, 0)
            assert morse_checks(copy).passed
            assert census(_colour_swapped(copy)).as_tuple() == counts[::-1]
    assert validate(sphere).first_failure() == (
        "p5_disk_reduction: green reduction component 1 is not a disk "
        "(chi, genus, boundary) = (2, 0, 0)")


def _count_sides(rng, with_cycles: bool) -> Counter:
    """Both color sides of: the corpus diagrams; their family swaps whose
    analysis reaches property 5; the hand-built cycle diagrams with their
    renamed and mirrored copies; and three surfaces in two pieces, a sphere
    or the 2-dart disk (a segment, a piece without faces) beside an annulus
    or a disk.  Each side with cycles, or each side without, is counted and
    must equal the reference field by field: the piece of every dart of the
    cut map, the pieces, the first piece that is not a disk with its (chi,
    genus, boundary) taken from euler_genus of its map, the caps and the arc
    copies.  Returns those sides by (pieces, all disks)."""
    corpus = analysis_corpus()
    broken = [v for d in corpus if len(d.curves) <= 4 for v in _family_swaps(d)
              if validate(v).properties[-1].witness != "prerequisite failed"]
    hand = _cycle_diagrams()
    hand += [relabel_diagram(d, rng) for d in hand] + [_mirrored(d) for d in hand]
    segment = next(m for m in small_disks() if m.n_darts == 2)
    annulus = make_solid_torus_diagram().surface
    annulus = annulus._replace(labels=(cmb._BDY,) * annulus.n_darts)
    pairs = [(make_sphere(), annulus), (segment, annulus), (segment, make_circle())]
    unions = [PrDiagram(disjoint_union(a, b), ()) for a, b in pairs]
    assert [validate(d).valid for d in unions] == [False, False, True]
    outcomes = Counter()
    for d in corpus + tuple(broken) + tuple(hand) + tuple(unions):
        m = d.surface
        vid, fid = cmb._orbit_ids(m.sigma), cmb._face_ids(m.alpha, m.sigma)
        hole = [f in m.holes for f in fid]
        faces = len(set(fid)) - len(m.holes)
        chi = len(set(vid)) - m.n_darts // 2 + faces
        inner = [e for e in m.edge_ids() if not (hole[e] or hole[m.alpha[e]])]
        _, walks = pr._curve_walks(d, vid)
        for green in (True, False):
            cycles = pr._assemble_cycles(d, walks, green)[0]
            if bool(cycles) != with_cycles:
                continue
            at = cmb._boundary_vertices(m, vid, hole)
            got = pr._counted_side(d, walks, cycles, green, vid, fid, hole, at, chi, faces, inner)
            assert got == reference_side_reduction(d, walks, cycles, green)
            pieces = "one" if got.n_components == 1 else "more"
            outcomes[pieces, got.non_disk is None] += 1
    return outcomes


def test_side_reduction_matches_cut_by_cut_reference(rng):
    # the sides with cycles: surgery and cuts both counted on the uncut map
    assert _count_sides(rng, True) == {("more", True): 16, ("more", False): 8}


def test_counted_sides_agree_with_the_cut_by_cut_reference(rng):
    # the sides without cycles, the two-piece surfaces among them
    assert _count_sides(rng, False) == {("one", True): 838, ("one", False): 88,
                                        ("more", True): 100, ("more", False): 4}


def _outcome(call, *args) -> str:
    """A call's JSON-ready result as text, or its exception type and message."""
    try:
        out = call(*args)
    except ValueError as exc:
        return f"raised {type(exc).__name__}: {exc}"
    if hasattr(out, "to_json"):
        out = out.to_json()
    return json.dumps(out, sort_keys=True)


_OUTPUTS = {
    "validate": lambda d: json.dumps(validate(d).to_json(), sort_keys=True),
    "census": lambda d: _outcome(census, d),
    "morse_checks": lambda d: _outcome(morse_checks, d),
    "boundary_restriction": lambda d: _outcome(boundary_restriction, d),
    "to_colored_chord": lambda d: _outcome(lambda x: canonical_colored(to_colored_chord(x)), d),
    "code": lambda d: _outcome(lambda x: pr_canonical_code(x, True).decode(), d),
    "code_no_mirror": lambda d: _outcome(lambda x: pr_canonical_code(x, False).decode(), d),
}


def test_analysis_outputs_match_pinned_digest():
    """Every analysis output on the corpus hashes to the value it had before
    the analysis moved to dart-indexed lists.  Each diagram's outputs are
    made three ways, which must agree: in call order from cold caches, then
    in reverse order on the analysis and codes the first pass left cached,
    and each after clearing the caches (so a call that changed a shared
    analysis would show)."""
    h = hashlib.sha256()
    for d in analysis_corpus():
        clear_analysis_caches()
        forward = {name: out(d) for name, out in _OUTPUTS.items()}
        backward = {name: out(d) for name, out in reversed(_OUTPUTS.items())}
        fresh = {}
        for name, out in _OUTPUTS.items():
            clear_analysis_caches()
            fresh[name] = out(d)
        assert forward == backward == fresh
        for text in forward.values():
            h.update(text.encode() + b"\n")
    assert len(analysis_corpus()) == 416
    assert h.hexdigest() == \
        "3ef3a14d05be3411a7c475b0e0041d1ac3c8cd3ac209e11709f7540ffe31cb79"


def _family_swaps(d):
    """Copies of d with one curve moved to another family, on the map labels
    too: mostly invalid diagrams, whose witnesses name curves and darts."""
    m = d.surface
    for ci, c in enumerate(d.curves):
        for kind in (CurveKind.U_GREEN_ARC, CurveKind.U_GREEN_CYCLE,
                     CurveKind.V_RED_ARC, CurveKind.V_RED_CYCLE):
            if kind is c.label.kind:
                continue
            lb = CurveLabel(kind, c.label.index)
            labels = list(m.labels)
            for e in c.edges:
                labels[e] = labels[m.alpha[e]] = lb
            curves = d.curves[:ci] + (EmbeddedCurve(c.edges, c.closed, lb),) + d.curves[ci + 1:]
            yield PrDiagram(CombMap(m.alpha, m.sigma, tuple(labels), m.holes), curves)


def test_witnesses_of_broken_diagrams_match_pinned_digest():
    """validate reports on the family swaps of the corpus diagrams with at
    most four curves.  Every witness kind of p2-p5 occurs, and p1's closed
    arc: four swaps turn a closed cycle into a closed u or v arc, which
    validate reports under p1 (it used to raise KeyError).  Each swap is
    validated with its source diagram and the swap before it cached, whose
    maps differ from it only in labels, and again from cold caches."""
    h = hashlib.sha256()
    reports, warm = [], []
    for d in analysis_corpus():
        if len(d.curves) > 4:
            continue
        variants = list(_family_swaps(d))
        for v in variants:
            validate(d)
            warm.append(validate(v).to_json())
        for v in variants:
            clear_analysis_caches()
            reports.append(validate(v))
    assert warm == [rep.to_json() for rep in reports]
    for rep in reports:
        h.update(json.dumps(rep.to_json(), sort_keys=True).encode() + b"\n")
    assert (len(reports), sum(rep.valid for rep in reports)) == (312, 2)
    assert h.hexdigest() == \
        "e6aa4873e9d7f47d6603e974da8c862afc2ebe2755c81244813d792e15c7e886"


def test_rebuilt_diagrams_json_matches_pinned_digest():
    """The JSON that from_colored_chord's diagrams write (as `convert --to
    pr` does) for every colored class of genus 1-3, in enumeration order,
    hashes to a pinned value.  Canonical codes ignore dart numbering, so
    this is the test that pins it: boundary arcs, then green chords, then
    red seams, each edge k as darts 2k and 2k + 1."""
    h = hashlib.sha256()
    count = 0
    for _, ccd in all_colored_classes(3):
        h.update((json.dumps(pr_to_json(from_colored_chord(ccd)), sort_keys=True) + "\n").encode())
        count += 1
    assert count == 185
    assert h.hexdigest() == \
        "b67969b12db590711c696e5f0d705b2ce4513f26df5b259a46d2f5802ed32ee4"
