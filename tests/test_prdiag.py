import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morsediag.catalog as cat
from morsediag.chord import (
    GREEN,
    RED,
    ChordDiagram,
    ColoredChordDiagram,
    canonical_colored,
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
    analysis_corpus,
    clear_analysis_caches,
    make_pinched_cycle_diagram,
    make_six_point_ball_flow,
    make_solid_torus_diagram,
    make_torus,
    reference_side_reduction,
    relabel_diagram,
)

G1_COLORED = ColoredChordDiagram(ChordDiagram(2, (2, 3, 0, 1)), (GREEN, RED))


def all_colored_classes(max_genus):
    for g in range(1, max_genus + 1):
        for b in enumerate_bases(g):
            for ccd in enumerate_colorings(b, g):
                yield g, ccd


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
    broken = PrDiagram(st.surface, (st.curves[0],))   # red edge unowned
    rep = validate(broken)
    assert not rep.valid
    assert "belongs to no curve" in rep.properties[0].witness


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


def test_roundtrip_small_genus():
    for g, ccd in all_colored_classes(2):
        d = from_colored_chord(ccd)
        assert validate(d).valid
        assert is_optimal(d, g)
        back = to_colored_chord(d)
        assert canonical_colored(back) == canonical_colored(ccd)
        again = from_colored_chord(back)
        assert equivalent(d, again)


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
    # the first public call on a diagram runs its one validity analysis: one
    # side reduction per color, whose cuts are the only ones (one per cycle
    # and arc of the side's color); later calls on an equal diagram run none,
    # and equivalent analyses and codes each of its arguments at most once
    events = []
    reduce_side = pr._side_reduction
    cut = cmb._WorkMap.cut
    code = pr.canonical_code

    def counted(*args, **kwargs):
        events.append(args[3])
        return reduce_side(*args, **kwargs)

    def counted_cut(*args, **kwargs):
        events.append("cut")
        return cut(*args, **kwargs)

    def counted_code(*args, **kwargs):
        events.append("code")
        return code(*args, **kwargs)

    def reductions(d):
        # every cycle of the diagrams below is one closed U or V curve
        out = []
        for green, cycles, arcs in ((True, d.u_cycles, d.u_arcs),
                                    (False, d.v_cycles, d.v_arcs)):
            out += [green] + ["cut"] * (len(cycles) + len(arcs))
        return out

    def cold():
        clear_analysis_caches()
        events.clear()

    monkeypatch.setattr(pr, "_side_reduction", counted)
    monkeypatch.setattr(cmb._WorkMap, "cut", counted_cut)
    monkeypatch.setattr(pr, "canonical_code", counted_code)
    ccd = next(ccd for g, ccd in all_colored_classes(3) if g == 3)
    d = from_colored_chord(ccd)
    assert reductions(d) == [True, "cut", "cut", "cut", False, "cut", "cut", "cut"]
    ops = (validate, census, morse_checks, boundary_restriction, to_colored_chord)
    for first in ops:
        cold()
        first(d)
        assert events == reductions(d), first.__name__
        events.clear()
        for op in ops:
            op(from_colored_chord(ccd))   # an equal diagram, built anew
        assert events == [], first.__name__
    other = relabel_diagram(d, rng)
    cold()
    assert equivalent(d, other)
    assert events == reductions(d) + reductions(other) + ["code", "code"]
    events.clear()
    assert equivalent(other, d)
    assert pr_canonical_code(d) == pr_canonical_code(other)
    for op in ops:
        op(d)
        op(other)
    assert events == []
    cold()
    validate(d)
    assert equivalent(d, d)
    assert events == reductions(d) + ["code"]
    # a closed green cycle is one more cut of the green side
    four_b = cat.load_fixture("d3_four_b.json")
    assert reductions(four_b) == [True, "cut", False, "cut"]
    for first in (validate, census, boundary_restriction):
        cold()
        first(four_b)
        assert events == reductions(four_b), first.__name__
        events.clear()
        for op in (validate, census, boundary_restriction):
            op(four_b)
        assert events == [], first.__name__


# ---------------------------------------------------------------------------
# kept hashes
# ---------------------------------------------------------------------------

def _fresh_copy(d: PrDiagram) -> PrDiagram:
    m = d.surface
    return PrDiagram(CombMap(m.alpha, m.sigma, tuple(CurveLabel(lb.kind, lb.index)
                                                     for lb in m.labels),
                             m.holes, m.allow_disconnected),
                     tuple(EmbeddedCurve(c.edges, c.closed, CurveLabel(c.label.kind, c.label.index))
                           for c in d.curves))


def test_kept_hash_is_the_field_tuple_hash_and_fields_stay_as_they_were():
    d = cat.load_fixture("solid_torus.json")
    m = d.surface
    texts = (repr(d), repr(m), repr(m.labels[0]))
    assert hash(d) == hash((m, d.curves))
    assert hash(m) == hash((m.alpha, m.sigma, m.labels, m.holes, m.allow_disconnected))
    assert hash(m.labels[0]) == hash((m.labels[0].kind, m.labels[0].index))
    assert (repr(d), repr(m), repr(m.labels[0])) == texts
    assert [f.name for f in dataclasses.fields(PrDiagram)] == ["surface", "curves"]
    assert [f.name for f in dataclasses.fields(CombMap)] == \
        ["alpha", "sigma", "labels", "holes", "allow_disconnected"]
    assert [f.name for f in dataclasses.fields(CurveLabel)] == ["kind", "index"]
    # a hashed diagram equals an unhashed copy, both ways, and hashes like it
    fresh = _fresh_copy(d)
    assert d == fresh and fresh == d and hash(fresh) == hash(d)
    relabeled = PrDiagram(CombMap(m.alpha, m.sigma, m.labels[::-1], m.holes), d.curves)
    assert relabeled != d and d != relabeled
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.curves = ()


def test_replace_gives_a_copy_hashed_by_its_own_fields():
    d = cat.load_fixture("solid_torus.json")
    m = d.surface
    hash(d)
    fewer = dataclasses.replace(d, curves=d.curves[:1])
    assert hash(fewer) == hash(PrDiagram(m, d.curves[:1])) == hash((m, d.curves[:1]))
    no_holes = dataclasses.replace(m, holes=frozenset())
    assert hash(no_holes) == hash(CombMap(m.alpha, m.sigma, m.labels, frozenset()))
    assert dataclasses.replace(d) == d and hash(dataclasses.replace(d)) == hash(d)


_PICKLE_IN = """
import pickle, sys
import morsediag.catalog as cat
import morsediag.prdiag as pr
d = cat.load_fixture("solid_torus.json")
pr.validate(d)   # hashes the diagram, its surface and its labels
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
    # string hashes are salted per process, so a kept hash must not travel
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


def _disjoint_union(a: CombMap, b: CombMap) -> CombMap:
    """Both maps side by side, the darts of ``b`` numbered after those of ``a``."""
    n = a.n_darts
    return CombMap(a.alpha + tuple(x + n for x in b.alpha),
                   a.sigma + tuple(x + n for x in b.sigma),
                   a.labels + b.labels,
                   a.holes | {h + n for h in b.holes}, allow_disconnected=True)


def test_disk_reduction_witness_names_the_component():
    # d3_four_a's u-arc cuts its disk into green components 0 and 1; a closed
    # torus beside it is component 2, and the witness gives that one's shape
    four_a = cat.load_fixture("d3_four_a.json")
    d = PrDiagram(_disjoint_union(four_a.surface, make_torus()), four_a.curves)
    analysis = pr._analyse(d)
    assert analysis.green.n_components == 3
    assert analysis.report.properties[-1].witness == (
        "green reduction component 2 is not a disk (chi, genus, boundary) = (0, 1, 0)")


def test_census_of_a_disconnected_surface_raises_like_euler_genus():
    four_a = cat.load_fixture("d3_four_a.json")
    disk = cat.load_fixture("d3_trivial.json").surface
    d = PrDiagram(_disjoint_union(four_a.surface, disk), four_a.curves)
    assert validate(d).valid
    with pytest.raises(MapError, match="^euler_genus requires a connected map$"):
        census(d)


def test_side_reduction_matches_cut_by_cut_reference():
    for d in analysis_corpus():
        m = d.surface
        walks = pr._curve_walks(d, cmb._orbit_ids(m.sigma))
        fid = cmb._face_ids(m.alpha, m.sigma)
        for green in (True, False):
            cycles, _ = pr._assemble_cycles(d, walks, green)
            assert pr._side_reduction(d, walks, cycles, green, fid) == \
                reference_side_reduction(d, walks, cycles, green)


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
            yield PrDiagram(CombMap(m.alpha, m.sigma, tuple(labels), m.holes,
                                    m.allow_disconnected), curves)


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
