from itertools import combinations
from math import factorial
from operator import getitem

import pytest

from morsediag import chord
from morsediag.chord import (
    DEFAULT_SYMMETRY,
    GREEN,
    RED,
    ChordDiagram,
    ColoredChordDiagram,
    NotOneFace,
    SymmetryConvention,
    WrongChordCount,
    _apply,
    _crossing_masks,
    _crossing_within,
    _least_image,
    _noncrossing_subsets,
    canonical_chord,
    canonical_colored,
    chord_from_json,
    chord_to_json,
    classify,
    colored_to_json,
    enumerate_bases,
    enumerate_colorings,
    face_count,
    is_one_face,
    is_river,
)
from morsediag.combmap import build_map, faces

from conftest import (
    _interleave,
    _red_ends_adjacent,
    chord_orbit_counts,
    circle_image,
    circle_maps,
    dihedral_base_count,
    fixed_one_face,
    least_circle_image,
    match_arrays,
    thickened_boundary_walk_faces,
)
from g4_round_trip import decode

ROT = SymmetryConvention.ROTATION_ONLY
DIH = SymmetryConvention.DIHEDRAL

CD_CROSS = ChordDiagram(2, (2, 3, 0, 1))
CD_NESTED = ChordDiagram(2, (1, 0, 3, 2))
CD_ALLCROSS4 = ChordDiagram(4, (4, 5, 6, 7, 0, 1, 2, 3))


# ---------------------------------------------------------------------------
# crossing / faces
# ---------------------------------------------------------------------------

def test_crossing_basics():
    assert _crossing_masks(CD_CROSS.match)[0] == [0b10, 0b01]
    assert _crossing_masks(CD_NESTED.match)[0] == [0, 0]
    assert _crossing_masks(CD_ALLCROSS4.match)[0] == [0b1111 ^ 1 << k for k in range(4)]


def test_face_counts():
    assert face_count(CD_CROSS) == 1
    assert face_count(CD_NESTED) == 3
    assert face_count(CD_ALLCROSS4) == 1
    assert is_one_face(CD_ALLCROSS4)


def test_face_count_against_both_oracles():
    for n in (1, 2, 3, 4):
        # the one-vertex ribbon map: the rotation is the circle's point order
        rotation = tuple((i + 1) % (2 * n) for i in range(2 * n))
        for match in match_arrays(2 * n):
            cd = ChordDiagram(n, match)
            f = face_count(cd)
            assert f == len(faces(build_map(2 * n, match, rotation)))
            assert f == thickened_boundary_walk_faces(match)
            # closed orientable surface: chi is even
            assert (1 - n + f) % 2 == 0


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def test_canonical_rotation_invariance():
    rot1 = _apply(CD_CROSS.match, tuple((i + 1) % 4 for i in range(4)))
    assert canonical_chord(ChordDiagram(2, rot1)) == canonical_chord(CD_CROSS)
    assert canonical_chord(ChordDiagram(2, (1, 0, 3, 2))) == \
        canonical_chord(ChordDiagram(2, (3, 2, 1, 0)))


def test_two_classes_on_four_points():
    for sym in (ROT, DIH):
        codes = {canonical_chord(ChordDiagram(1, m), sym)
                 for m in match_arrays(2)}
        assert len(codes) == 1
        codes = {canonical_chord(ChordDiagram(2, m), sym)
                 for m in match_arrays(4)}
        assert len(codes) == 2


def test_symmetry_closure_of_representatives():
    for g in (1, 2):
        reps = enumerate_bases(g, DIH)
        codes = {canonical_chord(b, DIH) for b in reps}
        for b in reps:
            for p in circle_maps(b.points, reflections=True):
                moved = ChordDiagram(b.n, circle_image(b.match, p)[0])
                assert canonical_chord(moved, DIH) in codes


def _oracle_code(kind, least, sym):
    tag = "dih" if sym is DIH else "rot"
    return f"{kind}[{tag}]|n={len(least) // 2}|m=" + ",".join(map(str, least))


def test_canonical_chord_equals_the_brute_force_least_image():
    for points in (2, 4, 6, 8, 10):
        for match in match_arrays(points):
            for sym in (ROT, DIH):
                least, _ = least_circle_image(match, reflections=sym is DIH)
                assert canonical_chord(ChordDiagram(points // 2, match), sym) == \
                    _oracle_code("cd1", least, sym)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_canonical_colored_equals_the_brute_force_least_image(g, rng):
    # a random dihedral image of every coloring of every base, so that most
    # inputs are not their class's least image
    for base in enumerate_bases(g):
        for ids in _green_subsets(base.chords(), g):
            colors = tuple(GREEN if i in ids else RED for i in range(base.n))
            pcol = ColoredChordDiagram(base, colors).point_colors()
            p = rng.choice(circle_maps(base.points, reflections=True))
            match, moved = circle_image(base.match, p, pcol)
            image = ChordDiagram(base.n, match)
            ccd = ColoredChordDiagram(image, tuple(moved[a] for a, _ in image.chords()))
            for sym in (ROT, DIH):
                least, least_pcol = least_circle_image(match, moved, reflections=sym is DIH)
                cols = "".join("g" if c == GREEN else "r" for c in least_pcol)
                assert canonical_colored(ccd, sym) == \
                    _oracle_code("ccd1", least, sym) + "|c=" + cols


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_base_counts_small_genus():
    assert len(enumerate_bases(1, DIH)) == 1
    assert len(enumerate_bases(2, DIH)) == 4
    assert len(enumerate_bases(1, ROT)) == 1
    assert len(enumerate_bases(2, ROT)) == 4


def test_genus3_base_count():
    assert len(enumerate_bases(3, DIH)) == 82


def test_all_crossing_base_is_enumerated():
    codes = {canonical_chord(b) for b in enumerate_bases(2)}
    assert canonical_chord(CD_ALLCROSS4) in codes


@pytest.mark.parametrize("g", [1, 2, 3])
def test_enumeration_matches_burnside(g):
    for sym in (ROT, DIH):
        oracle = chord_orbit_counts(g, reflections=sym is DIH)
        bases = enumerate_bases(g, sym)
        assert len(bases) == oracle.bases
        colorings = [enumerate_colorings(b, g, sym) for b in bases]
        assert sum(map(len, colorings)) == oracle.colored
        assert sum(any(map(is_river, c)) for c in colorings) == oracle.river_bases


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_base_counts_match_the_dihedral_orbit_count(g, request):
    # the oracle's own generator, run on the identity, gives the
    # Harer-Zagier term it stands in for (g4's would take seconds)
    if g < 4:
        assert fixed_one_face(tuple(range(4 * g))) == \
            factorial(4 * g) // (4 ** g * factorial(2 * g + 1))
    report = request.getfixturevalue("genus4_report") if g == 4 else classify(g)
    assert report.bases == dihedral_base_count(g) == (1, 4, 82, 7258)[g - 1]


@pytest.mark.parametrize("points", [2, 3, 4, 8, 12])
def test_one_face_generator_matches_filtered_matchings(points):
    expected = [m for m in match_arrays(points)
                if face_count(ChordDiagram(points // 2, m)) == 1]
    assert list(chord._one_face(points, None)) == expected


@pytest.mark.parametrize("g", [1, 2, 3])
def test_bases_are_the_least_images_of_one_face_matchings(g):
    one_face = [m for m in match_arrays(4 * g) if face_count(ChordDiagram(2 * g, m)) == 1]
    for sym in (ROT, DIH):
        expected = sorted({least_circle_image(m, reflections=sym is DIH)[0]
                           for m in one_face})
        assert enumerate_bases(g, sym) == [ChordDiagram(2 * g, m) for m in expected]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_orbit_sizes_sum_to_harer_zagier_count(g):
    for sym in (ROT, DIH):
        orbits = [{circle_image(b.match, p)[0]
                   for p in circle_maps(b.points, reflections=sym is DIH)}
                  for b in enumerate_bases(g, sym)]
        assert sum(map(len, orbits)) == (1, 21, 1485)[g - 1]


def _least_span_first(points, one_face):
    """The matchings whose chord at point 0 has the least short span
    min(b - a, points - (b - a)): every chord gives both directed spans
    b - a and points - (b - a), so the least short span is the least
    (match[q] - q) % points."""
    spans = [[(j - q) % points for j in range(points)] for q in range(points)]
    return [m for m in one_face if min(map(getitem, spans, m)) == m[0]]


@pytest.fixture(scope="module")
def least_span_16():
    return _least_span_first(16, chord._one_face(16, None))


def _least_two_entries(points, matchings, reflections):
    """The matchings whose first two entries are the least first two entries
    of their images under the circle's maps; entry k of an image under the
    map p is p[match[i]] for the point i that p takes to k."""
    heads = [(p, p.index(0), p.index(1)) for p in circle_maps(points, reflections)]
    return [m for m in matchings if min((p[m[i]], p[m[j]]) for p, i, j in heads) == m[:2]]


@pytest.mark.parametrize("points", [4, 8, 12, 16])
def test_rooted_generator_yields_the_least_span_matchings(points, least_span_16):
    # the generator drops a prefix once an image beats its first two
    # entries: it yields the least-span matchings that no image beats there,
    # in order, and so every least image (at 16 points, see the next test)
    one_face = None if points == 16 else list(chord._one_face(points, None))
    least_span = least_span_16 if one_face is None else _least_span_first(points, one_face)
    for sym in (ROT, DIH):
        rooted = list(chord._one_face(points, sym))
        assert rooted == _least_two_entries(points, least_span, sym is DIH)
        kept = set(rooted)
        assert rooted == [m for m in least_span if m in kept]
        if one_face is not None:
            assert {least_circle_image(m, reflections=sym is DIH)[0] for m in one_face} <= kept


def test_genus4_bases_equal_the_unpruned_least_image_filter(least_span_16):
    # no representative is lost: a matching is its own least image only if
    # its first entry is the least of its images' first entries
    expected = [m for m in least_span_16 if _least_image(m, DIH)[0] == m]
    assert enumerate_bases(4) == [ChordDiagram(8, m) for m in expected]
    assert list(chord._canonical_bases(4, DIH)) == [(m, _least_image(m, DIH)[1]) for m in expected]


def test_genus4_work_figures_of_the_docstrings(least_span_16):
    # the figures that enumerate_bases and _classify_base quote
    assert chord._harer_zagier_count(4) == 225_225
    assert len(least_span_16) == 25_508
    assert sum(1 for _ in chord._one_face(16, DIH)) == 9_353
    full = (1 << 8) - 1   # all eight chords
    bases = trivial = no_green = subsets = red_free = river_tests = 0
    for match, stabiliser in chord._canonical_bases(4, DIH):
        bases += 1
        trivial += len(stabiliser) == 1
        greens = _noncrossing_subsets(_crossing_masks(match)[0], 4)
        no_green += not greens
        subsets += len(greens)
        red_free += sum((full ^ mask) in greens for mask in greens)
        readers = stabiliser if len(stabiliser) > 1 else None
        firsts = chord._classify_base(match, 4, DIH, readers)[3]
        river_tests += sum((full ^ mask) in greens for mask in firsts)
    assert (bases, trivial, no_green) == (7_258, 6_830, 2_873)
    assert (subsets, red_free, river_tests) == (15_466, 1_226, 1_083)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_self_test_keeps_exactly_the_own_least_images(g):
    # the self-test builds no image: on every matching that meets its
    # precondition it must agree with the package-free brute force, and give
    # the maps fixing a representative in _least_image's order
    least_span = _least_span_first(4 * g, chord._one_face(4 * g, None))
    for sym in (ROT, DIH):
        maps = circle_maps(4 * g, reflections=sym is DIH)
        for m in least_span:
            stabiliser = chord._self_test(len(m), sym)(m)
            if least_circle_image(m, reflections=sym is DIH)[0] != m:
                assert stabiliser is None, (sym, m)
                continue
            assert stabiliser == _least_image(m, sym)[1], (sym, m)
            assert sorted(stabiliser) == sorted(p for p in maps if circle_image(m, p)[0] == m)


def test_missing_class_fails_the_run_time_check(monkeypatch):
    generate = chord._one_face

    def drop_first(points, sym):
        matchings = generate(points, sym)
        next(matchings)
        yield from matchings

    monkeypatch.setattr(chord, "_one_face", drop_first)
    # the streamed bases are checked once exhausted, on classify's path too
    message = r"^genus 2: the 3 base classes hold \d+ labeled .* not the Harer-Zagier count 21$"
    for run in (enumerate_bases, classify):
        with pytest.raises(RuntimeError, match=message):
            run(2)


def test_missing_coloring_fails_the_coloring_check(monkeypatch):
    # the genus-1 base has 2 green subsets in one class of orbit size 2
    subsets = chord._noncrossing_subsets
    monkeypatch.setattr(chord, "_noncrossing_subsets",
                        lambda crossed, size: subsets(crossed, size)[1:])
    message = (r"^genus 1: base 2,3,0,1: the 1 coloring classes hold 2 colorings, "
               r"not the 1 non-crossing green subsets tried$")
    with pytest.raises(RuntimeError, match=message):
        classify(1)
    with pytest.raises(RuntimeError, match=message):
        enumerate_colorings(ChordDiagram(2, (2, 3, 0, 1)), 1)


def _chord_ids(mask):
    """The chord indices of a green chord mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _green_subsets(chords, g):
    """Green chord index sets in lexicographic order, by a test of their own."""
    def interleave(p, q):
        (a, b), (c, d) = p, q
        return a < c < b < d or c < a < d < b

    return [ids for ids in combinations(range(len(chords)), g)
            if not any(interleave(chords[i], chords[j]) for i, j in combinations(ids, 2))]


def _reference_colorings(base, g, sym):
    """The first coloring per canonical_colored code, sorted by code."""
    first_seen = {}
    for ids in _green_subsets(base.chords(), g):
        ccd = ColoredChordDiagram(base, tuple(GREEN if i in ids else RED for i in range(base.n)))
        first_seen.setdefault(canonical_colored(ccd, sym), ccd)
    return [first_seen[code] for code in sorted(first_seen)]


def _copies(b):
    """A base, its rotation by one step and its reflection i -> -i, which
    are seldom their class's least image, so their readers[0] is seldom the
    identity."""
    rotate = tuple((i + 1) % b.points for i in range(b.points))
    reflect = tuple(-i % b.points for i in range(b.points))
    return [b] + [ChordDiagram(b.n, _apply(b.match, p)) for p in (rotate, reflect)]


def _river_classes_agree(base, g, sym):
    """The river classes the coloring pass reports for a base are the
    classes whose representative is_river holds for."""
    _, maps = _least_image(base.match, sym)
    readers = [sorted(range(base.points), key=p.__getitem__) for p in maps]
    _, colored, river, greens = chord._classify_base(base.match, g, sym, readers)
    reps = [ColoredChordDiagram(base, tuple(GREEN if mask >> i & 1 else RED
                                            for i in range(base.n))) for mask in greens]
    return river == [code for code, ccd in zip(colored, reps) if is_river(ccd)]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_colorings_match_reference(g, rng):
    # every base up to genus 3 and a seeded sample of 40 at genus 4, each
    # with its rotated and reflected copies
    for sym in (ROT, DIH):
        bases = enumerate_bases(g, sym)
        for b in rng.sample(bases, 40) if g == 4 else bases:
            for base in _copies(b):
                masks = _noncrossing_subsets(_crossing_masks(base.match)[0], g)
                assert list(map(_chord_ids, masks)) == _green_subsets(base.chords(), g)
                assert enumerate_colorings(base, g, sym) == _reference_colorings(base, g, sym)
                assert _river_classes_agree(base, g, sym)


def test_colorings_of_bases_above_the_classified_genus(rng):
    # nothing in the coloring pass is sized by genus: a genus-5 base and a
    # seeded random one-face base with 12 chords, which has colorings
    bases = [ChordDiagram(10, next(chord._one_face(20, DIH)))]
    while len(bases) < 2:
        points = list(range(24))
        rng.shuffle(points)
        match = [0] * 24
        for a, b in zip(points[::2], points[1::2]):
            match[a], match[b] = b, a
        base = ChordDiagram(12, tuple(match))
        if is_one_face(base) and _green_subsets(base.chords(), 6):
            bases.append(base)
    for base in bases:
        g = base.n // 2
        assert g > chord._MAX_GENUS
        for sym in (ROT, DIH):
            colorings = enumerate_colorings(base, g, sym)
            assert colorings and colorings == _reference_colorings(base, g, sym)


def test_noncrossing_subsets_match_combinations(rng):
    # every subset size, on all genus 1-3 bases and a seeded genus-4 sample,
    # against pairwise crossing tests over itertools.combinations
    bases = [b for g in (1, 2, 3) for b in enumerate_bases(g)]
    bases += rng.sample(enumerate_bases(4), 60)
    for base in bases:
        crossed, lab = _crossing_masks(base.match)
        chords = base.chords()
        for k, (a, b) in enumerate(chords):
            assert lab[a] == lab[b] == chr(base.n + 2 - k)
            assert crossed[k] == sum(1 << j for j, other in enumerate(chords)
                                     if _interleave((a, b), other))
        for size in range(base.n + 2):
            masks = _noncrossing_subsets(crossed, size)
            assert list(map(_chord_ids, masks)) == \
                _green_subsets(base.chords(), size), (base.match, size)


def test_coloring_counts():
    (g1,) = enumerate_bases(1)
    assert len(enumerate_colorings(g1, 1)) == 1
    assert enumerate_colorings(CD_ALLCROSS4, 2) == []
    total_g2 = sum(len(enumerate_colorings(b, 2)) for b in enumerate_bases(2))
    assert total_g2 == 5


def test_genus3_coloring_count_matches_burnside():
    total = sum(len(enumerate_colorings(b, 3)) for b in enumerate_bases(3))
    assert total == chord_orbit_counts(3, reflections=True).colored == 179


def test_coloring_errors():
    with pytest.raises(WrongChordCount):
        enumerate_colorings(CD_CROSS, 2)
    with pytest.raises(NotOneFace):
        enumerate_colorings(ChordDiagram(4, (1, 0, 3, 2, 5, 4, 7, 6)), 2)
    with pytest.raises(ValueError, match="^one color per chord required$"):
        ColoredChordDiagram(CD_CROSS, (GREEN,))


def test_colorings_have_noncrossing_greens():
    for b in enumerate_bases(2):
        for ccd in enumerate_colorings(b, 2):
            greens = ccd.green_chords()
            assert len(greens) == 2
            for i in range(len(greens)):
                for j in range(i + 1, len(greens)):
                    a, c = greens[i], greens[j]
                    assert not (a[0] < c[0] < a[1] < c[1] or c[0] < a[0] < c[1] < a[1])


# ---------------------------------------------------------------------------
# river criterion
# ---------------------------------------------------------------------------

def test_river_single_island():
    ccd = ColoredChordDiagram(CD_CROSS, (GREEN, RED))
    assert is_river(ccd)


def test_river_rejects_crossing_reds():
    base = ChordDiagram(4, (2, 4, 0, 6, 1, 7, 3, 5))
    colors = []
    for (a, b) in base.chords():
        colors.append(GREEN if (a, b) in ((0, 2), (5, 7)) else RED)
    ccd = ColoredChordDiagram(base, tuple(colors))
    assert ccd.red_chords() == [(1, 4), (3, 6)]
    assert not is_river(ccd)
    swapped = ColoredChordDiagram(base, tuple(GREEN if c == RED else RED for c in colors))
    assert swapped.green_chords() == [(1, 4), (3, 6)]
    assert not is_river(swapped)


def test_river_window_search_passes_a_window_holding_one_chord():
    # bases that are not one-face, whose first run of two red points is the
    # red chord (0, 1): the search goes on to the next run, at 1 and at 4
    river = ColoredChordDiagram(ChordDiagram(4, (1, 0, 7, 4, 3, 6, 5, 2)),
                                (RED, RED, GREEN, GREEN))
    assert river.red_chords() == [(0, 1), (2, 7)]
    assert is_river(river)
    assert not is_river(ColoredChordDiagram(ChordDiagram(4, (1, 0, 3, 2, 5, 4, 7, 6)),
                                            (RED, GREEN, RED, GREEN)))


def test_river_needs_chords():
    # g = 0: no run of red points to find, and no river
    assert not is_river(ColoredChordDiagram(ChordDiagram(0, ()), ()))


def test_empty_diagram_has_a_class_code():
    # like the empty map's "cm1|empty": zero chords is one class, with a code
    empty = ChordDiagram(0, ())
    for sym in SymmetryConvention:
        tag = "dih" if sym is SymmetryConvention.DIHEDRAL else "rot"
        assert canonical_chord(empty, sym) == f"cd1[{tag}]|n=0|m="
        assert canonical_colored(ColoredChordDiagram(empty, ()), sym) == f"ccd1[{tag}]|n=0|m=|c="
    assert canonical_chord(chord_from_json({"n": 0, "match": []})) == "cd1[dih]|n=0|m="


def test_river_counts_genus2():
    rivers = []
    for b in enumerate_bases(2):
        for ccd in enumerate_colorings(b, 2):
            if is_river(ccd):
                rivers.append(canonical_colored(ccd))
    assert len(rivers) == 2


def test_river_agrees_with_selection_brute_force():
    for g in (1, 2, 3):
        for b in enumerate_bases(g):
            for ccd in enumerate_colorings(b, g):
                assert is_river(ccd) == _river_by_selection(ccd)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_point_color_river_test_agrees_with_both_oracles(g):
    for sym in (ROT, DIH):
        for base in enumerate_bases(g, sym):
            crossed, _ = _crossing_masks(base.match)
            for ids in _green_subsets(base.chords(), g):
                ccd = ColoredChordDiagram(base, tuple(GREEN if i in ids else RED
                                                      for i in range(base.n)))
                river = is_river(ccd)
                assert river == _river_by_selection(ccd)
                # _river's precondition: the red chords do not cross
                if not _crossing_within(crossed, ccd.colors, RED):
                    pcol = "".join("g" if c == GREEN else "r" for c in ccd.point_colors())
                    assert chord._river(base.match, pcol) == river


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_reports():
    r1 = classify(1)
    assert (r1.bases, r1.colored, r1.river_colored, r1.river_bases) == (1, 1, 1, 1)
    r2 = classify(2)
    assert (r2.bases, r2.colored, r2.river_colored, r2.river_bases) == (4, 5, 2, 2)
    assert r2.symmetry == "dihedral"
    assert len(r2.base_codes) == 4
    assert len(r2.colored_codes) == 5


def test_classify_bound():
    with pytest.raises(ValueError):
        classify(5)
    with pytest.raises(ValueError, match="^genus must be at least 1$"):
        enumerate_bases(0)


def test_convention_pinning():
    # only the dihedral convention reproduces the colored count at genus 2
    rot_total = sum(len(enumerate_colorings(b, 2, ROT)) for b in enumerate_bases(2, ROT))
    assert rot_total == 8
    dih_total = sum(len(enumerate_colorings(b, 2, DIH)) for b in enumerate_bases(2, DIH))
    assert dih_total == 5
    assert DEFAULT_SYMMETRY is DIH


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def test_chord_json_roundtrip():
    cd = chord_from_json(chord_to_json(CD_ALLCROSS4))
    assert cd == CD_ALLCROSS4
    ccd = ColoredChordDiagram(CD_CROSS, (GREEN, RED))
    back = chord_from_json(colored_to_json(ccd))
    assert back == ccd


def test_river_brute_force_agreement_sampled_genus4(rng):
    # random one-face diagrams on 16 points, all valid colorings, both routes
    checked = 0
    while checked < 40:
        pts = list(range(16))
        rng.shuffle(pts)
        match = [0] * 16
        for i in range(0, 16, 2):
            a, b = pts[i], pts[i + 1]
            match[a], match[b] = b, a
        cd = ChordDiagram(8, tuple(match))
        if face_count(cd) != 1:
            continue
        crossed, _ = _crossing_masks(match)
        for size in range(10):
            assert list(map(_chord_ids, _noncrossing_subsets(crossed, size))) == \
                _green_subsets(cd.chords(), size)
        for mask in _noncrossing_subsets(crossed, 4):
            colors = tuple(GREEN if mask >> i & 1 else RED for i in range(8))
            ccd = ColoredChordDiagram(cd, colors)
            assert is_river(ccd) == _river_by_selection(ccd)
            checked += 1
            if checked >= 40:
                break


def test_genus4_river_classes_agree_with_the_selection_oracle(genus4_report):
    # every colored class of genus 4, decoded from its code, through the
    # package-free end-selection test: 29 river classes on 29 bases
    report = genus4_report
    river = [code for code in report.colored_codes if _river_by_selection(decode(code))]
    assert tuple(river) == report.river_codes
    assert len(river) == report.river_colored == 29
    assert len({code.split("|c=")[0] for code in river}) == report.river_bases == 29


def _river_by_selection(ccd):
    """As many green chords as red, neither family crossing itself, and one
    end of each red chord filling consecutive points."""
    greens, reds = ccd.green_chords(), ccd.red_chords()
    return (len(greens) == len(reds)
            and not any(_interleave(p, q) for fam in (greens, reds)
                        for p, q in combinations(fam, 2))
            and _red_ends_adjacent(reds, ccd.base.points))
