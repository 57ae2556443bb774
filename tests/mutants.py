"""Mutation checks: each mutant breaks the package in one place on purpose,
and the tests listed with it must fail on the broken copy.

    python tests/mutants.py

A mutant is a file under src/morsediag, an exact snippet that must occur
once in it, its replacement and the pytest node ids expected to fail (a
parametrised test fails if any of its cases does).  An equivalent mutant,
one that changes no result, is listed in SURVIVORS with the reason it
changes none; its tests are expected to pass.  Each mutant is applied to a
temporary copy of src/, never to the tree, and its tests run with
PYTHONPATH pointing at the copy, one mutant at a time.  The listed tests
must first pass on the unchanged copy.  Each pytest run is stopped after
TIMEOUT_S seconds: a mutant whose tests run that long is killed, and
printed as TIMEOUT.  The script exits 1, naming the mutant, if a mutant
survives, if a survivor's tests fail or time out, if the unchanged copy's
tests time out, or if a snippet no longer occurs exactly once.  Stdlib
only, besides the pytest that runs the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
# seconds one pytest run may take; the longest, all listed tests unmutated,
# takes about 12 s on 2 CPUs
TIMEOUT_S = 180


class Mutant(NamedTuple):
    name: str
    file: str                # under src/morsediag
    snippet: str             # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]   # pytest node ids that must fail (pass for a survivor)
    survives: str = ""       # a survivor's reason: why it changes no result


_DEEP_CATALOG = ("tests/test_catalog.py::test_too_deeply_nested_line_is_invalid_json",)
_SIDES_WITH_CYCLES = "tests/test_prdiag.py::test_side_reduction_matches_cut_by_cut_reference"
_SIDES_WITHOUT = "tests/test_prdiag.py::test_counted_sides_agree_with_the_cut_by_cut_reference"
_COUNTED = (_SIDES_WITH_CYCLES, _SIDES_WITHOUT)   # sides with cycles, sides without
_WITNESSES = "tests/test_prdiag.py::test_witnesses_of_broken_diagrams_match_pinned_digest"
# canonical codes against the complete traces of every root
_KEYS = "tests/test_combmap.py::test_canonical_code_equals_full_trace_reference"
# both read to_colored_chord under ROTATION_ONLY, which tells a circle from its mirror
_CIRCLE = ("tests/test_prdiag.py::test_chord_circle_read_uncut_matches_the_red_cut_reference",
           "tests/test_prdiag.py::test_rotation_only_classes_convert_back_and_count_as_the_surface_codes")
# from_colored_chord's diagrams: their pinned JSON, and their classes read back
_REBUILT = ("tests/test_prdiag.py::test_rebuilt_diagrams_json_matches_pinned_digest",
            "tests/test_acceptance.py::test_criterion_05_roundtrip_every_colored_class",
            "tests/test_prdiag.py::test_genus4_sample_round_trips_through_flow_diagrams")

MUTANTS = (
    Mutant("red cycle caps typed as plain sinks", "prdiag.py",
           "sink = regions(red, 5, 6)", "sink = regions(red, 6, 6)",
           ("tests/test_prdiag.py::test_colour_swap_reverses_the_flow",
            "tests/test_prdiag.py::test_colour_swapped_six_point_flow_is_pinned")),
    Mutant("first walk dart always the edge id", "combmap.py",
           "walk = [alpha[e]]", "walk = [e]",
           ("tests/test_combmap.py::test_dart_walk_walks_and_refusals",)),
    Mutant("RecursionError handler of cli._load removed", "cli.py",
           "except (OSError, ValueError, RecursionError) as exc:",
           "except (OSError, ValueError) as exc:",
           ("tests/test_cli.py::test_too_deeply_nested_json_exits_two_naming_the_file",)),
    Mutant("RecursionError handler of catalog._tail_entry removed", "catalog.py",
           "except (json.JSONDecodeError, RecursionError):\n        return ()",
           "except json.JSONDecodeError:\n        return ()",
           _DEEP_CATALOG),
    Mutant("RecursionError handler of load_catalog's whole-line parse removed", "catalog.py",
           "except (json.JSONDecodeError, RecursionError) as exc:",
           "except json.JSONDecodeError as exc:",
           _DEEP_CATALOG),
    Mutant("earlier-trail check of prdiag._left_turn_trail deleted", "prdiag.py",
           "or ci in pieces or ci in used:", "or ci in pieces:",
           ("tests/test_prdiag.py::test_left_turn_walk_refuses_a_piece_taken_the_other_way",)),
    Mutant("to_colored_chord reads its circle in reverse order", "prdiag.py",
           "_least_colored(match, colors, sym)",
           "_least_colored([len(match) - 1 - p for p in match[::-1]], colors[::-1], sym)",
           _CIRCLE),
    Mutant("to_colored_chord's jump along a red arc lands on the end it left", "prdiag.py",
           "zip(ends, ends[::-1] if color == RED else ends)", "zip(ends, ends)",
           _CIRCLE),
    Mutant("from_colored_chord turns red seams like green chords", "prdiag.py",
           "if green else (2 * b, 2 * a)", "if green else (2 * a, 2 * b)",
           _REBUILT),
    # sigma is then no permutation; CombMap itself does not check, only build_map
    Mutant("from_colored_chord gives a chord's second end dart e, not e + 1", "prdiag.py",
           "sigma[y], sigma[e + 1], sigma[into_b] = e + 1, into_b, y",
           "sigma[y], sigma[e], sigma[into_b] = e, into_b, y",
           _REBUILT),
    Mutant("prdiag._surface_key returns the first held key whatever the mirror", "prdiag.py",
           "return keys[mirror]", "return next(iter(keys.values()))",
           ("tests/test_prdiag.py::test_analysis_outputs_match_pinned_digest",
            "tests/test_prdiag.py::test_disconnected_surfaces_are_compared_component_by_component")),
    Mutant("_classify_base calls _river on colorings whose red chords cross", "chord.py",
           "if (top - 1) ^ mask in subsets and _river(match, pcol):", "if _river(match, pcol):",
           ("tests/test_acceptance.py::test_criterion_02_genus2_counts",
            "tests/test_acceptance.py::test_criterion_03_genus3_counts_and_convention",
            "tests/test_chord.py::test_colorings_match_reference",
            "tests/test_chord.py::test_genus4_river_classes_agree_with_the_selection_oracle")),
    Mutant("is_river without its red crossing check", "chord.py",
           "for color in (GREEN, RED)):", "for color in (GREEN,)):",
           ("tests/test_chord.py::test_river_rejects_crossing_reds",
            "tests/test_chord.py::test_river_agrees_with_selection_brute_force",
            "tests/test_chord.py::test_point_color_river_test_agrees_with_both_oracles")),
    Mutant("_noncrossing_subsets ignores the crossings of its chosen chord", "chord.py",
           "rest = free & ~crossed[low.bit_length() - 1]", "rest = free",
           ("tests/test_chord.py::test_noncrossing_subsets_match_combinations",
            "tests/test_chord.py::test_colorings_have_noncrossing_greens",
            "tests/test_acceptance.py::test_criterion_03_genus3_counts_and_convention")),
    Mutant("coloring classes under the identity map only", "chord.py",
           "    crossed, lab = _crossing_masks(match)\n",
           "    readers = None\n    crossed, lab = _crossing_masks(match)\n",
           ("tests/test_chord.py::test_enumeration_matches_burnside",
            "tests/test_chord.py::test_colorings_match_reference",
            "tests/test_chord.py::test_missing_coloring_fails_the_coloring_check")),
    Mutant("_canonical_bases skips its Harer-Zagier check once exhausted", "chord.py",
           "if labeled != expected:", "if False:",
           ("tests/test_chord.py::test_missing_class_fails_the_run_time_check",)),
    Mutant("own-pieces check of prdiag._left_turn_trail deleted", "prdiag.py",
           "or ci in pieces or ci in used:", "or ci in used:",
           ("tests/test_prdiag.py::test_left_turn_walk_refuses_a_piece_taken_the_other_way",)),
    Mutant("wrong genus in the non-disk shape of a side reduction", "prdiag.py",
           "(2 - e // 2 - b) // 2", "(2 - e // 2 + b) // 2",
           (_SIDES_WITHOUT, _WITNESSES)),
    Mutant("prdiag._counted_side passes a piece without faces", "prdiag.py",
           " + sum(sigma[h] == h for h in m.holes)", "",
           _COUNTED),
    Mutant("prdiag._counted_side passes any side in one piece as a disk", "prdiag.py",
           "if pieces == 1 and chi + len(arc_copies) + 2 * len(cycles) == 1:",
           "if pieces == 1:",
           (_SIDES_WITHOUT, _WITNESSES)),
    Mutant("prdiag._counted_side passes one piece with chi + s + 2c = 0 as a disk", "prdiag.py",
           "chi + len(arc_copies) + 2 * len(cycles) == 1:",
           "chi + len(arc_copies) + 2 * len(cycles) == 0:",
           (_SIDES_WITHOUT, _WITNESSES)),
    Mutant("prdiag._counted_side joins the Q cap across an arc edge", "prdiag.py",
           "for t in wk if on[t] != 2]", "for t in wk]",
           (_SIDES_WITH_CYCLES, "tests/test_prdiag.py::test_alternating_cycle_census_and_boundary",
            "tests/test_prdiag.py::test_hand_built_cycle_diagrams_by_hand")),
    Mutant("prdiag._counted_side numbers pieces by cell id, not by least dart", "prdiag.py",
           "rank = {}   # root cell -> piece, numbered by least dart\n",
           "rank = {_find(parent, f): 0 for f in sorted(node)}\n"
           "    rank = dict(zip(rank, range(len(rank))))\n",
           _COUNTED),
    Mutant("prdiag._counted_side's boundary walk does not jump along the arcs", "prdiag.py",
           "                x = jump.get(x, x)\n", "",
           (*_COUNTED, "tests/test_prdiag.py::test_hand_built_cycle_diagrams_by_hand")),
    Mutant("equivalent answers True once the face invariants tie", "prdiag.py",
           "return _surface_key(a, held_a, mirror) == _surface_key(b, held_b, mirror)", "return True",
           ("tests/test_prdiag.py::test_equivalent_agrees_with_comparing_codes",)),
    Mutant("prdiag._face_invariant leaves the faces in face-id order", "prdiag.py",
           "analysis.invariant = sorted([(analysis.hole[f], sorted(ks)) for f, ks in kinds.items()])",
           "analysis.invariant = [(analysis.hole[f], sorted(ks)) for f, ks in kinds.items()]",
           ("tests/test_prdiag.py::test_equal_codes_have_equal_face_invariants",
            "tests/test_prdiag.py::test_equivalent_agrees_with_comparing_codes")),
    # the winner's atoms then run on from another root's ids and order
    Mutant("combmap._least_trace: a rival that wins keeps the old best's state", "combmap.py",
           "            bsig, btail, bid, border = sigma, tail, new_id, order\n", "",
           (_KEYS,)),
    # a rival that ties the known atoms supplies the best's next atoms itself,
    # so it wins every tie past them, smaller or not
    Mutant("combmap._least_trace: the best is not extended past the atoms already known",
           "combmap.py",
           "                bd = border[head]\n"
           "                s, a = bsig[bd], alpha[bd]\n"
           "                if bid[s] < 0:\n"
           "                    bid[s] = len(border)\n"
           "                    border.append(s)\n"
           "                if bid[a] < 0:\n"
           "                    bid[a] = len(border)\n"
           "                    border.append(a)\n"
           "                best.append((bid[s] * n + bid[a]) * 10 + btail[bd])\n",
           "                best.append(atom)\n",
           (_KEYS,)),
    Mutant("combmap._least_roots skips class 1 (sigma and alpha agree)", "combmap.py",
           "for image in (darts, alpha):", "for image in (darts,):",
           (_KEYS,)),
    Mutant("combmap._least_roots gives the mirror the map's own class-1 roots", "combmap.py",
           "list(map(image.__getitem__, roots))", "roots",
           (_KEYS,)),
    # the first call grows the table to twice its map's dart count, so a
    # larger map later reads past its end
    Mutant("combmap._key_code's decimal table never grows", "combmap.py",
           "if len(ids) < n:", "if not ids:",
           ("tests/test_prdiag.py::test_analysis_outputs_match_pinned_digest",
            _KEYS)),
    Mutant("prdiag._report shares the valid report whenever property 1 passes", "prdiag.py",
           "if not any(witnesses):", "if not witnesses[0]:",
           ("tests/test_prdiag.py::test_shared_endpoint_violates_property3",
            "tests/test_prdiag.py::test_witnesses_of_broken_diagrams_match_pinned_digest")),
    # equality, and so every result, is unchanged: only the pinned hash rule
    # tells it apart
    Mutant("CombMap hashes its labels again", "combmap.py",
           "hash((self.alpha, self.sigma, self.holes))",
           "hash((self.alpha, self.sigma, self.labels, self.holes))",
           ("tests/test_prdiag.py::test_kept_hash_is_the_named_fields_hash_and_fields_stay_as_they_were",
            "tests/test_prdiag.py::test_diagrams_differing_only_in_labels_hash_alike_and_keep_their_own_analyses")),
    Mutant("is_river's window spaced by 2", "chord.py",
           "for p in range(start, start + g))", "for p in range(start, start + 2 * g, 2))",
           ("tests/test_chord.py::test_river_agrees_with_selection_brute_force",
            "tests/test_chord.py::test_point_color_river_test_agrees_with_both_oracles",
            "tests/test_acceptance.py::test_criterion_03_genus3_counts_and_convention")),
    Mutant("_least_image drops its reflection ties", "chord.py",
           "tied += [maps[pts + q] for q in range(pts) if pts - spans[q] == first]",
           "tied += []",
           ("tests/test_chord.py::test_canonical_chord_equals_the_brute_force_least_image",
            "tests/test_chord.py::test_canonical_colored_equals_the_brute_force_least_image",
            "tests/test_chord.py::test_convention_pinning")),
    # _noncrossing_subsets's crossing block is the "ignores the crossings of
    # its chosen chord" mutant above; this is is_river's, both colors
    Mutant("is_river with no crossing block", "chord.py",
           "    if any(_crossing_within(crossed, colors, color) for color in (GREEN, RED)):\n"
           "        return False\n", "",
           ("tests/test_chord.py::test_river_rejects_crossing_reds",
            "tests/test_chord.py::test_river_agrees_with_selection_brute_force")),
    # Costs only time on the classification, but the generator's candidates
    # are pinned exactly, so it is no equivalent mutant.
    Mutant("an entry-1 reject of chord._one_face loosened by one", "chord.py",
           "if gap + 1 < second and", "if gap + 2 < second and",
           ("tests/test_chord.py::test_rooted_generator_yields_the_least_span_matchings",)),
    # equal copies change no result: only the pin on shared flags tells them apart
    Mutant("load_catalog copies each entry's flags again", "catalog.py",
           "entry = _entry(code, *fields)",
           "entry = _entry(code, *fields[:2], _Flags(fields[2]), *fields[3:])",
           ("tests/test_catalog.py::test_each_distinct_tail_is_parsed_once",)),
    Mutant("catalog._Flags lets update through", "catalog.py",
           "setdefault = update = _read_only", "setdefault = _read_only",
           ("tests/test_catalog.py::test_package_built_flags_are_read_only",)),
    Mutant("save_catalog tells duplicate codes apart by identity", "catalog.py",
           "code == prev_code", "code is prev_code",
           ("tests/test_catalog.py::test_duplicate_code_rejected",)),
    Mutant("the catalog line format loses its genus field", "_formats.py",
           '"genus": int, ', "",
           ("tests/test_catalog.py::test_schema_violations_carry_line_and_field",)),
    Mutant("save_catalog continues a run when only flags is the same object", "catalog.py",
           " or e[1] is not kind or e[2] is not genus\n"
           "                   or e[4] is not source or e[5] is not tool_version",
           "", ("tests/test_catalog.py::test_equal_flags_write_the_same_bytes_shared_or_not",)),
    Mutant("the writer skips the per-entry code check", "catalog.py",
           "if new_run or type(code) is not str or not code:",
           "if new_run:",
           ("tests/test_catalog.py::test_save_refuses_a_code_that_is_no_string",)),
    Mutant("save_catalog checks the entry's own values, not the line it writes", "catalog.py",
           "_entry_from_json(dict(read, code=_read_back(code)), lineno)",
           "_entry_from_json(dict(own, code=code), lineno)",
           ("tests/test_catalog.py::test_save_writes_what_load_reads_for_subclassed_values"
            "[int-enum-genus]",)),
    Mutant("the reader's five fields in another order", "catalog.py",
           "return e.kind, e.genus, e.flags, e.source, e.tool_version",
           "return e.kind, e.genus, e.flags, e.tool_version, e.source",
           ("tests/test_catalog.py::"
            "test_save_load_save_writes_the_same_bytes_and_one_tail_per_run",)),
    Mutant("_arc_ends gives the first dart twice", "prdiag.py",
           "return walk.darts[0], alpha[walk.darts[-1]]", "return walk.darts[0], walk.darts[0]",
           ("tests/test_prdiag.py::test_solid_torus_chord_conversion",
            "tests/test_prdiag.py::test_fixtures_are_valid")),
    Mutant("euler_genus counts darts, not vertex ids", "combmap.py",
           "chi = (len(set(_orbit_ids(m.sigma)))", "chi = (len(_orbit_ids(m.sigma))",
           ("tests/test_combmap.py::test_euler_identity_after_operations",
            "tests/test_combmap.py::test_torus_rotation_system")),
    Mutant("colored_to_json writes no colors", "chord.py",
           "return dict(chord_to_json(ccd.base), colors=list(ccd.colors))",
           "return chord_to_json(ccd.base)",
           ("tests/test_chord.py::test_chord_json_roundtrip",
            "tests/test_cli.py::test_convert_both_ways")),
    Mutant("the refusal names MORSEDIAG_WORKERS even when --workers is given", "cli.py",
           'source, value = "--workers", args.workers',
           'source, value = "MORSEDIAG_WORKERS", args.workers',
           ("tests/test_cli.py::test_classify_workers_flag_below_one_exits_two",
            "tests/test_readme.py::test_worker_counts_that_are_refused_exit_two")),
)

SURVIVORS = (
    Mutant("_noncrossing_subsets without its count bound", "chord.py",
           "while free.bit_count() >= need:", "while free:",
           ("tests/test_chord.py::test_noncrossing_subsets_match_combinations",
            "tests/test_chord.py::test_coloring_counts"),
           survives="a chord taken with fewer than `need` free leaves `rest` fewer than "
                    "`need - 1`, which the next test drops: the bound only saves time"),
    Mutant("_river searches one start past the last", "chord.py",
           "ring = pcol + pcol[:g - 1]", "ring = pcol + pcol[:g]",
           ("tests/test_chord.py::test_river_agrees_with_selection_brute_force",
            "tests/test_chord.py::test_point_color_river_test_agrees_with_both_oracles"),
           survives="start len(pcol) reads the points of start 0 again"),
    Mutant("chord._one_face without its first-step prune", "chord.py",
           "stop = points // 2 + 1 if root else", "stop = points if root else",
           ("tests/test_chord.py::test_rooted_generator_yields_the_least_span_matchings",
            "tests/test_chord.py::test_orbit_sizes_sum_to_harer_zagier_count"),
           survives="a first chord (0, b) past the diameter sets span = b > points // 2, "
                    "and no later chord meets span <= b' - a <= points - span: the "
                    "subtree yields nothing, so the bound only saves time"),
)


def _failed(src: Path, node_ids) -> Optional[set[str]]:
    """The node ids that fail or error when pytest runs them against the
    package under ``src``, each given as listed (parameters stripped), or
    None if the run takes more than TIMEOUT_S seconds."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *node_ids],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode not in (0, 1):   # not a plain pass or fail: show why
        sys.stdout.write(proc.stdout + proc.stderr)
        raise SystemExit(f"pytest exited {proc.returncode}")
    reported = [line.split()[1] for line in proc.stdout.splitlines()
                if line.startswith(("FAILED ", "ERROR "))]
    return {n for n in node_ids for r in reported if r == n or r.startswith(n + "[")}


def main() -> int:
    t0 = time.perf_counter()
    problems = []
    with tempfile.TemporaryDirectory(prefix="morsediag-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        all_ids = sorted({n for mt in MUTANTS + SURVIVORS for n in mt.tests})
        broken = _failed(src, all_ids)
        if broken is None:
            print(f"the listed tests must pass unmutated; they ran past {TIMEOUT_S} s")
            return 1
        if broken:
            print(f"the listed tests must pass unmutated; failing: {sorted(broken)}")
            return 1
        for mt in MUTANTS + SURVIVORS:
            path = src / "morsediag" / mt.file
            text = path.read_text()
            count = text.count(mt.snippet)
            if count != 1:
                problems.append(f"{mt.name}: snippet occurs {count} times in {mt.file}")
                print(f"STALE     {mt.name}")
                continue
            path.write_text(text.replace(mt.snippet, mt.replacement))
            try:
                failed = _failed(src, mt.tests)
            finally:
                path.write_text(text)
            if failed is None:   # a hang kills a mutant, but a survivor must pass
                if mt.survives:
                    problems.append(f"{mt.name}: timed out after {TIMEOUT_S} s")
                print(f"TIMEOUT   {mt.name}")
                continue
            if mt.survives:   # the tests that failed, or those that passed
                wrong, expected, unexpected = sorted(failed), "survived", "KILLED"
            else:
                wrong, expected, unexpected = sorted(set(mt.tests) - failed), "killed", "SURVIVED"
            if wrong:
                problems.append(f"{mt.name}: {unexpected.lower()} ({', '.join(wrong)})")
            print(f"{unexpected if wrong else expected:9} {mt.name}")
    print(f"{len(MUTANTS)} mutants, {len(SURVIVORS)} survivors, {len(problems)} problems, "
          f"{time.perf_counter() - t0:.1f} s")
    for p in problems:
        print(f"error: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
