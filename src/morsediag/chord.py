"""Chord diagrams of optimal flows: one-face tests, symmetry-reduced
enumeration, colorings and the river criterion.

A chord diagram is a perfect matching of 2n points on an oriented circle.
One-face diagrams with 2g chords present the closed oriented genus-g surface;
coloring g pairwise non-crossing chords green (the rest red) encodes an
optimal flow on the genus-g handlebody.

Class representatives are reduced under a symmetry convention: rotations of
the circle only, or the full dihedral action, the default (DEFAULT_SYMMETRY).
"""

from __future__ import annotations

import time
from enum import Enum
from functools import cache
from math import factorial
from itertools import compress, islice
from operator import eq
from typing import Iterator, NamedTuple, Optional, Sequence

from ._formats import CHORD, check


class NotOneFace(ValueError):
    pass


class WrongChordCount(ValueError):
    pass


class SymmetryConvention(Enum):
    ROTATION_ONLY = "rotation"
    DIHEDRAL = "dihedral"


#: Pinned by the acceptance suite: the unique convention reproducing the base
#: counts 1, 4, 82 (genus 1-3) and the colored counts 1, 5 (genus 1-2); at genus 3
#: it gives 179 colored classes, not the recorded 177 (criterion 3, orbit counts).
DEFAULT_SYMMETRY = SymmetryConvention.DIHEDRAL

GREEN = "green"
RED = "red"
#: Binary digits to point colors: a green chord's bit is set.
_POINT_COLORS = str.maketrans("01", "rg")


# _replace builds a named tuple through _make, which skips __new__; the
# validating record types below build through __new__ instead
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class ChordDiagram(NamedTuple("_ChordFields", [("n", int), ("match", tuple[int, ...])])):
    """Perfect matching of 2n circle points; match[i] is the partner of i.

    A named tuple (n, match) that refuses any other input when it is built,
    unpickled, copied or given new fields with _replace."""

    __slots__ = ()

    def __new__(cls, n: int, match: tuple[int, ...]):
        pts = 2 * n
        if len(match) != pts:
            raise ValueError(f"match must list {pts} partners")
        for i, j in enumerate(match):
            if not (0 <= j < pts) or j == i or match[j] != i:
                raise ValueError(f"match is not a fixed-point-free involution at point {i}")
        return tuple.__new__(cls, (n, match))

    _make = _checked_make

    @property
    def points(self) -> int:
        return 2 * self.n

    def chords(self) -> list[tuple[int, int]]:
        """Chords as (min, max) pairs, ordered by the smaller endpoint."""
        return [(i, j) for i, j in enumerate(self.match) if i < j]


class ColoredChordDiagram(NamedTuple("_ColoredFields", [("base", ChordDiagram),
                                                         ("colors", tuple[str, ...])])):
    """Chord diagram with a red/green color per chord (aligned with
    ChordDiagram.chords() order); a named tuple (base, colors) that refuses
    other input as ChordDiagram does."""

    __slots__ = ()

    def __new__(cls, base: ChordDiagram, colors: tuple[str, ...]):
        if len(colors) != base.n:
            raise ValueError("one color per chord required")
        for c in colors:
            if c not in (GREEN, RED):
                raise ValueError(f"bad color {c!r}")
        return tuple.__new__(cls, (base, colors))

    _make = _checked_make

    def point_colors(self) -> tuple[str, ...]:
        out = [""] * self.base.points
        for color, (a, b) in zip(self.colors, self.base.chords()):
            out[a] = out[b] = color
        return tuple(out)

    def green_chords(self) -> list[tuple[int, int]]:
        return [ch for ch, c in zip(self.base.chords(), self.colors) if c == GREEN]

    def red_chords(self) -> list[tuple[int, int]]:
        return [ch for ch, c in zip(self.base.chords(), self.colors) if c == RED]


def face_count(cd: ChordDiagram) -> int:
    """Boundary cycles of the one-vertex ribbon graph whose vertex rotation
    is the circular point order and whose edges are the chords."""
    pts, match = cd.points, cd.match
    seen = [False] * pts
    count = 0
    for start in range(pts):
        if seen[start]:
            continue
        count += 1
        i = start
        while not seen[i]:
            seen[i] = True
            i = (match[i] + 1) % pts
    return count


def is_one_face(cd: ChordDiagram) -> bool:
    return face_count(cd) == 1


@cache
def _symmetry_maps(pts: int, sym: SymmetryConvention) -> tuple[tuple[int, ...], ...]:
    """The point maps of the circle: rotation i -> i + k at index k and,
    when dihedral, reflection i -> c - i at index pts + c."""
    maps = [tuple((i + k) % pts for i in range(pts)) for k in range(pts)]
    if sym is SymmetryConvention.DIHEDRAL:
        maps += [tuple((c - i) % pts for i in range(pts)) for c in range(pts)]
    return tuple(maps)


def _apply(match: Sequence[int], p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(match)
    for i, j in enumerate(match):
        out[p[i]] = p[j]
    return tuple(out)


def _least_image(match: Sequence[int], sym: SymmetryConvention
                 ) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The lexicographically least image of a matching under the symmetry
    maps, and the list of maps that give it.

    Every chord and colored class code comes from it, and colorings are
    reduced under the maps it returns.  A map p with p[q] == 0 gives an
    image starting with p[match[q]]: that is (match[q] - q) % pts for the
    rotation and (q - match[q]) % pts for the reflection.  Full images are
    built only for the maps whose first entry is the least one.

    Enumeration does not call it: _self_test asks only whether a matching
    is its own least image.  The empty matching is its own least image,
    under the empty map."""
    pts = len(match)
    if not pts:
        return (), [()]
    maps = _symmetry_maps(pts, sym)
    spans = [(j - q) % pts for q, j in enumerate(match)]
    first = min(spans)
    tied = [maps[-q % pts] for q in range(pts) if spans[q] == first]
    if sym is SymmetryConvention.DIHEDRAL:
        tied += [maps[pts + q] for q in range(pts) if pts - spans[q] == first]
    images = [_apply(match, p) for p in tied]
    least = min(images)
    return least, [p for p, image in zip(tied, images) if image == least]


@cache
def _self_test(pts: int, sym: SymmetryConvention):
    """The self-test of orderly generation (McKay, J. Algorithms 26, 1998)
    for the matchings of pts points: a function giving the maps that fix a
    matching, in _least_image's order, if the matching is its own least
    image under the symmetry maps, else None.

    It relies on match[0] being the least short span of the matching's
    chords, as _one_face(points, sym) guarantees, so that match[0] is the
    least first entry of any image and only the maps whose image starts
    with it can tie.  Each such map's image is compared with the matching
    entry by entry, without being built: entry k is
    (match[(k + q) % pts] - q) % pts for the rotation taking q to 0 and
    (q - match[(q - k) % pts]) % pts for the reflection i -> q - i.  The
    first smaller entry rejects the matching (one that is not its class's
    representative usually loses within a few entries), the first larger
    one drops the map, and a map whose image equals the matching joins the
    stabiliser: rotations first, then reflections, each by q.

    The tables it reads are bound once: a map's image starts with
    match[0] = s iff match[q] == rotations[s][q] for the rotation taking q
    to 0, and iff match[q] == reflections[s][q] for the reflection
    i -> q - i, so one C-level pass over the matching finds the maps that
    can tie.  Entry 0 of a rotation row is -1, which no partner equals: the
    identity is no candidate."""
    maps = _symmetry_maps(pts, sym)
    rotations = tuple((-1,) + tuple((q + s) % pts for q in range(1, pts)) for s in range(pts))
    reflections = tuple(tuple((q - s) % pts for q in range(pts)) for s in range(pts))
    dihedral = sym is SymmetryConvention.DIHEDRAL
    points = range(pts)

    def stabiliser_if_least(match: Sequence[int]) -> Optional[list[tuple[int, ...]]]:
        first = match[0]
        twice = tuple(match) * 2
        fixing = [maps[0]]
        for q in compress(points, map(eq, match, rotations[first])):
            for k in range(1, pts):
                x = (twice[k + q] - q) % pts
                y = match[k]
                if x != y:
                    if x < y:
                        return None
                    break
            else:
                fixing.append(maps[pts - q])
        if dihedral:
            for q in compress(points, map(eq, match, reflections[first])):
                for k in range(1, pts):
                    x = (q - twice[q - k + pts]) % pts
                    y = match[k]
                    if x != y:
                        if x < y:
                            return None
                        break
                else:
                    fixing.append(maps[pts + q])
        return fixing

    return stabiliser_if_least


@cache
def _code_format(pts: int, sym: SymmetryConvention) -> str:
    """The %-format, given a least image of pts points as a tuple, of what
    follows "cd1" in a chord class code and "ccd1" in a colored one."""
    tag = "dih" if sym is SymmetryConvention.DIHEDRAL else "rot"
    return f"[{tag}]|n={pts // 2}|m=" + ",".join(["%d"] * pts)


def canonical_chord(cd: ChordDiagram, sym: SymmetryConvention = DEFAULT_SYMMETRY) -> str:
    """Class code: the least image of the matching (_least_image) over all
    rotations, and reflections when dihedral.  Equal codes iff same class."""
    return "cd1" + _code_format(cd.points, sym) % _least_image(cd.match, sym)[0]


def _least_colored(match: Sequence[int], pcol: Sequence[str], sym: SymmetryConvention
                   ) -> tuple[tuple[int, ...], tuple[str, ...]]:
    """The least (matching, point colors) image of a colored diagram under
    the symmetry maps: the least image of the matching, with the least of
    the point colors' images under the maps that give it."""
    least, maps = _least_image(match, sym)
    images = []
    for p in maps:
        image = [""] * len(pcol)
        for i, col in enumerate(pcol):
            image[p[i]] = col
        images.append(tuple(image))
    return least, min(images)


def canonical_colored(ccd: ColoredChordDiagram,
                      sym: SymmetryConvention = DEFAULT_SYMMETRY) -> str:
    """Class code of a colored diagram: its least (matching, point colors)
    image under the symmetry maps (_least_colored).  Equal codes iff same
    class."""
    match, pcol = _least_colored(ccd.base.match, ccd.point_colors(), sym)
    cols = "".join("g" if c == GREEN else "r" for c in pcol)
    return "ccd1" + _code_format(len(match), sym) % match + "|c=" + cols


def colored_from_point_colors(match: Sequence[int], pcol: Sequence[str]) -> ColoredChordDiagram:
    base = ChordDiagram(len(match) // 2, tuple(match))
    colors = tuple(pcol[a] for a, b in base.chords())
    return ColoredChordDiagram(base, colors)


def _one_face(points: int, sym: Optional[SymmetryConvention]) -> Iterator[tuple[int, ...]]:
    """The one-face perfect matchings of 0..points-1, in lexicographic
    order; with a convention sym, only the candidates for its class
    representatives: those whose chord at point 0 has the least short span
    s = min(b - a, points - (b - a)) of all their chords, and whose first
    two entries (s, match[1]) are the least first two entries of their
    images under sym's maps.

    A partial matching is extended only while its face permutation
    i -> (match[i] + 1) % points has no closed cycle: a cycle that closes
    before the last chord misses the points still unmatched, so it is
    shorter than points.  The permutation's open paths are kept by their
    ends (end[x] is the other end of the path x ends), so that each new chord
    a-b, which adds the steps a -> b+1 and b -> a+1, is tested in O(1).

    Every chord a-b is placed with span <= b - a <= points - span.  The span
    is 1 without sym; with it, the first chord (0, b) takes b <= points // 2,
    so that b is its short span, and sets span = s = b.  An image then
    starts with s only under the rotation taking q to 0 where
    match[q] == q + s, with entry 1 (match[q + 1] - q) % points, and, when
    dihedral, under the reflection i -> q - i where match[q] == q - s, with
    entry 1 (q - match[q - 1]) % points.  Once both points it reads are
    placed, such an entry below match[1] beats every completion, so the
    subtree is dropped (`beaten`).  The last chord is forced, so a plain
    call places it (`last`), not one more generator per matching."""
    match = [-1] * points
    end = list(range(points))
    prune = sym is not None
    reflect = sym is SymmetryConvention.DIHEDRAL

    def beaten(a: int, b: int, span: int) -> bool:
        # chord a-b (a >= 1, every point below a placed) completes the
        # readings of the rotations at a - 1, a, b - 1, b and the reflections
        # at a, a + 1, b, b + 1; each is read only where it can start with
        # span and go on below match[1].  Index q - points reads point q
        second, gap = match[1], b - a
        if gap == span:             # rotation at a, reflection at b
            k, j = match[a + 1], match[b - 1]
            if (k >= 0 and (k - a) % points < second
                    or reflect and j >= 0 and (b - j) % points < second):
                return True
        if gap == points - span:    # rotation at b, reflection at a
            k = match[b + 1 - points]
            if (k >= 0 and (k - b) % points < second
                    or reflect and (a - match[a - 1]) % points < second):
                return True
        # the rotation at a - 1 and the reflection at b + 1 read gap + 1; the
        # latter needs b + 1's partner b + 1 - span placed, but it lies above
        # a (or b + 1 = points and every chord is a diameter, beaten by none)
        if gap + 1 < second and (match[a - 1] - a + 1) % points == span:
            return True
        if points + 1 - gap < second:   # rotation at b - 1, reflection at a + 1
            j, k = match[b - 1], match[a + 1]
            return (j >= 0 and (j - b + 1) % points == span
                    or reflect and k >= 0 and (a + 1 - k) % points == span)
        return False

    def last(a: int, span: int) -> Optional[tuple[int, ...]]:
        # the one chord left joins a to the other unmatched point b; unless
        # it breaks the span bounds or a -> b+1 closes a cycle, b -> a+1
        # closes the one cycle of all points
        b = match.index(-1, a + 1)
        if not span <= b - a <= points - span or end[a] == (b + 1) % points:
            return None
        match[a], match[b] = b, a
        done = None if prune and beaten(a, b, span) else tuple(match)
        match[a] = match[b] = -1
        return done

    def rec(a: int, left: int, span: int) -> Iterator[tuple[int, ...]]:
        a1 = a + 1
        root = prune and a == 0
        check = prune and a > 0
        stop = points // 2 + 1 if root else min(points, a + points + 1 - span)
        for b in range(a + span, stop):
            if match[b] >= 0:
                continue
            b1 = (b + 1) % points
            head = end[a]
            if head == b1:       # the step a -> b+1 closes a cycle
                continue
            tail = end[b1]
            end[head], end[tail] = tail, head
            match[a], match[b] = b, a
            head2 = end[b]
            # unless the step b -> a+1 closes a cycle or an image beats match[1]
            if head2 != a1 and not (check and beaten(a, b, span)):
                tail2 = end[a1]
                end[head2], end[tail2] = tail2, head2
                nxt = a1
                while match[nxt] >= 0:
                    nxt += 1
                if left > 2:
                    yield from rec(nxt, left - 1, b if root else span)
                else:
                    done = last(nxt, b if root else span)
                    if done is not None:
                        yield done
                end[head2], end[tail2] = b, a1
            match[a] = match[b] = -1
            end[head], end[tail] = a, b1

    if points % 2 == 0 and points >= 4:
        yield from rec(0, points // 2, 1)


def _harer_zagier_count(g: int) -> int:
    """Harer-Zagier count of labeled one-face matchings with 2g chords:
    (4g)! / (4^g (2g+1)!), giving 1, 21, 1485, 225225 for g = 1..4."""
    return factorial(4 * g) // (4 ** g * factorial(2 * g + 1))


def _canonical_bases(g: int, sym: SymmetryConvention
                     ) -> Iterator[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """(representative, stabiliser) of every base class, yielded in
    generation order, which sorts them by representative; the Harer-Zagier
    check (enumerate_bases) runs once the generator is exhausted.
    Generation places only matchings whose match[0] is their least short
    span, which is the precondition of _self_test."""
    if g < 1:
        raise ValueError("genus must be at least 1")
    pts = 4 * g
    group = len(_symmetry_maps(pts, sym))
    self_test = _self_test(pts, sym)
    classes = labeled = 0
    for match in _one_face(pts, sym):
        stabiliser = self_test(match)
        if stabiliser is not None:
            yield match, stabiliser
            classes += 1
            labeled += group // len(stabiliser)
    expected = _harer_zagier_count(g)
    if labeled != expected:
        raise RuntimeError(
            f"genus {g}: the {classes} base classes hold {labeled} labeled "
            f"one-face matchings, not the Harer-Zagier count {expected}")


def enumerate_bases(g: int, sym: SymmetryConvention = DEFAULT_SYMMETRY) -> list[ChordDiagram]:
    """All classes of one-face diagrams with 2g chords, one canonical
    representative each, sorted by matching.

    Isomorph-free generation (Read, Ann. Discrete Math. 2, 1978; McKay,
    J. Algorithms 26, 1998): a one-face matching is its class's
    representative iff it is the least image of itself under the symmetry
    maps, so no set of classes seen is kept.  _one_face places only the
    candidates, in lexicographic order (9,353 of the 225,225 one-face
    matchings at genus 4, 25,508 by the span alone), and _self_test keeps
    the representatives with their stabilisers.  A class holds len(maps) //
    len(stabiliser) labeled matchings; these must sum to the Harer-Zagier
    count (_harer_zagier_count), or RuntimeError is raised."""
    return [ChordDiagram(2 * g, match) for match, _ in _canonical_bases(g, sym)]


def _crossing_masks(match: Sequence[int]) -> tuple[list[int], str]:
    """The chords' crossing masks, bit j of entry i set iff chords i and j
    interleave, and the letter string with chr(n + 2 - k) at the points of
    chord k (chords in ChordDiagram.chords() order, n of them), in one pass
    over the points.  Chord k crosses the chords with one end between its
    ends: the XOR of those open just after its near end and just before its
    far end."""
    n = len(match) // 2
    crossed, letters, opened_after = [0] * n, [""] * len(match), [0] * len(match)
    opened = k = 0
    for p, q in enumerate(match):
        if p < q:
            letters[p] = letters[q] = chr(n + 2 - k)
            opened_after[q] = opened = opened ^ 1 << k
            k += 1
        else:
            j = n + 2 - ord(letters[p])
            crossed[j] = opened ^ opened_after[p]
            opened ^= 1 << j
    return crossed, "".join(letters)


def _noncrossing_subsets(crossed: Sequence[int], size: int) -> list[int]:
    """Bitmasks (bit i for chord i) of the sets of `size` pairwise
    non-crossing chords, in the lexicographic order of their index tuples,
    given the chords' crossing masks (_crossing_masks).  The sets grow by a
    chord per level, each taking the chords that may join it, `free` (after
    its last chord, crossing none of its chords), lowest first while `free`
    holds enough to complete it."""
    if size == 0:
        return [0]
    level = [(0, (1 << len(crossed)) - 1)]
    for need in range(size, 1, -1):
        grown = []
        for chosen, free in level:
            while free.bit_count() >= need:
                low = free & -free
                free ^= low
                rest = free & ~crossed[low.bit_length() - 1]
                if rest.bit_count() >= need - 1:
                    grown.append((chosen | low, rest))
        level = grown
    out = []
    for chosen, free in level:
        while free:
            low = free & -free
            free ^= low
            out.append(chosen | low)
    return out


def enumerate_colorings(base: ChordDiagram, g: int,
                        sym: SymmetryConvention = DEFAULT_SYMMETRY) -> list[ColoredChordDiagram]:
    """All colorings of a one-face base with exactly g pairwise non-crossing
    green chords, one representative per class under the symmetries of the
    base, sorted by code.

    The maps that take the base to its least image are computed once; a
    coloring's class is told by its least color string under those maps
    alone (for a canonical base, its stabiliser), which is what
    canonical_colored gives.  The classes come from _classify_base, as in
    classify, sorted here.  The representative of a class is its first
    coloring in the order of the non-crossing green subsets.  The orbit
    sizes of the classes must sum to the subsets tried (RuntimeError)."""
    if base.n != 2 * g:
        raise WrongChordCount(f"expected {2 * g} chords, got {base.n}")
    if not is_one_face(base):
        raise NotOneFace("colorings are defined for one-face diagrams")
    _, maps = _least_image(base.match, sym)
    readers = [sorted(range(base.points), key=p.__getitem__) for p in maps]
    _, colored, _, greens = _classify_base(tuple(base.match), g, sym, readers)
    return [ColoredChordDiagram(base, tuple(GREEN if mask >> i & 1 else RED for i in range(base.n)))
            for _, mask in sorted(zip(colored, greens))]


def _crossing_within(crossed: Sequence[int], colors: Sequence[str], color: str) -> bool:
    """Do two chords of one color cross?  ``crossed`` holds the chords'
    crossing masks (_crossing_masks) and ``colors`` their colors."""
    chords = sum(1 << i for i, c in enumerate(colors) if c == color)
    return any(chords >> i & 1 and mask & chords for i, mask in enumerate(crossed))


def is_river(ccd: ColoredChordDiagram) -> bool:
    """River criterion: equal color counts, same-color chords pairwise
    non-crossing, and some run of g consecutive circle positions consists of
    one end from each red chord (no other chord ends between them), as
    _river tests it.  The empty diagram is no river."""
    match, colors = ccd.base.match, ccd.colors
    if not colors or 2 * colors.count(GREEN) != len(colors):
        return False
    crossed, _ = _crossing_masks(match)
    if any(_crossing_within(crossed, colors, color) for color in (GREEN, RED)):
        return False
    pcol = "".join("g" if c == GREEN else "r" for c in ccd.point_colors())
    return _river(match, pcol)


def _river(match: Sequence[int], pcol: str) -> bool:
    """is_river of a coloring with g = len(match) // 4 >= 1 chords of each
    color, the chords of each color pairwise non-crossing, from its point
    colors pcol ("g" and "r")."""
    pts = len(match)
    g = pts // 4
    run = "r" * g
    ring = pcol + pcol[:g - 1]
    start = ring.find(run)
    while start >= 0:
        # g red points in a row, no two the ends of one chord
        if all((match[p % pts] - start) % pts >= g for p in range(start, start + g)):
            return True
        start = ring.find(run, start + 1)
    return False


def _classify_base(match: tuple[int, ...], g: int, sym: SymmetryConvention,
                   readers: Optional[Sequence[Sequence[int]]]):
    """The code of one one-face base, the colored codes of its coloring
    classes, those of its river classes and the green chord mask of each
    class's representative.

    _crossing_masks gives the chords' crossing masks and `lab`, with
    chr(n + 2 - k) at the points of chord k, the index of bit k's digit in
    bin(1 << n | mask).  Those digits, as "g" and "r", paint a coloring
    with one lab.translate, and its images under the maps taking the base to
    its least image with `lab` read through their inverses, `readers` (None:
    the identity alone, as classify gives for the 6,830 of the 7,258 genus-4
    bases with a trivial stabiliser).  Its key, ending its colored code, is
    the least image.  A class keeps its first coloring, and is tested as a
    river (_river) only if that coloring's red chords are pairwise
    non-crossing: 1,083 times at genus 4, where 1,226 of the 15,466 green
    subsets leave them so.  A base with no green subset (2,873 at genus 4)
    stops after its code.  The codes come unsorted; for a base that is not
    its own least image their prefix is the base's, and readers[0] is not
    the identity.

    Run-time check: a class's orbit holds len(readers) / (the readers giving
    its key) colorings, by orbit-stabiliser; the orbits must sum to the
    green subsets tried, or RuntimeError is raised."""
    crossed, lab = _crossing_masks(match)
    code = _code_format(len(match), sym) % match
    subsets = _noncrossing_subsets(crossed, g)
    if not subsets:
        return "cd1" + code, [], [], []
    prefix = "ccd1" + code + "|c="
    top = 1 << len(crossed)
    image_labs = ["".join([lab[i] for i in r]) for r in readers or ()]
    colored, greens, river, first_seen, held = [], [], [], set(), 0
    for mask in subsets:
        table = bin(top | mask).translate(_POINT_COLORS)
        key = pcol = lab.translate(table)
        if readers is not None:
            images = [image.translate(table) for image in image_labs]
            key = min(images)
            if key in first_seen:
                continue
            first_seen.add(key)
            held += len(readers) // images.count(key)
        colored.append(prefix + key)
        greens.append(mask)
        # _river needs non-crossing reds, as a river's are: one of the subsets
        if (top - 1) ^ mask in subsets and _river(match, pcol):
            river.append(colored[-1])
    if readers is not None and held != len(subsets):
        raise RuntimeError(
            f"genus {g}: base {','.join(map(str, match))}: the {len(colored)} "
            f"coloring classes hold {held} colorings, not the {len(subsets)} "
            f"non-crossing green subsets tried")
    return "cd1" + code, colored, river, greens


class CatalogReport(NamedTuple):
    """Per-genus classification counts plus all canonical codes."""

    genus: int
    symmetry: str
    bases: int
    colored: int
    river_colored: int
    river_bases: int
    base_codes: tuple[str, ...]
    colored_codes: tuple[str, ...]
    river_codes: tuple[str, ...]
    runtime_seconds: float

    def to_json(self) -> dict:
        """The report's fields by name; the code tuples print as JSON arrays."""
        return self._asdict()


#: The largest genus that classify enumerates.
_MAX_GENUS = 4


def classify(g: int, sym: SymmetryConvention = DEFAULT_SYMMETRY, workers: int = 1):
    """Full classification at one genus: base classes, colored classes,
    river classes, and all canonical codes.  Returns a CatalogReport.

    One pass in this process: the bases stream from _canonical_bases with
    their stabilisers, so no list of all bases is held and no stabiliser is
    computed twice, into _classify_base, which makes each base's codes; the
    codes are sorted once, here.  ``workers`` is accepted for
    compatibility: every value runs this same single pass."""
    if g > _MAX_GENUS:
        raise ValueError(f"genus {g} above configured bound {_MAX_GENUS}")
    t0 = time.perf_counter()
    base_codes = []
    colored_codes = []
    river_codes = []
    river_bases = 0
    bases = _canonical_bases(g, sym)
    # taken 256 at a time: alternating generation and colorings base by base
    # slowed both
    while run := list(islice(bases, 256)):
        for match, stabiliser in run:
            # a stabiliser is a group, so its maps read the same strings as their inverses
            base_code, colored, river, _ = _classify_base(
                match, g, sym, stabiliser if len(stabiliser) > 1 else None)
            base_codes.append(base_code)
            colored_codes += colored
            if river:
                river_codes += river
                river_bases += 1
    base_codes.sort()
    colored_codes.sort()
    river_codes.sort()
    return CatalogReport(
        genus=g,
        symmetry=sym.value,
        bases=len(base_codes),
        colored=len(colored_codes),
        river_colored=len(river_codes),
        river_bases=river_bases,
        base_codes=tuple(base_codes),
        colored_codes=tuple(colored_codes),
        river_codes=tuple(river_codes),
        runtime_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# JSON chord format
# ---------------------------------------------------------------------------

def chord_to_json(cd: ChordDiagram) -> dict:
    return {"n": cd.n, "match": list(cd.match)}


def colored_to_json(ccd: ColoredChordDiagram) -> dict:
    return dict(chord_to_json(ccd.base), colors=list(ccd.colors))


def chord_from_json(obj: dict):
    """ChordDiagram, or ColoredChordDiagram when colors are present; a
    missing or mistyped field is a ValueError naming its path."""
    check(obj, CHORD)
    cd = ChordDiagram(obj["n"], tuple(obj["match"]))
    colors = obj.get("colors")
    return cd if colors is None else ColoredChordDiagram(cd, tuple(colors))
