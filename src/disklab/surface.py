"""Chord-model surfaces: punctured blocks, arc classes, and tubed surfaces.

A once-punctured genus-g surface is cut along 2g loops based at a single
point of the puncture boundary.  The resulting disk has boundary

    [station][side 0][side 1] ... [side 4g-1]

where the station segment carries every arc endpoint and side ``4h..4h+3``
carries the identification word ``(pair 2h, +), (pair 2h+1, +),
(pair 2h, -), (pair 2h+1, -)``.  Side ``(p, +)`` at parameter t is glued to
side ``(p, -)`` at parameter 1-t, so the minus side lists its slots in the
reverse of the plus-side order.

An arc class is a reduced code: a tuple of signed crossings, entry ``x``
crossing pair ``|x|-1`` arriving on the sign(x) side.  A drawing chooses
endpoint orderings at the station and slot orderings on each side (one order
chosen on the plus side, mirrored on the minus side); two chords cross when
their endpoints interleave.

Embedded drawings of one arc are grown letter by letter.  A word's open
chords are all of its chords but the last, which goes back to the station.
Extending the word by a letter inserts the letter's slot token somewhere in
the plus-side order of its pair and adds one chord, from the previous
letter's exit to the new arrival; the extension is kept only if that chord
crosses no earlier chord.  Inserting a token keeps the relative order of the
tokens already placed, so earlier chord pairs never need checking again.  A
word embeds if, in one of its open drawings and under one of the two station
orders, its last chord crosses nothing.  This is exact: the open chords of a
word are among the open chords of every extension, so a word with no
crossing-free open drawing has no embeddable extension.  Reversing a code
gives the same chords with the two station endpoints swapped, so
embeddability does not depend on orientation.  Two arcs are disjoint when one
grows, by the same insertions, inside a closed drawing of the other without
a crossing (:func:`arcs_disjoint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from disklab.errors import InvalidConfigError, MalformedFileError, ResourceCapError

ArcCode = tuple[int, ...]

SIDE_A = "A"
SIDE_B = "B"

DEFAULT_MAX_ARC_CLASSES = 100_000


def opposite_side(side: str) -> str:
    if side == SIDE_A:
        return SIDE_B
    if side == SIDE_B:
        return SIDE_A
    raise InvalidConfigError(f"unknown side {side!r}")


# -- punctured block model ----------------------------------------------------


def side_word(genus: int) -> tuple[tuple[int, int], ...]:
    """Identification word: for each handle h, sides (2h,+),(2h+1,+),(2h,-),(2h+1,-)."""
    word: list[tuple[int, int]] = []
    for h in range(genus):
        word.extend([(2 * h, 1), (2 * h + 1, 1), (2 * h, -1), (2 * h + 1, -1)])
    return tuple(word)


@dataclass(frozen=True)
class PuncturedSurfaceModel:
    """A once-punctured genus-g block with 0, 1, or 2 marked feet.

    Feet are marked boundary disks at fixed reference positions adjacent to
    side 0, disjoint from the polygon corners.  Arcs are based at the
    puncture (the station segment) and avoid all feet by construction:
    chord representatives never route through the reference positions, so
    feet are bookkeeping and never enter the crossing search.
    """

    genus: int
    feet: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise InvalidConfigError(f"genus must be >= 1, got {self.genus}")
        if self.feet not in (0, 1, 2):
            raise InvalidConfigError(f"feet must be 0, 1, or 2, got {self.feet}")

    @property
    def word(self) -> tuple[tuple[int, int], ...]:
        return side_word(self.genus)

    @property
    def foot_positions(self) -> tuple[str, ...]:
        """Reference positions, distinct and disjoint from polygon corners."""
        return tuple(f"adjacent_to_side_0_slot_{i}" for i in range(self.feet))

    @property
    def pairs(self) -> int:
        return 2 * self.genus


def build_punctured_model(genus: int, feet: int = 0) -> PuncturedSurfaceModel:
    return PuncturedSurfaceModel(genus=genus, feet=feet)


# -- arc codes ----------------------------------------------------------------


def validate_code(code: ArcCode, genus: int) -> None:
    if not isinstance(code, tuple) or len(code) == 0:
        raise InvalidConfigError(f"arc code must be a nonempty tuple, got {code!r}")
    top = 2 * genus
    for x in code:
        if not isinstance(x, int) or x == 0 or abs(x) > top:
            raise InvalidConfigError(
                f"arc code entry {x!r} out of range for genus {genus} (|x| in 1..{top})"
            )
    for a, b in zip(code, code[1:]):
        if a == -b:
            raise InvalidConfigError(f"arc code {code!r} is not reduced at {a}, {b}")


def reverse_code(code: ArcCode) -> ArcCode:
    """The same arc traversed backwards: reversed order, flipped signs."""
    return tuple(-x for x in reversed(code))


def canonical_code(code: ArcCode) -> ArcCode:
    """Canonical form under traversal reversal: lexicographic minimum."""
    return min(tuple(code), reverse_code(code))


# -- drawings and crossings ---------------------------------------------------
#
# A drawing of a set of arcs assigns: an order of endpoint tokens inside the
# station block, and for each pair p an order of the plus-side slots (one per
# crossing of pair p, across all arcs).  Positions on the boundary cycle are
# then fixed and chords cross exactly when their endpoints interleave.


def _entries(code: ArcCode) -> list[tuple[int, int]]:
    return [(abs(x) - 1, 1 if x > 0 else -1) for x in code]


def _side_index(genus: int) -> dict[tuple[int, int], int]:
    return {ps: i for i, ps in enumerate(side_word(genus))}


# -- embeddability: incremental insertion search -----------------------------
#
# An open drawing of a word is its plus-side slot order on each pair: a tuple
# of 2g tuples of entry indices.  Its open chords are every chord but the one
# back to the station.  A boundary point is (block, rank): block 0 is the
# station, block i + 1 is side i, and a minus side negates the rank so that it
# runs backwards; points of different blocks compare by block alone.

_START = (0, 0)
# Each station order with the point of the end token: after the start for
# ((0, 0), (0, 1)), before it for ((0, 1), (0, 0)).
_STATIONS = ((((0, 0), (0, 1)), (0, 1)), (((0, 1), (0, 0)), (0, -1)))


def _point(sidx: dict, p: int, s: int, rank: float) -> tuple:
    return (sidx[(p, s)] + 1, rank if s > 0 else -rank)


def _chord(u: tuple, v: tuple) -> tuple:
    return (u, v) if u < v else (v, u)


def _open_drawing(sidx: dict, word: ArcCode, orders: tuple) -> tuple:
    """(orders, open chords as sorted endpoint pairs, free end of the last chord)."""
    rank = {t: r for order in orders for r, t in enumerate(order)}
    chords = []
    prev = _START
    for i, (p, s) in enumerate(_entries(word)):
        arrive = _point(sidx, p, s, rank[i])
        chords.append(_chord(prev, arrive))
        prev = _point(sidx, p, -s, rank[i])
    return orders, chords, prev


def _crosses(chords: list, a: tuple, b: tuple) -> bool:
    return any((lo < a < hi) != (lo < b < hi) for lo, hi in chords)


def _extend(sidx: dict, word: ArcCode, drawings: list, x: int) -> list:
    """Open drawings of ``word + (x,)`` grown from those of ``word``.

    x's slot token is inserted at every place in its pair's plus-side order
    (rank j - 1/2 falls between the tokens ranked j - 1 and j), and a place
    is kept when the chord it closes crosses no open chord.
    """
    ((p, s),) = _entries((x,))
    out = []
    for orders, chords, free in drawings:
        order = orders[p]
        for j in range(len(order) + 1):
            if not _crosses(chords, free, _point(sidx, p, s, j - 0.5)):
                grown = orders[:p] + (order[:j] + (len(word),) + order[j:],) + orders[p + 1:]
                out.append(_open_drawing(sidx, word + (x,), grown))
    return out


def _closings(drawing: tuple) -> list:
    """Station orders under which the last chord, back to the station, crosses nothing."""
    _orders, chords, free = drawing
    return [station for station, end in _STATIONS if not _crosses(chords, free, end)]


def _drawings_of(genus: int, code: ArcCode) -> list:
    """Every crossing-free open drawing of ``code``, grown letter by letter."""
    validate_code(code, genus)
    sidx = _side_index(genus)
    drawings = [_open_drawing(sidx, (), ((),) * (2 * genus))]
    for i, x in enumerate(code):
        drawings = _extend(sidx, code[:i], drawings, x)
    return drawings


@lru_cache(maxsize=None)
def solo_drawings(
    genus: int, code: ArcCode
) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[tuple[tuple[int, int], ...], ...]], ...]:
    """All drawings of a single arc with zero self-crossings.

    Each drawing is (station_order, per_pair_orders) where per_pair_orders
    lists, for pair p in 0..2g-1, the plus-side slot order of this arc's
    pair-p crossings.  An empty result means the code admits no embedded
    representative.  The drawings are the code's crossing-free open
    drawings, each closed under every station order that leaves its last
    chord uncrossed.  They come sorted by per-pair orders (pairs
    increasing), then station order: the order a product search over all
    orders lists them in.
    """
    closed = []
    for drawing in _drawings_of(genus, code):
        per_pair = tuple(tuple((0, t) for t in order) for order in drawing[0])
        closed.extend((station, per_pair) for station in _closings(drawing))
    return tuple(sorted(closed, key=lambda d: (d[1], d[0])))


def is_embeddable(genus: int, code: ArcCode) -> bool:
    """Whether some crossing-free open drawing of the code closes under a station order.

    Reversal swaps only the two station endpoints, so a code and its reverse
    get the same answer.
    """
    return any(_closings(d) for d in _drawings_of(genus, code))


# -- disjointness: the same insertions, two arcs ------------------------------
#
# Ranks inserted into a gap are midpoints (or one past an end), so every
# boundary point keeps the (block, rank) form above and earlier points keep
# their relative order.


def _gaps(ranks: list) -> list:
    """One new rank in each gap of the sorted ``ranks``, both ends included."""
    if not ranks:
        return [0]
    return [ranks[0] - 1, *((x + y) / 2 for x, y in zip(ranks, ranks[1:])), ranks[-1] + 1]


def _joint_drawing(genus: int, a: ArcCode, b: ArcCode) -> list | None:
    """The chords of the first zero-crossing drawing of two arcs the search reaches, or ``None``.

    Each crossing-free closed drawing of ``a`` is fixed, and ``b`` grows
    inside it letter by letter: its start token goes in each gap of the
    station, each letter's slot token in each gap of its pair's merged
    plus-side order, and its end token in each gap of the station.  A branch
    is cut as soon as its new chord crosses a chord already drawn, of either
    arc.  A crossing persists under further insertions, so the search is
    exact: ``None`` means every drawing of the two arcs has a crossing.
    """
    sidx = _side_index(genus)
    letters = _entries(b)

    def grow(i: int, chords: list, ranks: tuple, station_ranks: tuple, free: tuple) -> list | None:
        if i == len(letters):
            for r in _gaps(sorted(station_ranks)):
                if not _crosses(chords, free, (0, r)):
                    return chords + [_chord(free, (0, r))]
            return None
        p, s = letters[i]
        for r in _gaps(ranks[p]):
            arrive = _point(sidx, p, s, r)
            if not _crosses(chords, free, arrive):
                grown = ranks[:p] + (sorted((*ranks[p], r)),) + ranks[p + 1:]
                drawing = grow(i + 1, chords + [_chord(free, arrive)], grown, station_ranks, _point(sidx, p, -s, r))
                if drawing:
                    return drawing
        return None

    for station, per_pair in solo_drawings(genus, a):
        orders = tuple(tuple(t for _arc, t in order) for order in per_pair)
        _orders, chords, free = _open_drawing(sidx, a, orders)
        end = dict(_STATIONS)[station]
        chords = chords + [_chord(free, end)]
        ranks = tuple(list(range(len(order))) for order in orders)
        for start in _gaps(sorted((0, end[1]))):
            drawing = grow(0, chords, ranks, (0, end[1], start), (0, start))
            if drawing:
                return drawing
    return None


@lru_cache(maxsize=None)
def arcs_disjoint(genus: int, a: ArcCode, b: ArcCode) -> bool:
    """Whether two arc classes have disjoint embedded representatives.

    Exact, and ``True`` is backed by a zero-crossing drawing of both arcs
    (:func:`_joint_drawing`, which fixes the smaller canonical code).  Equal
    classes are parallel copies; a non-embeddable code raises.
    """
    ca, cb = sorted((canonical_code(a), canonical_code(b)))
    if (ca, cb) != (a, b):
        return arcs_disjoint(genus, ca, cb)
    if ca == cb:
        return True
    if not solo_drawings(genus, ca) or not solo_drawings(genus, cb):
        raise InvalidConfigError(
            f"arc codes must be embeddable; got {ca!r} / {cb!r} with no embedded drawing"
        )
    return _joint_drawing(genus, ca, cb) is not None


# -- arc enumeration ----------------------------------------------------------


def candidate_count(genus: int, k: int) -> int:
    """Canonical reduced codes of length 1..k, up to traversal reversal.

    There are ``4g * (4g - 1)^(L-1)`` reduced codes of length L.  None is its
    own reversal (its middle entry would be 0, or its two middle entries
    would cancel), so reversal pairs them all up.
    """
    letters = 4 * genus
    return sum(letters * (letters - 1) ** (length - 1) // 2 for length in range(1, k + 1))


def enumerate_arcs(
    m: PuncturedSurfaceModel,
    k: int,
    max_classes: int = DEFAULT_MAX_ARC_CLASSES,
) -> list[ArcCode]:
    """Canonical embeddable arc classes of code length <= k.

    A depth-first search over reduced words over the 4g signed letters
    carries each word's crossing-free open drawings and never extends a
    word that has none: its open chords are among those of every
    extension, so no pruned word leads to an embeddable code.  The
    canonical form of every embeddable word is collected; the result is in
    deterministic (length, lexicographic) order.  Raises the resource-cap
    error, before any search, if the :func:`candidate_count` of canonical
    codes exceeds ``max_classes``.
    """
    if k < 0:
        raise InvalidConfigError(f"arc bound must be >= 0, got {k}")
    g = m.genus
    if candidate_count(g, k) > max_classes:
        raise ResourceCapError("max_arc_classes", f"genus {g}, length bound {k}", max_classes)
    sidx = _side_index(g)
    letters = [x for x in range(-2 * g, 2 * g + 1) if x != 0]
    found: set[ArcCode] = set()

    def grow(word: ArcCode, drawings: list) -> None:
        if word and any(_closings(d) for d in drawings):
            found.add(canonical_code(word))
        if len(word) == k:
            return
        for x in letters:
            if word and word[-1] == -x:
                continue
            grown = _extend(sidx, word, drawings, x)
            if grown:
                grow(word + (x,), grown)

    grow((), [_open_drawing(sidx, (), ((),) * (2 * g))])
    return sorted(found, key=lambda c: (len(c), c))


# -- tubed surfaces -----------------------------------------------------------


def tube_side(i: int) -> str:
    """Tubes alternate sides; tube 1 is on side B."""
    if i < 1:
        raise InvalidConfigError(f"tube index must be >= 1, got {i}")
    return SIDE_B if i % 2 == 1 else SIDE_A


@dataclass(frozen=True)
class Region:
    """The product block between copies index-1 and index, containing tube index.

    The block is punctured by its own tube; feet mark where *adjacent*
    tubes attach to the block's horizontal boundary copies.
    """

    index: int
    block_side: str
    own_tube_side: str
    feet_bottom: tuple[int, ...]
    feet_top: tuple[int, ...]

    @property
    def feet_count(self) -> int:
        return len(self.feet_bottom) + len(self.feet_top)


@dataclass(frozen=True)
class TubedSurface:
    """m+1 parallel copies of a genus-g surface joined by m unknotted tubes.

    Region i (1-based) sits between copies i-1 and i and contains solid
    tube i; the block and its own tube lie on opposite sides, and
    consecutive regions alternate.
    """

    genus_base: int
    tubes: int
    regions: tuple[Region, ...]

    @property
    def genus_total(self) -> int:
        return (self.tubes + 1) * self.genus_base

    @property
    def w_side(self) -> str:
        """The side of the last tube."""
        return tube_side(self.tubes)

    @property
    def v_side(self) -> str:
        return opposite_side(self.w_side)

    def region(self, index: int) -> Region:
        if not 1 <= index <= self.tubes:
            raise InvalidConfigError(
                f"region index {index} out of range 1..{self.tubes}"
            )
        return self.regions[index - 1]


def build_tubed_surface(genus: int, tubes: int) -> TubedSurface:
    if genus < 1:
        raise InvalidConfigError(f"genus must be >= 1, got {genus}")
    if tubes < 1:
        raise InvalidConfigError(f"tube count must be >= 1, got {tubes}")
    regions = []
    for r in range(1, tubes + 1):
        own = tube_side(r)
        regions.append(
            Region(
                index=r,
                block_side=opposite_side(own),
                own_tube_side=own,
                feet_bottom=(r - 1,) if r >= 2 else (),
                feet_top=(r + 1,) if r + 1 <= tubes else (),
            )
        )
    return TubedSurface(genus_base=genus, tubes=tubes, regions=tuple(regions))


# -- JSON ---------------------------------------------------------------------


def surface_to_json_obj(s: TubedSurface) -> dict:
    return {
        "kind": "tubed_surface",
        "genus_base": s.genus_base,
        "tubes": s.tubes,
        "genus_total": s.genus_total,
        "w_side": s.w_side,
        "v_side": s.v_side,
        "regions": [
            {
                "index": r.index,
                "block_side": r.block_side,
                "own_tube_side": r.own_tube_side,
                "feet_bottom": list(r.feet_bottom),
                "feet_top": list(r.feet_top),
            }
            for r in s.regions
        ],
    }


def surface_from_json_obj(obj, source: str = "surface") -> TubedSurface:
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "expected an object")
    if obj.get("kind") != "tubed_surface":
        raise MalformedFileError(f"{source}.kind", "expected 'tubed_surface'")
    genus = obj.get("genus_base")
    tubes = obj.get("tubes")
    if not isinstance(genus, int) or genus < 1:
        raise MalformedFileError(f"{source}.genus_base", "expected an int >= 1")
    if not isinstance(tubes, int) or tubes < 1:
        raise MalformedFileError(f"{source}.tubes", "expected an int >= 1")
    built = build_tubed_surface(genus, tubes)
    regions = obj.get("regions")
    if not isinstance(regions, list) or len(regions) != tubes:
        raise MalformedFileError(f"{source}.regions", f"expected a list of {tubes} regions")
    for i, entry in enumerate(regions):
        loc = f"{source}.regions[{i}]"
        if not isinstance(entry, dict):
            raise MalformedFileError(loc, "expected an object")
        want = built.regions[i]
        got = (
            entry.get("index"),
            entry.get("block_side"),
            entry.get("own_tube_side"),
            entry.get("feet_bottom"),
            entry.get("feet_top"),
        )
        expect = (
            want.index,
            want.block_side,
            want.own_tube_side,
            list(want.feet_bottom),
            list(want.feet_top),
        )
        if got != expect:
            raise MalformedFileError(loc, f"inconsistent region data; expected {expect}")
    return built
