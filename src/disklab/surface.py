"""Chord-model surfaces: punctured blocks, arc classes, and tubed surfaces.

A once-punctured genus-g surface is cut along 2g loops based at a single
point of the puncture boundary.  The resulting disk has boundary

    [station][side 0][side 1] ... [side 4g-1]

where the station segment carries every arc endpoint and side ``4h..4h+3``
carries the identification word ``(pair 2h, +), (pair 2h+1, +),
(pair 2h, -), (pair 2h+1, -)``.  The word is no table: it is the rule by
which :func:`_step` computes a letter's two sides.  Side ``(p, +)`` at
parameter t is glued to side ``(p, -)`` at parameter 1-t, so the minus side
lists its slots in the reverse of the plus-side order.

An arc class is a reduced code: a tuple of signed crossings, entry ``x``
crossing pair ``|x|-1`` arriving on the sign(x) side.  A drawing chooses
endpoint orderings at the station and slot orderings on each side (one order
chosen on the plus side, mirrored on the minus side); two chords cross when
their endpoints interleave.

Embedded drawings of one arc are grown letter by letter, by one insertion
step (:func:`_step`).  A word's open chords are all of its chords but the
last, which goes back to the station.  Extending the word by a letter gives
the letter's slot token a new rank in each gap of its pair's plus-side
ranks, a midpoint of two neighbours or one past an end, and adds one chord,
from the previous letter's exit to the new arrival; the extension is kept
only if that chord crosses no earlier chord.  No earlier point moves, so no
earlier chord is recomputed or checked against another again.  A word embeds
if, in one of its open drawings and under one of the two station orders,
its last chord crosses nothing.  This is exact: the open chords of a word
are among the open chords of every extension, so a word with no
crossing-free open drawing has no embeddable extension.  Reversing a code
gives the same chords with the two station endpoints swapped, so
embeddability does not depend on orientation, and enumeration tries only one
orientation of each word of the bound's length (:func:`enumerate_arcs`).

A fixed word grows one way: :func:`_closed` grows a drawing by the word's
letters, depth first, and yields each crossing-free closing it reaches.
From the blank drawing these are the word's closed drawings
(:func:`_closed_drawings`).  From a closed drawing of another arc, with the
word's start token in one of its station gaps, they are zero-crossing
drawings of both arcs, and the two arcs are disjoint when the first such
drawing exists (:func:`_joint_drawing`).  Both searches are exact by one
argument: a branch is cut only when its new chord crosses a chord already
drawn, and no later insertion moves either chord's endpoints, so the
crossing is in every drawing the branch leads to.  An empty search
therefore means every drawing has a crossing.

The arc layer takes the genus and codes and keeps nothing between calls:
``enumerate_arcs(genus, k)``, ``arc_verdict(genus)(a, b)``.  The feet
that adjacent tubes leave on a region are not part of it: arcs are based at
the puncture and their chords never route through a foot, so every region
of a tubed surface shares one arc enumeration.

:class:`FrozenRecord` is the immutable slotted base of the surface and disk
descriptor classes, here because this is the lowest layer that uses it.
"""

from __future__ import annotations

from disklab.errors import InvalidConfigError, ResourceCapError

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


# -- arc codes ----------------------------------------------------------------


def _arc_letters(code):
    """``code`` itself, once it is a nonempty sequence of nonzero ints, none of them a bool."""
    if not isinstance(code, (tuple, list)) or not code:
        raise InvalidConfigError(f"arc code must be a nonempty sequence, got {code!r}")
    for x in code:
        if not isinstance(x, int) or isinstance(x, bool) or x == 0:
            raise InvalidConfigError(f"arc code entries must be nonzero integers, got {code!r}")
    return code


def validate_code(code: ArcCode, genus: int) -> None:
    top = 2 * genus
    for x in _arc_letters(code):
        if abs(x) > top:
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


# -- drawings: one insertion step ---------------------------------------------
#
# A drawing of a set of arcs orders the endpoint tokens inside the station
# block and, for each pair p, the plus-side slots (one per crossing of pair
# p, across all arcs); chords cross exactly when their endpoints interleave.
# An order is held as ranks.  An open drawing is (ranks, chords, free): for
# each pair, the sorted ranks of its slot tokens; the chords drawn, as sorted
# endpoint pairs; and the free end of the last chord.  A boundary point is
# (block, rank): block 0 is the station, block i + 1 is side i, and a minus
# side negates the rank so that it runs backwards; points of different blocks
# compare by block alone.  A new token takes a midpoint rank in a gap, or one
# past an end (:func:`_gaps`), so no earlier point ever moves and no chord is
# recomputed.  The start token has station rank 0 and the end token -1 or 1,
# before or after it.


def _chord(u: tuple, v: tuple) -> tuple:
    return (u, v) if u < v else (v, u)


def _crosses(chords: list, a: tuple, b: tuple) -> bool:
    for lo, hi in chords:
        if (lo < a < hi) != (lo < b < hi):
            return True
    return False


def _gaps(ranks) -> list:
    """One new rank in each gap of the sorted ``ranks``, both ends included."""
    if not ranks:
        return [0]
    gaps = [ranks[0] - 1]
    for x, y in zip(ranks, ranks[1:]):
        gaps.append((x + y) / 2)
    gaps.append(ranks[-1] + 1)
    return gaps


def _blank(genus: int) -> tuple:
    """The open drawing of the empty word: no tokens, no chords, free at the start token."""
    return ((),) * (2 * genus), [], (0, 0)


def _step(drawing: tuple, x: int):
    """Each child of an open drawing by the letter ``x``, arriving on side ``(p, s) = (|x| - 1, sign x)``.

    The letter's slot token takes each rank of :func:`_gaps` on pair p; a
    child is yielded when its new chord, from the free end to the arrival,
    crosses no chord drawn, and its free end is the exit on side ``(p, -s)``.
    Both blocks are computed from the identification word's rule.
    """
    ranks, chords, free = drawing
    p, s = abs(x) - 1, 1 if x > 0 else -1
    order = ranks[p]
    # Handle p // 2 owns blocks 4 * (p // 2) + 1..4, as (p & ~1, +), (p | 1, +), (p & ~1, -), (p | 1, -).
    arrive_block = 4 * (p >> 1) + (p & 1) + (1 if s > 0 else 3)
    exit_block = arrive_block + 2 * s
    for j, r in enumerate(_gaps(order)):
        arrive = (arrive_block, r if s > 0 else -r)
        if not _crosses(chords, free, arrive):
            grown = ranks[:p] + (order[:j] + (r,) + order[j:],) + ranks[p + 1:]
            yield grown, chords + [_chord(free, arrive)], (exit_block, -arrive[1])


def _closings(drawing: tuple, ends=(-1, 1)) -> list:
    """The station ranks in ``ends`` (by default either side of the start) whose chord crosses nothing."""
    _ranks, chords, free = drawing
    return [r for r in ends if not _crosses(chords, free, (0, r))]


def _closed(drawing: tuple, letters: ArcCode, ends=(-1, 1)):
    """Each crossing-free closing of ``drawing`` grown by ``letters``, as (end rank, open drawing).

    Depth first over :func:`_step`, one signed letter of the code
    ``letters`` a level, children in the order it yields them; a leaf
    yields each end rank in ``ends`` that :func:`_closings` allows, in
    that order.
    """
    if not letters:
        for end in _closings(drawing, ends):
            yield end, drawing
        return
    for child in _step(drawing, letters[0]):
        yield from _closed(child, letters[1:], ends)


def _closed_drawings(genus: int, code: ArcCode) -> tuple:
    """Every crossing-free closed drawing of ``code``, as (end rank, open drawing) in growth order.

    An empty result means the code does not embed.
    """
    validate_code(code, genus)
    return tuple(_closed(_blank(genus), code))


# -- disjointness: the same step, two arcs ------------------------------------


def _joint_drawing(drawings: tuple, b: ArcCode) -> list | None:
    """The chords of the first zero-crossing drawing of two arcs the search reaches, or ``None``.

    ``drawings`` are the first arc's crossing-free closed drawings
    (:func:`_closed_drawings`).  Each is fixed, with ``b``'s start token in
    each of its station gaps, and ``b`` grows inside it, letter by signed
    letter, by :func:`_closed`; the first closing it yields, which puts
    ``b``'s end token in the first station gap :func:`_closings` allows, is
    the witness.
    """
    for end, (ranks, chords, free) in drawings:
        closed = chords + [_chord(free, (0, end))]
        for start in _gaps(sorted((0, end))):
            grown = (ranks, closed, (0, start))
            for last, (_ranks, joint, tail) in _closed(grown, b, _gaps(sorted((0, end, start)))):
                return joint + [_chord(tail, (0, last))]
    return None


def arc_verdict(genus: int):
    """A fresh verdict ``verdict(a, b)``: whether two arc classes have disjoint embedded representatives.

    Exact, and ``True`` is backed by a zero-crossing drawing of both arcs
    (:func:`_joint_drawing`, which fixes the smaller canonical code).  Equal
    classes are parallel copies; a non-embeddable code raises.  A verdict
    draws each class and decides each pair at most once, for its holder alone.
    """
    drawn = {}
    decided = {}

    def verdict(a: ArcCode, b: ArcCode) -> bool:
        if (a, b) not in decided:
            ca, cb = sorted((canonical_code(a), canonical_code(b)))
            if ca != cb and (ca, cb) not in decided:
                drawn.update((code, _closed_drawings(genus, code)) for code in (ca, cb) if code not in drawn)
                if not drawn[ca] or not drawn[cb]:
                    raise InvalidConfigError(
                        f"arc codes must be embeddable; got {ca!r} / {cb!r} with no embedded drawing"
                    )
                decided[ca, cb] = _joint_drawing(drawn[ca], cb) is not None
            decided[a, b] = ca == cb or decided[ca, cb]
        return decided[a, b]

    return verdict


# -- arc enumeration ----------------------------------------------------------


def candidate_count(genus: int, k: int) -> int:
    """Canonical reduced codes of length 1..k, up to traversal reversal.

    There are ``4g * (4g - 1)^(L-1)`` reduced codes of length L.  None is its
    own reversal (its middle entry would be 0, or its two middle entries
    would cancel), so reversal pairs them all up.
    """
    letters = 4 * genus
    return sum(letters * (letters - 1) ** (length - 1) // 2 for length in range(1, k + 1))


def enumerate_arcs(genus: int, k: int) -> list[ArcCode]:
    """Canonical embeddable arc classes of code length <= k on the once-punctured genus-g surface.

    A depth-first search over reduced words over the 4g signed letters
    carries each word's crossing-free open drawings and never extends a
    word that has none: its open chords are among those of every
    extension, so no pruned word leads to an embeddable code.  The
    canonical form of every embeddable word is collected; the result is in
    deterministic (length, lexicographic) order.  A word of length k is
    tried only with a last letter x <= -word[0], and only until one drawing
    closes.  Any other such word has a reversal with the same class that
    is tried: every prefix of an embeddable word keeps a crossing-free open
    drawing, so the search reaches it on its own path.  Raises the
    resource-cap error, before any search, if the :func:`candidate_count`
    of canonical codes exceeds :data:`DEFAULT_MAX_ARC_CLASSES`.
    """
    if genus < 1:
        raise InvalidConfigError(f"genus must be >= 1, got {genus}")
    if k < 0:
        raise InvalidConfigError(f"arc bound must be >= 0, got {k}")
    max_classes = DEFAULT_MAX_ARC_CLASSES
    # Each length L >= 1 alone has at least 2^L codes, so a length bound past
    # the cap's bit length passes the cap: the count stops there, whatever k.
    if candidate_count(genus, min(k, max_classes.bit_length() + 1)) > max_classes:
        raise ResourceCapError("max_arc_classes", f"genus {genus}, length bound {k}", max_classes)
    # The letters and the blank drawing below take time and memory linear in the genus.
    if k == 0:
        return []
    letters = [x for x in range(-2 * genus, 2 * genus + 1) if x != 0]
    found: set[ArcCode] = set()

    def grow(word: ArcCode, drawings: list) -> None:
        leaf = len(word) + 1 == k
        for x in letters:
            if word and (word[-1] == -x or leaf and x > -word[0]):
                continue
            children = (child for drawing in drawings for child in _step(drawing, x))
            if not leaf:
                children = list(children)
                if children:
                    grow(word + (x,), children)
            if any(map(_closings, children)):
                found.add(canonical_code(word + (x,)))

    grow((), [_blank(genus)])
    return sorted(found, key=lambda c: (len(c), c))


# -- frozen records ------------------------------------------------------------

_set = object.__setattr__


class FrozenRecord:
    """An immutable record with slots; the base of every descriptor class.

    A subclass names in ``_fields``, in constructor order, the fields that
    take part in equality, hashing and the repr; its ``__slots__`` lists
    them and any stored fields, and its ``__init__`` sets them all once
    through :meth:`_init`.  Equality holds only between
    instances of the same class, the hash is that of the tuple of compared
    fields, the repr reads ``Cls(field=value, ...)``, and every later
    assignment raises ``AttributeError``.  That is what
    ``@dataclass(frozen=True)`` gives, but ``dataclasses`` imports
    ``inspect`` and ``ast`` and ``exec``s the methods of each class, which
    every cold ``build`` and ``certify`` process would pay for.
    """

    # The compared fields' values, kept as one tuple for equality and hashing.
    __slots__ = ("_values",)
    _fields: tuple[str, ...] = ()

    def _init(self, *values, **named) -> None:
        """Set ``_fields`` from ``values``, in order, and every other slot by name."""
        _set(self, "_values", values)
        for name, value in zip(self._fields, values):
            _set(self, name, value)
        for name, value in named.items():
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values


# -- tubed surfaces -----------------------------------------------------------


def tube_side(i: int) -> str:
    """Tubes alternate sides; tube 1 is on side B."""
    if i < 1:
        raise InvalidConfigError(f"tube index must be >= 1, got {i}")
    return SIDE_B if i % 2 == 1 else SIDE_A


class TubedSurface(FrozenRecord):
    """m+1 parallel copies of a genus-g surface joined by m unknotted tubes.

    Region i (1-based) is the product block between copies i-1 and i; it
    contains solid tube i and is punctured by it.  The block and its own
    tube lie on opposite sides, and consecutive regions alternate.  Feet
    mark where the adjacent tubes i-1 and i+1 attach to the block's
    horizontal boundary copies.  All of it follows from the tube index, so
    the surface stores only the genus and the tube count.
    """

    __slots__ = _fields = ("genus_base", "tubes")

    def __init__(self, genus_base: int, tubes: int):
        self._init(genus_base, tubes)

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


def build_tubed_surface(genus: int, tubes: int) -> TubedSurface:
    if genus < 1:
        raise InvalidConfigError(f"genus must be >= 1, got {genus}")
    if tubes < 1:
        raise InvalidConfigError(f"tube count must be >= 1, got {tubes}")
    return TubedSurface(genus_base=genus, tubes=tubes)


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
                "index": r,
                "block_side": opposite_side(tube_side(r)),
                "own_tube_side": tube_side(r),
                "feet_bottom": [r - 1] if r >= 2 else [],
                "feet_top": [r + 1] if r < s.tubes else [],
            }
            for r in range(1, s.tubes + 1)
        ],
    }

