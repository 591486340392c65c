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

Embedded drawings of one arc are found by a pruned but still exhaustive
backtracking search.  It fixes the slot order of one pair per level, then
the station order.  Points on different sides (or the station) are already
ordered by the side word, so each pair of chords has a first level at which
the cyclic order of its four endpoints is fixed; only those pairs are checked
there, and a branch is cut as soon as one of them interleaves.  This is
exact: the crossing found persists whatever later levels choose, so a cut
subtree contains no zero-crossing drawing, and the drawings that remain come
out in the order of the full product search.  Crossing numbers between two
arcs are minimized over merges of their embedded drawings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

from disklab.errors import InvalidConfigError, MalformedFileError, ResourceCapError

ArcCode = tuple[int, ...]

SIDE_A = "A"
SIDE_B = "B"

DEFAULT_MAX_ARC_CLASSES = 100_000
DEFAULT_MERGE_BUDGET = 20_000


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


def _chord_endpoints(
    genus: int, codes: dict[int, ArcCode]
) -> dict[int, list[tuple[tuple, tuple]]]:
    """Chords of each arc as pairs of abstract boundary points.

    Points are ("st", (arc, 0|1)) for endpoints and (side_index, (arc, entry))
    for crossing slots.
    """
    sidx = _side_index(genus)
    chords: dict[int, list[tuple[tuple, tuple]]] = {}
    for j, code in codes.items():
        pts: list[tuple[tuple, tuple]] = []
        prev: tuple = ("st", (j, 0))
        for idx, (p, s) in enumerate(_entries(code)):
            arrive = (sidx[(p, s)], (j, idx))
            pts.append((prev, arrive))
            prev = (sidx[(p, -s)], (j, idx))
        pts.append((prev, ("st", (j, 1))))
        chords[j] = pts
    return chords


def _positions(
    genus: int,
    station_order: tuple[tuple[int, int], ...],
    plus_orders: dict[int, tuple[tuple[int, int], ...]],
) -> dict[tuple, int]:
    """Assign cyclic positions to every boundary point of a drawing."""
    pos: dict[tuple, int] = {}
    counter = 0
    for token in station_order:
        pos[("st", token)] = counter
        counter += 1
    for side_i, (p, s) in enumerate(side_word(genus)):
        slots = plus_orders.get(p, ())
        ordered = slots if s == 1 else tuple(reversed(slots))
        for crossing in ordered:
            pos[(side_i, crossing)] = counter
            counter += 1
    return pos


def _crossings(
    pos: dict[tuple, int],
    chords_a: list[tuple[tuple, tuple]],
    chords_b: list[tuple[tuple, tuple]],
    stop_at: int | None = None,
) -> int:
    """Count interleaving chord pairs between the two lists."""
    spans_a = []
    for u, v in chords_a:
        x, y = pos[u], pos[v]
        spans_a.append((x, y) if x < y else (y, x))
    count = 0
    for u, v in chords_b:
        p, q = pos[u], pos[v]
        for x, y in spans_a:
            if (x < p < y) != (x < q < y):
                count += 1
                if stop_at is not None and count >= stop_at:
                    return count
    return count


def _embedded_drawings(genus: int, code: ArcCode):
    """Yield every drawing of a single arc with zero self-crossings, in order.

    Level ``i`` ranks the slot tokens of the ``i``-th crossed pair (plus-side
    order, pairs increasing); the last level ranks the two endpoint tokens at
    the station.  Each level tries its orders in ``permutations`` order, so
    the drawings come out as a product search over all levels would list
    them.  Boundary points are ``(block, token, reversed)``: block 0 is the
    station, block ``i + 1`` is side ``i``, and a minus side lists its slots
    in reverse rank order.  Chords ``(a, b)`` and ``(c, d)`` interleave when
    an odd number of ``a<c, b<c, a<d, b<d`` hold; comparisons across blocks
    are constant, so each chord pair is checked at the level that ranks its
    last same-block tokens.
    """
    validate_code(code, genus)
    entries = _entries(code)
    n = len(entries)
    sidx = _side_index(genus)
    # Tokens 0..n-1 are the crossings' slots; n and n + 1 are the endpoints.
    groups: dict[int, list[int]] = {}
    for idx, (p, _s) in enumerate(entries):
        groups.setdefault(p, []).append(idx)
    pair_ids = sorted(groups)
    level_tokens = [groups[p] for p in pair_ids] + [[n, n + 1]]
    level_of = {t: lvl for lvl, tokens in enumerate(level_tokens, 1) for t in tokens}

    chords = []
    prev = (0, n, False)
    for idx, (p, s) in enumerate(entries):
        chords.append((prev, (sidx[(p, s)] + 1, idx, s < 0)))
        prev = (sidx[(p, -s)] + 1, idx, s > 0)
    chords.append((prev, (0, n + 1, False)))

    # checks[lvl]: (constant parity, rank comparisons (x, y) meaning x < y).
    checks: list[list[tuple[bool, tuple[tuple[int, int], ...]]]] = [
        [] for _ in range(len(level_tokens) + 1)
    ]
    for (a, b), (c, d) in combinations(chords, 2):
        parity = False
        compares = []
        level = 0
        for u, v in ((a, c), (b, c), (a, d), (b, d)):
            if u[0] != v[0]:
                parity ^= u[0] < v[0]
            else:
                compares.append((v[1], u[1]) if u[2] else (u[1], v[1]))
                level = max(level, level_of[u[1]])
        if compares:
            checks[level].append((parity, tuple(compares)))
        elif parity:
            return  # the side word alone forces this crossing

    rank = [0] * (n + 2)
    chosen: list[tuple[int, ...]] = []

    def search(lvl: int):
        if lvl == len(level_tokens):
            orders = dict(zip(pair_ids, chosen))
            yield (
                tuple((0, t - n) for t in chosen[-1]),
                tuple(tuple((0, t) for t in orders.get(p, ())) for p in range(2 * genus)),
            )
            return
        due = checks[lvl + 1]
        for perm in permutations(level_tokens[lvl]):
            for r, t in enumerate(perm):
                rank[t] = r
            for parity, compares in due:
                for x, y in compares:
                    if rank[x] < rank[y]:
                        parity = not parity
                if parity:
                    break
            else:
                chosen.append(perm)
                yield from search(lvl + 1)
                chosen.pop()

    yield from search(0)


@lru_cache(maxsize=None)
def solo_drawings(
    genus: int, code: ArcCode
) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[tuple[tuple[int, int], ...], ...]], ...]:
    """All drawings of a single arc with zero self-crossings.

    Each drawing is (station_order, per_pair_orders) where per_pair_orders
    lists, for pair p in 0..2g-1, the plus-side slot order of this arc's
    pair-p crossings.  An empty result means the code admits no embedded
    representative.  Drawings come in a fixed order (see
    :func:`_embedded_drawings`), which a budgeted :func:`arc_intersection`
    depends on.
    """
    return tuple(_embedded_drawings(genus, code))


def is_embeddable(genus: int, code: ArcCode) -> bool:
    """Whether the code admits an embedded drawing; stops at the first one."""
    return next(_embedded_drawings(genus, canonical_code(code)), None) is not None


def _shuffles(xs: tuple, ys: tuple):
    """All interleavings of xs and ys preserving each sequence's order."""
    n, m = len(xs), len(ys)
    if n == 0:
        yield tuple(ys)
        return
    if m == 0:
        yield tuple(xs)
        return
    for picks in combinations(range(n + m), n):
        merged: list = []
        xi = 0
        yi = 0
        pickset = set(picks)
        for i in range(n + m):
            if i in pickset:
                merged.append(xs[xi])
                xi += 1
            else:
                merged.append(ys[yi])
                yi += 1
        yield tuple(merged)


_PAIR_CACHE: dict[tuple, int] = {}


def _relabel(drawing, arc_id: int):
    """Re-tag a solo drawing's tokens with a fresh arc id."""
    st, orders = drawing
    st2 = tuple((arc_id, e) for (_j, e) in st)
    orders2 = tuple(tuple((arc_id, idx) for (_j, idx) in per) for per in orders)
    return st2, orders2


def arc_intersection(
    a: ArcCode,
    b: ArcCode,
    m: PuncturedSurfaceModel,
    budget: int | None = DEFAULT_MERGE_BUDGET,
) -> int:
    """Minimal crossing number between straightened representatives.

    Exhaustive search over endpoint orderings on the boundary and slot
    orderings of identified chords, minimizing cross-arc interleavings.
    Symmetric; zero on the diagonal.  With a finite ``budget`` the search
    stops after that many drawings and returns the smallest count seen — an
    upper bound, so callers asserting disjointness must require 0.
    """
    g = m.genus
    ca, cb = canonical_code(a), canonical_code(b)
    if ca == cb:
        return 0
    if ca > cb:
        ca, cb = cb, ca
    key = (g, ca, cb, budget)
    if key in _PAIR_CACHE:
        return _PAIR_CACHE[key]

    solos_a = [_relabel(d, 0) for d in solo_drawings(g, ca)]
    solos_b = [_relabel(d, 1) for d in solo_drawings(g, cb)]
    if not solos_a or not solos_b:
        raise InvalidConfigError(
            f"arc codes must be embeddable; got {ca!r} / {cb!r} with no embedded drawing"
        )
    chords = _chord_endpoints(g, {0: ca, 1: cb})
    best: int | None = None
    examined = 0
    for sa, orders_a in solos_a:
        for sb, orders_b in solos_b:
            for st in _shuffles(sa, sb):
                pair_merge_lists = [
                    list(_shuffles(orders_a[p], orders_b[p])) for p in range(2 * g)
                ]

                def walk(p: int, chosen: list) -> bool:
                    nonlocal best, examined
                    if p == 2 * g:
                        examined += 1
                        plus = {i: chosen[i] for i in range(2 * g)}
                        pos = _positions(g, st, plus)
                        stop = best if best is not None else None
                        n = _crossings(pos, chords[0], chords[1], stop_at=stop)
                        if best is None or n < best:
                            best = n
                        if best == 0:
                            return True
                        return budget is not None and examined >= budget
                    for merged in pair_merge_lists[p]:
                        chosen.append(merged)
                        done = walk(p + 1, chosen)
                        chosen.pop()
                        if done:
                            return True
                    return False

                if walk(0, []):
                    if best == 0 or (budget is not None and examined >= budget):
                        _PAIR_CACHE[key] = best
                        return best
    assert best is not None
    _PAIR_CACHE[key] = best
    return best


# -- arc enumeration ----------------------------------------------------------


def enumerate_arcs(
    m: PuncturedSurfaceModel,
    k: int,
    max_classes: int = DEFAULT_MAX_ARC_CLASSES,
) -> list[ArcCode]:
    """Canonical embeddable arc classes of code length <= k.

    Reduced codes over the 4g signed letters, deduplicated under traversal
    reversal, filtered to codes admitting an embedded drawing, in
    deterministic (length, lexicographic) order.  Raises the resource-cap
    error if the canonical candidate count exceeds ``max_classes``.
    """
    if k < 0:
        raise InvalidConfigError(f"arc bound must be >= 0, got {k}")
    g = m.genus
    letters = [x for x in range(-2 * g, 2 * g + 1) if x != 0]
    seen: set[ArcCode] = set()

    def grow(prefix: tuple[int, ...]) -> None:
        if prefix:
            canon = canonical_code(prefix)
            if canon not in seen:
                seen.add(canon)
                if len(seen) > max_classes:
                    raise ResourceCapError(
                        "max_arc_classes",
                        f"genus {g}, length bound {k}",
                        max_classes,
                    )
        if len(prefix) == k:
            return
        for x in letters:
            if prefix and prefix[-1] == -x:
                continue
            grow(prefix + (x,))

    grow(())
    embeddable = [c for c in sorted(seen, key=lambda c: (len(c), c)) if is_embeddable(g, c)]
    return embeddable


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
    # One arc model per region, built with the surface; not part of equality.
    region_models: tuple[PuncturedSurfaceModel, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        models = tuple(build_punctured_model(self.genus_base, r.feet_count) for r in self.regions)
        object.__setattr__(self, "region_models", models)

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

    def region_model(self, index: int) -> PuncturedSurfaceModel:
        self.region(index)  # range check
        return self.region_models[index - 1]


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
