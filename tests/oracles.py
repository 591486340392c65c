"""Test-only oracles: older, direct formulations that the tests compare against.

``certify`` checks simpliciality in its pair pass and the retraction on
vertices only; the tests keep the old, direct formulation here as an oracle:
the cataloged complex as a :class:`FlagComplex`, total vertex maps between
flag complexes, and ``check_retraction``, which also walks every domain edge.

Arc enumeration grows words letter by letter and prunes; the oracle here
generates every canonical candidate code and filters each one with a
separate level-by-level search over slot permutations.  Arc disjointness
grows one arc inside a drawing of the other; ``min_crossings`` is the
exhaustive engine it replaced, which minimizes the crossing number over
every merge of two embedded solo drawings.  It draws those from
``level_search_drawings``, the oracle's own search, never from the
insertion step it is compared against.  ``project_disk``
re-decides a disk's type before re-homing it one tube level down, which the
retraction engine does inline.

The pair pass reads its results off per-disk bitset rows filled once per disk
shape; ``scan_pairs_by_loop`` is the loop it replaced, one calculus call per
pair whose tube footprints overlap.  ``verify_claim_cases`` runs the claim
tally on an engine alone, computing every image first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable

from disklab.disks import (
    Disk,
    classify_type,
    disk_regions,
    disk_tubes,
    disks_disjoint_unvalidated,
    meets_distinguished,
)
from disklab.errors import InvalidConfigError
from disklab.flagcomplex import FlagComplex
from disklab.retraction import CASE_OF_TYPES, RetractionEngine, _disk_records, _scan_pairs
from disklab.surface import (
    ArcCode,
    TubedSurface,
    _entries,
    _side_index,
    canonical_code,
    side_word,
    validate_code,
)


def induced_subcomplex(c: FlagComplex, vertex_ids: Iterable[str]) -> FlagComplex:
    keep = set(vertex_ids)
    missing = sorted(keep - set(c.vertex_ids))
    if missing:
        raise InvalidConfigError(f"vertices not in complex: {missing}")
    out = FlagComplex()
    for vid in sorted(keep):
        out.add_vertex(vid, c.label(vid))
    for (u, v) in c.edges:
        if u in keep and v in keep:
            out.add_edge(u, v)
    return out.freeze()


def catalog_complex(catalog, disjoint_pairs) -> FlagComplex:
    """The cataloged disk complex: disks as vertices, certified-disjoint pairs as edges."""
    fc = FlagComplex()
    for d in catalog.disks:
        fc.add_vertex(d.key, d.key)
    for a, b in disjoint_pairs:
        fc.add_edge(a.key, b.key)
    return fc.freeze()


@dataclass(frozen=True)
class VertexMap:
    """A total assignment of domain vertex ids to codomain vertex ids."""

    domain: FlagComplex
    codomain: FlagComplex
    assignment: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        dom = set(self.domain.vertex_ids)
        missing = sorted(dom - set(self.assignment))
        if missing:
            raise InvalidConfigError(f"assignment is not total; missing {missing[:5]}")
        extra = sorted(set(self.assignment) - dom)
        if extra:
            raise InvalidConfigError(f"assignment has non-domain keys {extra[:5]}")
        bad = sorted(v for v in self.assignment.values() if not self.codomain.has_vertex(v))
        if bad:
            raise InvalidConfigError(f"assignment images not in codomain: {bad[:5]}")

    def __call__(self, vertex_id: str) -> str:
        return self.assignment[vertex_id]


def check_simplicial(f: VertexMap) -> list[tuple[str, str]]:
    """Return exactly the domain edges whose endpoints map to a non-edge.

    An edge {u, v} is fine when f(u) == f(v) (it collapses) or when
    {f(u), f(v)} is a codomain edge.  Empty result <=> f is simplicial.
    """
    bad = []
    for (u, v) in f.domain.edges:
        fu, fv = f(u), f(v)
        if fu != fv and not f.codomain.has_edge(fu, fv):
            bad.append((u, v))
    return bad


def check_retraction(f: VertexMap, s: FlagComplex) -> tuple[bool, list[str]]:
    """Check that ``f`` retracts its domain onto the subcomplex ``s``.

    ``s`` must be a subcomplex of the domain (vertices and edges contained).
    Passes iff: every image lies in ``s``; ``f`` fixes every vertex of ``s``;
    and ``f`` is simplicial.  Returns (ok, report of violations).
    """
    report: list[str] = []
    dom_vertices = set(f.domain.vertex_ids)
    for vid in s.vertex_ids:
        if vid not in dom_vertices:
            report.append(f"subcomplex vertex {vid!r} is not a domain vertex")
    for (u, v) in s.edges:
        if not f.domain.has_edge(u, v):
            report.append(f"subcomplex edge ({u!r}, {v!r}) is not a domain edge")
    sub = set(s.vertex_ids)
    for vid in f.domain.vertex_ids:
        img = f(vid)
        if img not in sub:
            report.append(f"image of {vid!r} is {img!r}, outside the subcomplex")
    for vid in s.vertex_ids:
        if vid in dom_vertices and f(vid) != vid:
            report.append(f"subcomplex vertex {vid!r} is not fixed (maps to {f(vid)!r})")
    for (u, v) in check_simplicial(f):
        report.append(f"edge ({u!r}, {v!r}) maps to non-edge ({f(u)!r}, {f(v)!r})")
    return (not report, report)


# -- arc enumeration -------------------------------------------------------------


def level_search_drawings(genus: int, code: ArcCode):
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


def all_reduced_codes(genus: int, k: int):
    """Yield every reduced code of length 1..k."""
    letters = [x for x in range(-2 * genus, 2 * genus + 1) if x != 0]
    for length in range(1, k + 1):
        for code in product(letters, repeat=length):
            if all(a != -b for a, b in zip(code, code[1:])):
                yield code


def canonical_reduced_codes(genus: int, k: int) -> list[ArcCode]:
    """Every canonical reduced code of length 1..k, in catalog order."""
    return sorted({canonical_code(c) for c in all_reduced_codes(genus, k)}, key=lambda c: (len(c), c))


def enumerate_arcs_by_filtering(genus: int, k: int) -> list[ArcCode]:
    """Every canonical reduced code of length <= k that the level search embeds."""
    codes = canonical_reduced_codes(genus, k)
    return [c for c in codes if next(level_search_drawings(genus, c), None) is not None]


# -- crossing numbers --------------------------------------------------------------
#
# A drawing of a set of arcs assigns an order of endpoint tokens inside the
# station block and, for each pair p, an order of the plus-side slots (one
# per crossing of pair p, across all arcs).  Positions on the boundary cycle
# are then fixed, and chords cross exactly when their endpoints interleave.


def chord_endpoints(genus: int, codes: dict[int, ArcCode]) -> dict[int, list[tuple[tuple, tuple]]]:
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
            pts.append((prev, (sidx[(p, s)], (j, idx))))
            prev = (sidx[(p, -s)], (j, idx))
        pts.append((prev, ("st", (j, 1))))
        chords[j] = pts
    return chords


def positions(genus: int, station_order: tuple, plus_orders: dict[int, tuple]) -> dict[tuple, int]:
    """Assign cyclic positions to every boundary point of a drawing."""
    pos = {("st", token): i for i, token in enumerate(station_order)}
    counter = len(pos)
    for side_i, (p, s) in enumerate(side_word(genus)):
        slots = plus_orders.get(p, ())
        for crossing in slots if s == 1 else reversed(slots):
            pos[(side_i, crossing)] = counter
            counter += 1
    return pos


def crossings(pos: dict[tuple, int], chords_a: list, chords_b: list, stop_at: int | None = None) -> int:
    """Count interleaving chord pairs between the two lists, stopping at ``stop_at``."""
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
                if count == stop_at:
                    return count
    return count


def shuffles(xs: tuple, ys: tuple):
    """All interleavings of xs and ys preserving each sequence's order."""
    n = len(xs) + len(ys)
    for picks in combinations(range(n), len(xs)):
        it_x, it_y = iter(xs), iter(ys)
        yield tuple(next(it_x) if i in picks else next(it_y) for i in range(n))


@lru_cache(maxsize=None)
def _solo_drawings(genus: int, code: ArcCode) -> tuple:
    return tuple(level_search_drawings(genus, code))


def min_crossings(genus: int, a: ArcCode, b: ArcCode) -> int:
    """Minimal crossing number of two arc classes over all merges of their solo drawings.

    The solo drawings come from :func:`level_search_drawings`, so nothing
    here shares code with the insertion search it checks.  Every pair of
    embedded solo drawings, every shuffle of their station
    tokens and of their slot tokens on each pair is drawn, and the smallest
    count of cross-arc interleavings wins; the search stops early at 0.
    Zero on the diagonal; a non-embeddable code raises.
    """
    ca, cb = sorted((canonical_code(a), canonical_code(b)))
    if ca == cb:
        return 0

    def relabel(drawing, arc_id):
        station, orders = drawing
        return tuple((arc_id, e) for _j, e in station), tuple(tuple((arc_id, t) for _j, t in o) for o in orders)

    solos_a = [relabel(d, 0) for d in _solo_drawings(genus, ca)]
    solos_b = [relabel(d, 1) for d in _solo_drawings(genus, cb)]
    if not solos_a or not solos_b:
        raise InvalidConfigError(f"arc codes must be embeddable; got {ca!r} / {cb!r} with no embedded drawing")
    chords = chord_endpoints(genus, {0: ca, 1: cb})
    best = None
    for sa, orders_a in solos_a:
        for sb, orders_b in solos_b:
            merges = [list(shuffles(orders_a[p], orders_b[p])) for p in range(2 * genus)]
            for station in shuffles(sa, sb):
                for plus in product(*merges):
                    pos = positions(genus, station, dict(enumerate(plus)))
                    n = crossings(pos, chords[0], chords[1], stop_at=best)
                    if best is None or n < best:
                        best = n
                    if best == 0:
                        return 0
    return best


# -- projection ------------------------------------------------------------------


def project_disk(d: Disk, surface: TubedSurface) -> Disk:
    """Re-home a disk that avoids the top tube onto the one-tube-smaller surface.

    Valid only for disks of type T4, or type T2 disjoint from the top
    meridian.  Such a disk's footprint avoids tube and region ``m``, so the
    same descriptor denotes an isotopic disk on the surface with ``m - 1``
    tubes.
    """
    if surface.tubes < 2:
        raise InvalidConfigError("projection needs at least two tubes")
    t = classify_type(d, surface)
    if t == "T1" or t == "T3":
        raise InvalidConfigError(f"disk {d.key} of type {t} meets the top tube and cannot be projected")
    if t == "T2" and meets_distinguished(d, surface):
        raise InvalidConfigError(
            f"disk {d.key} of type T2 meets the top meridian; surgery is required before projection"
        )
    m = surface.tubes
    assert m not in disk_tubes(d), d.key
    assert m not in disk_regions(d), d.key
    return d


# -- the pair pass ----------------------------------------------------------------


def scan_pairs_by_loop(records: list, surface: TubedSurface, tally: bool, keep=frozenset()):
    """The pair pass as a loop over all pairs ``i < j`` of catalog records.

    Same arguments and results as ``retraction._scan_pairs``: (kept disjoint
    pairs, claim tally or ``None``, V/W witness).  Pairs with disjoint tube
    footprints are disjoint by the footprint rule; every other pair asks the
    calculus.
    """
    case_of = {**CASE_OF_TYPES, **{(tb, ta): case for (ta, tb), case in CASE_OF_TYPES.items()}}
    kept = []
    checked = 0
    per_case = Counter()
    violations = []
    witness = None
    for i, (a, ta, xa, sa, fa) in enumerate(records):
        keep_a = a.key in keep
        for b, tb, xb, sb, fb in records[i + 1 :]:
            if fa & fb and not disks_disjoint_unvalidated(a, b, surface):
                continue
            checked += 1
            if keep_a and b.key in keep:
                kept.append((a, b))
            if witness is None and sa != sb:
                witness = (a, b) if sa == surface.v_side else (b, a)
            if not tally:
                continue
            case = case_of.get((ta, tb))
            if case is None:
                lo, hi = sorted((ta, tb))
                raise InvalidConfigError(
                    f"disks {a.key} (type {lo}) and {b.key} (type {hi}) are certified disjoint, "
                    "which contradicts the type definitions"
                )
            per_case[case] += 1
            if xa.pair_index == xb.pair_index and xa.letter != xb.letter:
                violations.append(
                    {
                        "case": case,
                        "disks": [a.key, b.key],
                        "types": sorted((ta, tb)),
                        "images": [xa.name, xb.name],
                    }
                )
    claims = None
    if tally:
        claims = {
            "pairs_checked": checked,
            "per_case": {str(c): per_case.get(c, 0) for c in range(1, 7)},
            "violations": violations,
            "passed": not violations,
        }
    return kept, claims, witness


def verify_claim_cases(engine: RetractionEngine) -> dict:
    """Check every certified-disjoint catalog pair maps to equal or adjacent vertices.

    Images violate the octahedron only when they form an antipodal pair: same
    pair index, different letters.  Pairs are tallied by the case table on
    disk types; a disjoint pair involving the top meridian and a disk that
    meets it is impossible by construction and treated as an internal error.
    """
    images = {d.key: engine.image(d) for d in engine.catalog.disks}
    records = _disk_records(engine, images)
    return _scan_pairs(records, engine.surface, tally=True)[1]
