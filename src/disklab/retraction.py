"""Octahedral spheres in the cataloged disk complex and the retraction onto them.

For a surface with ``m = n + 1`` tubes, the sphere ``S^n`` is realized as an
iterated suspension inside the disk complex: one antipodal pair per tube,
``E_i`` the meridian of tube ``i + 1`` and ``D_i`` a vertical disk in region
``i + 1``.  Vertices of different pairs bound disjoint disks (every such edge
is certified by the disjointness calculus before the sphere is accepted),
while the two vertices of one pair intersect, exactly the octahedron's
non-adjacency.

The retraction sends every cataloged disk to a sphere vertex, by recursion
over tube count:

* the top meridian maps to ``E_n``; disks meeting the top tube from the other
  side map to ``D_n``;
* disks missing the top tube entirely keep their descriptor and recurse on
  the surface with one tube fewer;
* same-side disks crossing the top meridian are surgered along an outermost
  intersection arc; each outermost arc yields candidate disks, each candidate
  recursively receives an image, and the arc's result is the candidate image
  lying in the smallest suspension sub-sphere (minimal pair index).  All
  outermost arcs must agree on the result; a disagreement raises
  :class:`WellDefinednessError` rather than being resolved silently.

``certify_catalog`` runs the full pipeline on a catalog and emits a
machine-checkable certificate: sphere invariants, per-disk images,
well-definedness statistics, the claim tally, the retraction check on the
cataloged complex, and an exact homology certificate that the composite fixes
a generating ``n``-cycle; ``certify_minimality`` builds the catalog first.
Each catalog disk gets one record (top-level type, image, side, tube
footprint).  The pair pass turns the records into one bitset row per disk,
of the disks certified disjoint from it, deciding disjointness once per disk
shape (a band sum's copies dropped), and reads the certified-disjoint pairs,
the claim tally and the V/W witness off the rows.  That pass is also the
only simpliciality check: on the octahedron two images span a non-edge
exactly when they are antipodal, which is what the claim tally tests on every
edge of the cataloged complex.  The retraction check that follows is on
vertices only: the sphere lies in the cataloged complex, every image lies in
the sphere, and the sphere is fixed.
"""

from __future__ import annotations

from collections import Counter
from functools import total_ordering
from typing import NamedTuple, Optional

from .disks import (
    BandSum,
    CatalogConfig,
    Disk,
    DiskCatalog,
    Meridian,
    build_disk_catalog,
    classify_type,
    classify_type_unvalidated,
    config_to_json_obj,
    disk_regions,
    disk_side,
    disk_to_json_obj,
    disk_tubes,
    disks_disjoint,
    disks_disjoint_unvalidated,
    meets_distinguished,
    meets_distinguished_unvalidated,
    validate_disk,
)
from .errors import InvalidConfigError, WellDefinednessError
from .flagcomplex import DEFAULT_MAX_SIMPLICES, FlagComplex
from .homology import certify_homology_retraction
from .surface import FrozenRecord, TubedSurface, build_tubed_surface, surface_to_json_obj, tube_side


@total_ordering
class SphereVertex(FrozenRecord):
    """One vertex of the octahedral sphere: pair index plus letter D or E.

    Vertices sort as ``(pair_index, letter)``.
    """

    __slots__ = _fields = ("pair_index", "letter")

    def __init__(self, pair_index: int, letter: str):
        if letter not in ("D", "E"):
            raise InvalidConfigError(f"sphere vertex letter must be 'D' or 'E', got {letter!r}")
        if not isinstance(pair_index, int) or pair_index < 0:
            raise InvalidConfigError(f"sphere pair index must be >= 0, got {pair_index!r}")
        self._init(pair_index, letter)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._values < other._values
        return NotImplemented

    @property
    def name(self) -> str:
        return f"{self.letter}{self.pair_index}"


class SuspensionSphere(FrozenRecord):
    """Antipodal disk pairs realizing an iterated-suspension sphere."""

    __slots__ = _fields = ("surface", "d_disks", "e_disks")

    def __init__(self, surface: TubedSurface, d_disks: tuple, e_disks: tuple):
        self._init(surface, d_disks, e_disks)

    @property
    def index(self) -> int:
        return len(self.d_disks) - 1

    def pair(self, i: int):
        return (self.d_disks[i], self.e_disks[i])

    def disk_for(self, vertex: SphereVertex):
        if vertex.pair_index > self.index:
            raise InvalidConfigError(f"sphere has no pair {vertex.pair_index}")
        pool = self.d_disks if vertex.letter == "D" else self.e_disks
        return pool[vertex.pair_index]

    def key_for(self, vertex: SphereVertex) -> str:
        return self.disk_for(vertex).key

    def sub_sphere_keys(self, i: int) -> list:
        """Vertex keys of the suspension sub-sphere on pairs ``0..i``."""
        if not (0 <= i <= self.index):
            raise InvalidConfigError(f"sub-sphere index {i} out of range 0..{self.index}")
        return [d.key for j in range(i + 1) for d in self.pair(j)]

    def complex(self) -> FlagComplex:
        """The octahedron as a flag complex on disk keys."""
        fc = FlagComplex()
        for i in range(self.index + 1):
            fc.add_vertex(self.d_disks[i].key, f"D{i}")
            fc.add_vertex(self.e_disks[i].key, f"E{i}")
        for i in range(self.index + 1):
            for j in range(i + 1, self.index + 1):
                for a in (self.d_disks[i], self.e_disks[i]):
                    for b in (self.d_disks[j], self.e_disks[j]):
                        fc.add_edge(a.key, b.key)
        return fc.freeze()


def build_suspension_sphere(surface: TubedSurface, catalog: DiskCatalog) -> SuspensionSphere:
    """Pick one antipodal disk pair per tube out of the catalog.

    ``E_i`` is the meridian of tube ``i + 1``; ``D_i`` is the first cataloged
    vertical disk of region ``i + 1`` that the calculus certifies disjoint
    from all the other pairs' meridians.  Raises naming the failing pair when
    no cataloged disk qualifies.
    """
    m = surface.tubes
    by_key = catalog.by_key()
    verticals = catalog.vertical_disks()
    d_disks, e_disks = [], []
    for i in range(m):
        region = i + 1
        e = Meridian(region)
        if e.key not in by_key:
            raise InvalidConfigError(
                f"catalog has no meridian for tube {region}; sphere pair (D{i}, E{i}) cannot be realized"
            )
        chosen = None
        for cand in verticals:
            if cand.region != region:
                continue
            if all(
                disks_disjoint_unvalidated(cand, Meridian(j + 1), surface)
                for j in range(m)
                if j != i
            ):
                chosen = cand
                break
        if chosen is None:
            raise InvalidConfigError(
                f"no cataloged vertical disk in region {region} is disjoint from the other "
                f"meridians; sphere pair (D{i}, E{i}) cannot be realized"
            )
        d_disks.append(chosen)
        e_disks.append(e)
    return SuspensionSphere(surface=surface, d_disks=tuple(d_disks), e_disks=tuple(e_disks))


def verify_sphere(sphere: SuspensionSphere) -> dict:
    """Certify every octahedral invariant of the sphere; raise on any failure.

    Checks, via the disjointness calculus: vertices of distinct pairs bound
    disjoint disks (octahedron edges), the two disks of one pair intersect
    (octahedron non-edges), and the suspension sub-spheres form a literal
    vertex-containment chain.  Returns counts for the certificate.
    """
    surface = sphere.surface
    n = sphere.index
    edges = 0
    for i in range(n + 1):
        d, e = sphere.pair(i)
        if disks_disjoint(d, e, surface):
            raise InvalidConfigError(
                f"sphere pair {i}: D{i}={d.key} and E{i}={e.key} are disjoint; "
                "an octahedral antipodal pair must intersect"
            )
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            for name_a, a in (("D" + str(i), sphere.d_disks[i]), ("E" + str(i), sphere.e_disks[i])):
                for name_b, b in (("D" + str(j), sphere.d_disks[j]), ("E" + str(j), sphere.e_disks[j])):
                    if not disks_disjoint(a, b, surface):
                        raise InvalidConfigError(
                            f"sphere edge {name_a}={a.key} vs {name_b}={b.key} is not certified "
                            "disjoint; the octahedron is not realized"
                        )
                    edges += 1
    keys = set()
    chain = []
    for i in range(n + 1):
        sub = sphere.sub_sphere_keys(i)
        if not keys <= set(sub):
            raise InvalidConfigError(f"sub-sphere {i} does not contain sub-sphere {i - 1}")
        keys = set(sub)
        chain.append(sub)
    return {
        "pairs": n + 1,
        "edges_verified": edges,
        "antipodal_pairs_intersect": n + 1,
        "sub_sphere_chain": chain,
    }


# -- outermost surgery -----------------------------------------------------------


def outermost_arcs(d, surface: TubedSurface, disk_type=None, meets=None) -> tuple:
    """Indices of the outermost arcs of the disk's intersection with the top meridian.

    Valid only for same-side disks crossing the top meridian, whose
    intersection pattern is a stack of parallel band arcs: one per band copy.
    A single copy has one outermost arc; otherwise the two extremes of the
    stack are outermost.  Anything else (no intersection, an opposite-side
    disk, or a pattern with closed components) is rejected.

    ``disk_type`` and ``meets`` are the disk's type on ``surface`` and whether
    it meets the top meridian there.  A caller that already knows them (the
    retraction engine) passes them in; otherwise they are computed here,
    which validates the disk.
    """
    m = surface.tubes
    t = classify_type(d, surface) if disk_type is None else disk_type
    if meets is None:
        meets = t == "T2" and meets_distinguished(d, surface)
    if t != "T2" or not meets:
        raise InvalidConfigError(
            f"disk {d.key} (type {t}) has no band-arc intersection pattern with the top "
            "meridian; outermost surgery is undefined"
        )
    if not isinstance(d, BandSum) or d.base != m:
        raise InvalidConfigError(
            f"disk {d.key} meets the top meridian but not in a stack of parallel band arcs "
            "(closed intersection components are rejected); outermost surgery is undefined"
        )
    if d.copies == 1:
        return (0,)
    return (0, d.copies - 1)


def surgery_candidates(d: BandSum, arc_index: int):
    """Disk classes produced by compressing along one outermost arc.

    Cutting the outermost band splits off the partner's pushed copy; what
    remains is the same band sum with one copy fewer.  With a single copy the
    remainder degenerates and both pieces collapse to the partner's class.
    """
    if arc_index not in (0, d.copies - 1):
        raise InvalidConfigError(f"arc {arc_index} of {d.key} is not outermost")
    partner = d.resolved_partner
    if d.copies == 1:
        return [partner]
    return [partner, BandSum(d.base, d.partner, d.band, d.copies - 1)]


# -- the retraction engine ---------------------------------------------------------


class RetractionEngine:
    """Computes sphere images of disk descriptors by recursion over tube count.

    :meth:`image` validates its argument on the top surface; the recursion
    below it does not validate again, because every disk it builds is valid
    on the surface of the level it reaches by construction:

    * a surgery candidate is either the resolved partner of a band sum, which
      :func:`~disklab.disks.validate_disk` has checked recursively along with
      the band sum itself, or the remainder band sum with ``copies - 1 >= 1``
      copies and the same base, partner and band, so the same checks hold;
    * a projected disk keeps its descriptor, and the two footprint asserts
      show that its tube and region indices all lie below ``level``, so they
      are in range on the surface with ``level - 1`` tubes; arc codes depend
      only on the genus and sides only on the tube index, so every other
      check carries over unchanged.

    Types and top-meridian tests inside the recursion therefore use the
    unvalidated cores of :func:`~disklab.disks.classify_type` and
    :func:`~disklab.disks.meets_distinguished`.
    """

    def __init__(self, surface: TubedSurface, catalog: DiskCatalog, sphere: SuspensionSphere):
        if sphere.index != surface.tubes - 1:
            raise InvalidConfigError(
                f"sphere index {sphere.index} does not match surface with {surface.tubes} tubes"
            )
        self.surface = surface
        self.catalog = catalog
        self.sphere = sphere
        self._surfaces = {
            level: build_tubed_surface(surface.genus_base, level)
            for level in range(1, surface.tubes + 1)
        }
        self._images: dict = {}
        self._branches: dict = {}
        self._types: dict = {}
        self._surgeries: dict = {}  # (level, key) of each surgered disk -> its outermost arc count

    # -- queries ------------------------------------------------------------

    def image(self, d) -> SphereVertex:
        """Sphere vertex the retraction sends the disk to (top-level entry)."""
        validate_disk(d, self.surface)
        return self._image(d, self.surface.tubes)

    def branch(self, d) -> str:
        """Which rule gave the disk its top-level image, once :meth:`image` has run.

        One of ``top_meridian`` (sent to the top ``E``), ``top_vertical`` (sent
        to the top ``D``), ``surgered`` or ``projected``.  On the one-tube base
        surface, disks on the tube's side count as top meridian and the others
        as top vertical.
        """
        return self._branches[(self.surface.tubes, d.key)]

    def type_at(self, d, level: int) -> str:
        """The disk's type on the surface with ``level`` tubes, computed once.

        Does not validate: ``d`` must be valid on that surface, as catalog
        disks and the disks the recursion builds are.
        """
        key = (level, d.key)
        if key not in self._types:
            self._types[key] = classify_type_unvalidated(d, self._surfaces[level])
        return self._types[key]

    def surgery_counts(self) -> tuple[int, int]:
        """Surgeries recorded so far, and how many of them cut along two outermost arcs."""
        return len(self._surgeries), sum(arcs >= 2 for arcs in self._surgeries.values())

    # -- recursion ------------------------------------------------------------

    def _image(self, d, level: int) -> SphereVertex:
        memo_key = (level, d.key)
        if memo_key in self._images:
            return self._images[memo_key]
        surface = self._surfaces[level]
        if level == 1:
            # Base surface: one tube, one antipodal pair.  Disks on the tube's
            # side compress the same handlebody as the meridian; the others
            # compress the opposite one.
            if disk_side(d) == tube_side(1):
                vertex, branch = SphereVertex(0, "E"), "top_meridian"
            else:
                vertex, branch = SphereVertex(0, "D"), "top_vertical"
        else:
            t = self.type_at(d, level)
            if t == "T1":
                vertex, branch = SphereVertex(level - 1, "E"), "top_meridian"
            elif t == "T3":
                vertex, branch = SphereVertex(level - 1, "D"), "top_vertical"
            elif t == "T2" and meets_distinguished_unvalidated(d, surface):
                vertex, branch = self._surgery_image(d, level), "surgered"
            else:
                # T4, or T2 missing the top meridian: the footprint avoids
                # tube and region ``level``, so the same descriptor denotes an
                # isotopic disk on the surface with one tube fewer.
                assert level not in disk_tubes(d), d.key
                assert level not in disk_regions(d), d.key
                vertex, branch = self._image(d, level - 1), "projected"
        self._images[memo_key] = vertex
        self._branches[memo_key] = branch
        return vertex

    def _surgery_image(self, d, level: int) -> SphereVertex:
        """The image every outermost arc gives: its candidates' minimal image, which must agree."""
        arcs = outermost_arcs(d, self._surfaces[level], disk_type="T2", meets=True)
        chosen = [min(self._image(cand, level) for cand in surgery_candidates(d, arc)) for arc in arcs]
        if len(set(chosen)) > 1:
            raise WellDefinednessError(
                f"outermost surgery on {d.key} at tube count {level} is not well defined: "
                f"arc {arcs[0]} gives {chosen[0].name} but arc {arcs[-1]} gives {chosen[-1].name}"
            )
        self._surgeries[(level, d.key)] = len(arcs)
        return chosen[0]


# -- claim verification --------------------------------------------------------------


#: Disjoint-pair cases by the (sorted) type pair of the two disks.
CASE_OF_TYPES = {
    ("T1", "T2"): 1,
    ("T1", "T4"): 1,
    ("T2", "T3"): 2,
    ("T3", "T4"): 2,
    ("T3", "T3"): 3,
    ("T2", "T4"): 4,
    ("T2", "T2"): 5,
    ("T4", "T4"): 6,
}


class _DiskRecord(NamedTuple):
    """What the pair scan needs of one catalog disk, computed once per disk."""

    disk: Disk
    type: str  # at the top level
    image: Optional[SphereVertex]  # None when the retraction stopped before this disk
    side: str
    tubes: int  # tube footprint as a bit mask; it contains the region footprint


def _disk_records(engine: RetractionEngine, images: dict) -> list:
    m = engine.surface.tubes
    return [
        _DiskRecord(
            d,
            engine.type_at(d, m),
            images.get(d.key),
            disk_side(d),
            sum(1 << t for t in d.tube_footprint),
        )
        for d in engine.catalog.disks
    ]


_CASE_OF_ORDERED_TYPES = {
    **CASE_OF_TYPES,
    **{(tb, ta): case for (ta, tb), case in CASE_OF_TYPES.items()},
}


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _masks(values) -> dict:
    """Each value, in order of first appearance, to the bitset of its positions (so disjoint)."""
    out = {}
    for i, v in enumerate(values):
        out[v] = out.get(v, 0) | 1 << i
    return out


def _shape(d: Disk) -> str:
    # A band sum's key without its copy count; any other disk's key.
    return d.key.rpartition(";")[0] if isinstance(d, BandSum) else d.key


def _disjointness_rows(records: list, surface: TubedSurface) -> list:
    """Per catalog disk, the bitset of the other catalog disks certified disjoint from it."""
    shapes = _masks(_shape(r.disk) for r in records)
    by_footprint = _masks(r.tubes for r in records)
    misses = {f: sum(mask for g, mask in by_footprint.items() if not f & g) for f in by_footprint}
    reps = [(records[next(_bits(copies))], copies) for copies in shapes.values()]
    rows = [misses[r.tubes] for r, _ in reps]
    for s, (a, copies) in enumerate(reps):
        for t in range(s + 1, len(reps)):
            b, b_copies = reps[t]
            if a.tubes & b.tubes and disks_disjoint_unvalidated(a.disk, b.disk, surface):
                rows[s] |= b_copies
                rows[t] |= copies
        others = copies & (copies - 1)  # every copy but the first
        if others and disks_disjoint_unvalidated(a.disk, records[next(_bits(others))].disk, surface):
            rows[s] |= copies
    row_of = dict(zip(shapes, rows))
    return [row_of[_shape(r.disk)] & ~(1 << i) for i, r in enumerate(records)]


def _scan_pairs(records: list, surface: TubedSurface, tally: bool, keep=frozenset()):
    """The pair pass: (kept disjoint pairs, claim tally, V/W witness).

    Each disk gets one row: the bitset over catalog indices of the other
    disks certified disjoint from it.  Rows are filled once per *shape*, a
    descriptor with a band sum's ``copies`` dropped.  A row starts as the
    mask of every disk whose tube footprint misses the shape's (disjoint by
    the footprint rule of :mod:`disklab.disks`); the calculus is asked only
    about overlapping pairs of distinct shapes, and once per shape with
    several copies.  This is exact: the calculus reads ``copies`` only
    through ``key`` equality, so all copies of a shape get the same verdict
    against every other disk, and any two of them the same verdict against
    each other.  Results are read off the rows in catalog order, lowest bit
    first, which is the order of a loop over pairs ``i < j``.

    Only disjoint pairs of two disks with keys in ``keep`` are returned; the
    others are counted.  The tally needs every image and is ``None`` unless
    ``tally``.  The witness is the first disjoint pair with one disk on each
    side, as ``(v_disk, w_disk)``.
    """
    # Row i restricted to the disks after i: each pair is read once.
    later = [row & -(2 << i) for i, row in enumerate(_disjointness_rows(records, surface))]
    keep_mask = sum(1 << i for i, r in enumerate(records) if r.disk.key in keep)
    kept = [(records[i].disk, records[j].disk) for i in _bits(keep_mask) for j in _bits(later[i] & keep_mask)]
    on_side = _masks(r.side for r in records)
    witness = None
    for i, r in enumerate(records):
        across = later[i] & ~on_side[r.side]
        if across:
            b = records[next(_bits(across))].disk
            witness = (r.disk, b) if r.side == surface.v_side else (b, r.disk)
            break
    if not tally:
        return kept, None, witness

    of_type = _masks(r.type for r in records)
    of_image = _masks(r.image for r in records)
    forbidden = {
        ta: sum(mask for tb, mask in of_type.items() if (ta, tb) not in _CASE_OF_ORDERED_TYPES)
        for ta in of_type
    }
    per_case = Counter()
    violations = []
    for i, (a, ta, xa, _, _) in enumerate(records):
        row = later[i]
        if row & forbidden[ta]:
            b = records[next(_bits(row & forbidden[ta]))]
            lo, hi = sorted((ta, b.type))
            raise InvalidConfigError(
                f"disks {a.key} (type {lo}) and {b.disk.key} (type {hi}) are certified disjoint, "
                "which contradicts the type definitions"
            )
        for tb, mask in of_type.items():
            if row & mask:
                per_case[_CASE_OF_ORDERED_TYPES[(ta, tb)]] += (row & mask).bit_count()
        antipode = SphereVertex(xa.pair_index, "E" if xa.letter == "D" else "D")
        for j in _bits(row & of_image.get(antipode, 0)):
            b, tb, xb, _, _ = records[j]
            case = _CASE_OF_ORDERED_TYPES[(ta, tb)]
            violations.append(
                {"case": case, "disks": [a.key, b.key], "types": sorted((ta, tb)), "images": [xa.name, xb.name]}
            )
    claims = {
        "pairs_checked": sum(row.bit_count() for row in later),
        "per_case": {str(c): per_case.get(c, 0) for c in range(1, 7)},
        "violations": violations,
        "passed": not violations,
    }
    return kept, claims, witness


# -- the full certificate pipeline ------------------------------------------------------


CAVEATS = (
    "All conclusions are relative to the finite cataloged subcomplex of the disk "
    "complex; compressing disks outside the catalog are not examined.",
    # Recorded wording, kept so certificate bytes stay the same; the arc search is now exact.
    "Disjointness is certified conservatively: a pair reported as intersecting may "
    "be an artifact of the crossing-search budget.  That can only shrink the "
    "verified subcomplex, never add an edge, so certified claims stay sound.",
    "Tube positions and the product structure of each region are fixed throughout; "
    "isotopies that slide tube feet between regions are not modeled.",
    "The retraction is verified on vertices and edges; both complexes are flag, so "
    "simpliciality on edges extends it over all higher simplices.",
    "On the meridian side the catalog may omit compressing disks; the index bound "
    "is therefore a bound over the cataloged family, not an unconditional one.",
)


def _retraction_report(assignment: dict, s: FlagComplex, sphere_pairs) -> list:
    """Vertex-level violations of ``assignment`` as a retraction onto ``s``.

    The domain is the cataloged complex: the assignment's keys as vertices,
    the certified-disjoint pairs as edges, of which ``sphere_pairs`` must
    hold at least those between two vertices of ``s``.  Lists, in this order,
    vertices of ``s`` that are not domain vertices, edges of ``s`` that are
    not domain edges, images outside ``s``, and vertices of ``s`` that are
    not fixed.  Domain edges are not checked here: the pair pass has already
    ruled out every edge whose images are antipodal, the octahedron's only
    non-edges (the assignment names each sphere vertex by its own disk's
    key, so antipodal vertices have antipodal keys).
    """
    sub = set(s.vertex_ids)
    domain_edges = {tuple(sorted((a.key, b.key))) for a, b in sphere_pairs}
    report = [f"subcomplex vertex {v!r} is not a domain vertex" for v in s.vertex_ids if v not in assignment]
    report += [
        f"subcomplex edge ({u!r}, {v!r}) is not a domain edge"
        for u, v in s.edges
        if (u, v) not in domain_edges
    ]
    report += [
        f"image of {v!r} is {assignment[v]!r}, outside the subcomplex"
        for v in sorted(assignment)
        if assignment[v] not in sub
    ]
    report += [
        f"subcomplex vertex {v!r} is not fixed (maps to {assignment[v]!r})"
        for v in s.vertex_ids
        if v in assignment and assignment[v] != v
    ]
    return report


def certify_minimality(
    genus: int,
    n: int,
    config: CatalogConfig,
    max_simplices: int = DEFAULT_MAX_SIMPLICES,
) -> dict:
    """Build the surface with ``n + 1`` tubes and its catalog, then :func:`certify_catalog`."""
    if not isinstance(n, int) or n < 0:
        raise InvalidConfigError(f"suspension index must be a nonnegative integer, got {n!r}")
    surface = build_tubed_surface(genus, n + 1)
    return certify_catalog(build_disk_catalog(surface, config), max_simplices=max_simplices)


def certify_catalog(catalog: DiskCatalog, max_simplices: int = DEFAULT_MAX_SIMPLICES) -> dict:
    """Certify the minimality bound of a catalog's surface, ``n`` = tubes - 1.

    Runs the whole pipeline: sphere realization and verification, per-disk
    retraction images, well-definedness of every surgery, one pass over all
    catalog pairs that yields the certified-disjoint pairs, the claim tally
    (which is also the simpliciality check: no edge maps to an antipodal
    pair) and the V/W witness, the vertex-level retraction check on the
    cataloged complex, and the exact homology certificate in dimension
    ``n``.  The cataloged complex is never built as a :class:`FlagComplex`.
    Returns a JSON-ready certificate; ``passed`` is False (with
    ``first_violation`` set) rather than raising when a verification step
    finds a counterexample.
    """
    surface = catalog.surface
    config = catalog.config
    genus = surface.genus_base
    m = surface.tubes
    n = m - 1
    sphere = build_suspension_sphere(surface, catalog)
    sphere_invariants = verify_sphere(sphere)

    engine = RetractionEngine(surface, catalog, sphere)
    first_violation = None
    images = {}
    retraction_ok = False
    retraction_report = []
    homology_doc = None
    try:
        for d in catalog.disks:
            images[d.key] = engine.image(d)
    except WellDefinednessError as exc:
        first_violation = {"kind": "well_definedness", "detail": str(exc)}

    records = _disk_records(engine, images)
    sphere_keys = frozenset(sphere.sub_sphere_keys(n))
    sphere_pairs, claims, witness_pair = _scan_pairs(
        records, surface, tally=first_violation is None, keep=sphere_keys
    )
    if claims is not None and not claims["passed"]:
        v = claims["violations"][0]
        first_violation = {
            "kind": "claim",
            "detail": (
                f"disjoint disks {v['disks'][0]} and {v['disks'][1]} map to antipodal "
                f"vertices {v['images'][0]} and {v['images'][1]} (case {v['case']})"
            ),
        }

    if first_violation is None:
        sphere_complex = sphere.complex()
        assignment = {key: sphere.key_for(img) for key, img in images.items()}
        retraction_report = _retraction_report(assignment, sphere_complex, sphere_pairs)
        retraction_ok = not retraction_report
        if not retraction_ok:
            first_violation = {"kind": "retraction", "detail": retraction_report[0]}
        else:
            homology_doc = certify_homology_retraction(
                assignment, sphere_complex, n, max_per_dim=max_simplices
            )
            if not homology_doc["passed"]:
                first_violation = {
                    "kind": "homology",
                    "detail": f"the composite does not fix the generating {n}-cycle",
                }

    witness = None
    if n >= 2 and witness_pair is not None:
        witness = {"v_disk": witness_pair[0].key, "w_disk": witness_pair[1].key}

    surgeries, multi_arc = engine.surgery_counts()
    provenance = Counter(engine.branch(d) for d in catalog.disks if d.key in images)

    passed = (
        first_violation is None
        and claims is not None
        and claims["passed"]
        and retraction_ok
        and homology_doc is not None
        and bool(homology_doc["passed"])
    )

    certificate = {
        "kind": "minimality_certificate",
        "parameters": {
            "genus": genus,
            "suspension_index": n,
            "tubes": m,
            "catalog_config": config_to_json_obj(config),
            "max_simplices": max_simplices,
        },
        "surface": surface_to_json_obj(surface),
        "catalog": {
            "size": len(catalog.disks),
            "meridians": len(catalog.meridians()),
            "vertical_disks": len(catalog.vertical_disks()),
            "band_sums": len(catalog.band_sums()),
            "types": dict(sorted(Counter(r.type for r in records).items())),
            "arc_classes_per_region": {str(r): len(v) for r, v in sorted(catalog.arc_classes.items())},
        },
        "sphere": {
            "index": n,
            "pairs": [
                {
                    "index": i,
                    "d_key": sphere.d_disks[i].key,
                    "d": disk_to_json_obj(sphere.d_disks[i]),
                    "e_key": sphere.e_disks[i].key,
                    "e": disk_to_json_obj(sphere.e_disks[i]),
                }
                for i in range(n + 1)
            ],
            "invariants": sphere_invariants,
        },
        "retraction": {
            "images": {key: {"vertex": img.name, "key": sphere.key_for(img)} for key, img in sorted(images.items())},
            "provenance": {k: provenance.get(k, 0) for k in ("top_meridian", "top_vertical", "projected", "surgered")},
            "well_definedness": {
                "surgeries": surgeries,
                "multi_arc_surgeries": multi_arc,
                "agreements": multi_arc,
                "disagreements": 0 if first_violation is None or first_violation["kind"] != "well_definedness" else 1,
            },
            "check": {"ok": retraction_ok, "report": retraction_report},
        },
        "claims": claims,
        "witness": witness,
        "homology": homology_doc,
        "bounds": {
            "topological_index_upper": n + 1,
            "statement": (
                f"The cataloged disk subcomplex admits a verified retraction onto an "
                f"octahedral {n}-sphere whose fundamental class is fixed, so the subcomplex "
                f"is not {n}-connected; over this catalog the surface has topological "
                f"index at most {n + 1}."
            ),
        },
        "caveats": list(CAVEATS),
        "first_violation": first_violation,
        "passed": passed,
    }
    return certificate


def render_report(certificate: dict) -> str:
    """Human-readable summary of a certificate; deterministic, no timestamps."""
    p = certificate["parameters"]
    cat = certificate["catalog"]
    ret = certificate["retraction"]
    lines = []
    lines.append("MINIMALITY CERTIFICATE")
    lines.append("======================")
    lines.append("")
    verdict = "PASSED" if certificate["passed"] else "FAILED"
    lines.append(f"Result: {verdict}")
    if certificate["first_violation"] is not None:
        fv = certificate["first_violation"]
        lines.append(f"First violation ({fv['kind']}): {fv['detail']}")
    lines.append("")
    lines.append(f"Bound: {certificate['bounds']['statement']}")
    lines.append("")
    lines.append(
        f"Surface: {p['tubes'] + 1} parallel copies of a genus-{p['genus']} surface "
        f"joined by {p['tubes']} tubes (total genus {(p['tubes'] + 1) * p['genus']})"
    )
    lines.append(f"Suspension index: n = {p['suspension_index']}")
    lines.append(
        f"Catalog: {cat['size']} disks "
        f"({cat['meridians']} meridians, {cat['vertical_disks']} vertical, {cat['band_sums']} band sums); "
        f"types {cat['types']}"
    )
    lines.append(
        f"Arc bound: {p['catalog_config']['arc_bound']}; "
        f"band-sum depth: {p['catalog_config']['bandsum_depth']}"
    )
    lines.append("")
    lines.append("Sphere pairs:")
    for pair in certificate["sphere"]["pairs"]:
        lines.append(f"  D{pair['index']} = {pair['d_key']}   E{pair['index']} = {pair['e_key']}")
    inv = certificate["sphere"]["invariants"]
    lines.append(
        f"Octahedron verified: {inv['edges_verified']} edges disjoint, "
        f"{inv['antipodal_pairs_intersect']} antipodal pairs intersect"
    )
    lines.append("")
    prov = ret["provenance"]
    lines.append(
        f"Retraction: top meridian {prov['top_meridian']}, top vertical {prov['top_vertical']}, "
        f"projected {prov['projected']}, surgered {prov['surgered']}"
    )
    wd = ret["well_definedness"]
    lines.append(
        f"Well-definedness: {wd['surgeries']} surgeries, {wd['multi_arc_surgeries']} with "
        f"multiple outermost arcs, {wd['agreements']} agreements, {wd['disagreements']} disagreements"
    )
    if certificate["claims"] is not None:
        cl = certificate["claims"]
        per = ", ".join(f"case {c}: {cl['per_case'][c]}" for c in sorted(cl["per_case"]))
        lines.append(f"Claims: {cl['pairs_checked']} disjoint pairs checked ({per}); "
                     f"violations: {len(cl['violations'])}")
    if certificate["witness"] is not None:
        w = certificate["witness"]
        lines.append(f"Disjoint witness pair: V-side {w['v_disk']}, W-side {w['w_disk']}")
    if certificate["homology"] is not None:
        hom = certificate["homology"]
        lines.append(
            f"Homology: generating {hom['dimension']}-cycle with {len(hom['generating_cycle'])} "
            f"simplices; composite is identity: {hom['composite_is_identity']}"
        )
    lines.append("")
    lines.append("Caveats:")
    for cv in certificate["caveats"]:
        lines.append(f"  - {cv}")
    lines.append("")
    return "\n".join(lines)
