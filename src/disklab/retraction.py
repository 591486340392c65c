"""Octahedral spheres in the cataloged disk complex and the retraction onto them.

For a surface with ``m = n + 1`` tubes, the sphere ``S^n`` is realized as an
iterated suspension inside the disk complex: one antipodal pair per tube,
``E_i`` the meridian of tube ``i + 1`` and ``D_i`` the first cataloged
vertical disk in region ``i + 1``.  Vertices of different pairs bound disjoint disks, while the two
vertices of one pair intersect, exactly the octahedron's non-adjacency.
The sphere is the list of catalog positions ``[D_0, E_0, ..., D_n, E_n]``,
and a sphere vertex is an index ``v`` into it: pair ``v >> 1``, letter
``"DE"[v & 1]`` and antipode ``v ^ 1``, so vertices sort by pair, then
letter.  The suspension sub-sphere on pairs ``0..i`` is the first
``2(i + 1)`` vertices.

The retraction sends every cataloged disk to a sphere vertex.  A disk whose
highest tube (the largest index in its tube footprint) is ``L`` misses every
tube above ``L``, so the same descriptor denotes an isotopic disk on the
surface with ``L`` tubes, where it meets the top tube; it gets its image
there, in one projection step from the catalog's surface:

* on the one-tube surface, disks on the tube's side map to ``E_0`` and the
  others to ``D_0``;
* the meridian of tube ``L`` maps to ``E_{L-1}``; disks meeting tube ``L``
  from the other side map to ``D_{L-1}``;
* every other disk crosses the meridian of tube ``L`` from its own side and
  is surgered along an outermost intersection arc; each outermost arc
  yields candidate disks, each candidate receives its own image, and the
  arc's result is the candidate image lying in the smallest suspension
  sub-sphere (minimal pair index).

Outermost surgery is well defined, by induction on the copies.  A disk
surgered at ``L`` must be a band sum on base ``L`` (anything else is
rejected): it meets ``M(L)`` in a stack of parallel band arcs, one per
copy, whose outermost arcs are the two ends of the stack (one arc for a
single copy).  Cutting either one splits off the partner's pushed copy and
leaves the same band sum with one copy fewer, or, from a single copy, the
partner alone.  The remainder has the same base, partner, band and
footprint, so the same level and type, and by induction it too gets the
partner's image.  So every outermost arc gives the resolved partner's
image, and the engine applies the three bullets as one loop down the
disk's chain, the disk followed by its resolved partners down to a
meridian or a vertical disk: while the disk is surgered at its highest tube
it steps to its resolved partner, and the first disk that is not takes its
image from the first two bullets, ``E_{L-1}`` on tube ``L``'s side and
``D_{L-1}`` across it.  Surgery on ``c`` copies passes through ``c`` band sums,
``c - 1`` of them with two outermost arcs, so the engine keeps one record
per band, its largest copy count; the certificate's ``agreements`` equal
its multi-arc surgeries with no disagreement.  The per-arc recursion is
kept in the tests as an oracle.

A disk's ``provenance`` is read off its type at the top tube ``m``: T1 is
``top_meridian``, T3 ``top_vertical`` and T2 ``surgered``, unless ``m`` is
not in its footprint (``projected``), as for every T4 disk.  A one-tube
catalog has no band sums, so no T2 disk, and the rule covers it too.

The rule reads only the level ``L``, a plain int, and the disk's stored
``side`` and ``footprint`` (:func:`~disklab.disks.type_at`); no surface is
built below the top.

``certify_catalog`` runs the full pipeline on a catalog and emits a
machine-checkable certificate: sphere invariants, per-disk images, the
surgery counts, the claim tally, the retraction check on the
cataloged complex, and the homology section, which records a generating
``n``-cycle of the sphere and its image under the composite;
``certify_minimality`` builds the catalog first.
Every disjointness verdict comes from one pass, made first: one bitset row
per catalog disk, of the disks certified disjoint from it, each an AND of a
few precomputed masks (:func:`~disklab.disks.disjointness_rows`).  The
octahedron check and the claim tally read those rows, and the V/W witness is
the sphere's ``E_0`` and ``E_1``, whose edge the octahedron check has read;
nothing else asks the calculus, and no ``D_i`` is picked by it: the term for
``M(j)`` against ``V(r, α)``, ``j != r``, does not read ``α``.
The claim tally is also the only simpliciality check: on the octahedron two
images span a non-edge exactly when they are antipodal, which is what the
tally tests on every edge of the cataloged complex.  The retraction check
that follows is on vertices only: the sphere lies in the cataloged complex,
every image lies in the sphere, and the sphere is fixed.  The sphere's edges
are domain edges because the octahedron check read them off the same rows.

The homology section rests on one lemma, so nothing is eliminated.  Write
``S`` for the sphere, the boundary of the ``(n + 1)``-cross-polytope, and
``z = (D_0 - E_0) * ... * (D_n - E_n)`` for the join of its pairs: on the
facet that picks ``x_i`` from pair ``i``, ``z`` has coefficient ``(-1)`` to
the number of ``E`` picks, times the sign of the permutation that sorts the
facet's keys from pair order.

* ``S`` has no ``(n + 1)``-simplex, since the two vertices of a pair span no
  edge, so ``H_n(S)`` is the group of ``n``-cycles.
* ``z`` is a cycle: in reduced chains ``d(D_i - E_i) = 0``, and the join's
  Leibniz rule gives ``d(a * b) = da * b +- a * db``.
* ``H_n(S) = Z<z>``: ``S`` is an ``n``-sphere, every ridge lies in exactly
  two facets, and ``z`` is ``+-1`` on every facet, so ``z`` is primitive in
  the rank-1 lattice of cycles.  The reduced homology below ``n`` is zero,
  with no torsion.

The recorded cycle, from :func:`disklab.homology.join_cycle`, is ``z`` times
the one sign that puts ``+1`` on the lexicographically last facet; that sign
is not always ``+1`` (it is ``-1`` at genus 1, ``n = 9``).  A vertex retraction fixes ``S`` pointwise, so it fixes
``z`` and ``i_*[z] != 0`` in the cataloged complex.

Three lemmas explain why the claim tally finds no violation; the tests check
A and B on every disk of their catalogs, and nothing here checks them.
Write ``t = (v >> 1) + 1`` for the tube of a disk's image ``v``.

* Lemma A (side letter): the image letter is ``E`` exactly when the disk
  lies on ``tube_side(t)``.  By induction on the image rule: at level 1 the
  letter is read off the side, T1 is ``M(L)`` on ``tube_side(L)``, T3 lies
  on the other side, and surgery gives the partner's image, on the same
  side.  So two disks with antipodal images lie on opposite sides.
* Lemma B (witness): if the letter is ``E``, the chain holds ``M(t)`` or a
  band sum on base ``t``; if it is ``D``, the chain holds some ``V(t, .)``.
  By the same induction: T3's top tube enters a footprint on the far side
  only through a vertical disk in that region, and surgery inherits the
  partner's witness.
* Lemma C (crossing): a boundary that carries a pushed copy of the meridian
  circle of tube ``t`` meets every boundary that runs vertically over tube
  ``t``'s annulus.  For a cross-side pair the calculus reads no arc, so only
  its meridian terms can refute the pair, and lemma C is the geometric fact
  behind them.  With A and B it says that no two disjoint disks have
  antipodal images.
"""

from __future__ import annotations

from collections import Counter
from math import comb

from .disks import (
    BandSum,
    CatalogConfig,
    DiskCatalog,
    Meridian,
    VerticalDisk,
    _bits,
    _masks,
    build_disk_catalog,
    config_to_json_obj,
    disjointness_rows,
    disk_to_json_obj,
    type_at,
    validate_disk,
)
from .errors import InvalidConfigError
from .flagcomplex import DEFAULT_MAX_SIMPLICES, _cap_check
from .homology import join_cycle, profile_rows
from .surface import build_tubed_surface, surface_to_json_obj, tube_side


def vertex_name(v: int) -> str:
    """The name of sphere vertex ``v``: ``D3`` or ``E3`` for pair 3."""
    return f"{'DE'[v & 1]}{v >> 1}"


def build_suspension_sphere(catalog: DiskCatalog) -> list:
    """Pick one antipodal disk pair per tube out of the catalog, which lists every meridian.

    Returns the catalog positions ``[D_0, E_0, ..., D_n, E_n]``: ``E_i`` is
    the meridian of tube ``i + 1`` and ``D_i`` the first cataloged vertical
    disk of region ``i + 1``, since all of them meet the same meridians;
    :func:`verify_sphere` checks the pairs on the rows.  Raises naming the
    failing pair when a region has no vertical disk.
    """
    meridian_at, vertical_at = {}, {}
    for k, d in enumerate(catalog.disks):
        if isinstance(d, Meridian):
            meridian_at[d.index] = k
        elif isinstance(d, VerticalDisk):
            vertical_at.setdefault(d.region, k)
    sphere = []
    for i in range(catalog.surface.tubes):
        region = i + 1
        if region not in vertical_at:
            raise InvalidConfigError(
                f"no cataloged vertical disk in region {region} to pair with M({region}); "
                f"sphere pair (D{i}, E{i}) cannot be realized"
            )
        sphere += (vertical_at[region], meridian_at[region])
    return sphere


def verify_sphere(sphere: list, catalog: DiskCatalog, rows: list) -> dict:
    """Certify every octahedral invariant of the sphere; raise on any failure.

    Checks, on the catalog's :func:`~disklab.disks.disjointness_rows` at the
    sphere's positions: vertices of distinct pairs bound disjoint disks
    (octahedron edges), and the two disks of one pair intersect (octahedron
    non-edges).  Returns counts for the certificate, and the sub-spheres'
    vertex keys, each list a prefix of the next.
    """
    keys = [catalog.disks[k].key for k in sphere]

    def disjoint(u: int, v: int) -> bool:
        return bool(rows[sphere[u]] >> sphere[v] & 1)

    for u in range(0, len(sphere), 2):
        if disjoint(u, u + 1):
            raise InvalidConfigError(
                f"sphere pair {u >> 1}: {vertex_name(u)}={keys[u]} and {vertex_name(u + 1)}={keys[u + 1]} "
                "are disjoint; an octahedral antipodal pair must intersect"
            )
    for u in range(len(sphere)):
        for v in range((u | 1) + 1, len(sphere)):
            if not disjoint(u, v):
                raise InvalidConfigError(
                    f"sphere edge {vertex_name(u)}={keys[u]} vs {vertex_name(v)}={keys[v]} is not certified "
                    "disjoint; the octahedron is not realized"
                )
    pairs = len(sphere) // 2
    return {
        "pairs": pairs,
        "edges_verified": 2 * pairs * (pairs - 1),  # four per two pairs, each checked above
        "antipodal_pairs_intersect": pairs,
        "sub_sphere_chain": [keys[: u + 2] for u in range(0, len(sphere), 2)],
    }


# -- the retraction engine ---------------------------------------------------------


class RetractionEngine:
    """Computes sphere images of disk descriptors by the module docstring's rule.

    :meth:`image` validates an argument that is not a catalog disk (keys
    determine descriptors, and the catalog validated its own); nothing
    below it validates again.  It walks the disk's chain and reads only what
    each link stored when it was built: its highest tube
    ``footprint.bit_length() - 1``, its ``side`` (through
    :func:`~disklab.disks.type_at` too) and its ``resolved_partner``, the
    next link; the walk builds no descriptor.  The disks it reaches are the
    argument and resolved partners of band sums, which
    :func:`~disklab.disks.validate_disk` has checked recursively along with
    the band sum itself.  A partner's footprint lies inside its band sum's,
    so its highest tube is at most its parent's, and every disk reached is
    valid on the catalog's surface.  A surgered band is recorded as
    ``(base, partner, band)`` with its largest copy count; the remainders
    with fewer copies are counted, not built.
    """

    def __init__(self, catalog: DiskCatalog):
        self.surface = catalog.surface
        self.catalog = catalog
        self._catalog_keys = {d.key for d in catalog.disks}
        self._surgeries: dict = {}  # (base, partner, band) of each band surgered -> largest copies

    def image(self, d) -> int:
        """Sphere vertex the retraction sends the disk to: its chain's first disk not surgered at its top."""
        if d.key not in self._catalog_keys:
            validate_disk(d, self.surface)
        level = d.footprint.bit_length() - 1
        # T2 at its highest tube: a same-side disk crossing the top meridian,
        # which takes its resolved partner's image (the copy induction).
        while level > 1 and type_at(d, level) == "T2":
            if not isinstance(d, BandSum) or d.base != level:
                raise InvalidConfigError(
                    f"disk {d.key} does not meet the top meridian M({level}) in a stack of parallel band "
                    "arcs (closed intersection components are rejected); outermost surgery is undefined"
                )
            band = (d.base, d.partner, d.band)
            self._surgeries[band] = max(self._surgeries.get(band, 0), d.copies)
            d = d.resolved_partner
            level = d.footprint.bit_length() - 1
        # E_{level - 1} on the top tube's side, D_{level - 1} across it: the
        # one-tube side rule, T1 (the meridian, on its tube's side) and T3.
        return 2 * level - 2 + (d.side == tube_side(level))

    def surgery_counts(self) -> tuple[int, int]:
        """Surgeries recorded so far, and how many of them cut along two outermost arcs."""
        return sum(self._surgeries.values()), sum(copies - 1 for copies in self._surgeries.values())


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


_PROVENANCE_AT_TOP = {"T1": "top_meridian", "T3": "top_vertical", "T2": "surgered"}


def _provenance(d, t: str, m: int) -> str:
    """The rule that gave disk ``d`` of top-tube type ``t`` its image, with ``m`` tubes (module docstring)."""
    return _PROVENANCE_AT_TOP[t] if d.footprint >> m & 1 else "projected"


_CASE_OF_ORDERED_TYPES = {
    **CASE_OF_TYPES,
    **{(tb, ta): case for (ta, tb), case in CASE_OF_TYPES.items()},
}


def _scan_pairs(disks, types: list, images: list, rows: list) -> dict:
    """The pair pass: the claim tally.

    ``types`` and ``images`` are the disks' types at the top tube and sphere
    vertices, and ``rows`` their :func:`~disklab.disks.disjointness_rows`:
    per disk, the bitset over catalog indices of the other disks certified
    disjoint from it, all in catalog order.  Each row is restricted to the
    disks after its own, so every pair is read once, in catalog order,
    lowest bit first, which is the order of a loop over pairs ``i < j``.
    """
    of_type = _masks(types)
    of_image = _masks(images)
    forbidden = {
        ta: sum(mask for tb, mask in of_type.items() if (ta, tb) not in _CASE_OF_ORDERED_TYPES)
        for ta in of_type
    }
    checked = 0
    per_case = Counter()
    violations = []
    for i, (a, ta, xa) in enumerate(zip(disks, types, images)):
        row = rows[i] & -(2 << i)
        checked += row.bit_count()
        if row & forbidden[ta]:
            j = next(_bits(row & forbidden[ta]))
            lo, hi = sorted((ta, types[j]))
            raise InvalidConfigError(
                f"disks {a.key} (type {lo}) and {disks[j].key} (type {hi}) are certified disjoint, "
                "which contradicts the type definitions"
            )
        for tb, mask in of_type.items():
            if row & mask:
                per_case[_CASE_OF_ORDERED_TYPES[(ta, tb)]] += (row & mask).bit_count()
        for j in _bits(row & of_image.get(xa ^ 1, 0)):
            tb = types[j]
            case = _CASE_OF_ORDERED_TYPES[(ta, tb)]
            violations.append(
                {"case": case, "disks": [a.key, disks[j].key], "types": sorted((ta, tb)),
                 "images": [vertex_name(xa), vertex_name(images[j])]}
            )
    return {
        "pairs_checked": checked,
        "per_case": {str(c): per_case.get(c, 0) for c in range(1, 7)},
        "violations": violations,
        "passed": not violations,
    }


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


def _retraction_report(images: list, sphere: list, keys: list) -> list:
    """Vertex-level violations of ``images`` as a retraction onto the sphere ``S``.

    The domain is the cataloged complex: the catalog positions as vertices,
    with disk keys ``keys``, and the certified-disjoint pairs as edges.
    ``images[k]`` is the sphere vertex of disk ``k``, and vertex ``v`` of
    ``S`` is the disk at position ``sphere[v]``; :func:`build_suspension_sphere`
    picks those positions from the catalog, so every vertex of ``S`` is a
    domain vertex.  Lists, in this order, images outside ``S`` (in catalog
    order) and vertices of ``S`` that are not fixed.  Edges are not checked
    here: :func:`verify_sphere` has read every edge of ``S`` off the
    rows that make the domain's edges, and the pair pass has already ruled
    out every domain edge whose images are antipodal, ``v`` and ``v ^ 1``,
    the octahedron's only non-edges.
    """
    on_sphere = range(len(sphere))
    report = [
        f"image of {key!r} is {vertex_name(v)}, outside the subcomplex"
        for key, v in zip(keys, images)
        if v not in on_sphere
    ]
    report += [
        f"subcomplex vertex {vertex_name(v)}={keys[k]} is not fixed (maps to {vertex_name(images[k])})"
        for v, k in enumerate(sphere)
        if images[k] != v
    ]
    return report


def _homology_document(keys: list) -> dict:
    """The homology section: the join cycle ``z`` of the sphere and its image.

    ``keys`` are the disk keys of the sphere's vertices, in vertex order.
    The caller has found every vertex of the sphere fixed, so the composite
    fixes every facet of ``z`` and the image is ``z`` itself.  The cycle and
    the profile are the closed forms of the module docstring.
    """
    n = len(keys) // 2 - 1
    cycle = [[list(facet), c] for facet, c in join_cycle(list(zip(keys[::2], keys[1::2]))).items()]
    return {
        "dimension": n,
        "profile": profile_rows([(int(k == n), ()) for k in range(n + 1)]),
        "generating_cycle": cycle,
        "image_cycle": cycle,
        "composite_is_identity": True,
        "passed": True,
    }


def certify_minimality(
    genus: int,
    n: int,
    config: CatalogConfig,
    max_simplices: int = DEFAULT_MAX_SIMPLICES,
) -> dict:
    """Build the surface with ``n + 1`` tubes and, within the simplex cap, its catalog; then :func:`certify_catalog`."""
    if not isinstance(n, int) or n < 0:
        raise InvalidConfigError(f"suspension index must be a nonnegative integer, got {n!r}")
    surface = build_tubed_surface(genus, n + 1)
    check_simplex_cap(n, max_simplices)
    return certify_catalog(build_disk_catalog(surface, config), max_simplices=max_simplices)


def check_simplex_cap(n: int, max_simplices: int) -> None:
    """Raise :class:`ResourceCapError` if the sphere of index ``n`` exceeds the simplex cap.

    Dimension k of the sphere has comb(n + 1, k + 1) * 2**(k + 1) simplices,
    so the check needs ``n`` alone and goes before any other work; the
    message is the one that enumerating them would give.
    """
    for k in range(n + 1):
        _cap_check(comb(n + 1, k + 1) << (k + 1), k, max_simplices)


def certify_catalog(catalog: DiskCatalog, max_simplices: int = DEFAULT_MAX_SIMPLICES) -> dict:
    """Certify the minimality bound of a catalog's surface, ``n`` = tubes - 1.

    Runs the whole pipeline.  The cap on the sphere's simplices per
    dimension is checked first, since it depends on ``n`` alone, and the
    sphere is picked from the catalog alone.  One pass over all catalog
    pairs then gives each disk its row of disks certified disjoint from it.
    Sphere verification reads the rows; so does the claim tally (also the
    simpliciality check: no edge maps to an antipodal pair), after the
    per-disk retraction images.  For ``n >= 2`` the V/W witness is ``E_0``
    and ``E_1``, on opposite sides, whose edge the sphere check read.  Last
    come the vertex-level retraction check on the cataloged complex and the
    homology section in dimension ``n``, in closed form.  No flag complex is
    built and no clique is enumerated.
    Returns a JSON-ready certificate; ``passed`` is False (with
    ``first_violation`` set) rather than raising when a verification step
    finds a counterexample.
    """
    surface = catalog.surface
    config = catalog.config
    genus = surface.genus_base
    m = surface.tubes
    n = m - 1
    check_simplex_cap(n, max_simplices)
    sphere = build_suspension_sphere(catalog)
    rows = disjointness_rows(catalog.disks, surface)
    sphere_invariants = verify_sphere(sphere, catalog, rows)

    engine = RetractionEngine(catalog)
    first_violation = None
    keys = [d.key for d in catalog.disks]
    images = [engine.image(d) for d in catalog.disks]
    retraction_report = []
    homology_doc = None

    types = [type_at(d, m) for d in catalog.disks]
    claims = _scan_pairs(catalog.disks, types, images, rows)
    if not claims["passed"]:
        v = claims["violations"][0]
        first_violation = {
            "kind": "claim",
            "detail": (
                f"disjoint disks {v['disks'][0]} and {v['disks'][1]} map to antipodal "
                f"vertices {v['images'][0]} and {v['images'][1]} (case {v['case']})"
            ),
        }

    if first_violation is None:
        retraction_report = _retraction_report(images, sphere, keys)
        if retraction_report:
            first_violation = {"kind": "retraction", "detail": retraction_report[0]}
        else:
            homology_doc = _homology_document([keys[k] for k in sphere])

    witness = None
    if n >= 2:
        e0, e1 = catalog.disks[sphere[1]], catalog.disks[sphere[3]]
        v, w = (e0, e1) if e0.side == surface.v_side else (e1, e0)
        witness = {"v_disk": v.key, "w_disk": w.key}

    surgeries, multi_arc = engine.surgery_counts()
    provenance = Counter(_provenance(d, t, m) for d, t in zip(catalog.disks, types))
    variants = Counter(d.variant for d in catalog.disks)

    # A step that finds a counterexample sets ``first_violation`` and stops
    # the steps after it, so the homology section exists exactly when every
    # check passed.  The retraction check is the last step, so it is ok
    # exactly then too.
    passed = first_violation is None

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
            "meridians": variants["meridian"],
            "vertical_disks": variants["vertical"],
            "band_sums": variants["bandsum"],
            "types": dict(sorted(Counter(types).items())),
            "arc_classes_per_region": {str(r): len(catalog.arcs) for r in range(1, m + 1)},
        },
        "sphere": {
            "index": n,
            "pairs": [
                {
                    "index": i,
                    "d_key": keys[d],
                    "d": disk_to_json_obj(catalog.disks[d]),
                    "e_key": keys[e],
                    "e": disk_to_json_obj(catalog.disks[e]),
                }
                for i, (d, e) in enumerate(zip(sphere[::2], sphere[1::2]))
            ],
            "invariants": sphere_invariants,
        },
        "retraction": {
            "images": {key: {"vertex": vertex_name(v), "key": keys[sphere[v]]} for key, v in zip(keys, images)},
            "provenance": {k: provenance.get(k, 0) for k in ("top_meridian", "top_vertical", "projected", "surgered")},
            "well_definedness": {
                "surgeries": surgeries,
                "multi_arc_surgeries": multi_arc,
                "agreements": multi_arc,
                "disagreements": 0,
            },
            "check": {"ok": passed, "report": retraction_report},
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
