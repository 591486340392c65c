"""Compressing-disk descriptors for tubed surfaces.

A tubed surface splits its ambient space into two handlebodies, one on
each side.  The catalog tracks three families of compressing disks by
finite combinatorial descriptors:

* ``Meridian(i)``: the meridian disk of solid tube ``i``.
* ``VerticalDisk(r, arc)``: the vertical disk in region ``r`` swept out by
  an essential embedded arc.  Its boundary runs over tube ``r``'s annulus,
  so its tube footprint is ``{r}``.
* ``BandSum(i, partner, band, copies)``: pushed-off copies of meridian
  ``i`` band-summed to a parallel pushed copy of ``partner`` along
  ``copies`` parallel bands whose core arc has class ``band`` in region
  ``i``.  Partners lie on the same side as the base meridian.

Disjointness is decided conservatively at the footprint level: a meridian
meets exactly the disks whose tube footprint contains its index, arcs in a
common region are compared by the arc verdict ``disks_disjoint`` is given
(one :func:`~disklab.surface.arc_verdict` per pass), and disjoint strata
(distinct regions, bands versus meridians, parallel pushed copies) separate
everything else.  ``disks_disjoint`` returns ``True`` only when
this calculus certifies disjoint representatives; a ``True`` is therefore
a proof of disjointness while a ``False`` may be conservative.  There is
one ``disks_disjoint``, on descriptors already valid on the surface
(:func:`validate_disk`): a catalog validates each disk once when it is
built, and certification reads every verdict off :func:`disjointness_rows`.

The calculus, for two descriptors with distinct keys (equal keys are
parallel copies, hence disjoint).  Write ``m(i, x)`` for "the meridian of
tube ``i`` misses ``x``": ``x`` is a meridian or ``i`` is not in its tube
footprint.  For band sums ``B`` with base ``i``, band ``β`` and resolved
partner ``R``, and ``B'`` with ``i'``, ``β'``, ``R'``:

* ``M(j)`` against ``x``: ``m(j, x)``;
* ``V(r, α)`` against ``V(r', α')``: ``r != r'``, or ``α`` and ``α'`` are
  disjoint arcs;
* ``V`` against ``B``: ``m(i, V)`` and ``R`` against ``V``;
* ``B`` against ``B'``: ``m(i, R')``, ``m(i', R)``, ``R`` against ``R'``,
  and, if ``i == i'``, ``β`` and ``β'`` disjoint arcs.

A band's arcs lie in the region of its base.  A partner with arcs in that
region has the base in its tube footprint, so the meridian term on that
partner already fails, and a meridian partner has no arcs: no band meets a
partner that the meridian terms have not already refuted, and the calculus
has no band-versus-partner term.  Each term reads one part of each disk, so
the verdict factorises.  Call a vertical disk its own *atom*, and a band
sum's resolved partner ``R`` its atom.  :func:`disjointness_rows` masks the
disks by footprint, by base, by (base, band) and by atom, and builds every
row as an AND of ORs over those masks; it asks the recursive calculus only
for the small table of atoms against each other.  That table keeps the
equal-key rule, so two band sums with the same partner, such as a shared
``B(i;self;β;1)``, have disjoint atoms, as above.

Footprint rule: two disks whose tube footprints are disjoint (the ints
``footprint``, bit ``t`` for tube ``t``, have a zero AND) are disjoint.  The
regions in which a disk carries arcs lie inside its tube footprint, and every
term above holds on such a pair, so the table takes whole groups of disks
with a footprint that misses the other's without asking the calculus.

Nesting (lemma D): write ``C(g, m)`` for one config's catalog at genus ``g``
with ``m`` tubes.  For ``2 <= m < N``, ``C(g, m)`` is the slice of
``C(g, N)`` whose footprints lie in tubes ``1..m``, in the same order, with
the same rows (restricted to the slice), images and ``type_at(d, m)``:
:func:`build_disk_catalog` lists disks by tube, region or base, then by what
does not read the tube count, and the calculus, the image and the type read
only the disks and ``m``.  The exception is ``m = 1``: a one-tube catalog has
no band sums, so at the default knobs ``C(1, 1)`` has 7 disks, its slice 15.

``catalog_to_json_obj`` is the only definition of ``disks.json``: the reader,
:func:`catalog_from_json_obj`, rebuilds the catalog from the file's header
and accepts the file only if it equals what the writer gives for that
catalog, types included, and otherwise names the first difference by its
JSON path.

Each descriptor stores its ``key``, its handlebody ``side`` (a vertical disk
lies across its region's tube, any other disk on its tube's or base's side)
and its ``footprint`` once, when it is built, and a band sum also its
``resolved_partner`` (the partner, with ``'self'`` replaced by the base
meridian).  Each class names its ``variant`` and ``rank`` (0, 1, 2 in the
order above).  None of these takes part in equality, hashing or repr, and
every pass reads them instead of deriving them again.
"""

from __future__ import annotations

from itertools import chain

from .errors import InvalidConfigError, MalformedFileError, ResourceCapError
from .surface import (
    DEFAULT_MAX_ARC_CLASSES,
    ArcCode,
    FrozenRecord,
    TubedSurface,
    _arc_letters,
    arc_verdict,
    build_tubed_surface,
    canonical_code,
    enumerate_arcs,
    opposite_side,
    tube_side,
    validate_code,
)

SELF_PARTNER = "self"

# The catalog config in ``disks.json`` and certificates keeps the key of the
# retired bounded arc search, always at this value, so recorded bytes stay
# the same; the exact search reads no such setting.
RECORDED_MERGE_BUDGET = 20_000

# A cap on the disks of one catalog, checked against :func:`catalog_size`
# before any descriptor is built.  Like the arc-class cap it is a constant,
# not a flag.  The default knobs list about 5.1·m² disks for m tubes
# (83,584 at m = 128), so the cap is first passed near m = 440.
DEFAULT_MAX_CATALOG_DISKS = 10**6

# A footprint is an int of up to m + 1 bits for m tubes; this caps a catalog's
# footprint bits under 125 MB, which meridians alone pass up to 31,622 tubes,
# and one descriptor's tube index, checked before its footprint is built.
DEFAULT_MAX_FOOTPRINT_BITS = 10**9


def _tube_bit(what: str, index: int) -> int:
    """Footprint bit ``1 << index``, once the tube ``index`` is within the footprint cap."""
    if index > DEFAULT_MAX_FOOTPRINT_BITS:
        raise ResourceCapError("max_catalog_footprint", f"{what} {index}", DEFAULT_MAX_FOOTPRINT_BITS)
    return 1 << index


class Meridian(FrozenRecord):
    """Meridian disk of solid tube ``index``."""

    _fields = ("index",)
    __slots__ = (*_fields, "key", "side", "footprint")
    variant, rank = "meridian", 0

    def __init__(self, index: int):
        if not isinstance(index, int) or index < 1:
            raise InvalidConfigError(f"meridian index must be a positive integer, got {index!r}")
        self._init(index, key=f"M({index})", side=tube_side(index), footprint=_tube_bit("meridian index", index))


class VerticalDisk(FrozenRecord):
    """Vertical disk over an embedded essential arc in one region."""

    _fields = ("region", "arc")
    __slots__ = (*_fields, "key", "side", "footprint")
    variant, rank = "vertical", 1

    def __init__(self, region: int, arc: ArcCode):
        if not isinstance(region, int) or region < 1:
            raise InvalidConfigError(f"region index must be a positive integer, got {region!r}")
        bit = _tube_bit("vertical-disk region", region)
        arc = canonical_code(_arc_letters(arc))
        key = f"V({region};{','.join(map(str, arc))})"
        self._init(region, arc, key=key, side=opposite_side(tube_side(region)), footprint=bit)


class BandSum(FrozenRecord):
    """Pushed copies of meridian ``base`` band-summed to a partner disk."""

    _fields = ("base", "partner", "band", "copies")
    __slots__ = (*_fields, "key", "resolved_partner", "side", "footprint")
    variant, rank = "bandsum", 2

    def __init__(self, base: int, partner: str | Disk, band: ArcCode, copies: int):
        if not isinstance(base, int) or base < 1:
            raise InvalidConfigError(f"band-sum base must be a positive integer, got {base!r}")
        bit = _tube_bit("band-sum base", base)
        if not isinstance(copies, int) or copies < 1:
            raise InvalidConfigError(f"band-sum copies must be a positive integer, got {copies!r}")
        if partner != SELF_PARTNER and not isinstance(partner, Disk):
            raise InvalidConfigError(
                f"band-sum partner must be {SELF_PARTNER!r} or a disk descriptor, got {partner!r}"
            )
        band = canonical_code(_arc_letters(band))
        partner_key = SELF_PARTNER if partner == SELF_PARTNER else partner.key
        resolved = Meridian(base) if partner == SELF_PARTNER else partner
        self._init(
            base, partner, band, copies,
            key=f"B({base};{partner_key};{','.join(map(str, band))};{copies})",
            resolved_partner=resolved,
            side=tube_side(base),
            footprint=bit | resolved.footprint,
        )


Disk = (Meridian, VerticalDisk, BandSum)


def validate_disk(d: Disk, surface: TubedSurface) -> None:
    """Check that a descriptor is well formed on the given surface."""
    m = surface.tubes
    g = surface.genus_base
    if isinstance(d, Meridian):
        if d.index > m:
            raise InvalidConfigError(f"meridian index {d.index} exceeds tube count {m}")
        return
    if isinstance(d, VerticalDisk):
        if d.region > m:
            raise InvalidConfigError(f"vertical-disk region {d.region} exceeds tube count {m}")
        validate_code(d.arc, g)
        return
    if isinstance(d, BandSum):
        if d.base > m:
            raise InvalidConfigError(f"band-sum base {d.base} exceeds tube count {m}")
        validate_code(d.band, g)
        partner = d.resolved_partner
        validate_disk(partner, surface)
        if partner.side != d.side:
            raise InvalidConfigError(
                f"band-sum partner {partner.key} lies on the opposite side from base meridian {d.base}"
            )
        return
    raise InvalidConfigError(f"not a disk descriptor: {d!r}")


# -- disjointness calculus -----------------------------------------------------


def _meridian_misses(index: int, d: Disk) -> bool:
    # The calculus on (Meridian(index), d), without building the meridian: a
    # meridian misses every other meridian and every disk off its tube.
    return isinstance(d, Meridian) or not d.footprint >> index & 1


def disks_disjoint(a: Disk, b: Disk, arcs_ok) -> bool:
    """``True`` iff the calculus certifies disjoint representatives of a and b.

    Both descriptors must be valid on one surface (:func:`validate_disk`);
    nothing here checks them again.  ``arcs_ok(x, y)`` says whether arc
    codes x and y have disjoint representatives on that surface.
    """
    if a.key == b.key:
        # Identical descriptors denote parallel pushed copies.
        return True
    if a.rank > b.rank:
        a, b = b, a
    if isinstance(a, Meridian):
        return _meridian_misses(a.index, b)
    if isinstance(a, VerticalDisk):
        if isinstance(b, VerticalDisk):
            if a.region != b.region:
                return True
            return arcs_ok(a.arc, b.arc)
        return _meridian_misses(b.base, a) and disks_disjoint(b.resolved_partner, a, arcs_ok)
    # Both band sums.  Bases are parallel pushed copies of meridians and stay
    # disjoint from each other even when the index coincides (nesting).
    pa, pb = a.resolved_partner, b.resolved_partner
    return (
        _meridian_misses(a.base, pb)
        and _meridian_misses(b.base, pa)
        and disks_disjoint(pa, pb, arcs_ok)
        and (a.base != b.base or arcs_ok(a.band, b.band))
    )


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


def disjointness_rows(disks, surface: TubedSurface) -> list:
    """Per disk of ``disks``, the bitset of the other disks certified disjoint from it.

    Bit ``j`` of row ``i`` is :func:`disks_disjoint` on disks ``i`` and
    ``j``, for every ``j != i``, read off the factorised calculus of the
    module docstring: a row is an AND of a few masks, each an OR over one
    partition of the disks (by footprint, base, (base, band) or atom).  The
    calculus itself is asked only about pairs of atoms whose footprints
    overlap, once per pair, with one :func:`~disklab.surface.arc_verdict`
    for the pass.
    """
    fps = [d.footprint for d in disks]
    by_footprint = _masks(fps)
    # Per tube, the disks whose footprint holds it; a footprint misses every
    # disk that none of its tubes' masks holds.
    meets = {}
    for f, mask in by_footprint.items():
        for t in _bits(f):
            meets[t] = meets.get(t, 0) | mask
    everyone = (1 << len(disks)) - 1
    misses = {}
    for f in by_footprint:
        hit = 0
        for t in _bits(f):
            hit |= meets[t]
        misses[f] = everyone & ~hit
    same_key = _masks(d.key for d in disks)
    meridians = 0
    # Atom footprint bits -> [union mask, {atom key: [atom, mask]}], over the
    # vertical disks and band sums; each disk's bit is in its atom's mask.
    family = {}
    bands_at = {}  # base -> band -> mask of band sums
    for k, d in enumerate(disks):
        bit = 1 << k
        if isinstance(d, Meridian):
            meridians |= bit
            continue
        if isinstance(d, VerticalDisk):
            atom = d
        else:
            at_base = bands_at.setdefault(d.base, {})
            at_base[d.band] = at_base.get(d.band, 0) | bit
            atom = d.resolved_partner
        group = family.setdefault(atom.footprint, [0, {}])
        group[0] |= bit
        group[1].setdefault(atom.key, [atom, 0])[1] |= bit
    of_base = {i: sum(at_base.values()) for i, at_base in bands_at.items()}
    arcs_ok = arc_verdict(surface.genus_base)
    verdicts = {}

    def toward(x: Disk) -> int:
        # The disks whose atom the calculus puts disjoint from x: whole
        # footprint groups that miss x's footprint, one verdict per atom of
        # the others.
        fx = x.footprint
        out = 0
        for f, (union, members) in family.items():
            if not f & fx:
                out |= union
                continue
            for y, mask in members.values():
                pair = (x.key, y.key) if x.key < y.key else (y.key, x.key)
                if pair not in verdicts:
                    verdicts[pair] = disks_disjoint(x, y, arcs_ok)
                if verdicts[pair]:
                    out |= mask
        return out

    # Per atom x: the disks whose atom is disjoint from x, less the band sums
    # whose base meridian meets x.
    to_atom = {
        key: toward(x) & ~sum(mask for i, mask in of_base.items() if not _meridian_misses(i, x))
        for _, members in family.values()
        for key, (x, _) in members.items()
    }
    # Per (base i, band): the disks whose atom the meridian of tube i misses,
    # less the band sums on base i whose band meets this one.
    band_ok = {}
    for i, at_base in bands_at.items():
        off_i = sum(mask for _, members in family.values() for y, mask in members.values() if _meridian_misses(i, y))
        for band in at_base:
            band_ok[i, band] = off_i & ~sum(mask for other, mask in at_base.items() if not arcs_ok(band, other))
    rows = []
    for k, d in enumerate(disks):
        f = fps[k]
        if isinstance(d, Meridian):
            row = meridians | misses[f]
        elif isinstance(d, VerticalDisk):
            row = meridians & misses[f] | to_atom[d.key]
        else:
            row = meridians & misses[f] | to_atom[d.resolved_partner.key] & band_ok[d.base, d.band]
        rows.append((row | same_key[d.key]) & ~(1 << k))
    return rows


# -- classification --------------------------------------------------------------


def type_at(d: Disk, level: int) -> str:
    """Type T1-T4 of a disk valid on the surface with ``level`` tubes.

    T1: the top meridian itself.  T2: any other disk on the same side as the
    top meridian.  T3: opposite-side disks meeting the top meridian (their
    tube footprint reaches the top tube).  T4: opposite-side disks disjoint
    from it.  The type reads only the disk's stored ``side`` and
    ``footprint`` and the tube level, and builds no disk.  A disk that is
    not T1 meets the top meridian exactly when bit ``level`` of its
    footprint is set.
    """
    if isinstance(d, Meridian) and d.index == level:
        return "T1"
    if d.side == tube_side(level):
        return "T2"
    return "T4" if _meridian_misses(level, d) else "T3"


# -- catalogs --------------------------------------------------------------------


class CatalogConfig(FrozenRecord):
    """Finite truncation knobs for the disk catalog.

    ``arc_bound`` caps arc-code length; the remaining knobs bound how many
    cataloged disks are spun out of each enumeration (the full arc enumeration
    is kept on the catalog as ``arcs``).  Every catalog enumerates arcs
    under one cap, :data:`~disklab.surface.DEFAULT_MAX_ARC_CLASSES`, and
    lists disks under another, :data:`DEFAULT_MAX_CATALOG_DISKS`.
    """

    __slots__ = _fields = (
        "arc_bound", "bandsum_depth", "max_vd_arcs_per_region", "max_band_arcs", "max_partner_arcs", "copies",
    )

    def __init__(
        self,
        arc_bound: int,
        bandsum_depth: int = 2,
        max_vd_arcs_per_region: int = 6,
        max_band_arcs: int = 2,
        max_partner_arcs: int = 2,
        copies: tuple = (1, 2),
    ):
        # Booleans are ints to isinstance; a config field is never one.
        counts = {
            "arc_bound": arc_bound,
            "bandsum_depth": bandsum_depth,
            "max_vd_arcs_per_region": max_vd_arcs_per_region,
            "max_band_arcs": max_band_arcs,
            "max_partner_arcs": max_partner_arcs,
        }
        for name, v in counts.items():
            if type(v) is not int or v < 0:
                raise InvalidConfigError(f"{name} must be a nonnegative integer, got {_clip(repr(v))}", name)
        if bandsum_depth > 2:
            raise InvalidConfigError(f"bandsum_depth must be 0, 1, or 2, got {bandsum_depth!r}", "bandsum_depth")
        copies = tuple(copies)
        if not copies or any(type(c) is not int or c < 1 for c in copies):
            raise InvalidConfigError(
                f"copies must be a nonempty tuple of positive integers, got {_clip(repr(copies))}", "copies"
            )
        # A repeated count would list each of its band sums twice.
        if len(set(copies)) != len(copies):
            raise InvalidConfigError(f"copies must not repeat an entry, got {_clip(repr(copies))}", "copies")
        # Sorted, so one catalog has one config and ``disks.json`` one form.
        copies = tuple(sorted(copies))
        self._init(arc_bound, bandsum_depth, max_vd_arcs_per_region, max_band_arcs, max_partner_arcs, copies)


class DiskCatalog(FrozenRecord):
    """A surface's cataloged disks, and the arc classes every region shares (set by the genus and arc bound)."""

    __slots__ = _fields = ("surface", "config", "disks", "arcs")

    def __init__(self, surface: TubedSurface, config: CatalogConfig, disks: tuple, arcs: tuple):
        self._init(surface, config, disks, arcs)


def catalog_size(tubes: int, arc_count: int, config: CatalogConfig) -> int:
    """The number of disks :func:`build_disk_catalog` lists, from its loop bounds alone.

    ``arc_count`` is the number of arc classes every region shares.  Odd
    and even tubes lie on opposite sides, so ``2 * (m // 2) * ((m + 1) // 2)``
    (tube, region) pairs lie on opposite sides, and tube ``i`` has
    ``(i - 1) // 2`` lower meridians of its parity, ``(m - 1)**2 // 4`` in
    all.
    """
    m = tubes
    count = m + m * min(arc_count, config.max_vd_arcs_per_region)
    bands = min(arc_count, config.max_band_arcs)
    if m >= 2 and config.bandsum_depth >= 1 and bands:
        partners = m * (2 if config.bandsum_depth >= 2 else 1)  # 'self', and the simplest self-band-sum
        partners += 2 * (m // 2) * ((m + 1) // 2) * min(arc_count, config.max_partner_arcs)
        partners += (m - 1) ** 2 // 4
        count += partners * bands * len(config.copies)
    return count


def build_disk_catalog(surface: TubedSurface, config: CatalogConfig) -> DiskCatalog:
    """Enumerate the finite disk catalog for a tubed surface.

    Meridians of all tubes; vertical disks over the first
    ``max_vd_arcs_per_region`` arc classes of each region; and, when the
    surface has at least two tubes and ``bandsum_depth >= 1``, band sums of
    each meridian with same-side partners: itself, the leading vertical
    disks of same-side regions, and lower meridians of the same parity.
    ``bandsum_depth == 2`` additionally admits the base's simplest
    self-band-sum as a partner.  The loops list them in that order, by tube,
    region or base, then in arc order; a base's band sums go by partner
    (``'self'``, then by rank and key), band and copies.  Raises the
    resource-cap error, before any descriptor is built, if the
    :func:`catalog_size` exceeds :data:`DEFAULT_MAX_CATALOG_DISKS`, or its
    footprint bits :data:`DEFAULT_MAX_FOOTPRINT_BITS`.
    """
    m = surface.tubes
    # Feet never enter the arc search, so every region shares one enumeration.
    arcs = tuple(enumerate_arcs(surface.genus_base, config.arc_bound))
    size = catalog_size(m, len(arcs), config)
    for cap, count, unit, limit in (
        ("max_catalog_disks", size, "disks", DEFAULT_MAX_CATALOG_DISKS),
        ("max_catalog_footprint", size * (m + 1), "footprint bits", DEFAULT_MAX_FOOTPRINT_BITS),
    ):
        if count > limit:
            raise ResourceCapError(
                cap, f"genus {surface.genus_base}, {m} tubes, arc bound {config.arc_bound}: {count} {unit}", limit
            )
    disks = [Meridian(i) for i in range(1, m + 1)]
    disks += [VerticalDisk(r, arc) for r in range(1, m + 1) for arc in arcs[: config.max_vd_arcs_per_region]]
    bands = arcs[: config.max_band_arcs]
    if m >= 2 and config.bandsum_depth >= 1 and bands:
        for i in range(1, m + 1):
            # Region r's block is on the other side from its tube.
            partners = [VerticalDisk(r, arc) for r in range(1, m + 1) if tube_side(r) != tube_side(i)
                        for arc in arcs[: config.max_partner_arcs]]
            partners += [Meridian(j) for j in range(i - 2, 0, -2)]
            if config.bandsum_depth >= 2:
                partners.append(BandSum(i, SELF_PARTNER, bands[0], 1))
            partners.sort(key=lambda p: (p.rank, p.key))
            for partner in (SELF_PARTNER, *partners):
                for band in bands:
                    for c in config.copies:
                        disks.append(BandSum(i, partner, band, c))
    for d in disks:
        validate_disk(d, surface)
    return DiskCatalog(surface=surface, config=config, disks=tuple(disks), arcs=arcs)


# -- JSON -------------------------------------------------------------------------


def config_to_json_obj(config: CatalogConfig) -> dict:
    obj = {name: getattr(config, name) for name in CatalogConfig._fields}
    obj["copies"] = list(config.copies)
    obj["max_arc_classes"] = DEFAULT_MAX_ARC_CLASSES
    obj["merge_budget"] = RECORDED_MERGE_BUDGET
    return obj


def _clip(text: str, limit: int = 80) -> str:
    """``text`` cut to ``limit`` characters, so a hostile file cannot flood an error line."""
    return text if len(text) <= limit else text[:limit] + "…"


def config_from_json_obj(obj, source: str = "config") -> CatalogConfig:
    """The :class:`CatalogConfig` whose fields ``obj`` records; other keys are left to the caller."""
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "catalog config must be an object")
    kwargs = {}
    for name in CatalogConfig._fields:
        if name not in obj:
            raise MalformedFileError(f"{source}.{name}", "missing catalog config field")
        kwargs[name] = obj[name]
    if not isinstance(kwargs["copies"], list):
        raise MalformedFileError(f"{source}.copies", "copies must be a list")
    try:
        return CatalogConfig(**kwargs)
    except InvalidConfigError as exc:
        raise MalformedFileError(f"{source}.{exc.field}", str(exc)) from exc


def disk_to_json_obj(d: Disk) -> dict:
    if isinstance(d, Meridian):
        return {"variant": d.variant, "index": d.index}
    if isinstance(d, VerticalDisk):
        return {"variant": d.variant, "region": d.region, "arc": list(d.arc)}
    if isinstance(d, BandSum):
        partner = SELF_PARTNER if d.partner == SELF_PARTNER else disk_to_json_obj(d.partner)
        return {
            "variant": d.variant,
            "base": d.base,
            "partner": partner,
            "band": list(d.band),
            "copies": d.copies,
        }
    raise InvalidConfigError(f"not a disk descriptor: {d!r}")


def catalog_to_json_obj(catalog: DiskCatalog) -> dict:
    surface = catalog.surface
    entries = []
    for d in catalog.disks:
        obj = disk_to_json_obj(d)
        obj["key"] = d.key
        obj["side"] = d.side
        obj["type"] = type_at(d, surface.tubes)
        entries.append(obj)
    return {
        "kind": "disk_catalog",
        "genus": surface.genus_base,
        "tubes": surface.tubes,
        "config": config_to_json_obj(catalog.config),
        "arc_classes": {str(r): [list(c) for c in catalog.arcs] for r in range(1, surface.tubes + 1)},
        "disks": entries,
    }


def _show(value) -> str:
    """A value for an error line: a scalar clipped, an object or a list by its JSON type alone."""
    return {dict: "an object", list: "a list"}.get(type(value)) or _clip(repr(value))


def _first_difference(want, got, loc: str):
    """``(location, message)`` of the first place where ``got`` differs from ``want``, or None.

    Types must match exactly: a bool is not an int, nor a float.  Objects are
    walked in sorted key order, and a list of the wrong length is reported
    before its items.  The walk follows ``want``, the writer's output, whose
    depth is fixed, so a deeper ``got`` fails where it first departs.
    """
    if type(got) is not type(want) or not isinstance(want, (dict, list)) and got != want:
        return loc, f"expected {_show(want)}, got {_show(got)}"
    if isinstance(want, dict):
        # In process, a key the writer never writes may be any hashable.
        keys = sorted(want) if got.keys() == want.keys() else sorted(want.keys() | got.keys(), key=str)
        for key in keys:
            if key not in got or key not in want:
                return f"{loc}.{_clip(str(key))}", "missing" if key in want else "unexpected"
            found = _first_difference(want[key], got[key], f"{loc}.{key}")
            if found:
                return found
    elif isinstance(want, list):
        if len(got) != len(want):
            return loc, f"expected {len(want)} items, got {len(got)}"
        # A list of scalars, or of lists of scalars such as a region's arc
        # classes, matches in one step: values, then the scalars' types.
        flat = chain.from_iterable if {*map(type, want)} == {list} else iter
        kinds = [*map(type, flat(want))]
        if not {dict, list}.isdisjoint(kinds) or got != want or [*map(type, flat(got))] != kinds:
            for i, (w, g) in enumerate(zip(want, got)):
                found = _first_difference(w, g, f"{loc}[{i}]")
                if found:
                    return found
    return None


def catalog_from_json_obj(obj, source: str = "disks") -> DiskCatalog:
    """The catalog rebuilt from ``obj``'s header; ``obj`` must equal what :func:`catalog_to_json_obj` writes for it."""
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "disk catalog must be an object")
    if obj.get("kind") != "disk_catalog":
        raise MalformedFileError(f"{source}.kind", f"expected 'disk_catalog', got {_show(obj.get('kind'))}")
    genus = obj.get("genus")
    tubes = obj.get("tubes")
    if type(genus) is not int or genus < 1:
        raise MalformedFileError(f"{source}.genus", f"genus must be a positive integer, got {_show(genus)}")
    if type(tubes) is not int or tubes < 1:
        raise MalformedFileError(f"{source}.tubes", f"tubes must be a positive integer, got {_show(tubes)}")
    config = config_from_json_obj(obj.get("config"), source=f"{source}.config")
    rebuilt = build_disk_catalog(build_tubed_surface(genus, tubes), config)
    found = _first_difference(catalog_to_json_obj(rebuilt), obj, source)
    if found:
        raise MalformedFileError(*found)
    return rebuilt
