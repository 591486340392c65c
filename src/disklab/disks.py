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
common region are compared by the exact search
:func:`~disklab.surface.arcs_disjoint`, and disjoint strata (distinct
regions, bands versus meridians, parallel pushed copies) separate
everything else.  ``disks_disjoint`` returns ``True`` only when
this calculus certifies disjoint representatives; a ``True`` is therefore
a proof of disjointness while a ``False`` may be conservative.

Footprint rule: two disks whose tube footprints (``disk_tubes``) and region
footprints (``disk_regions``) are both disjoint are disjoint.  Every branch
of the calculus returns ``True`` on such a pair, since each meridian,
vertical arc and band it compares lies in a tube or region of one
footprint only.  A disk's region footprint lies inside its tube footprint,
so disjoint tube footprints already suffice: the pair pass takes such pairs
in as whole bitset masks.  The calculus reads a band sum's ``copies`` only
through ``key`` equality, so the pass asks it once per disk shape.

Each descriptor computes its ``key`` and its tube footprint
(``tube_footprint``) once, when it is built, and a band sum also its
resolved partner (``resolved_partner``: the partner, with ``'self'``
replaced by the base meridian).  These stored fields take no part in
equality, hashing or repr, and the pair scans read them instead of
deriving them again.
"""

from __future__ import annotations

from typing import Union

from .errors import InvalidConfigError, MalformedFileError
from .surface import (
    DEFAULT_MAX_ARC_CLASSES,
    ArcCode,
    FrozenRecord,
    TubedSurface,
    arcs_disjoint,
    build_tubed_surface,
    canonical_code,
    enumerate_arcs,
    opposite_side,
    tube_side,
    validate_code,
)

SELF_PARTNER = "self"

TYPE_LABELS = ("T1", "T2", "T3", "T4")

# The catalog config in ``disks.json`` and certificates keeps the key of the
# retired bounded arc search, always at this value, so recorded bytes stay
# the same; the exact search reads no such setting.
RECORDED_MERGE_BUDGET = 20_000


def _clean_arc(arc) -> ArcCode:
    if not isinstance(arc, (tuple, list)) or not arc:
        raise InvalidConfigError(f"arc code must be a nonempty sequence, got {arc!r}")
    out = []
    for x in arc:
        if not isinstance(x, int) or isinstance(x, bool) or x == 0:
            raise InvalidConfigError(f"arc code entries must be nonzero integers, got {arc!r}")
        out.append(x)
    return canonical_code(tuple(out))


class Meridian(FrozenRecord):
    """Meridian disk of solid tube ``index``."""

    _fields = ("index",)
    __slots__ = (*_fields, "key", "tube_footprint")

    def __init__(self, index: int):
        if not isinstance(index, int) or index < 1:
            raise InvalidConfigError(f"meridian index must be a positive integer, got {index!r}")
        self._init(index, key=f"M({index})", tube_footprint=frozenset({index}))


class VerticalDisk(FrozenRecord):
    """Vertical disk over an embedded essential arc in one region."""

    _fields = ("region", "arc")
    __slots__ = (*_fields, "key", "tube_footprint")

    def __init__(self, region: int, arc: ArcCode):
        if not isinstance(region, int) or region < 1:
            raise InvalidConfigError(f"region index must be a positive integer, got {region!r}")
        arc = _clean_arc(arc)
        self._init(region, arc, key=f"V({region};{','.join(map(str, arc))})", tube_footprint=frozenset({region}))


class BandSum(FrozenRecord):
    """Pushed copies of meridian ``base`` band-summed to a partner disk."""

    _fields = ("base", "partner", "band", "copies")
    __slots__ = (*_fields, "key", "resolved_partner", "tube_footprint")

    def __init__(self, base: int, partner: Union[str, "Disk"], band: ArcCode, copies: int):
        if not isinstance(base, int) or base < 1:
            raise InvalidConfigError(f"band-sum base must be a positive integer, got {base!r}")
        if not isinstance(copies, int) or copies < 1:
            raise InvalidConfigError(f"band-sum copies must be a positive integer, got {copies!r}")
        if partner != SELF_PARTNER and not isinstance(partner, (Meridian, VerticalDisk, BandSum)):
            raise InvalidConfigError(
                f"band-sum partner must be {SELF_PARTNER!r} or a disk descriptor, got {partner!r}"
            )
        band = _clean_arc(band)
        partner_key = SELF_PARTNER if partner == SELF_PARTNER else partner.key
        resolved = Meridian(base) if partner == SELF_PARTNER else partner
        self._init(
            base, partner, band, copies,
            key=f"B({base};{partner_key};{','.join(map(str, band))};{copies})",
            resolved_partner=resolved,
            tube_footprint=frozenset({base}) | resolved.tube_footprint,
        )


Disk = Union[Meridian, VerticalDisk, BandSum]


def disk_variant(d: Disk) -> str:
    if isinstance(d, Meridian):
        return "meridian"
    if isinstance(d, VerticalDisk):
        return "vertical"
    if isinstance(d, BandSum):
        return "bandsum"
    raise InvalidConfigError(f"not a disk descriptor: {d!r}")


def disk_side(d: Disk) -> str:
    """Which handlebody side the disk lives in (:data:`SIDE_A`/:data:`SIDE_B`)."""
    if isinstance(d, Meridian):
        return tube_side(d.index)
    if isinstance(d, VerticalDisk):
        # Vertical disks live in the block of their region, opposite the tube.
        return opposite_side(tube_side(d.region))
    if isinstance(d, BandSum):
        return tube_side(d.base)
    raise InvalidConfigError(f"not a disk descriptor: {d!r}")


def disk_tubes(d: Disk) -> frozenset:
    """Indices of solid tubes the disk's boundary runs over."""
    if isinstance(d, (Meridian, VerticalDisk, BandSum)):
        return d.tube_footprint
    raise InvalidConfigError(f"not a disk descriptor: {d!r}")


def disk_regions(d: Disk) -> frozenset:
    """Indices of regions in which the disk's boundary carries arcs."""
    if isinstance(d, Meridian):
        return frozenset()
    if isinstance(d, VerticalDisk):
        return frozenset({d.region})
    if isinstance(d, BandSum):
        return frozenset({d.base}) | disk_regions(d.resolved_partner)
    raise InvalidConfigError(f"not a disk descriptor: {d!r}")


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
        if disk_side(partner) != disk_side(d):
            raise InvalidConfigError(
                f"band-sum partner {partner.key} lies on the opposite side from base meridian {d.base}"
            )
        return
    raise InvalidConfigError(f"not a disk descriptor: {d!r}")


# -- disjointness calculus -----------------------------------------------------


def _band_vs_disk(region: int, arc: ArcCode, d: Disk, surface: TubedSurface) -> bool:
    # Parallel band arcs in `region` against the constituents of `d`.  Bands
    # stay in the block of their region, so they never meet a meridian.
    if isinstance(d, Meridian):
        return True
    if isinstance(d, VerticalDisk):
        if d.region != region:
            return True
        return arcs_disjoint(surface.genus_base, arc, d.arc)
    if d.base == region and not arcs_disjoint(surface.genus_base, arc, d.band):
        return False
    return _band_vs_disk(region, arc, d.resolved_partner, surface)


def _meridian_misses(index: int, d: Disk) -> bool:
    # The calculus on (Meridian(index), d), without building the meridian: a
    # meridian misses every other meridian and every disk off its tube.
    return isinstance(d, Meridian) or index not in d.tube_footprint


_VARIANT_RANK = {Meridian: 0, VerticalDisk: 1, BandSum: 2}


def disks_disjoint_unvalidated(a: Disk, b: Disk, surface: TubedSurface) -> bool:
    """:func:`disks_disjoint` for descriptors already validated on ``surface``."""
    if a.key == b.key:
        # Identical descriptors denote parallel pushed copies.
        return True
    if _VARIANT_RANK[type(a)] > _VARIANT_RANK[type(b)]:
        a, b = b, a
    if isinstance(a, Meridian):
        return _meridian_misses(a.index, b)
    if isinstance(a, VerticalDisk):
        if isinstance(b, VerticalDisk):
            if a.region != b.region:
                return True
            return arcs_disjoint(surface.genus_base, a.arc, b.arc)
        return (
            _meridian_misses(b.base, a)
            and disks_disjoint_unvalidated(b.resolved_partner, a, surface)
            and _band_vs_disk(b.base, b.band, a, surface)
        )
    # Both band sums.  Bases are parallel pushed copies of meridians and stay
    # disjoint from each other even when the index coincides (nesting).
    pa, pb = a.resolved_partner, b.resolved_partner
    if not _meridian_misses(a.base, pb):
        return False
    if not _meridian_misses(b.base, pa):
        return False
    if not disks_disjoint_unvalidated(pa, pb, surface):
        return False
    if not _band_vs_disk(a.base, a.band, pb, surface):
        return False
    if not _band_vs_disk(b.base, b.band, pa, surface):
        return False
    if a.base == b.base and not arcs_disjoint(surface.genus_base, a.band, b.band):
        return False
    return True


def disks_disjoint(a: Disk, b: Disk, surface: TubedSurface) -> bool:
    """``True`` iff the calculus certifies disjoint representatives of a and b."""
    validate_disk(a, surface)
    validate_disk(b, surface)
    return disks_disjoint_unvalidated(a, b, surface)


# -- classification --------------------------------------------------------------


def distinguished_disk(surface: TubedSurface) -> Meridian:
    """The top meridian: the unique cataloged disk of type T1."""
    return Meridian(surface.tubes)


def classify_type(d: Disk, surface: TubedSurface) -> str:
    """Partition disks into T1-T4 by side and incidence with the top meridian.

    T1: the top meridian itself.  T2: any other disk on the same side as the
    top meridian.  T3: opposite-side disks meeting the top meridian (their
    tube footprint reaches the top tube).  T4: opposite-side disks disjoint
    from it.
    """
    validate_disk(d, surface)
    return classify_type_unvalidated(d, surface)


def classify_type_unvalidated(d: Disk, surface: TubedSurface) -> str:
    """:func:`classify_type` for a descriptor already validated on ``surface``."""
    e = distinguished_disk(surface)
    if d.key == e.key:
        return "T1"
    if disk_side(d) == surface.w_side:
        return "T2"
    if disks_disjoint_unvalidated(d, e, surface):
        return "T4"
    return "T3"


def meets_distinguished(d: Disk, surface: TubedSurface) -> bool:
    """Whether the disk's footprint forces intersection with the top meridian."""
    validate_disk(d, surface)
    return meets_distinguished_unvalidated(d, surface)


def meets_distinguished_unvalidated(d: Disk, surface: TubedSurface) -> bool:
    """:func:`meets_distinguished` for a descriptor already validated on ``surface``."""
    return not disks_disjoint_unvalidated(d, distinguished_disk(surface), surface)


# -- catalogs --------------------------------------------------------------------


class CatalogConfig(FrozenRecord):
    """Finite truncation knobs for the disk catalog.

    ``arc_bound`` caps arc-code length; the remaining knobs bound how many
    cataloged disks are spun out of each enumeration (full arc enumerations
    are preserved separately on the catalog).
    """

    __slots__ = _fields = (
        "arc_bound", "bandsum_depth", "max_vd_arcs_per_region", "max_band_arcs", "max_partner_arcs", "copies",
        "max_arc_classes",
    )

    def __init__(
        self,
        arc_bound: int,
        bandsum_depth: int = 2,
        max_vd_arcs_per_region: int = 6,
        max_band_arcs: int = 2,
        max_partner_arcs: int = 2,
        copies: tuple = (1, 2),
        max_arc_classes: int = DEFAULT_MAX_ARC_CLASSES,
    ):
        # Booleans are ints to isinstance; a config field is never one.
        counts = {
            "arc_bound": arc_bound,
            "bandsum_depth": bandsum_depth,
            "max_vd_arcs_per_region": max_vd_arcs_per_region,
            "max_band_arcs": max_band_arcs,
            "max_partner_arcs": max_partner_arcs,
            "max_arc_classes": max_arc_classes,
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
        self._init(
            arc_bound, bandsum_depth, max_vd_arcs_per_region, max_band_arcs, max_partner_arcs, copies, max_arc_classes
        )


def _disk_sort_key(d: Disk):
    # Sort comparisons never cross the leading variant rank, so each variant
    # may use its own tuple shape.  Arc codes sort as tuples, matching the
    # order arc enumeration produces them in.
    if isinstance(d, Meridian):
        return (0, d.index)
    if isinstance(d, VerticalDisk):
        return (1, d.region, len(d.arc), d.arc)
    partner_rank = {"self": 0, "meridian": 1, "vertical": 2, "bandsum": 3}
    pk = SELF_PARTNER if d.partner == SELF_PARTNER else disk_variant(d.partner)
    partner_key = "" if d.partner == SELF_PARTNER else d.partner.key
    return (2, d.base, partner_rank[pk], partner_key, len(d.band), d.band, d.copies)


class DiskCatalog(FrozenRecord):
    _fields = ("surface", "config", "disks")
    _uncompared = ("arc_classes",)
    __slots__ = _fields + _uncompared

    def __init__(self, surface: TubedSurface, config: CatalogConfig, disks: tuple, arc_classes: dict):
        self._init(surface, config, disks, arc_classes=arc_classes)

    def keys(self):
        return [d.key for d in self.disks]

    def by_key(self) -> dict:
        return {d.key: d for d in self.disks}

    def meridians(self):
        return [d for d in self.disks if isinstance(d, Meridian)]

    def vertical_disks(self):
        return [d for d in self.disks if isinstance(d, VerticalDisk)]

    def band_sums(self):
        return [d for d in self.disks if isinstance(d, BandSum)]


def build_disk_catalog(surface: TubedSurface, config: CatalogConfig) -> DiskCatalog:
    """Enumerate the finite disk catalog for a tubed surface.

    Meridians of all tubes; vertical disks over the first
    ``max_vd_arcs_per_region`` arc classes of each region; and, when the
    surface has at least two tubes and ``bandsum_depth >= 1``, band sums of
    each meridian with same-side partners: itself, the leading vertical
    disks of same-side regions, and lower meridians of the same parity.
    ``bandsum_depth == 2`` additionally admits the base's simplest
    self-band-sum as a partner.
    """
    m = surface.tubes
    # Feet never enter the arc search, so every region shares one enumeration.
    arcs = tuple(enumerate_arcs(surface.genus_base, config.arc_bound, max_classes=config.max_arc_classes))
    arc_classes = {r: arcs for r in range(1, m + 1)}
    disks = [Meridian(i) for i in range(1, m + 1)]
    for r in range(1, m + 1):
        for arc in arc_classes[r][: config.max_vd_arcs_per_region]:
            disks.append(VerticalDisk(r, arc))
    if m >= 2 and config.bandsum_depth >= 1:
        for i in range(1, m + 1):
            bands = arc_classes[i][: config.max_band_arcs]
            if not bands:
                continue
            partners = [SELF_PARTNER]
            side = tube_side(i)
            for r in range(1, m + 1):
                if surface.region(r).block_side == side:
                    for arc in arc_classes[r][: config.max_partner_arcs]:
                        partners.append(VerticalDisk(r, arc))
            for j in range(i - 2, 0, -2):
                partners.append(Meridian(j))
            if config.bandsum_depth >= 2:
                partners.append(BandSum(i, SELF_PARTNER, bands[0], 1))
            for partner in partners:
                for band in bands:
                    for c in config.copies:
                        disks.append(BandSum(i, partner, band, c))
    disks.sort(key=_disk_sort_key)
    for d in disks:
        validate_disk(d, surface)
    return DiskCatalog(surface=surface, config=config, disks=tuple(disks), arc_classes=arc_classes)


# -- JSON -------------------------------------------------------------------------


def config_to_json_obj(config: CatalogConfig) -> dict:
    return {
        "arc_bound": config.arc_bound,
        "bandsum_depth": config.bandsum_depth,
        "max_vd_arcs_per_region": config.max_vd_arcs_per_region,
        "max_band_arcs": config.max_band_arcs,
        "max_partner_arcs": config.max_partner_arcs,
        "copies": list(config.copies),
        "merge_budget": RECORDED_MERGE_BUDGET,
        "max_arc_classes": config.max_arc_classes,
    }


def _clip(text: str, limit: int = 80) -> str:
    """``text`` cut to ``limit`` characters, so a hostile file cannot flood an error line."""
    return text if len(text) <= limit else text[:limit] + "…"


def config_from_json_obj(obj, source: str = "config") -> CatalogConfig:
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "catalog config must be an object")
    fields = (
        "arc_bound", "bandsum_depth", "max_vd_arcs_per_region", "max_band_arcs",
        "max_partner_arcs", "copies", "merge_budget", "max_arc_classes",
    )
    kwargs = {}
    for name in fields:
        if name not in obj:
            raise MalformedFileError(f"{source}.{name}", "missing catalog config field")
        kwargs[name] = obj[name]
    if not isinstance(kwargs["copies"], list):
        raise MalformedFileError(f"{source}.copies", "copies must be a list")
    kwargs["copies"] = tuple(kwargs["copies"])
    recorded = kwargs.pop("merge_budget")
    if type(recorded) is not int or recorded != RECORDED_MERGE_BUDGET:
        raise MalformedFileError(
            f"{source}.merge_budget", f"expected {RECORDED_MERGE_BUDGET}, got {_clip(repr(recorded))}"
        )
    try:
        return CatalogConfig(**kwargs)
    except InvalidConfigError as exc:
        raise MalformedFileError(f"{source}.{exc.field}", str(exc)) from exc


def disk_to_json_obj(d: Disk) -> dict:
    if isinstance(d, Meridian):
        return {"variant": "meridian", "index": d.index}
    if isinstance(d, VerticalDisk):
        return {"variant": "vertical", "region": d.region, "arc": list(d.arc)}
    if isinstance(d, BandSum):
        partner = SELF_PARTNER if d.partner == SELF_PARTNER else disk_to_json_obj(d.partner)
        return {
            "variant": "bandsum",
            "base": d.base,
            "partner": partner,
            "band": list(d.band),
            "copies": d.copies,
        }
    raise InvalidConfigError(f"not a disk descriptor: {d!r}")


def disk_from_json_obj(obj, source: str = "disk") -> Disk:
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "disk must be an object")
    variant = obj.get("variant")
    try:
        if variant == "meridian":
            return Meridian(obj.get("index"))
        if variant == "vertical":
            arc = obj.get("arc")
            if not isinstance(arc, list):
                raise MalformedFileError(f"{source}.arc", "arc must be a list of integers")
            return VerticalDisk(obj.get("region"), tuple(arc))
        if variant == "bandsum":
            raw_partner = obj.get("partner")
            if raw_partner == SELF_PARTNER:
                partner = SELF_PARTNER
            else:
                partner = disk_from_json_obj(raw_partner, source=f"{source}.partner")
            band = obj.get("band")
            if not isinstance(band, list):
                raise MalformedFileError(f"{source}.band", "band must be a list of integers")
            return BandSum(obj.get("base"), partner, tuple(band), obj.get("copies"))
    except InvalidConfigError as exc:
        raise MalformedFileError(source, str(exc)) from exc
    raise MalformedFileError(f"{source}.variant", f"unknown disk variant {variant!r}")


def catalog_to_json_obj(catalog: DiskCatalog) -> dict:
    surface = catalog.surface
    entries = []
    for d in catalog.disks:
        obj = disk_to_json_obj(d)
        obj["key"] = d.key
        obj["side"] = disk_side(d)
        obj["type"] = classify_type(d, surface)
        entries.append(obj)
    return {
        "kind": "disk_catalog",
        "genus": surface.genus_base,
        "tubes": surface.tubes,
        "config": config_to_json_obj(catalog.config),
        "arc_classes": {str(r): [list(c) for c in codes] for r, codes in sorted(catalog.arc_classes.items())},
        "disks": entries,
    }


def catalog_from_json_obj(obj, source: str = "disks") -> DiskCatalog:
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "disk catalog must be an object")
    if obj.get("kind") != "disk_catalog":
        raise MalformedFileError(f"{source}.kind", f"expected 'disk_catalog', got {obj.get('kind')!r}")
    genus = obj.get("genus")
    tubes = obj.get("tubes")
    if type(genus) is not int or genus < 1:
        raise MalformedFileError(f"{source}.genus", f"genus must be a positive integer, got {_clip(repr(genus))}")
    if type(tubes) is not int or tubes < 1:
        raise MalformedFileError(f"{source}.tubes", f"tubes must be a positive integer, got {_clip(repr(tubes))}")
    config = config_from_json_obj(obj.get("config"), source=f"{source}.config")
    try:
        surface = build_tubed_surface(genus, tubes)
        rebuilt = build_disk_catalog(surface, config)
    except InvalidConfigError as exc:
        raise MalformedFileError(source, str(exc)) from exc
    raw_disks = obj.get("disks")
    if not isinstance(raw_disks, list):
        raise MalformedFileError(f"{source}.disks", "disks must be a list")
    if len(raw_disks) != len(rebuilt.disks):
        raise MalformedFileError(
            f"{source}.disks",
            f"catalog lists {len(raw_disks)} disks but the declared config yields {len(rebuilt.disks)}",
        )
    for i, (raw, expected) in enumerate(zip(raw_disks, rebuilt.disks)):
        loc = f"{source}.disks[{i}]"
        try:
            parsed = disk_from_json_obj(raw, source=loc)
        except RecursionError as exc:
            # Partners nest one level per band sum; a chain that parsed as
            # JSON can still be too deep to rebuild.
            raise MalformedFileError(loc, "disk descriptor nested too deeply") from exc
        if parsed.key != expected.key:
            raise MalformedFileError(loc, f"expected disk {expected.key}, got {_clip(parsed.key)}")
        if isinstance(raw, dict):
            if "key" in raw and raw["key"] != expected.key:
                got = _clip(repr(raw["key"]))
                raise MalformedFileError(f"{loc}.key", f"key {got} does not match descriptor {expected.key}")
            if "side" in raw and raw["side"] != disk_side(expected):
                got = _clip(repr(raw["side"]))
                raise MalformedFileError(f"{loc}.side", f"side {got} does not match {disk_side(expected)}")
            expected_type = classify_type(expected, surface)
            if "type" in raw and raw["type"] != expected_type:
                got = _clip(repr(raw["type"]))
                raise MalformedFileError(f"{loc}.type", f"type {got} does not match {expected_type}")
    raw_arcs = obj.get("arc_classes")
    if not isinstance(raw_arcs, dict):
        raise MalformedFileError(f"{source}.arc_classes", "arc_classes must be an object")
    for r, codes in rebuilt.arc_classes.items():
        raw_codes = raw_arcs.get(str(r))
        if raw_codes != [list(c) for c in codes]:
            raise MalformedFileError(
                f"{source}.arc_classes.{r}", "arc classes do not match the declared configuration"
            )
    return rebuilt
