"""Tests for disk descriptors, the disjointness calculus, and catalogs."""

import copy
import importlib
import itertools
import pkgutil
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import disklab
from disklab import disks
from disklab import surface as surface_module
from disklab.disks import (
    SELF_PARTNER,
    BandSum,
    CatalogConfig,
    DiskCatalog,
    Meridian,
    VerticalDisk,
    build_disk_catalog,
    catalog_from_json_obj,
    catalog_size,
    catalog_to_json_obj,
    config_from_json_obj,
    config_to_json_obj,
    disk_to_json_obj,
    disks_disjoint,
    validate_disk,
)
from disklab.errors import InvalidConfigError, MalformedFileError
from disklab.flagcomplex import canonical_json, flag_cliques
from disklab.homology import reduced_homology
from disklab.surface import (
    SIDE_A,
    SIDE_B,
    build_tubed_surface,
    canonical_code,
    enumerate_arcs,
    opposite_side,
    tube_side,
)
from oracles import (
    classify_type,
    disk_footprint,
    disk_regions,
    disks_disjoint_with_band_terms,
    meets_distinguished,
    complex_of,
    memo_verdict,
    of_variant,
    project_disk,
)

# The arc verdict ``disks_disjoint`` takes for disks on the genus-1 surfaces f2 and f3.
ARCS_G1 = memo_verdict(1)


@pytest.fixture(scope="module")
def f2():
    return build_tubed_surface(1, 2)


@pytest.fixture(scope="module")
def f3():
    return build_tubed_surface(1, 3)


@pytest.fixture(scope="module")
def cat2(f2):
    return build_disk_catalog(f2, CatalogConfig(arc_bound=3))


@pytest.fixture(scope="module")
def cat3(f3):
    return build_disk_catalog(f3, CatalogConfig(arc_bound=3))


# -- descriptors -----------------------------------------------------------------


def test_keys_and_variants():
    m = Meridian(2)
    v = VerticalDisk(1, (-2,))
    b = BandSum(1, v, (-2, 1), 2)
    assert m.key == "M(2)"
    assert v.key == "V(1;-2)"
    assert b.key == "B(1;V(1;-2);-2,1;2)"
    assert m.variant == "meridian"
    assert v.variant == "vertical"
    assert b.variant == "bandsum"


def test_arc_canonicalized_on_construction():
    assert VerticalDisk(1, (2,)).arc == (-2,)
    assert VerticalDisk(1, (1, 2)).key == VerticalDisk(1, (-2, -1)).key
    assert BandSum(1, SELF_PARTNER, (1,), 1).band == (-1,)


def test_descriptor_validation():
    with pytest.raises(InvalidConfigError):
        Meridian(0)
    with pytest.raises(InvalidConfigError):
        VerticalDisk(1, ())
    with pytest.raises(InvalidConfigError):
        VerticalDisk(1, (0,))
    with pytest.raises(InvalidConfigError):
        BandSum(1, SELF_PARTNER, (-1,), 0)
    with pytest.raises(InvalidConfigError):
        BandSum(1, "other", (-1,), 1)


def test_validate_disk_against_surface(f2):
    with pytest.raises(InvalidConfigError):
        validate_disk(Meridian(3), f2)
    with pytest.raises(InvalidConfigError):
        validate_disk(VerticalDisk(3, (-1,)), f2)
    with pytest.raises(InvalidConfigError):
        validate_disk(VerticalDisk(1, (-3,)), f2)  # out of range for genus 1
    # partner on the opposite side from its base is rejected
    with pytest.raises(InvalidConfigError):
        validate_disk(BandSum(1, VerticalDisk(1, (-2,)), (-2,), 1), f2)


def test_resolve_partner():
    assert BandSum(2, SELF_PARTNER, (-1,), 1).resolved_partner == Meridian(2)
    v = VerticalDisk(2, (-2,))
    assert BandSum(1, v, (-1,), 1).resolved_partner is v


def test_footprints():
    assert Meridian(3).footprint == 0b1000
    assert disk_regions(Meridian(3)) == frozenset()
    assert VerticalDisk(2, (-2,)).footprint == 0b100
    assert disk_regions(VerticalDisk(2, (-2,))) == frozenset({2})
    b = BandSum(1, VerticalDisk(2, (-2,)), (-2,), 1)
    assert b.footprint == 0b110
    assert disk_regions(b) == frozenset({1, 2})
    nested = BandSum(3, BandSum(3, SELF_PARTNER, (-1,), 1), (-2,), 2)
    assert nested.footprint == 0b1000


def fresh_key(d) -> str:
    """The descriptor key, formatted from scratch."""
    if isinstance(d, Meridian):
        return f"M({d.index})"
    if isinstance(d, VerticalDisk):
        return "V({};{})".format(d.region, ",".join(map(str, d.arc)))
    partner = SELF_PARTNER if d.partner == SELF_PARTNER else fresh_key(d.partner)
    return "B({};{};{};{})".format(d.base, partner, ",".join(map(str, d.band)), d.copies)


DESCRIPTOR_FIELDS = {
    Meridian: ("index",),
    VerticalDisk: ("region", "arc"),
    BandSum: ("base", "partner", "band", "copies"),
}


@pytest.mark.parametrize(("genus", "tubes"), [(1, 5), (2, 3)])
def test_stored_key_matches_fresh_key_and_leaves_equality_alone(genus, tubes):
    catalog = build_disk_catalog(build_tubed_surface(genus, tubes), CatalogConfig(arc_bound=3))
    for d in catalog.disks:
        assert d.key == fresh_key(d)
        assert "key" not in repr(d)
        # equality and hashing see only the descriptor fields
        assert hash(d) == hash(tuple(getattr(d, name) for name in DESCRIPTOR_FIELDS[type(d)]))
        back = type(d)(*(getattr(d, name) for name in DESCRIPTOR_FIELDS[type(d)]))
        assert back == d and hash(back) == hash(d) and back.key == d.key
    with pytest.raises(AttributeError):
        Meridian(1).key = "M(2)"
    with pytest.raises(TypeError):
        Meridian(1, key="M(2)")


def fresh_partner(d: BandSum):
    """The partner with 'self' resolved, built from scratch."""
    return Meridian(d.base) if d.partner == SELF_PARTNER else d.partner


STORED_FIELDS = ("key", "side", "footprint", "resolved_partner")


@pytest.mark.parametrize(("genus", "n"), [(1, 5), (2, 4), (3, 4)])
def test_stored_partner_and_footprint_match_a_fresh_derivation(genus, n):
    catalog = build_disk_catalog(build_tubed_surface(genus, n + 1), CatalogConfig(arc_bound=3))
    partners = 0
    for d in catalog.disks:
        assert d.footprint == disk_footprint(d)
        if isinstance(d, BandSum):
            partners += 1
            assert d.resolved_partner == fresh_partner(d)
            if d.partner != SELF_PARTNER:
                assert d.resolved_partner is d.partner
        else:
            assert not hasattr(d, "resolved_partner")
        # equality, hashing and repr see only the descriptor fields
        values = tuple(getattr(d, name) for name in DESCRIPTOR_FIELDS[type(d)])
        assert hash(d) == hash(values)
        assert type(d)(*values) == d
        assert not any(name in repr(d) for name in STORED_FIELDS)
        # every stored field is set, and none is a constructor keyword
        stored = [name for name in STORED_FIELDS if hasattr(d, name)]
        assert {"key", "side", "footprint"} <= set(stored)
        for name in stored:
            with pytest.raises(TypeError):
                type(d)(*values, **{name: getattr(d, name)})
    assert partners > 0
    with pytest.raises(AttributeError):
        BandSum(1, SELF_PARTNER, (-1,), 1).footprint = 0b100
    with pytest.raises(AttributeError):
        Meridian(1).side = SIDE_A
    with pytest.raises(TypeError):
        VerticalDisk(1, (-1,), footprint=0b100)


@pytest.mark.parametrize(("genus", "n"), [(1, 5), (2, 4), (3, 4)])
def test_footprint_rule_agrees_with_the_calculus(genus, n):
    """Disjoint tube and region footprints imply disjoint disks, on every catalog pair."""
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    for d in catalog.disks:
        assert not sum(1 << r for r in disk_regions(d)) & ~d.footprint
    arcs_ok = memo_verdict(genus)
    skipped = 0
    for a, b in itertools.combinations(catalog.disks, 2):
        if not a.footprint & b.footprint and disk_regions(a).isdisjoint(disk_regions(b)):
            skipped += 1
            assert disks_disjoint(a, b, arcs_ok), (a.key, b.key)
    assert skipped > 0


@pytest.mark.parametrize(("genus", "n"), [(1, 4), (2, 4)])
def test_copies_never_change_a_verdict_but_by_key(genus, n):
    """A band sum's copy count reaches the calculus only through key equality.

    The pair pass relies on this: its rows read a band sum's base, band and
    partner, never its copies.
    """
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    arcs_ok = memo_verdict(genus)
    checked = 0
    for d in of_variant(catalog, "bandsum"):
        for copies in {1, 2, d.copies + 2} - {d.copies}:
            twin = BandSum(d.base, d.partner, d.band, copies)
            validate_disk(twin, surface)
            for e in catalog.disks:
                if e.key in (d.key, twin.key):
                    continue
                verdict = disks_disjoint(d, e, arcs_ok)
                assert disks_disjoint(twin, e, arcs_ok) == verdict, (twin.key, e.key)
                assert disks_disjoint(e, twin, arcs_ok) == verdict, (e.key, twin.key)
                checked += 1
            # Any two distinct copies of one shape: the same verdict as each other.
            third = BandSum(d.base, d.partner, d.band, copies + d.copies + 2)
            assert disks_disjoint(d, twin, arcs_ok) == disks_disjoint(twin, third, arcs_ok), twin.key
    assert checked > 0


RAISED_KNOBS = {"arc_bound": 4, "max_vd_arcs_per_region": 20, "max_band_arcs": 6, "max_partner_arcs": 6}


@pytest.mark.parametrize(
    ("genus", "n", "knobs"),
    [(1, 4, {}), (2, 3, {}), (1, 2, RAISED_KNOBS), (1, 3, {"bandsum_depth": 1, "copies": (1, 2, 3)})],
    ids=["g1n4", "g2n3", "g1n2-raised", "g1n3-depth1"],
)
def test_calculus_without_band_terms_keeps_every_verdict(genus, n, knobs):
    """The meridian terms imply the band-versus-partner terms, on every catalog pair."""
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(**{"arc_bound": 3, **knobs}))
    arcs_ok = memo_verdict(genus)
    disjoint = 0
    for a, b in itertools.combinations(catalog.disks, 2):
        verdict = disks_disjoint(a, b, arcs_ok)
        assert verdict == disks_disjoint_with_band_terms(a, b, surface), (a.key, b.key)
        disjoint += verdict
    assert 0 < disjoint < len(catalog.disks) * (len(catalog.disks) - 1) // 2


def test_rows_on_band_sums_that_share_a_partner(f3):
    """Band sums sharing a meridian partner, or the depth-2 partner B(3;self;-1;1); one disk twice."""
    shared = BandSum(3, SELF_PARTNER, (-1,), 1)
    hand = [
        BandSum(3, Meridian(1), (-1,), 1),
        BandSum(3, Meridian(1), (-1,), 2),
        BandSum(3, Meridian(1), (-2, -2, -1), 1),  # its band meets (-1,)
        BandSum(3, Meridian(1), (-2,), 1),
        BandSum(3, shared, (-1,), 1),
        BandSum(3, shared, (-1,), 2),
        BandSum(1, shared, (-1,), 1),
        BandSum(1, shared, (-2,), 1),
        Meridian(1),
        shared,
        VerticalDisk(2, (-1,)),
        BandSum(3, shared, (-1,), 1),  # listed twice: equal keys are parallel copies
    ]
    rows = disks.disjointness_rows(hand, f3)
    found = set()
    for (i, a), (j, b) in itertools.combinations(enumerate(hand), 2):
        verdict = disks_disjoint(a, b, ARCS_G1)
        assert bool(rows[i] >> j & 1) == bool(rows[j] >> i & 1) == verdict, (a.key, b.key)
        if verdict:
            found.add((i, j))
    # Base 3 with partner M(1), or B(3;self;-1;1) itself: disjoint when the
    # bands are.  The meridian of tube 3 meets the partner B(3;self;-1;1), so
    # no band sum carrying it is disjoint from one based at 3, not even its
    # own copy; two based at 1 have equal partners, which are parallel copies.
    # M(1) misses the disks off tube 1, and V(2;-1) every disk here.
    banded = {(0, 1), (0, 3), (1, 3), (2, 3), (0, 9), (1, 9), (3, 9), (6, 7)}
    others = {(4, 8), (5, 8), (8, 9), (8, 11), (4, 11)} | {(i, 10) for i in range(10)} | {(10, 11)}
    assert found == banded | others
    assert all(rows[i] >> i & 1 == 0 for i in range(len(hand)))


def first_row_fault(disks_, rows, arcs_ok):
    """The first pair ``(i, j)``, ``i <= j``, at which the rows break the calculus, or None.

    Bit ``j`` of row ``i`` and bit ``i`` of row ``j`` must both equal
    :func:`disks_disjoint` on the two disks, and row ``i`` must not hold bit
    ``i`` (reported as ``(i, i)``).
    """
    for i, a in enumerate(disks_):
        if rows[i] >> i & 1:
            return i, i
        for j in range(i + 1, len(disks_)):
            verdict = disks_disjoint(a, disks_[j], arcs_ok)
            if bool(rows[i] >> j & 1) != verdict or bool(rows[j] >> i & 1) != verdict:
                return i, j
    return None


@st.composite
def small_catalogs(draw):
    """A catalog of at most 200 disks: genus 1-3, 1-5 tubes, every config knob drawn.

    Three draws in four lift each knob that gates band sums to at least 1
    (two tubes, one arc, depth 1, one band arc), so most catalogs hold band
    sums; the rest still reach one tube, arc bound 0, depth 0 and no bands.
    """
    lo = int(draw(st.integers(0, 3)) > 0)
    genus, tubes = draw(st.integers(1, 3)), draw(st.integers(1 + lo, 5))
    config = CatalogConfig(
        arc_bound=draw(st.integers(lo, 4)),
        bandsum_depth=draw(st.integers(lo, 2)),
        max_vd_arcs_per_region=draw(st.integers(0, 6)),
        max_band_arcs=draw(st.integers(lo, 6)),
        max_partner_arcs=draw(st.integers(0, 6)),
        copies=tuple(draw(st.sets(st.sampled_from((1, 2, 3, 4)), min_size=1))),
    )
    assume(catalog_size(tubes, len(enumerate_arcs(genus, config.arc_bound)), config) <= 200)
    return build_disk_catalog(build_tubed_surface(genus, tubes), config)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_catalogs())
def test_rows_are_the_calculus_on_every_pair(catalog):
    rows = disks.disjointness_rows(catalog.disks, catalog.surface)
    assert first_row_fault(catalog.disks, rows, memo_verdict(catalog.surface.genus_base)) is None


def test_row_comparison_names_the_pair_of_a_rigged_row(cat2):
    rows = disks.disjointness_rows(cat2.disks, cat2.surface)
    assert first_row_fault(cat2.disks, rows, ARCS_G1) is None
    i = len(rows) // 2
    j = rows[i].bit_length() - 1
    assert j > i and rows[j] >> i & 1
    one_bit_cleared = [*rows]
    one_bit_cleared[i] &= ~(1 << j)
    assert first_row_fault(cat2.disks, one_bit_cleared, ARCS_G1) == (i, j)
    own_bit_set = [*rows]
    own_bit_set[i] |= 1 << i
    assert first_row_fault(cat2.disks, own_bit_set, ARCS_G1) == (i, i)


def carried_arcs(d) -> set:
    """The arc codes a disk carries: its vertical arc, or its band and its partner's arcs."""
    if isinstance(d, VerticalDisk):
        return {d.arc}
    if isinstance(d, BandSum):
        return {d.band} | carried_arcs(d.resolved_partner)
    return set()


def test_each_pass_draws_each_of_its_codes_at_most_once(monkeypatch):
    """Passes in one process share nothing: each draws codes its disks carry, each at most once.

    Checked on one catalog twice, then on a catalog of another genus, with
    raised knobs so that bands, vertical arcs and partner arcs differ.  The
    second pass on the first catalog draws what the first pass drew again.
    """
    drawn = []
    closed_drawings = surface_module._closed_drawings

    def counting(genus, code):
        drawn.append((genus, code))
        return closed_drawings(genus, code)

    monkeypatch.setattr(surface_module, "_closed_drawings", counting)
    knobs = CatalogConfig(arc_bound=3, max_vd_arcs_per_region=8, max_band_arcs=3, max_partner_arcs=5)
    g1, g2 = (build_disk_catalog(build_tubed_surface(genus, 4), knobs) for genus in (1, 2))
    assert drawn == []
    rows, draws = [], []
    for catalog in (g1, g1, g2):
        drawn.clear()
        rows.append(disks.disjointness_rows(catalog.disks, catalog.surface))
        genus = catalog.surface.genus_base
        carried = {(genus, canonical_code(code)) for code in set().union(*map(carried_arcs, catalog.disks))}
        assert len(drawn) == len(set(drawn)) > 5, genus
        assert set(drawn) <= carried, genus
        draws.append(sorted(drawn))
    assert rows[0] == rows[1]
    assert draws[0] == draws[1]


def test_no_module_keeps_a_cache():
    for info in pkgutil.iter_modules(disklab.__path__):
        module = importlib.import_module(f"disklab.{info.name}")
        cached = [name for name, obj in vars(module).items() if hasattr(obj, "cache_info")]
        assert cached == [], (info.name, cached)


def test_sides():
    # odd tubes on side B, even on side A; vertical disks opposite their tube
    assert Meridian(1).side == SIDE_B
    assert Meridian(2).side == SIDE_A
    assert VerticalDisk(1, (-2,)).side == SIDE_A
    assert VerticalDisk(2, (-2,)).side == SIDE_B
    assert BandSum(2, SELF_PARTNER, (-1,), 1).side == SIDE_A


# -- classification (frozen type tables) -------------------------------------------


F2_TYPE_TABLE = [
    (Meridian(2), "T1"),
    (Meridian(1), "T4"),
    (VerticalDisk(1, (-2,)), "T2"),
    (VerticalDisk(2, (-2,)), "T3"),
    (BandSum(2, SELF_PARTNER, (-2,), 1), "T2"),
    (BandSum(1, SELF_PARTNER, (-2,), 1), "T4"),
    (BandSum(1, VerticalDisk(2, (-2,)), (-2,), 1), "T3"),
]

F3_TYPE_TABLE = [
    (Meridian(3), "T1"),
    (Meridian(1), "T2"),
    (VerticalDisk(2, (-2,)), "T2"),
    (BandSum(1, SELF_PARTNER, (-2,), 1), "T2"),
    (BandSum(1, VerticalDisk(2, (-2,)), (-2,), 1), "T2"),
    (BandSum(3, SELF_PARTNER, (-2,), 1), "T2"),
    (BandSum(3, Meridian(1), (-2,), 1), "T2"),
    (Meridian(2), "T4"),
    (VerticalDisk(1, (-2,)), "T4"),
    (BandSum(2, SELF_PARTNER, (-2,), 1), "T4"),
    (BandSum(2, VerticalDisk(1, (-2,)), (-2,), 1), "T4"),
    (VerticalDisk(3, (-2,)), "T3"),
    (BandSum(2, VerticalDisk(3, (-2,)), (-2,), 1), "T3"),
].copy()


@pytest.mark.parametrize("disk, expected", F2_TYPE_TABLE, ids=lambda x: getattr(x, "key", x))
def test_classify_f2(f2, disk, expected):
    assert classify_type(disk, f2) == expected


@pytest.mark.parametrize("disk, expected", F3_TYPE_TABLE, ids=lambda x: getattr(x, "key", x))
def test_classify_f3(f3, disk, expected):
    assert classify_type(disk, f3) == expected


def test_partition_exactly_one_type(f2, cat2, f3, cat3):
    for surface, catalog in [(f2, cat2), (f3, cat3)]:
        types = [classify_type(d, surface) for d in catalog.disks]
        assert all(t in ("T1", "T2", "T3", "T4") for t in types)
        assert types.count("T1") == 1
        top = Meridian(surface.tubes)
        assert classify_type(top, surface) == "T1"


def test_type_counts_frozen(f2, cat2, f3, cat3):
    from collections import Counter

    assert Counter(classify_type(d, f2) for d in cat2.disks) == {
        "T1": 1, "T2": 22, "T3": 14, "T4": 9,
    }
    assert Counter(classify_type(d, f3) for d in cat3.disks) == {
        "T1": 1, "T2": 43, "T3": 14, "T4": 23,
    }


def test_meets_distinguished(f2):
    assert meets_distinguished(VerticalDisk(2, (-2,)), f2)
    assert meets_distinguished(BandSum(2, SELF_PARTNER, (-2,), 1), f2)
    assert not meets_distinguished(Meridian(1), f2)
    assert not meets_distinguished(VerticalDisk(1, (-2,)), f2)


# -- disjointness -------------------------------------------------------------------


def test_disjoint_coverage_pairs_f2():
    g = VerticalDisk(2, (-2,))
    a = VerticalDisk(1, (-2,))
    pairs = [
        (Meridian(2), Meridian(1)),
        (g, a),
        (g, BandSum(1, g, (-2,), 1)),
        (BandSum(2, SELF_PARTNER, (-2,), 1), Meridian(1)),
        (a, BandSum(2, SELF_PARTNER, (-2,), 1)),
        (BandSum(1, SELF_PARTNER, (-2,), 1), BandSum(1, SELF_PARTNER, (-2,), 2)),
    ]
    for x, y in pairs:
        assert disks_disjoint(x, y, ARCS_G1), (x.key, y.key)


def test_disjoint_coverage_pairs_f3():
    pairs = [
        (Meridian(3), Meridian(1)),
        (VerticalDisk(3, (-2,)), VerticalDisk(1, (-2,))),
        (VerticalDisk(3, (-2,)), BandSum(2, VerticalDisk(3, (-2,)), (-2,), 1)),
        (Meridian(1), Meridian(2)),
        (Meridian(1), VerticalDisk(2, (-2,))),
        (Meridian(2), VerticalDisk(1, (-2,))),
    ]
    for x, y in pairs:
        assert disks_disjoint(x, y, ARCS_G1), (x.key, y.key)


def test_not_disjoint_cases():
    assert not disks_disjoint(VerticalDisk(2, (-2,)), Meridian(2), ARCS_G1)
    assert not disks_disjoint(VerticalDisk(1, (-2,)), Meridian(1), ARCS_G1)
    assert not disks_disjoint(VerticalDisk(2, (-2,)), BandSum(2, SELF_PARTNER, (-2,), 1), ARCS_G1)
    assert not disks_disjoint(Meridian(3), BandSum(3, Meridian(1), (-2,), 1), ARCS_G1)
    # same-region vertical disks with crossing arcs
    assert not disks_disjoint(VerticalDisk(1, (-2, -1)), VerticalDisk(1, (-2, 1)), ARCS_G1)


def test_disjoint_same_region_compatible_arcs():
    # Farey-adjacent slopes give disjoint arcs, hence disjoint vertical disks.
    assert disks_disjoint(VerticalDisk(1, (-2,)), VerticalDisk(1, (-1,)), ARCS_G1)
    assert disks_disjoint(VerticalDisk(1, (-2,)), VerticalDisk(1, (-2, -1)), ARCS_G1)


def test_disjoint_reflexive_and_symmetric(cat2):
    for d in cat2.disks:
        assert disks_disjoint(d, d, ARCS_G1)
    for x, y in itertools.combinations(cat2.disks, 2):
        assert disks_disjoint(x, y, ARCS_G1) == disks_disjoint(y, x, ARCS_G1)


def test_f1_all_vertical_disks_meet_the_meridian():
    for genus in (1, 2):
        surface = build_tubed_surface(genus, 1)
        top = Meridian(1)
        for k in range(1, 5):
            catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=k))
            assert of_variant(catalog, "bandsum") == []
            verticals = of_variant(catalog, "vertical")
            assert verticals, (genus, k)
            for v in verticals:
                assert not disks_disjoint(v, top, memo_verdict(genus)), v.key


# -- projection ----------------------------------------------------------------------


def test_project_disk_valid(f2, f3):
    assert project_disk(Meridian(1), f2) == Meridian(1)
    b = BandSum(1, SELF_PARTNER, (-2,), 1)
    assert project_disk(b, f2) == b
    assert project_disk(VerticalDisk(2, (-2,)), f3) == VerticalDisk(2, (-2,))


def test_project_disk_rejections(f2):
    for d in [
        Meridian(2),                          # T1
        VerticalDisk(2, (-2,)),               # T3
        BandSum(2, SELF_PARTNER, (-2,), 1),   # T2 meeting the top meridian
    ]:
        with pytest.raises(InvalidConfigError):
            project_disk(d, f2)
    with pytest.raises(InvalidConfigError):
        project_disk(Meridian(1), build_tubed_surface(1, 1))


# -- catalogs --------------------------------------------------------------------------


def test_catalog_sizes_frozen(cat2, cat3):
    assert len(cat2.disks) == 46
    assert len(cat3.disks) == 81
    g2 = build_disk_catalog(build_tubed_surface(2, 2), CatalogConfig(arc_bound=3))
    assert len(g2.disks) == 46
    f1 = build_disk_catalog(build_tubed_surface(1, 1), CatalogConfig(arc_bound=3))
    assert len(f1.disks) == 7  # meridian + six vertical disks


def test_catalog_sorted_and_unique(cat2, cat3):
    for cat in (cat2, cat3):
        keys = [d.key for d in cat.disks]
        assert len(set(keys)) == len(keys)
        assert of_variant(cat, "meridian")[0].key == "M(1)"


def test_catalog_contains_expected_families(cat3, f3):
    keys = {d.key for d in cat3.disks}
    assert {"M(1)", "M(2)", "M(3)"} <= keys
    assert "V(1;-2)" in keys and "V(3;-2)" in keys
    assert "B(3;M(1);-2;1)" in keys  # lower same-parity meridian partner
    assert "B(2;V(3;-2);-2;1)" in keys  # same-side vertical partner
    assert "B(1;B(1;self;-2;1);-2;2)" in keys  # depth-2 self partner
    # no opposite-parity meridian partners
    assert not any(k.startswith("B(2;M(") for k in keys)
    assert not any(k.startswith("B(3;M(2)") for k in keys)


def test_catalog_depth_and_copies_knobs(f2):
    shallow = build_disk_catalog(f2, CatalogConfig(arc_bound=3, bandsum_depth=1))
    assert not any(
        d.variant == "bandsum" and isinstance(d.partner, BandSum) for d in shallow.disks
    )
    none = build_disk_catalog(f2, CatalogConfig(arc_bound=3, bandsum_depth=0))
    assert of_variant(none, "bandsum") == []
    single = build_disk_catalog(f2, CatalogConfig(arc_bound=3, copies=(1,)))
    assert all(d.copies == 1 for d in of_variant(single, "bandsum"))


def test_catalog_arc_classes_full_enumeration(cat2):
    # the catalog caps vertical disks at 6 per region but keeps all 13 classes
    assert len(cat2.arcs) == 13
    assert len([d for d in of_variant(cat2, "vertical") if d.region == 1]) == 6


def test_catalog_enumerates_arcs_once(monkeypatch, f3):
    # Feet never enter the arc search, so all regions share one enumeration.
    calls = []
    enumerate_arcs = disks.enumerate_arcs

    def counting(*args, **kwargs):
        calls.append(args)
        return enumerate_arcs(*args, **kwargs)

    monkeypatch.setattr(disks, "enumerate_arcs", counting)
    catalog = build_disk_catalog(f3, CatalogConfig(arc_bound=3))
    assert len(calls) == 1
    assert len(catalog.arcs) == 13
    # disks.json lists the one enumeration under every region.
    per_region = catalog_to_json_obj(catalog)["arc_classes"]
    assert list(per_region) == ["1", "2", "3"]
    assert all(codes == [list(c) for c in catalog.arcs] for codes in per_region.values())


def test_catalog_deterministic(f2):
    a = build_disk_catalog(f2, CatalogConfig(arc_bound=3))
    b = build_disk_catalog(f2, CatalogConfig(arc_bound=3))
    assert a.disks == b.disks
    assert canonical_json(catalog_to_json_obj(a)) == canonical_json(catalog_to_json_obj(b))


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        CatalogConfig(arc_bound=-1)
    with pytest.raises(InvalidConfigError):
        CatalogConfig(arc_bound=3, bandsum_depth=5)
    with pytest.raises(InvalidConfigError):
        CatalogConfig(arc_bound=3, copies=())
    with pytest.raises(InvalidConfigError):
        CatalogConfig(arc_bound=3, copies=(0,))
    with pytest.raises(InvalidConfigError) as exc:
        CatalogConfig(arc_bound=3, copies=(1, 1))
    assert exc.value.field == "copies"
    with pytest.raises(InvalidConfigError):
        CatalogConfig(arc_bound=3, copies=(2, 1, 2))
    with pytest.raises(InvalidConfigError) as exc:
        CatalogConfig(arc_bound=True)
    assert exc.value.field == "arc_bound"
    with pytest.raises(InvalidConfigError) as exc:
        CatalogConfig(arc_bound=3, max_band_arcs="abc")
    assert exc.value.field == "max_band_arcs"


def test_config_sorts_copies():
    # One catalog, one config: the order copies are given in is not kept.
    assert CatalogConfig(arc_bound=3, copies=(2, 1)) == CatalogConfig(arc_bound=3, copies=(1, 2))
    assert CatalogConfig(arc_bound=3, copies=[5, 2, 3]).copies == (2, 3, 5)


# -- JSON -------------------------------------------------------------------------------


def test_config_json_roundtrip():
    cfg = CatalogConfig(arc_bound=3, copies=(1, 2))
    assert config_from_json_obj(config_to_json_obj(cfg)) == cfg
    with pytest.raises(MalformedFileError) as exc:
        config_from_json_obj({"arc_bound": 3})
    assert exc.value.location == "config.bandsum_depth"


def test_catalog_json_roundtrip(cat2):
    obj = catalog_to_json_obj(cat2)
    rebuilt = catalog_from_json_obj(obj)
    assert rebuilt.disks == cat2.disks
    assert canonical_json(catalog_to_json_obj(rebuilt)) == canonical_json(obj)


def test_catalog_json_rejects_a_partner_chain_too_deep_to_rebuild(cat2):
    obj = catalog_to_json_obj(cat2)
    i = next(i for i, d in enumerate(obj["disks"]) if d["variant"] == "bandsum")
    partner = {"variant": "meridian", "index": 1}
    for _ in range(sys.getrecursionlimit()):
        partner = {"variant": "bandsum", "base": 1, "partner": partner, "band": [-2], "copies": 1}
    obj["disks"][i]["partner"] = partner
    with pytest.raises(MalformedFileError) as exc:
        catalog_from_json_obj(obj)
    assert exc.value.location == f"disks.disks[{i}].partner"


def test_catalog_json_key_mismatch_message_is_bounded(cat2):
    obj = catalog_to_json_obj(cat2)
    i = next(i for i, d in enumerate(obj["disks"]) if d["variant"] == "bandsum")
    partner = {"variant": "meridian", "index": 1}
    for _ in range(300):
        partner = {"variant": "bandsum", "base": 1, "partner": partner, "band": [-2], "copies": 1}
    obj["disks"][i]["partner"] = partner
    with pytest.raises(MalformedFileError) as exc:
        catalog_from_json_obj(obj)
    assert exc.value.location == f"disks.disks[{i}].partner"
    assert "expected 'self', got an object" in str(exc.value) and len(str(exc.value).encode()) < 300
    for field in ("key", "side", "type"):
        bad = catalog_to_json_obj(cat2)
        bad["disks"][i][field] = "x" * 10_000
        with pytest.raises(MalformedFileError) as exc:
            catalog_from_json_obj(bad)
        assert exc.value.location == f"disks.disks[{i}].{field}" and len(str(exc.value).encode()) < 300


def test_catalog_json_tamper_detection(cat2):
    obj = catalog_to_json_obj(cat2)

    def expect(mutate, fragment):
        bad = copy.deepcopy(obj)
        mutate(bad)
        with pytest.raises(MalformedFileError) as exc:
            catalog_from_json_obj(bad)
        assert fragment in exc.value.location
        return exc.value.location

    def drop(*keys):
        return lambda entry: [entry.pop(key) for key in keys]

    expect(lambda o: o.__setitem__("kind", "x"), "kind")
    expect(lambda o: o["disks"].pop(0), "disks")
    expect(lambda o: o["disks"][3].__setitem__("type", "T1"), "disks[3]")
    expect(lambda o: o["disks"][0].__setitem__("index", 5), "disks[0]")
    expect(lambda o: o["arc_classes"]["1"].pop(0), "arc_classes")
    # A region the rebuilt catalog does not have is tampering too.
    expect(lambda o: o["arc_classes"].__setitem__("7", [[9, 9]]), "arc_classes")
    # The file must equal what the writer gives, key for key and type for
    # type; each difference is reported at its own path.
    assert obj["disks"][0]["variant"] == "meridian" and obj["disks"][3]["arc"] == [-1]
    assert obj["arc_classes"]["1"][0] == [-2]
    at_the_field = [
        (lambda o: o["disks"][0].__setitem__("variant", "nope"), "disks.disks[0].variant"),
        (lambda o: o["disks"][0].__setitem__("index", 0), "disks.disks[0].index"),
        (lambda o: o["disks"][0].__setitem__("index", True), "disks.disks[0].index"),
        (lambda o: o["disks"][3].__setitem__("arc", "x"), "disks.disks[3].arc"),
        (lambda o: o["disks"][3]["arc"].__setitem__(0, -1.0), "disks.disks[3].arc[0]"),
        (lambda o: o["arc_classes"]["1"][0].__setitem__(0, -2.0), "disks.arc_classes.1[0][0]"),
        (lambda o: o["disks"][3].__setitem__("extra", 1), "disks.disks[3].extra"),
        (lambda o: drop("type")(o["disks"][3]), "disks.disks[3].type"),
        (lambda o: drop("key", "side", "type")(o["disks"][3]), "disks.disks[3].key"),
        (lambda o: o.__setitem__("extra", 1), "disks.extra"),
        (lambda o: o["config"].__setitem__("extra", 1), "disks.config.extra"),
        (lambda o: o["config"].pop("merge_budget"), "disks.config.merge_budget"),
    ]
    for mutate, location in at_the_field:
        assert expect(mutate, location) == location



# -- library checks ------------------------------------------------------------------------


def delete_a_field():
    del Meridian(1).index


# Each case: a call that must raise, and the class and message it raises.
LIBRARY_CHECKS = {
    "flag_cliques": (
        lambda: flag_cliques(complex_of(["a"], []), -1), InvalidConfigError, "dimension bound must be >= 0, got -1"
    ),
    "reduced_homology": (
        lambda: reduced_homology(complex_of(["a"], []), -1), InvalidConfigError, "d_max must be >= 0, got -1"
    ),
    "enumerate_arcs": (lambda: enumerate_arcs(1, -1), InvalidConfigError, "arc bound must be >= 0, got -1"),
    "tube_side": (lambda: tube_side(0), InvalidConfigError, "tube index must be >= 1, got 0"),
    "opposite_side": (lambda: opposite_side("C"), InvalidConfigError, "unknown side 'C'"),
    "record-del": (delete_a_field, AttributeError, "cannot delete field 'index'"),
    "VerticalDisk": (
        lambda: VerticalDisk(0, (-2,)), InvalidConfigError, "region index must be a positive integer, got 0"
    ),
    "BandSum": (
        lambda: BandSum(0, SELF_PARTNER, (-2,), 1), InvalidConfigError, "band-sum base must be a positive integer, got 0"
    ),
    "validate_disk-base": (
        lambda: validate_disk(BandSum(3, SELF_PARTNER, (-2,), 1), build_tubed_surface(1, 2)),
        InvalidConfigError,
        "band-sum base 3 exceeds tube count 2",
    ),
    "validate_disk-non-disk": (
        lambda: validate_disk("M(1)", build_tubed_surface(1, 2)), InvalidConfigError, "not a disk descriptor: 'M(1)'"
    ),
    "disk_to_json_obj": (lambda: disk_to_json_obj("M(1)"), InvalidConfigError, "not a disk descriptor: 'M(1)'"),
}


@pytest.mark.parametrize("case", list(LIBRARY_CHECKS))
def test_library_checks_raise_their_message(case):
    call, error, message = LIBRARY_CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
