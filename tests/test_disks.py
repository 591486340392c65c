"""Tests for disk descriptors, the disjointness calculus, and catalogs."""

import copy
import itertools
import sys

import pytest

from disklab import disks
from disklab.disks import (
    SELF_PARTNER,
    BandSum,
    CatalogConfig,
    DiskCatalog,
    Meridian,
    VerticalDisk,
    build_disk_catalog,
    catalog_from_json_obj,
    catalog_to_json_obj,
    classify_type,
    config_from_json_obj,
    config_to_json_obj,
    disk_from_json_obj,
    disk_regions,
    disk_side,
    disk_to_json_obj,
    disk_tubes,
    disk_variant,
    disks_disjoint,
    disks_disjoint_unvalidated,
    distinguished_disk,
    meets_distinguished,
    validate_disk,
)
from disklab.errors import InvalidConfigError, MalformedFileError
from disklab.flagcomplex import canonical_json
from disklab.surface import SIDE_A, SIDE_B, build_tubed_surface
from oracles import project_disk


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
    assert disk_variant(m) == "meridian"
    assert disk_variant(v) == "vertical"
    assert disk_variant(b) == "bandsum"


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
    assert disk_tubes(Meridian(3)) == frozenset({3})
    assert disk_regions(Meridian(3)) == frozenset()
    assert disk_tubes(VerticalDisk(2, (-2,))) == frozenset({2})
    assert disk_regions(VerticalDisk(2, (-2,))) == frozenset({2})
    b = BandSum(1, VerticalDisk(2, (-2,)), (-2,), 1)
    assert disk_tubes(b) == frozenset({1, 2})
    assert disk_regions(b) == frozenset({1, 2})
    nested = BandSum(3, BandSum(3, SELF_PARTNER, (-1,), 1), (-2,), 2)
    assert disk_tubes(nested) == frozenset({3})


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
        back = disk_from_json_obj(disk_to_json_obj(d))
        assert back == d and hash(back) == hash(d) and back.key == d.key
    with pytest.raises(AttributeError):
        Meridian(1).key = "M(2)"
    with pytest.raises(TypeError):
        Meridian(1, key="M(2)")


def fresh_partner(d: BandSum):
    """The partner with 'self' resolved, built from scratch."""
    return Meridian(d.base) if d.partner == SELF_PARTNER else d.partner


def fresh_tubes(d) -> frozenset:
    """The tube footprint, derived recursively from the descriptor fields."""
    if isinstance(d, Meridian):
        return frozenset({d.index})
    if isinstance(d, VerticalDisk):
        return frozenset({d.region})
    return frozenset({d.base}) | fresh_tubes(fresh_partner(d))


STORED_FIELDS = ("key", "tube_footprint", "resolved_partner")


@pytest.mark.parametrize(("genus", "n"), [(1, 5), (2, 4), (3, 4)])
def test_stored_partner_and_footprint_match_a_fresh_derivation(genus, n):
    catalog = build_disk_catalog(build_tubed_surface(genus, n + 1), CatalogConfig(arc_bound=3))
    partners = 0
    for d in catalog.disks:
        assert d.tube_footprint == fresh_tubes(d) == disk_tubes(d)
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
        assert "key" in stored and "tube_footprint" in stored
        for name in stored:
            with pytest.raises(TypeError):
                type(d)(*values, **{name: getattr(d, name)})
    assert partners > 0
    with pytest.raises(AttributeError):
        BandSum(1, SELF_PARTNER, (-1,), 1).tube_footprint = frozenset({2})
    with pytest.raises(TypeError):
        VerticalDisk(1, (-1,), tube_footprint=frozenset({2}))


@pytest.mark.parametrize(("genus", "n"), [(1, 5), (2, 4), (3, 4)])
def test_footprint_rule_agrees_with_the_calculus(genus, n):
    """Disjoint tube and region footprints imply disjoint disks, on every catalog pair."""
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    for d in catalog.disks:
        assert disk_regions(d) <= disk_tubes(d)
    skipped = 0
    for a, b in itertools.combinations(catalog.disks, 2):
        if disk_tubes(a).isdisjoint(disk_tubes(b)) and disk_regions(a).isdisjoint(disk_regions(b)):
            skipped += 1
            assert disks_disjoint_unvalidated(a, b, surface), (a.key, b.key)
    assert skipped > 0


@pytest.mark.parametrize(("genus", "n"), [(1, 4), (2, 4)])
def test_copies_never_change_a_verdict_but_by_key(genus, n):
    """A band sum's copy count reaches the calculus only through key equality.

    The pair pass relies on this to decide disjointness once per disk shape.
    """
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    checked = 0
    for d in catalog.band_sums():
        for copies in {1, 2, d.copies + 2} - {d.copies}:
            twin = BandSum(d.base, d.partner, d.band, copies)
            validate_disk(twin, surface)
            for e in catalog.disks:
                if e.key in (d.key, twin.key):
                    continue
                verdict = disks_disjoint_unvalidated(d, e, surface)
                assert disks_disjoint_unvalidated(twin, e, surface) == verdict, (twin.key, e.key)
                assert disks_disjoint_unvalidated(e, twin, surface) == verdict, (e.key, twin.key)
                checked += 1
            # Any two distinct copies of one shape: the same verdict as each other.
            third = BandSum(d.base, d.partner, d.band, copies + d.copies + 2)
            assert disks_disjoint_unvalidated(d, twin, surface) == disks_disjoint_unvalidated(
                twin, third, surface
            ), twin.key
    assert checked > 0


def test_sides():
    # odd tubes on side B, even on side A; vertical disks opposite their tube
    assert disk_side(Meridian(1)) == SIDE_B
    assert disk_side(Meridian(2)) == SIDE_A
    assert disk_side(VerticalDisk(1, (-2,))) == SIDE_A
    assert disk_side(VerticalDisk(2, (-2,))) == SIDE_B
    assert disk_side(BandSum(2, SELF_PARTNER, (-1,), 1)) == SIDE_A


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
        top = distinguished_disk(surface)
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


def test_disjoint_coverage_pairs_f2(f2):
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
        assert disks_disjoint(x, y, f2), (x.key, y.key)


def test_disjoint_coverage_pairs_f3(f3):
    pairs = [
        (Meridian(3), Meridian(1)),
        (VerticalDisk(3, (-2,)), VerticalDisk(1, (-2,))),
        (VerticalDisk(3, (-2,)), BandSum(2, VerticalDisk(3, (-2,)), (-2,), 1)),
        (Meridian(1), Meridian(2)),
        (Meridian(1), VerticalDisk(2, (-2,))),
        (Meridian(2), VerticalDisk(1, (-2,))),
    ]
    for x, y in pairs:
        assert disks_disjoint(x, y, f3), (x.key, y.key)


def test_not_disjoint_cases(f2, f3):
    assert not disks_disjoint(VerticalDisk(2, (-2,)), Meridian(2), f2)
    assert not disks_disjoint(VerticalDisk(1, (-2,)), Meridian(1), f2)
    assert not disks_disjoint(VerticalDisk(2, (-2,)), BandSum(2, SELF_PARTNER, (-2,), 1), f2)
    assert not disks_disjoint(Meridian(3), BandSum(3, Meridian(1), (-2,), 1), f3)
    # same-region vertical disks with crossing arcs
    assert not disks_disjoint(VerticalDisk(1, (-2, -1)), VerticalDisk(1, (-2, 1)), f2)


def test_disjoint_same_region_compatible_arcs(f2):
    # Farey-adjacent slopes give disjoint arcs, hence disjoint vertical disks.
    assert disks_disjoint(VerticalDisk(1, (-2,)), VerticalDisk(1, (-1,)), f2)
    assert disks_disjoint(VerticalDisk(1, (-2,)), VerticalDisk(1, (-2, -1)), f2)


def test_disjoint_reflexive_and_symmetric(f2, cat2):
    for d in cat2.disks:
        assert disks_disjoint(d, d, f2)
    for x, y in itertools.combinations(cat2.disks, 2):
        assert disks_disjoint(x, y, f2) == disks_disjoint(y, x, f2)


def test_f1_all_vertical_disks_meet_the_meridian():
    for genus in (1, 2):
        surface = build_tubed_surface(genus, 1)
        top = Meridian(1)
        for k in range(1, 5):
            catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=k))
            assert catalog.band_sums() == []
            verticals = catalog.vertical_disks()
            assert verticals, (genus, k)
            for v in verticals:
                assert not disks_disjoint(v, top, surface), v.key


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
        keys = cat.keys()
        assert len(set(keys)) == len(keys)
        assert cat.meridians()[0].key == "M(1)"


def test_catalog_contains_expected_families(cat3, f3):
    keys = set(cat3.keys())
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
        disk_variant(d) == "bandsum" and isinstance(d.partner, BandSum) for d in shallow.disks
    )
    none = build_disk_catalog(f2, CatalogConfig(arc_bound=3, bandsum_depth=0))
    assert none.band_sums() == []
    single = build_disk_catalog(f2, CatalogConfig(arc_bound=3, copies=(1,)))
    assert all(d.copies == 1 for d in single.band_sums())


def test_catalog_arc_classes_full_enumeration(cat2):
    # the catalog caps vertical disks at 6 per region but keeps all 13 classes
    assert len(cat2.arc_classes[1]) == 13
    assert len([d for d in cat2.vertical_disks() if d.region == 1]) == 6


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
    assert catalog.arc_classes[1] == catalog.arc_classes[2] == catalog.arc_classes[3]
    assert len(catalog.arc_classes[2]) == 13


def test_catalog_deterministic(f2):
    a = build_disk_catalog(f2, CatalogConfig(arc_bound=3))
    b = build_disk_catalog(f2, CatalogConfig(arc_bound=3))
    assert a.keys() == b.keys()
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
        CatalogConfig(arc_bound=True)
    assert exc.value.field == "arc_bound"
    with pytest.raises(InvalidConfigError) as exc:
        CatalogConfig(arc_bound=3, max_arc_classes="abc")
    assert exc.value.field == "max_arc_classes"


# -- JSON -------------------------------------------------------------------------------


def test_disk_json_roundtrip():
    disks = [
        Meridian(2),
        VerticalDisk(1, (-2, 1)),
        BandSum(3, Meridian(1), (-1,), 2),
        BandSum(1, BandSum(1, SELF_PARTNER, (-2,), 1), (-1,), 1),
    ]
    for d in disks:
        assert disk_from_json_obj(disk_to_json_obj(d)) == d


def test_disk_json_rejections():
    with pytest.raises(MalformedFileError):
        disk_from_json_obj({"variant": "nope"})
    with pytest.raises(MalformedFileError):
        disk_from_json_obj({"variant": "meridian", "index": 0})
    with pytest.raises(MalformedFileError):
        disk_from_json_obj({"variant": "vertical", "region": 1, "arc": "x"})


def test_config_json_roundtrip():
    cfg = CatalogConfig(arc_bound=3, copies=(1, 2))
    assert config_from_json_obj(config_to_json_obj(cfg)) == cfg
    with pytest.raises(MalformedFileError):
        config_from_json_obj({"arc_bound": 3})
    without_key = config_to_json_obj(cfg)
    del without_key["merge_budget"]
    with pytest.raises(MalformedFileError) as exc:
        config_from_json_obj(without_key)
    assert exc.value.location == "config.merge_budget"


def test_catalog_json_roundtrip(cat2):
    obj = catalog_to_json_obj(cat2)
    rebuilt = catalog_from_json_obj(obj)
    assert rebuilt.keys() == cat2.keys()
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
    assert exc.value.location == f"disks.disks[{i}]"


def test_catalog_json_key_mismatch_message_is_bounded(cat2):
    obj = catalog_to_json_obj(cat2)
    i = next(i for i, d in enumerate(obj["disks"]) if d["variant"] == "bandsum")
    partner = {"variant": "meridian", "index": 1}
    for _ in range(300):
        partner = {"variant": "bandsum", "base": 1, "partner": partner, "band": [-2], "copies": 1}
    obj["disks"][i]["partner"] = partner
    with pytest.raises(MalformedFileError) as exc:
        catalog_from_json_obj(obj)
    assert exc.value.location == f"disks.disks[{i}]"
    assert "expected disk" in str(exc.value) and len(str(exc.value).encode()) < 300
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

    expect(lambda o: o.__setitem__("kind", "x"), "kind")
    expect(lambda o: o["disks"].pop(0), "disks")
    expect(lambda o: o["disks"][3].__setitem__("type", "T1"), "disks[3]")
    expect(lambda o: o["disks"][0].__setitem__("index", 5), "disks[0]")
    expect(lambda o: o["arc_classes"]["1"].pop(0), "arc_classes")
