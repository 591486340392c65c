"""Tests for sphere realization, the retraction engine, and certification."""

import importlib
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

import disklab.disks as disks_module
import disklab.flagcomplex as flagcomplex_module
import disklab.homology as homology_module
import disklab.retraction as retraction_module
import disklab.surface as surface_module
from disklab.disks import (
    SELF_PARTNER,
    BandSum,
    CatalogConfig,
    Meridian,
    VerticalDisk,
    build_disk_catalog,
    disjointness_rows,
    disks_disjoint,
    type_at,
    validate_disk,
)
from disklab.errors import InvalidConfigError, ResourceCapError
from disklab.flagcomplex import FlagComplex, canonical_json, flag_cliques
from disklab.retraction import (
    CASE_OF_TYPES,
    RetractionEngine,
    build_suspension_sphere,
    certify_catalog,
    certify_minimality,
    render_report,
    verify_sphere,
    vertex_name,
)
from disklab.surface import build_tubed_surface, tube_side
from oracles import (
    VARIANT_RANK,
    LevelRecursionEngine,
    VertexMap,
    catalog_complex,
    certify_homology_retraction,
    check_retraction,
    check_simplicial,
    classify_type,
    disjoint_pairs,
    disk_footprint,
    disk_side,
    disk_sort_key,
    disk_variant,
    has_edge,
    meets_distinguished,
    memo_verdict,
    of_variant,
    outermost_arcs,
    permutation_sign,
    scan_pairs_by_loop,
    sphere_complex,
    surgery_candidates,
    verify_claim_cases,
)


def keys_of(catalog, sphere):
    """The disk keys of the sphere's vertices ``D_0, E_0, D_1, ...``."""
    return [catalog.disks[k].key for k in sphere]


def images_of(engine):
    """The engine's image of each catalog disk, in catalog order."""
    return [engine.image(d) for d in engine.catalog.disks]


def types_of(catalog):
    """Each catalog disk's type at the top tube, in catalog order, as certify lists them."""
    return [type_at(d, catalog.surface.tubes) for d in catalog.disks]


def scan(catalog, images, rows, types=None):
    """Certify's pair pass on the catalog's disks, with the given images and (by default, real) types."""
    types = types_of(catalog) if types is None else types
    return retraction_module._scan_pairs(catalog.disks, types, images, rows)


def top_tube(d) -> int:
    """The highest tube of the disk's footprint."""
    return d.footprint.bit_length() - 1


@pytest.fixture(scope="module")
def setup_f2():
    surface = build_tubed_surface(1, 2)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(catalog)
    engine = RetractionEngine(catalog)
    return surface, catalog, sphere, engine


@pytest.fixture(scope="module")
def setup_f3():
    surface = build_tubed_surface(1, 3)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(catalog)
    engine = RetractionEngine(catalog)
    return surface, catalog, sphere, engine


# -- sphere ------------------------------------------------------------------------


def test_sphere_pairs_frozen(setup_f3):
    _, catalog, sphere, _ = setup_f3
    keys = keys_of(catalog, sphere)
    assert keys[::2] == ["V(1;-2)", "V(2;-2)", "V(3;-2)"]
    assert keys[1::2] == ["M(1)", "M(2)", "M(3)"]
    assert len(sphere) == 6


def test_sphere_pairs_genus2():
    surface = build_tubed_surface(2, 2)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    assert keys_of(catalog, build_suspension_sphere(catalog))[::2] == ["V(1;-4)", "V(2;-4)"]


def test_vertex_ints_order_by_pair_then_letter():
    # Vertex v is pair v >> 1 with letter "DE"[v & 1], and v ^ 1 is its antipode.
    assert [vertex_name(v) for v in range(6)] == ["D0", "E0", "D1", "E1", "D2", "E2"]
    assert [vertex_name(v ^ 1) for v in range(4)] == ["E0", "D0", "E1", "D1"]
    assert vertex_name(25) == "E12"


def test_verify_sphere_invariants(setup_f3):
    surface, catalog, sphere, _ = setup_f3
    inv = verify_sphere(sphere, catalog, disjointness_rows(catalog.disks, surface))
    assert inv["pairs"] == 3
    assert inv["edges_verified"] == 12  # 4 edges per pair of antipodal pairs
    assert inv["antipodal_pairs_intersect"] == 3
    keys = keys_of(catalog, sphere)
    assert inv["sub_sphere_chain"] == [keys[:2], keys[:4], keys]


def test_sphere_complex_is_octahedron(setup_f3):
    _, catalog, sphere, _ = setup_f3
    fc = sphere_complex(sphere, catalog)
    keys = keys_of(catalog, sphere)
    assert fc.vertex_count() == 6
    assert fc.edge_count() == 12
    for v in range(0, 6, 2):
        assert not has_edge(fc, keys[v], keys[v + 1])


def test_sphere_needs_vertical_disks():
    surface = build_tubed_surface(1, 2)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=0))
    with pytest.raises(InvalidConfigError) as exc:
        build_suspension_sphere(catalog)
    assert "D0" in str(exc.value) or "region 1" in str(exc.value)


# -- retraction images (frozen tables) -------------------------------------------------


F2_IMAGE_TABLE = [
    (Meridian(1), "E0"),
    (Meridian(2), "E1"),
    (VerticalDisk(1, (-2,)), "D0"),
    (VerticalDisk(1, (-1,)), "D0"),
    (VerticalDisk(2, (-2,)), "D1"),
    (VerticalDisk(2, (-2, -1)), "D1"),
    (BandSum(2, SELF_PARTNER, (-2,), 1), "E1"),
    (BandSum(2, SELF_PARTNER, (-2,), 2), "E1"),
    (BandSum(1, SELF_PARTNER, (-2,), 1), "E0"),
    (BandSum(1, VerticalDisk(2, (-2,)), (-2,), 1), "D1"),
    (BandSum(2, VerticalDisk(1, (-2,)), (-2,), 2), "D0"),
    (BandSum(2, BandSum(2, SELF_PARTNER, (-2,), 1), (-2,), 2), "E1"),
]

F3_IMAGE_TABLE = [
    (Meridian(1), "E0"),
    (Meridian(2), "E1"),
    (Meridian(3), "E2"),
    (VerticalDisk(1, (-2,)), "D0"),
    (VerticalDisk(2, (-2,)), "D1"),
    (VerticalDisk(3, (-2,)), "D2"),
    (BandSum(3, Meridian(1), (-2,), 1), "E0"),
    (BandSum(3, SELF_PARTNER, (-2,), 1), "E2"),
    (BandSum(3, SELF_PARTNER, (-2,), 2), "E2"),
    (BandSum(3, VerticalDisk(2, (-2,)), (-2,), 1), "D1"),
    (BandSum(3, VerticalDisk(2, (-2,)), (-2,), 2), "D1"),
    (BandSum(1, SELF_PARTNER, (-2,), 1), "E0"),
    (BandSum(1, VerticalDisk(2, (-2,)), (-2,), 1), "D1"),
    (BandSum(2, SELF_PARTNER, (-2,), 1), "E1"),
    (BandSum(2, VerticalDisk(1, (-2,)), (-2,), 1), "D0"),
    (BandSum(2, VerticalDisk(3, (-2,)), (-2,), 1), "D2"),
    (BandSum(3, BandSum(3, SELF_PARTNER, (-2,), 1), (-2,), 2), "E2"),
]


@pytest.mark.parametrize("disk, expected", F2_IMAGE_TABLE, ids=lambda x: getattr(x, "key", x))
def test_images_f2(setup_f2, disk, expected):
    _, _, _, engine = setup_f2
    assert vertex_name(engine.image(disk)) == expected


@pytest.mark.parametrize("disk, expected", F3_IMAGE_TABLE, ids=lambda x: getattr(x, "key", x))
def test_images_f3(setup_f3, disk, expected):
    _, _, _, engine = setup_f3
    assert vertex_name(engine.image(disk)) == expected


def test_sphere_vertices_are_fixed(setup_f3):
    _, catalog, sphere, engine = setup_f3
    assert [engine.image(catalog.disks[k]) for k in sphere] == list(range(6))


def test_base_level_is_total():
    catalog = build_disk_catalog(build_tubed_surface(1, 1), CatalogConfig(arc_bound=3))
    engine = RetractionEngine(catalog)
    assert vertex_name(engine.image(Meridian(1))) == "E0"
    assert vertex_name(engine.image(VerticalDisk(1, (-1,)))) == "D0"
    # band-sum descriptors projected down from higher levels still get images
    assert vertex_name(engine.image(BandSum(1, SELF_PARTNER, (-2,), 2))) == "E0"


def test_same_region_vertical_disks_share_images(setup_f3):
    _, catalog, _, engine = setup_f3
    by_region = {}
    for v in of_variant(catalog, "vertical"):
        by_region.setdefault(v.region, set()).add(engine.image(v))
    assert all(len(images) == 1 for images in by_region.values())


# -- surgery -----------------------------------------------------------------------


def test_outermost_arcs():
    assert outermost_arcs(BandSum(3, SELF_PARTNER, (-2,), 1), 3) == (0,)
    assert outermost_arcs(BandSum(3, SELF_PARTNER, (-2,), 2), 3) == (0, 1)
    assert outermost_arcs(BandSum(3, Meridian(1), (-2,), 5), 3) == (0, 4)


def test_outermost_arcs_rejections():
    for d in [
        Meridian(3),                      # T1: is the top meridian
        Meridian(2),                      # T4: opposite side
        VerticalDisk(3, (-2,)),           # T3: meets the meridian from the other side
        BandSum(1, SELF_PARTNER, (-2,), 1),  # T2 but disjoint from the top meridian
    ]:
        with pytest.raises(InvalidConfigError):
            outermost_arcs(d, 3)


def test_surgery_candidates():
    d1 = BandSum(3, Meridian(1), (-2,), 1)
    assert [c.key for c in surgery_candidates(d1, 0)] == ["M(1)"]
    d2 = BandSum(3, Meridian(1), (-2,), 2)
    assert [c.key for c in surgery_candidates(d2, 0)] == ["M(1)", "B(3;M(1);-2;1)"]
    assert [c.key for c in surgery_candidates(d2, 1)] == ["M(1)", "B(3;M(1);-2;1)"]
    with pytest.raises(InvalidConfigError):
        surgery_candidates(d2, 5)


def test_surgery_outcomes_recorded(setup_f3, monkeypatch):
    """Each surgery the per-arc recursion makes, and the engine's one record per band."""
    _, catalog, _, _ = setup_f3
    engine, oracle = RetractionEngine(catalog), LevelRecursionEngine(catalog)
    surgered = {}
    surgery_image = LevelRecursionEngine._surgery_image

    def recording(self, d, level):
        surgered[(level, d.key)] = d
        return surgery_image(self, d, level)

    monkeypatch.setattr(LevelRecursionEngine, "_surgery_image", recording)
    for d in catalog.disks:
        oracle.image(d)
        engine.image(d)
    surgeries, multi = oracle.surgery_counts()
    assert surgeries == len(surgered) > 0, "the catalog contains disks requiring surgery"
    assert multi == sum(d.copies >= 2 for d in surgered.values()) > 0, "the catalog contains multi-copy band sums"
    # Each disk is surgered once, at its highest tube.  The recursion
    # surgers each band on every copy count up to its largest, remainders
    # included, and the engine keeps that largest count alone.
    assert all(level == top_tube(d) for (level, _), d in surgered.items())
    largest = {}
    for d in surgered.values():
        band = (d.base, d.partner, d.band)
        largest[band] = max(largest.get(band, 0), d.copies)
    assert {(d.base, d.partner, d.band, d.copies) for d in surgered.values()} == {
        (*band, c) for band, copies in largest.items() for c in range(1, copies + 1)
    }
    assert engine._surgeries == largest
    assert engine.surgery_counts() == (surgeries, multi)
    for (level, key), d in surgered.items():
        # Every outermost arc's minimal candidate image is the recorded one,
        # and that is the resolved partner's: the copy-induction lemma.
        arcs = outermost_arcs(d, level)
        chosen = {min(oracle._image(c, level) for c in surgery_candidates(d, arc)) for arc in arcs}
        assert chosen == {oracle._images[(level, key)]} == {engine.image(d.resolved_partner)}, key


def test_surgery_rejects_a_band_sum_off_the_top_base():
    # Valid, and T2 at level 3 through its partner's footprint, but its band
    # lies in region 1: it does not cross M(3) in a stack of band arcs.
    catalog = build_disk_catalog(build_tubed_surface(1, 3), CatalogConfig(arc_bound=3))
    d = BandSum(1, BandSum(3, SELF_PARTNER, (-2,), 1), (-2,), 1)
    validate_disk(d, catalog.surface)
    assert (top_tube(d), type_at(d, 3), d.base) == (3, "T2", 1)
    for engine in (RetractionEngine(catalog), LevelRecursionEngine(catalog)):
        with pytest.raises(InvalidConfigError) as exc:
            engine.image(d)
        assert str(exc.value).endswith("outermost surgery is undefined")


def test_minimal_pair_index_rule(setup_f3):
    # Surgery on a band sum with a lower-meridian partner lands in the
    # smallest sub-sphere containing a candidate image: E0, not E2.
    _, _, _, engine = setup_f3
    assert vertex_name(engine.image(BandSum(3, Meridian(1), (-2,), 2))) == "E0"


@pytest.mark.parametrize("tubes", [1, 3])
def test_image_still_validates_its_argument(tubes):
    # With one tube the recursion classifies nothing, so only image() can reject.
    surface = build_tubed_surface(1, tubes)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    engine = RetractionEngine(catalog)
    invalid = (
        Meridian(tubes + 1),  # tube index beyond the surface
        VerticalDisk(tubes + 1, (-2,)),
        VerticalDisk(1, (-5,)),  # arc letter beyond genus 1
        BandSum(1, Meridian(2), (-2,), 1),  # partner on the opposite side
    )
    for bad in invalid:
        with pytest.raises(InvalidConfigError):
            engine.image(bad)


def test_certify_validates_each_disk_only_at_the_entries(monkeypatch):
    # validate_disk runs once per catalog disk when the catalog is built
    # (recursing through its partners).  certify validates nothing again:
    # image() skips the catalog's own keys, and the sphere checks, which read
    # the rows, the recursion, its type and top-meridian tests and the pair
    # pass never validate.
    surface = build_tubed_surface(1, 6)
    calls = []
    validate = disks_module.validate_disk

    def counting(d, s):
        calls.append(d.key)
        return validate(d, s)

    monkeypatch.setattr(disks_module, "validate_disk", counting)
    monkeypatch.setattr(retraction_module, "validate_disk", counting)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))

    def chain(d):  # descriptors that validate_disk visits: the disk, then its partners
        return 1 + (chain(d.resolved_partner) if isinstance(d, BandSum) else 0)

    assert len(calls) == sum(chain(d) for d in catalog.disks) == 498
    calls.clear()
    assert certify_catalog(catalog)["passed"]
    assert calls == []


@pytest.mark.parametrize("genus, tubes", [(1, 6), (2, 4)])
def test_every_disk_the_recursion_reaches_is_valid_at_its_level(genus, tubes, monkeypatch):
    """Every disk the per-arc recursion reaches is valid on the surface with its highest tube's count of tubes.

    The engine walks a subset of those disks: no remainder band sum.
    """
    surface = build_tubed_surface(genus, tubes)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    engine, oracle = RetractionEngine(catalog), LevelRecursionEngine(catalog)
    reached = {}
    recurse = LevelRecursionEngine._image

    def recording(self, d, level):
        reached[d.key] = d
        return recurse(self, d, level)

    monkeypatch.setattr(LevelRecursionEngine, "_image", recording)
    for d in catalog.disks:
        oracle.image(d)
        engine.image(d)
    walked = {x.key for d in catalog.disks for x in walk(d, oracle)}
    assert {key for _, key in oracle._images} == set(reached) >= walked
    assert any(top_tube(d) < tubes for d in reached.values())
    for level, key in oracle._surgeries:
        d = reached[key]
        assert level == top_tube(d), key
        for arc in outermost_arcs(d, level):
            # A surgery candidate's highest tube is at most its parent's.
            assert all(top_tube(c) <= level for c in surgery_candidates(d, arc)), key
    for d in reached.values():
        validate_disk(d, build_tubed_surface(genus, top_tube(d)))


def test_claim_cases_f2(setup_f2):
    _, _, _, engine = setup_f2
    claims = verify_claim_cases(engine)
    assert claims["passed"]
    assert claims["violations"] == []
    assert claims["pairs_checked"] == 465
    assert claims["per_case"] == {"1": 15, "2": 122, "3": 82, "4": 72, "5": 168, "6": 6}


def test_claim_cases_f3(setup_f3):
    _, _, _, engine = setup_f3
    claims = verify_claim_cases(engine)
    assert claims["passed"]
    assert claims["pairs_checked"] == 1909
    assert claims["per_case"] == {"1": 46, "2": 492, "3": 82, "4": 385, "5": 730, "6": 174}


@pytest.mark.parametrize(("genus", "n"), [(1, 5), (2, 4), (3, 4), (1, 12)])
def test_pair_scan_matches_the_calculus_on_every_pair(genus, n):
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    engine = RetractionEngine(catalog)
    rows = disjointness_rows(catalog.disks, surface)
    arcs_ok = memo_verdict(genus)
    expected = [(a, b) for a, b in combinations(catalog.disks, 2) if disks_disjoint(a, b, arcs_ok)]
    assert disjoint_pairs(catalog, rows) == expected
    assert scan(catalog, images_of(engine), rows)["pairs_checked"] == len(expected)


def per_pair_claims(engine, image):
    """The claim tally as it was first written: two images per disjoint pair."""
    surface, catalog, m = engine.surface, engine.catalog, engine.surface.tubes
    per_case, violations, checked = Counter(), [], 0
    arcs_ok = memo_verdict(surface.genus_base)
    for a, b in combinations(catalog.disks, 2):
        if not disks_disjoint(a, b, arcs_ok):
            continue
        checked += 1
        ta, tb = sorted((type_at(a, m), type_at(b, m)))
        case = CASE_OF_TYPES[(ta, tb)]
        per_case[case] += 1
        xa, xb = image(a), image(b)
        if xa ^ 1 == xb:
            violations.append(
                {"case": case, "disks": [a.key, b.key], "types": [ta, tb], "images": [vertex_name(xa), vertex_name(xb)]}
            )
    return {
        "pairs_checked": checked,
        "per_case": {str(c): per_case.get(c, 0) for c in range(1, 7)},
        "violations": violations,
        "passed": not violations,
    }


def test_single_pass_tally_matches_per_pair_images():
    cert = certify_minimality(1, 4, CatalogConfig(arc_bound=3))
    surface = build_tubed_surface(1, 5)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    engine = RetractionEngine(catalog)
    expected = per_pair_claims(engine, engine.image)
    assert expected["pairs_checked"] > 0
    assert cert["claims"] == expected
    assert verify_claim_cases(engine) == expected
    # Rigged images that put many disjoint pairs on antipodal vertices.
    rigged = {d.key: 2 * (i % 3) + i % 2 for i, d in enumerate(catalog.disks)}
    claims = scan(catalog, list(rigged.values()), disjointness_rows(catalog.disks, surface))
    expected = per_pair_claims(engine, lambda d: rigged[d.key])
    assert len(expected["violations"]) > 0
    assert claims == expected


@pytest.mark.parametrize("n", [0, 2, 4])
def test_provenance_matches_the_type_rules(n):
    """Certify's provenance, read off the disks' top-tube types, equals the per-disk type rules."""
    cert = certify_minimality(1, n, CatalogConfig(arc_bound=3))
    surface = build_tubed_surface(1, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    provenance = dict.fromkeys(("top_meridian", "top_vertical", "projected", "surgered"), 0)
    for d in catalog.disks:
        t = classify_type(d, surface)
        if t == "T1":
            provenance["top_meridian"] += 1
        elif t == "T3":
            provenance["top_vertical"] += 1
        elif t == "T2" and meets_distinguished(d, surface):
            provenance["surgered"] += 1
        else:
            provenance["projected"] += 1
    assert cert["retraction"]["provenance"] == provenance


def test_case_table_is_total():
    types = ["T1", "T2", "T3", "T4"]
    covered = set(CASE_OF_TYPES)
    # every type pair except the impossible ones has a case
    impossible = {("T1", "T1"), ("T1", "T3")}
    for i, a in enumerate(types):
        for b in types[i:]:
            pair = (a, b)
            assert pair in covered or pair in impossible
    assert set(CASE_OF_TYPES.values()) == {1, 2, 3, 4, 5, 6}


# -- certification -----------------------------------------------------------------


@pytest.mark.parametrize("genus, n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_certify_passes(genus, n):
    cert = certify_minimality(genus, n, CatalogConfig(arc_bound=3))
    assert cert["passed"]
    assert cert["first_violation"] is None
    assert cert["claims"]["violations"] == []
    assert all(cert["claims"]["per_case"][str(c)] >= 1 for c in range(1, 7))
    assert cert["retraction"]["check"]["ok"]
    assert cert["homology"]["passed"]
    assert cert["homology"]["dimension"] == n
    assert cert["homology"]["composite_is_identity"]
    wd = cert["retraction"]["well_definedness"]
    assert wd["disagreements"] == 0
    assert wd["agreements"] == wd["multi_arc_surgeries"] >= 1
    assert cert["bounds"]["topological_index_upper"] == n + 1
    if n >= 2:
        assert cert["witness"] is not None
    else:
        assert cert["witness"] is None


def test_certify_witness_pair_sides():
    cert = certify_minimality(1, 2, CatalogConfig(arc_bound=3))
    w = cert["witness"]
    assert w == {"v_disk": "M(2)", "w_disk": "M(1)"}


def test_certify_deterministic():
    a = certify_minimality(1, 1, CatalogConfig(arc_bound=3))
    b = certify_minimality(1, 1, CatalogConfig(arc_bound=3))
    assert canonical_json(a) == canonical_json(b)


def test_certify_index_zero():
    cert = certify_minimality(1, 0, CatalogConfig(arc_bound=3))
    assert cert["passed"]
    assert cert["sphere"]["pairs"][0]["d_key"] == "V(1;-2)"
    assert cert["homology"]["dimension"] == 0


def test_certify_rejects_bad_index():
    with pytest.raises(InvalidConfigError):
        certify_minimality(1, -1, CatalogConfig(arc_bound=3))


def test_certificate_homology_profile():
    cert = certify_minimality(1, 2, CatalogConfig(arc_bound=3))
    profile = {entry["dimension"]: entry for entry in cert["homology"]["profile"]}
    assert profile[2]["betti"] == 1 and profile[2]["torsion"] == []
    assert profile[0]["betti"] == 0 and profile[1]["betti"] == 0


# -- the homology section in closed form ----------------------------------------------


def raw_join_cycle(keys) -> dict:
    """z = (D_0 - E_0) * ... * (D_n - E_n) on sorted key tuples, before any global sign."""
    z = {}
    for picks in product((0, 1), repeat=len(keys) // 2):
        picked = [keys[2 * i + p] for i, p in enumerate(picks)]
        z[tuple(sorted(picked))] = (-1) ** sum(picks) * permutation_sign(picked)
    return z


@pytest.mark.parametrize("genus, n_max", [(1, 9), (2, 7), (3, 7)])
def test_join_cycle_is_the_eliminated_generator(genus, n_max):
    global_signs = {}
    for n in range(n_max + 1):
        surface = build_tubed_surface(genus, n + 1)
        catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
        sphere = build_suspension_sphere(catalog)
        keys = keys_of(catalog, sphere)
        doc = retraction_module._homology_document(keys)
        # Entry for entry, the document of elimination and sign propagation
        # (``free_generator``) on the sphere as a flag complex.
        assert doc == certify_homology_retraction({key: key for key in keys}, sphere_complex(sphere, catalog), n)
        cycle = {tuple(facet): c for facet, c in doc["generating_cycle"]}
        # The recorded cycle is the join cycle up to one global sign.
        raw = raw_join_cycle(keys)
        global_signs[n] = raw[max(raw)]
        assert cycle == {facet: global_signs[n] * c for facet, c in raw.items()}
        # The boundary cancels on every ridge (in reduced chains, on () too).
        boundary = Counter()
        for facet, c in cycle.items():
            for i in range(len(facet)):
                boundary[facet[:i] + facet[i + 1 :]] += (-1) ** i * c
        assert len(cycle) == 2 ** (n + 1) and not any(boundary.values())
    if genus == 1:
        # The global sign is not always +1.
        assert global_signs[9] == -1


@pytest.mark.parametrize("n", range(7))
def test_certify_simplex_cap_matches_clique_enumeration(n):
    surface = build_tubed_surface(1, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(catalog)
    thresholds = {comb(n + 1, k + 1) * 2 ** (k + 1) for k in range(n + 1)}
    for cap in sorted(thresholds | {t - 1 for t in thresholds}):
        expected = None
        try:
            flag_cliques(sphere_complex(sphere, catalog), n + 1, cap)
        except ResourceCapError as exc:
            expected = str(exc)
        try:
            cert = certify_catalog(catalog, max_simplices=cap)
        except ResourceCapError as exc:
            assert str(exc) == expected, cap
        else:
            assert expected is None and cert["passed"], cap


def test_catalog_complex_edges_match_disjointness(setup_f2):
    surface, catalog, _, engine = setup_f2
    arcs_ok = memo_verdict(surface.genus_base)
    pairs = [(a, b) for a, b in combinations(catalog.disks, 2) if disks_disjoint(a, b, arcs_ok)]
    fc = catalog_complex(catalog, pairs)
    assert fc.vertex_count() == len(catalog.disks)
    assert fc.edge_count() == len(pairs)


def test_render_report():
    cert = certify_minimality(1, 2, CatalogConfig(arc_bound=3))
    report = render_report(cert)
    assert "Result: PASSED" in report
    assert "index at most 3" in report
    assert "D0 = V(1;-2)   E0 = M(1)" in report
    assert "Caveats:" in report
    assert "Disjoint witness pair" in report
    # deterministic rendering
    assert report == render_report(certify_minimality(1, 2, CatalogConfig(arc_bound=3)))


# -- the certify path: one simpliciality check, vertex-level retraction check -------


@pytest.fixture(scope="module")
def setup_g1n4():
    """The g1 n4 pipeline, plus every certified-disjoint pair (the oracle's edges)."""
    surface = build_tubed_surface(1, 5)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(catalog)
    engine = RetractionEngine(catalog)
    pairs = disjoint_pairs(catalog, disjointness_rows(catalog.disks, surface))
    return surface, catalog, sphere, engine, pairs


def oracle_report(cert, catalog, pairs, sphere):
    """``check_retraction`` on the certificate's image table over the catalog complex."""
    assignment = {key: entry["key"] for key, entry in cert["retraction"]["images"].items()}
    return oracle_retraction_report(catalog, pairs, sphere, assignment)


def oracle_retraction_report(catalog, pairs, sphere, assignment):
    """``check_retraction`` on a key-to-key assignment over the catalog complex."""
    k = catalog_complex(catalog, pairs)
    return check_retraction(VertexMap(k, k, assignment), sphere_complex(sphere, catalog))[1]


def test_certify_flags_an_image_outside_the_sphere(setup_g1n4):
    """The retraction check that certify runs, on images that send every D0 disk off the sphere."""
    _, catalog, sphere, engine, pairs = setup_g1n4
    keys = [d.key for d in catalog.disks]
    real = images_of(engine)
    outside = len(sphere)  # D5: the sphere's pairs are 0..4
    report = retraction_module._retraction_report([outside if v == 0 else v for v in real], sphere, keys)
    moved = [key for key, v in zip(keys, real) if v == 0]
    d0 = keys[sphere[0]]
    assert len(moved) > 1 and report == [f"image of {key!r} is D5, outside the subcomplex" for key in moved] + [
        f"subcomplex vertex D0={d0} is not fixed (maps to D5)"
    ]
    # The oracle flags the same disks when they go to another vertical disk of
    # region 1 instead, which meets E0 and misses every other sphere vertex,
    # like D0, so every pair still maps to an edge.
    other = next(d.key for d in of_variant(catalog, "vertical") if d.region == 1 and d.key != d0)
    assignment = {key: other if v == 0 else keys[sphere[v]] for key, v in zip(keys, real)}
    assert oracle_retraction_report(catalog, pairs, sphere, assignment) == [
        f"image of {key!r} is {other!r}, outside the subcomplex" for key in sorted(moved)
    ] + [f"subcomplex vertex {d0!r} is not fixed (maps to {other!r})"]


def test_certify_flags_a_sphere_vertex_that_is_not_fixed(setup_g1n4, monkeypatch):
    _, catalog, sphere, engine, pairs = setup_g1n4
    keys = [d.key for d in catalog.disks]
    d0, e0 = keys[sphere[0]], keys[sphere[1]]
    expected = [
        f"subcomplex vertex D0={d0} is not fixed (maps to E0)",
        f"subcomplex vertex E0={e0} is not fixed (maps to D0)",
    ]
    # Swapping one antipodal pair is an automorphism of the octahedron, so
    # only the fixed-point check can see it.
    def swap(v):
        return v ^ 1 if v < 2 else v

    swapped = [swap(v) for v in images_of(engine)]
    assert retraction_module._retraction_report(swapped, sphere, keys) == expected
    assignment = {key: keys[sphere[v]] for key, v in zip(keys, swapped)}
    assert oracle_retraction_report(catalog, pairs, sphere, assignment) == [
        f"subcomplex vertex {e0!r} is not fixed (maps to {d0!r})",
        f"subcomplex vertex {d0!r} is not fixed (maps to {e0!r})",
    ]
    # certify reports the same lines when its engine gives those images.
    image = RetractionEngine.image
    monkeypatch.setattr(RetractionEngine, "image", lambda self, d: swap(image(self, d)))
    cert = certify_catalog(catalog)
    assert not cert["passed"] and cert["claims"]["passed"] and cert["homology"] is None
    assert cert["retraction"]["check"] == {"ok": False, "report": expected}
    assert cert["first_violation"] == {"kind": "retraction", "detail": expected[0]}
    assert cert["retraction"]["images"][d0] == {"vertex": "E0", "key": e0}


def test_certify_flags_an_antipodal_pair_certified_disjoint(setup_g1n4, monkeypatch):
    surface, catalog, sphere, _, _ = setup_g1n4
    real = retraction_module.disjointness_rows

    def rows_with_the_pair_disjoint(u):
        # Set the bit between D_u and E_u in both rows.  The sphere is picked
        # from the catalog alone, so it stays.
        i, j = sphere[2 * u], sphere[2 * u + 1]

        def rigged(disks, surface):
            rows = real(disks, surface)
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            return rows

        return rigged

    keys = keys_of(catalog, sphere)
    for u in range(len(sphere) // 2):
        rows = rows_with_the_pair_disjoint(u)(catalog.disks, surface)
        with pytest.raises(InvalidConfigError, match="must intersect") as exc:
            verify_sphere(sphere, catalog, rows)
        assert str(exc.value) == (
            f"sphere pair {u}: D{u}={keys[2 * u]} and E{u}={keys[2 * u + 1]} are disjoint; "
            "an octahedral antipodal pair must intersect"
        )
    monkeypatch.setattr(retraction_module, "disjointness_rows", rows_with_the_pair_disjoint(0))
    with pytest.raises(InvalidConfigError, match="must intersect"):
        certify_catalog(catalog)


def certify_error_without_the_edge(catalog, monkeypatch, i, j) -> str:
    """The error certify raises with the bit of catalog disks ``i`` and ``j`` cleared from the rows."""
    real = retraction_module.disjointness_rows

    def rows_without_the_edge(disks, surface):
        rows = real(disks, surface)
        rows[i] &= ~(1 << j)
        rows[j] &= ~(1 << i)
        return rows

    monkeypatch.setattr(retraction_module, "disjointness_rows", rows_without_the_edge)
    with pytest.raises(InvalidConfigError) as exc:
        certify_catalog(catalog)
    return str(exc.value)


def test_certify_flags_a_sphere_edge_missing_from_the_pair_list(setup_g1n4, monkeypatch):
    surface, catalog, sphere, _, pairs = setup_g1n4
    cert = certify_catalog(catalog)
    # Clear the D1-D3 bit of the rows.  The sphere is picked from the catalog
    # alone, so it stays the same.
    i, j = sphere[2], sphere[6]
    a, b = catalog.disks[i], catalog.disks[j]
    assert certify_error_without_the_edge(catalog, monkeypatch, i, j) == (
        f"sphere edge D1={a.key} vs D3={b.key} is not certified disjoint; the octahedron is not realized"
    )
    # The oracle, on the catalog complex without that edge, names the same edge
    # first, then every catalog edge mapped onto it.
    u, v = sorted((a.key, b.key))
    expected = oracle_report(cert, catalog, [p for p in pairs if {p[0].key, p[1].key} != {u, v}], sphere)
    assert expected[0] == f"subcomplex edge ({u!r}, {v!r}) is not a domain edge"
    onto_missing = (f"maps to non-edge ({u!r}, {v!r})", f"maps to non-edge ({v!r}, {u!r})")
    assert len(expected) > 1 and all(line.endswith(onto_missing) for line in expected[1:])


def assert_scan_matches_the_loop(catalog, images, rows):
    """The pass's claims equal the loop's; returns the loop's (claims, witness)."""
    expected = scan_pairs_by_loop(catalog.disks, types_of(catalog), images, catalog.surface)
    assert scan(catalog, images, rows) == expected[0]
    return expected


CATALOG_GRID = [(1, n) for n in range(7)] + [(2, n) for n in range(5)] + [(3, n) for n in range(4)]


@pytest.mark.parametrize(("genus", "n"), CATALOG_GRID)
def test_pair_pass_matches_the_loop_oracle(genus, n):
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    rows = disjointness_rows(catalog.disks, surface)
    sphere = build_suspension_sphere(catalog)
    engine = RetractionEngine(catalog)
    claims, witness = assert_scan_matches_the_loop(catalog, images_of(engine), rows)
    assert claims["passed"] and (witness is None) == (n == 0)
    # The rows hold every edge of the sphere.
    pairs = disjoint_pairs(catalog, rows)
    on_sphere = set(keys_of(catalog, sphere))
    assert sum(a.key in on_sphere and b.key in on_sphere for a, b in pairs) == 2 * n * (n + 1)
    assert verify_sphere(sphere, catalog, rows)["edges_verified"] == 2 * n * (n + 1)
    assert len(pairs) == claims["pairs_checked"] == verify_claim_cases(engine)["pairs_checked"]
    # The certificate's witness, read off the sphere, is the loop's first cross-side pair.
    if n >= 2:
        assert certify_catalog(catalog)["witness"] == {"v_disk": witness[0].key, "w_disk": witness[1].key}


@pytest.mark.parametrize(
    ("genus", "tubes", "config"),
    [
        (1, 7, CatalogConfig(arc_bound=3)),
        (2, 5, CatalogConfig(arc_bound=3)),
        (3, 4, CatalogConfig(arc_bound=3)),
        (1, 6, CatalogConfig(arc_bound=4, bandsum_depth=1, copies=(3,))),
        (2, 4, CatalogConfig(3, 2, 10, 10, 10, (1, 2, 3))),
    ],
)
def test_a_catalog_is_the_low_footprint_slice_of_a_larger_one(genus, tubes, config):
    """Lemma D: for 2 <= m < N, C(g, m) is the slice of C(g, N) on tubes 1..m, rows, images and types kept.

    At m = 1, its named exception, the catalog has no band sums and fewer
    disks than the slice.
    """
    big = build_disk_catalog(build_tubed_surface(genus, tubes), config)
    big_rows = disjointness_rows(big.disks, big.surface)
    big_images = images_of(RetractionEngine(big))
    for m in range(1, tubes):
        small = build_disk_catalog(build_tubed_surface(genus, m), config)
        at = [k for k, d in enumerate(big.disks) if d.footprint >> m + 1 == 0]
        if m == 1:
            assert of_variant(small, "bandsum") == [] and len(small.disks) < len(at)
            continue
        assert [big.disks[k].key for k in at] == [d.key for d in small.disks]
        inside = sum(1 << k for k in at)
        rows = disjointness_rows(small.disks, small.surface)
        assert [sum(1 << at[j] for j in range(len(at)) if row >> j & 1) for row in rows] == [
            big_rows[k] & inside for k in at
        ]
        assert [big_images[k] for k in at] == images_of(RetractionEngine(small))
        assert [type_at(big.disks[k], m) for k in at] == types_of(small)


def test_pair_pass_matches_the_loop_oracle_on_a_raised_knob_catalog():
    surface = build_tubed_surface(1, 3)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=5, max_vd_arcs_per_region=40))
    engine = RetractionEngine(catalog)
    rows = disjointness_rows(catalog.disks, surface)
    claims, witness = assert_scan_matches_the_loop(catalog, images_of(engine), rows)
    assert len(of_variant(catalog, "vertical")) > 3 * 6 and claims["pairs_checked"] > 0 and witness is not None


def test_pair_pass_matches_the_loop_oracle_on_rigged_images(setup_g1n4):
    surface, catalog, sphere, engine, _ = setup_g1n4
    real = images_of(engine)
    vertices = range(len(sphere))
    tables = [[2 * (i % 3) + i % 2 for i in range(len(catalog.disks))]]
    for seed in range(4):
        rng = random.Random(seed)
        tables.append([rng.choice(vertices) if rng.random() < 0.05 else x for x in real])
    rows = disjointness_rows(catalog.disks, surface)
    for table in tables:
        claims, _ = assert_scan_matches_the_loop(catalog, table, rows)
        assert len(claims["violations"]) > 0


def test_pair_pass_raises_on_the_oracle_first_forbidden_pair(setup_g1n4):
    surface, catalog, _, engine, _ = setup_g1n4
    images, real = images_of(engine), types_of(catalog)
    rng = random.Random(7)
    tables = [
        # T4 disks relabeled T3 make them disjoint from the top meridian (T1).
        ["T3" if t == "T4" else t for t in real],
        ["T1" for _ in real],
        [rng.choice(["T1", "T2", "T3", "T4"]) for _ in real],
    ]
    rows = disjointness_rows(catalog.disks, surface)
    messages = set()
    for types in tables:
        with pytest.raises(InvalidConfigError) as oracle_exc:
            scan_pairs_by_loop(catalog.disks, types, images, surface)
        with pytest.raises(InvalidConfigError) as exc:
            scan(catalog, images, rows, types)
        assert str(exc.value) == str(oracle_exc.value)
        assert "contradicts the type definitions" in str(exc.value)
        messages.add(str(exc.value))
    assert len(messages) == len(tables)


def test_pair_pass_flags_exactly_the_edges_the_oracle_finds(setup_g1n4):
    surface, catalog, sphere, engine, pairs = setup_g1n4
    k = catalog_complex(catalog, pairs)
    keys = [d.key for d in catalog.disks]
    real = images_of(engine)
    vertices = range(len(sphere))
    tables = [real, [2 * (i % 3) + i % 2 for i in range(len(keys))]]
    for seed in range(4):
        rng = random.Random(seed)
        tables.append([rng.choice(vertices) if rng.random() < 0.05 else x for x in real])
    rows = disjointness_rows(catalog.disks, surface)
    flagged_per_table = []
    for table in tables:
        claims = scan(catalog, table, rows)
        flagged = {frozenset(v["disks"]) for v in claims["violations"]}
        assignment = {key: keys[sphere[x]] for key, x in zip(keys, table)}
        bad = {frozenset(edge) for edge in check_simplicial(VertexMap(k, k, assignment))}
        assert flagged == bad
        assert claims["passed"] == (not bad)
        flagged_per_table.append(flagged)
    # The real images are simplicial; every rigged table breaks some edge.
    assert flagged_per_table[0] == set() and all(flagged_per_table[1:])


def test_certify_builds_no_catalog_complex(setup_g1n4, monkeypatch):
    _, catalog, _, _, _ = setup_g1n4
    built = Counter()
    flag_complex_init = FlagComplex.__init__

    def counting_init(self, adjacency):
        built["FlagComplex"] += 1
        flag_complex_init(self, adjacency)

    def no_cliques(*args, **kwargs):
        built["flag_cliques"] += 1
        raise AssertionError("certify enumerated cliques")

    def no_elimination(*args, **kwargs):
        built["rank_and_torsion"] += 1
        raise AssertionError("certify eliminated a boundary")

    monkeypatch.setattr(FlagComplex, "__init__", counting_init)
    monkeypatch.setattr(flagcomplex_module, "flag_cliques", no_cliques)
    monkeypatch.setattr(homology_module, "flag_cliques", no_cliques)
    monkeypatch.setattr(homology_module, "rank_and_torsion", no_elimination)
    cert = certify_catalog(catalog)
    assert cert["passed"]
    # Neither the catalog complex nor the sphere is built as a flag complex,
    # and the sphere's homology is written in closed form, with no boundary
    # eliminated.
    assert built == Counter()
    # Nothing in the package can check simpliciality edge by edge, and none of
    # the removed arc-layer model, drawing views, surgery transcripts,
    # pass-through accessors, region records, validated/unvalidated type
    # and calculus twins, the sphere's elimination path, the general chain
    # complex, the complex JSON writer, the complex's labels and edge list,
    # the homology profile's class or the catalog's per-variant filters is
    # left for the tests alone.
    removed = (
        "check_simplicial", "check_retraction", "VertexMap", "catalog_complex",
        "PuncturedSurfaceModel", "build_punctured_model", "solo_drawings", "is_embeddable",
        "SurgeryOutcome", "SurgeryCandidate", "ArcSurgery", "disk_key", "resolve_partner",
        "distinguished_disk", "disk_regions", "copy_complex", "suspend", "octahedral_sphere",
        "Region", "classify_type_unvalidated", "meets_distinguished", "meets_distinguished_unvalidated",
        "TYPE_LABELS", "disk_tubes", "has_vertex", "has_edge", "classify_type",
        "certify_homology_retraction", "free_generator", "apply_chain_map", "permutation_sign",
        "disks_disjoint_unvalidated", "ChainComplex", "complex_to_json_obj", "SphereVertex", "SuspensionSphere",
        "disk_side", "disk_variant", "_VARIANT_RANK", "_footprint_bits", "_DiskRecord", "_disk_records",
        "_disk_sort_key", "_clean_arc", "HomologyProfile",
    )
    for name in ("errors", "surface", "flagcomplex", "homology", "disks", "retraction", "cli"):
        module = importlib.import_module(f"disklab.{name}")
        for helper in removed:
            assert not hasattr(module, helper), (name, helper)
    removed_members = {
        surface_module.TubedSurface: ("regions", "region"),
        RetractionEngine: (
            "type_at", "_surfaces", "_types", "sphere", "_branches", "_images", "_image", "_surgery_image",
        ),
        FlagComplex: ("has_vertex", "has_edge", "label", "edges"),
        surface_module.FrozenRecord: ("_uncompared",),
        disks_module.DiskCatalog: ("arc_classes", "meridians", "vertical_disks", "band_sums"),
        **{cls: ("tube_footprint",) for cls in (Meridian, VerticalDisk, BandSum)},
    }
    for cls, names in removed_members.items():
        for member in names:
            assert not hasattr(cls, member), (cls.__name__, member)
    engine = RetractionEngine(catalog)
    assert not any(hasattr(engine, member) for member in removed_members[RetractionEngine])
    assert [name for name, member in vars(RetractionEngine).items() if callable(member)] == [
        "__init__", "image", "surgery_counts",
    ]
    assert not any(hasattr(catalog.surface, member) for member in removed_members[surface_module.TubedSurface])
    # A catalog is plain data: its four fields and the constructor.
    assert [name for name, member in vars(disks_module.DiskCatalog).items() if callable(member)] == ["__init__"]


def test_pair_scan_derives_nothing_again(setup_g1n4, monkeypatch):
    """The rows and the pass read stored partners and footprints, and enumerate no arcs."""
    surface, catalog, _, engine, _ = setup_g1n4
    images = images_of(engine)
    built = Counter()
    meridian_init = disks_module.Meridian.__init__
    enumerate_arcs = surface_module.enumerate_arcs

    def counting_meridian(self, *args, **kwargs):
        built["meridian"] += 1
        meridian_init(self, *args, **kwargs)

    def counting_enumeration(*args, **kwargs):
        built["enumerate_arcs"] += 1
        return enumerate_arcs(*args, **kwargs)

    monkeypatch.setattr(disks_module.Meridian, "__init__", counting_meridian)
    monkeypatch.setattr(surface_module, "enumerate_arcs", counting_enumeration)
    monkeypatch.setattr(disks_module, "enumerate_arcs", counting_enumeration)
    claims = scan(catalog, images, disjointness_rows(catalog.disks, surface))
    assert claims["passed"] and built == Counter()


def test_pair_scan_keeps_no_copy_of_the_rows():
    """One pass at g1 n16 allocates under a quarter of the rows' own size: it restricts each row in place."""
    catalog = build_disk_catalog(build_tubed_surface(1, 17), CatalogConfig(arc_bound=3))
    assert len(catalog.disks) == 1663
    rows = disjointness_rows(catalog.disks, catalog.surface)
    images, types = images_of(RetractionEngine(catalog)), types_of(catalog)
    tracemalloc.start()
    try:
        claims = scan(catalog, images, rows, types)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert claims["passed"]
    assert peak < sum(map(sys.getsizeof, rows)) / 4


RAISED_BAND_AND_PARTNER_ARCS = [
    pytest.param(
        1, 2, {"arc_bound": 4, "max_vd_arcs_per_region": 20, "max_band_arcs": 6, "max_partner_arcs": 6},
        id="g1-k4-v20-b6-p6",
    ),
    pytest.param(
        2, 2, {"arc_bound": 3, "max_vd_arcs_per_region": 10**6, "max_band_arcs": 4, "max_partner_arcs": 4},
        id="g2-k3-all-b4-p4",
    ),
]


@pytest.mark.parametrize(("genus", "n", "knobs"), RAISED_BAND_AND_PARTNER_ARCS)
def test_pair_pass_matches_the_loop_oracle_on_raised_band_and_partner_arcs(genus, n, knobs):
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(**knobs))
    engine = RetractionEngine(catalog)
    rows = disjointness_rows(catalog.disks, surface)
    claims, _ = assert_scan_matches_the_loop(catalog, images_of(engine), rows)
    assert claims["passed"] and len({d.resolved_partner.key for d in of_variant(catalog, "bandsum")}) > 10


# Band sums with more copies, so longer remainder chains.
RAISED_COPIES = [
    pytest.param(1, 4, {"arc_bound": 3, "copies": (1, 2, 3)}, id="g1-n4-c123"),
    pytest.param(1, 3, {"arc_bound": 4, "bandsum_depth": 1, "copies": (3,)}, id="g1-n3-k4-d1-c3"),
    pytest.param(
        2, 2, {"arc_bound": 3, "max_band_arcs": 3, "max_partner_arcs": 5, "copies": (2, 5)}, id="g2-n2-b3-p5-c25"
    ),
]


IMAGE_GRID = (
    [pytest.param(g, n, {"arc_bound": 3}, id=f"g{g}-n{n}") for g, n in CATALOG_GRID]
    + RAISED_BAND_AND_PARTNER_ARCS
    + RAISED_COPIES
)


@pytest.mark.parametrize(
    ("genus", "n", "knobs"),
    IMAGE_GRID
    + [
        pytest.param(g, n, {"arc_bound": 3, "bandsum_depth": depth}, id=f"g{g}-n{n}-d{depth}")
        for g, n in ((1, 4), (2, 3))
        for depth in (0, 1)
    ],
)
def test_witness_is_the_first_two_meridians(genus, n, knobs):
    """Every certificate with n >= 2 names M(1) and M(2) as its V/W witness.

    The catalog lists them first, meridians are pairwise disjoint, and
    consecutive tubes lie on opposite sides, so they are the pass's first
    disjoint pair with one disk on each side.
    """
    surface = build_tubed_surface(genus, n + 1)
    cert = certify_catalog(build_disk_catalog(surface, CatalogConfig(**knobs)))
    assert cert["passed"]
    if n < 2:
        assert cert["witness"] is None
    else:
        v = 1 if tube_side(1) == surface.v_side else 2
        assert cert["witness"] == {"v_disk": f"M({v})", "w_disk": f"M({3 - v})"}


# The image grid, the two lower band-sum depths, and a catalog whose tube
# indices reach two digits, so keys such as M(10) and M(2) sort as strings.
ORDER_GRID = IMAGE_GRID + [
    pytest.param(1, 5, {"arc_bound": 3, "bandsum_depth": 1}, id="g1-n5-d1"),
    pytest.param(2, 3, {"arc_bound": 4, "bandsum_depth": 1}, id="g2-n3-k4-d1"),
    pytest.param(1, 5, {"arc_bound": 3, "bandsum_depth": 0}, id="g1-n5-d0"),
    pytest.param(1, 11, {"arc_bound": 3}, id="g1-n11"),
]


@pytest.mark.parametrize(("genus", "n", "knobs"), ORDER_GRID)
def test_catalog_is_listed_in_sorted_order(genus, n, knobs):
    """The catalog's loops emit the order the reference sort key gives, so nothing sorts the whole catalog."""
    catalog = build_disk_catalog(build_tubed_surface(genus, n + 1), CatalogConfig(**knobs))
    assert list(catalog.disks) == sorted(catalog.disks, key=disk_sort_key)
    assert len({d.key for d in catalog.disks}) == len(catalog.disks)


@pytest.mark.parametrize(("genus", "n", "knobs"), ORDER_GRID)
def test_every_vertical_disk_of_a_region_meets_the_same_meridians(genus, n, knobs):
    """The lemma behind the sphere's pick: the rows give the first vertical disk of a region no edge the others lack."""
    catalog = build_disk_catalog(build_tubed_surface(genus, n + 1), CatalogConfig(**knobs))
    rows = disjointness_rows(catalog.disks, catalog.surface)
    meridian_at = {d.index: k for k, d in enumerate(catalog.disks) if isinstance(d, Meridian)}
    meridians = sum(1 << k for k in meridian_at.values())
    sphere = build_suspension_sphere(catalog)
    for r in range(1, n + 2):
        verticals = [k for k, d in enumerate(catalog.disks) if isinstance(d, VerticalDisk) and d.region == r]
        # The term for M(j) against V(r, α) is j != r, which reads no arc.
        assert {rows[k] & meridians for k in verticals} == {meridians & ~(1 << meridian_at[r])}, r
        assert sphere[2 * r - 2 : 2 * r] == [verticals[0], meridian_at[r]], r
    assert verify_sphere(sphere, catalog, rows)["edges_verified"] == 2 * n * (n + 1)


def test_certify_checks_the_vertical_disk_the_sphere_picks(setup_g1n4, monkeypatch):
    """With the D0-E1 bit cleared, certify names that edge; no other vertical disk of region 1 stands in."""
    _, catalog, sphere, _, _ = setup_g1n4
    i, j = sphere[0], sphere[3]
    assert certify_error_without_the_edge(catalog, monkeypatch, i, j) == (
        f"sphere edge D0={catalog.disks[i].key} vs E1={catalog.disks[j].key} is not certified disjoint; "
        "the octahedron is not realized"
    )


def test_certify_checks_the_witness_edge_before_it_writes_the_witness(setup_g1n4, monkeypatch):
    """With the E0-E1 bit cleared, certify names that edge: the V/W witness M(1), M(2) rests on it."""
    _, catalog, sphere, _, _ = setup_g1n4
    assert certify_error_without_the_edge(catalog, monkeypatch, sphere[1], sphere[3]) == (
        "sphere edge E0=M(1) vs E1=M(2) is not certified disjoint; the octahedron is not realized"
    )


@pytest.mark.parametrize(("genus", "n", "knobs"), IMAGE_GRID)
def test_one_image_per_disk_matches_the_level_recursion(genus, n, knobs):
    """Images, per-disk provenance and surgery records as the level-by-level recursion gives them."""
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(**knobs))
    engine, oracle = RetractionEngine(catalog), LevelRecursionEngine(catalog)
    for d, t, v in zip(catalog.disks, types_of(catalog), images_of(engine)):
        assert v == oracle.image(d), d.key
        assert retraction_module._provenance(d, t, surface.tubes) == oracle.branch(d), d.key
    assert engine.surgery_counts() == oracle.surgery_counts()
    # One record per band walked through, its largest copy count, and each
    # walk ends on the recursion's image for its last link.
    walks = [walk(d, oracle) for d in catalog.disks]
    largest = {}
    for links in walks:
        for x in links[:-1]:
            band = (x.base, x.partner, x.band)
            largest[band] = max(largest.get(band, 0), x.copies)
        assert engine.image(links[0]) == engine.image(links[-1]) == oracle.image(links[-1]), links[0].key
    assert engine._surgeries == largest
    # The walks pass through each disk key once, where the recursion kept an
    # image per (level, key) it passed through.
    walked = {x.key for links in walks for x in links}
    assert walked <= {key for _, key in oracle._images}
    if (genus, n, knobs) == (1, 5, {"arc_bound": 3}):
        assert (len(walked), len(oracle._images)) == (258, 719)
        assert engine.surgery_counts() == (136, 68)


def chain(d) -> list:
    """The disk, then its resolved partners down to a meridian or a vertical disk."""
    links = [d]
    while isinstance(links[-1], BandSum):
        links.append(links[-1].resolved_partner)
    return links


def walk(d, oracle) -> list:
    """The links of ``d``'s chain that the image loop visits, read off the recursion.

    Each link but the last is surgered at its highest tube, on the recursion's
    own branch there; the last is not.  ``oracle`` has imaged ``d`` already.
    """
    links = chain(d)
    for i, x in enumerate(links):
        if oracle._branches[top_tube(x), x.key] != "surgered":
            return links[: i + 1]
    raise AssertionError(f"every link of {d.key}'s chain is surgered")


# Band sums nested past the catalog's depth, on every kind of partner and
# across bases, and disks on a high tube.
HAND_BUILT = [
    BandSum(3, BandSum(3, SELF_PARTNER, (-1,), 1), (-2,), 2),
    BandSum(3, BandSum(3, BandSum(3, Meridian(1), (-1,), 2), (-2,), 1), (-1,), 3),
    BandSum(2, BandSum(4, VerticalDisk(3, (-2,)), (-1,), 1), (-2, 1), 1),
    BandSum(1, BandSum(5, BandSum(3, SELF_PARTNER, (-2,), 1), (-1,), 1), (-1,), 2),
    BandSum(200, BandSum(198, VerticalDisk(199, (-1,)), (-2,), 1), (-1,), 1),
    Meridian(200),
]


@pytest.mark.parametrize(("genus", "n", "knobs"), IMAGE_GRID)
def test_stored_side_footprint_and_variant_match_the_reference(genus, n, knobs):
    """Every chain link's stored side, footprint, variant and rank, against the oracle's derivations."""
    catalog = build_disk_catalog(build_tubed_surface(genus, n + 1), CatalogConfig(**knobs))
    for d in (*catalog.disks, *HAND_BUILT):
        for x in chain(d):
            stored = (x.side, x.footprint, x.variant, x.rank)
            assert stored == (disk_side(x), disk_footprint(x), disk_variant(x), VARIANT_RANK[type(x)]), x.key


# Every arc knob at 20: 6,884 disks at g1 n3 and 10,284 at g2 n3.
RAISED_ALL_ARCS = [
    pytest.param(
        1, 3,
        {"arc_bound": 5, "bandsum_depth": 2, "max_vd_arcs_per_region": 20, "max_band_arcs": 20, "max_partner_arcs": 20},
        id="g1-n3-k5-v20-b20-p20",
    ),
    pytest.param(
        2, 3,
        {
            "arc_bound": 3, "bandsum_depth": 2, "max_vd_arcs_per_region": 20, "max_band_arcs": 20,
            "max_partner_arcs": 20, "copies": (1, 2, 3),
        },
        id="g2-n3-k3-v20-b20-p20-c123",
    ),
]


@pytest.mark.parametrize(("genus", "n", "knobs"), IMAGE_GRID + RAISED_ALL_ARCS)
def test_side_letter_and_witness_lemmas_hold_on_every_disk(genus, n, knobs):
    """Lemmas A and B of the retraction docstring, where t is the tube of the image's pair."""
    catalog = build_disk_catalog(build_tubed_surface(genus, n + 1), CatalogConfig(**knobs))
    for d, v in zip(catalog.disks, images_of(RetractionEngine(catalog))):
        t, letter = (v >> 1) + 1, "DE"[v & 1]
        # A: the letter is E exactly on the tube's side.
        assert (letter == "E") == (d.side == tube_side(t)), d.key
        # B: an E disk's chain carries M(t) or a band sum on base t; a D disk's, some V(t, .).
        if letter == "E":
            assert any(x == Meridian(t) or isinstance(x, BandSum) and x.base == t for x in chain(d)), d.key
        else:
            assert any(isinstance(x, VerticalDisk) and x.region == t for x in chain(d)), d.key


@pytest.mark.parametrize(
    ("genus", "n", "knobs"),
    [pytest.param(g, n, {"arc_bound": 3}, id=f"g{g}-n{n}") for g, n in CATALOG_GRID]
    + RAISED_BAND_AND_PARTNER_ARCS
    + RAISED_COPIES
    + [
        pytest.param(1, 5, {"arc_bound": 3, "bandsum_depth": 1}, id="g1-n5-d1"),
        pytest.param(1, 5, {"arc_bound": 3, "bandsum_depth": 0}, id="g1-n5-d0"),
        pytest.param(1, 4, {"arc_bound": 0}, id="g1-n4-k0"),
        pytest.param(1, 15, {"arc_bound": 3}, id="g1-n15"),
    ],
)
def test_catalog_size_counts_every_disk(genus, n, knobs, monkeypatch):
    """The closed-form count is the catalog's size, and the cap stops a larger one before any disk."""
    surface = build_tubed_surface(genus, n + 1)
    config = CatalogConfig(**knobs)
    catalog = build_disk_catalog(surface, config)
    size = disks_module.catalog_size(n + 1, len(catalog.arcs), config)
    assert size == len(catalog.disks)
    built = Counter()
    meridian_init = disks_module.Meridian.__init__

    def counting(self, *args):
        built["meridian"] += 1
        meridian_init(self, *args)

    monkeypatch.setattr(disks_module.Meridian, "__init__", counting)
    monkeypatch.setattr(disks_module, "DEFAULT_MAX_CATALOG_DISKS", size - 1)
    with pytest.raises(ResourceCapError, match=f": {size} disks$") as info:
        build_disk_catalog(surface, config)
    assert info.value.cap_name == "max_catalog_disks" and built == Counter()
    # Each footprint takes at most n + 2 bits, the bound the footprint cap counts.
    bits = size * (n + 2)
    assert sum(d.footprint.bit_length() for d in catalog.disks) <= bits
    monkeypatch.setattr(disks_module, "DEFAULT_MAX_CATALOG_DISKS", size)
    monkeypatch.setattr(disks_module, "DEFAULT_MAX_FOOTPRINT_BITS", bits - 1)
    with pytest.raises(ResourceCapError, match=f": {bits} footprint bits$") as info:
        build_disk_catalog(surface, config)
    assert info.value.cap_name == "max_catalog_footprint" and built == Counter()
    monkeypatch.setattr(disks_module, "DEFAULT_MAX_FOOTPRINT_BITS", bits)
    assert build_disk_catalog(surface, config) == catalog


@pytest.mark.parametrize(("genus", "n"), CATALOG_GRID)
def test_image_walk_builds_no_descriptor(genus, n, monkeypatch):
    """The image loop reads stored partners and footprints: no meridian, vertical disk or band sum is built."""
    catalog = build_disk_catalog(build_tubed_surface(genus, n + 1), CatalogConfig(arc_bound=3))
    engine = RetractionEngine(catalog)
    built = Counter()
    for cls in (Meridian, VerticalDisk, BandSum):
        init = cls.__init__

        def counting(self, *args, _cls=cls, _init=init):
            built[_cls.__name__] += 1
            _init(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    images = images_of(engine)
    assert len(images) == len(catalog.disks) and built == Counter()


def test_surgery_counts_do_not_grow_with_the_copy_count():
    # One record per band: a billion copies cost what one does, and the
    # counts are those of every remainder the surgery passes through.
    catalog = build_disk_catalog(build_tubed_surface(1, 2), CatalogConfig(arc_bound=3, copies=(10**9,)))
    start = time.perf_counter()
    cert = certify_catalog(catalog)
    assert time.perf_counter() - start < 1.0
    assert cert["passed"] and cert["retraction"]["well_definedness"] == {
        "surgeries": 8_000_000_000,
        "multi_arc_surgeries": 7_999_999_992,
        "agreements": 7_999_999_992,
        "disagreements": 0,
    }


def test_certify_decides_disjointness_in_one_pass(setup_g1n4, monkeypatch):
    """certify builds the rows once and asks the calculus nothing outside them."""
    _, catalog, _, _, _ = setup_g1n4
    passes, inside, outside = [], [], []
    rows = retraction_module.disjointness_rows
    calculus = disks_module.disks_disjoint

    def counting_rows(disks, surface):
        passes.append(len(disks))
        inside.append(True)
        try:
            return rows(disks, surface)
        finally:
            inside.pop()

    def watched(a, b, arcs_ok):
        if not inside:
            outside.append((a.key, b.key))
        return calculus(a, b, arcs_ok)

    monkeypatch.setattr(retraction_module, "disjointness_rows", counting_rows)
    monkeypatch.setattr(disks_module, "disks_disjoint", watched)
    assert certify_catalog(catalog)["passed"]
    assert passes == [len(catalog.disks)] and outside == []
    assert not hasattr(retraction_module, "disks_disjoint")


def test_certify_checks_the_simplex_cap_before_any_work(monkeypatch):
    # Arc bound 0 catalogs no vertical disk, so the sphere would fail too.
    catalog = build_disk_catalog(build_tubed_surface(1, 4), CatalogConfig(arc_bound=0))

    def refuse(*args, **kwargs):
        raise AssertionError("certify did work before it checked the simplex cap")

    monkeypatch.setattr(retraction_module, "disjointness_rows", refuse)
    monkeypatch.setattr(retraction_module, "RetractionEngine", refuse)
    with pytest.raises(ResourceCapError) as exc:
        certify_catalog(catalog, max_simplices=10)
    # Dimension 1 of the 3-sphere has C(4, 2) * 2**2 = 24 simplices.
    assert str(exc.value) == "resource cap max_simplices (10) exceeded: more than 10 simplices in dimension 1"


def test_pair_pass_asks_the_calculus_about_partners_only(monkeypatch):
    """Fewer calculus calls, recursion included, than there are catalog disks: 216 at genus 1, n = 5.

    Each top-level call is on two atoms (vertical disks or band sums'
    resolved partners) whose footprints overlap, and no pair is asked twice.
    """
    surface = build_tubed_surface(1, 6)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    atoms = {d.key for d in of_variant(catalog, "vertical")}
    atoms |= {d.resolved_partner.key for d in of_variant(catalog, "bandsum")}
    top, depth, total = [], [0], [0]
    calculus = disks_module.disks_disjoint

    def watched(a, b, arcs_ok):
        total[0] += 1
        if not depth[0]:
            top.append((a, b))
        depth[0] += 1
        try:
            return calculus(a, b, arcs_ok)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(disks_module, "disks_disjoint", watched)
    disjointness_rows(catalog.disks, surface)
    assert total[0] == 216 < len(catalog.disks)
    assert all({a.key, b.key} <= atoms and a.footprint & b.footprint for a, b in top)
    assert len({frozenset((a.key, b.key)) for a, b in top}) == len(top)


@pytest.mark.parametrize(("genus", "n"), [(1, 4), (2, 3)])
def test_types_and_top_meridian_tests_follow_the_footprint(genus, n, monkeypatch):
    """The engine's types and surgery tests, against the calculus on a built top meridian.

    Checked for every catalog disk at every level it fits, and for every
    (level, key) that the level-by-level recursion reaches, which holds each
    disk at its highest tube, where the engine reads its type.
    """
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    engine = LevelRecursionEngine(catalog)
    reached = {}
    recurse = LevelRecursionEngine._image

    def recording(self, d, level):
        reached[(level, d.key)] = d
        return recurse(self, d, level)

    monkeypatch.setattr(LevelRecursionEngine, "_image", recording)
    for d in catalog.disks:
        engine.image(d)
    assert any(level < n + 1 for level, _ in reached)
    cases = dict(reached)
    for level in range(1, n + 2):
        # Catalog disks that are disks of this surface.
        cases.update({(level, d.key): d for d in catalog.disks if top_tube(d) <= level})
    subs = {level: build_tubed_surface(genus, level) for level in range(1, n + 2)}
    expected = {}
    for (level, key), d in cases.items():
        sub = subs[level]
        meets = meets_distinguished(d, sub)
        if d.key == Meridian(level).key:
            t = "T1"
        elif d.side == sub.w_side:
            t = "T2"
        else:
            t = "T3" if meets else "T4"
        assert classify_type(d, sub) == t, (level, key)
        expected[level, key] = (d, t, meets)
    built = Counter()
    meridian_init = disks_module.Meridian.__init__

    def counting_meridian(self, *args, **kwargs):
        built["meridian"] += 1
        meridian_init(self, *args, **kwargs)

    monkeypatch.setattr(disks_module.Meridian, "__init__", counting_meridian)
    for (level, key), (d, t, meets) in expected.items():
        assert type_at(d, level) == t, (level, key)
        if t != "T1":
            assert bool(d.footprint >> level & 1) == meets, (level, key)
    assert built == Counter() and {t for _, t, _ in expected.values()} == {"T1", "T2", "T3", "T4"}
