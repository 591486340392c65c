"""Tests for sphere realization, the retraction engine, and certification."""

import importlib
import random
from collections import Counter
from itertools import combinations

import pytest

import disklab.disks as disks_module
import disklab.retraction as retraction_module
import disklab.surface as surface_module
from disklab.disks import (
    SELF_PARTNER,
    BandSum,
    CatalogConfig,
    Meridian,
    VerticalDisk,
    build_disk_catalog,
    disks_disjoint_unvalidated,
    meets_distinguished,
    validate_disk,
)
from disklab.errors import InvalidConfigError, WellDefinednessError
from disklab.flagcomplex import FlagComplex, canonical_json
from disklab.retraction import (
    CASE_OF_TYPES,
    RetractionEngine,
    SphereVertex,
    SuspensionSphere,
    build_suspension_sphere,
    certify_catalog,
    certify_minimality,
    outermost_arcs,
    render_report,
    surgery_candidates,
    verify_sphere,
)
from disklab.surface import build_tubed_surface
from oracles import (
    VertexMap,
    catalog_complex,
    check_retraction,
    check_simplicial,
    scan_pairs_by_loop,
    verify_claim_cases,
)


@pytest.fixture(scope="module")
def setup_f2():
    surface = build_tubed_surface(1, 2)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(surface, catalog)
    engine = RetractionEngine(surface, catalog, sphere)
    return surface, catalog, sphere, engine


@pytest.fixture(scope="module")
def setup_f3():
    surface = build_tubed_surface(1, 3)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(surface, catalog)
    engine = RetractionEngine(surface, catalog, sphere)
    return surface, catalog, sphere, engine


# -- sphere ------------------------------------------------------------------------


def test_sphere_pairs_frozen(setup_f3):
    _, _, sphere, _ = setup_f3
    assert [d.key for d in sphere.d_disks] == ["V(1;-2)", "V(2;-2)", "V(3;-2)"]
    assert [e.key for e in sphere.e_disks] == ["M(1)", "M(2)", "M(3)"]
    assert sphere.index == 2


def test_sphere_pairs_genus2():
    surface = build_tubed_surface(2, 2)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(surface, catalog)
    assert [d.key for d in sphere.d_disks] == ["V(1;-4)", "V(2;-4)"]


def test_verify_sphere_invariants(setup_f3):
    _, _, sphere, _ = setup_f3
    inv = verify_sphere(sphere)
    assert inv["pairs"] == 3
    assert inv["edges_verified"] == 12  # 4 edges per pair of antipodal pairs
    assert inv["antipodal_pairs_intersect"] == 3
    chain = inv["sub_sphere_chain"]
    assert len(chain) == 3
    for small, big in zip(chain, chain[1:]):
        assert set(small) <= set(big)  # literal vertex containment


def test_sphere_complex_is_octahedron(setup_f3):
    _, _, sphere, _ = setup_f3
    fc = sphere.complex()
    assert fc.vertex_count() == 6
    assert fc.edge_count() == 12
    for i in range(3):
        d, e = sphere.pair(i)
        assert not fc.has_edge(d.key, e.key)


def test_sphere_needs_vertical_disks():
    surface = build_tubed_surface(1, 2)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=0))
    with pytest.raises(InvalidConfigError) as exc:
        build_suspension_sphere(surface, catalog)
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
    assert engine.image(disk).name == expected


@pytest.mark.parametrize("disk, expected", F3_IMAGE_TABLE, ids=lambda x: getattr(x, "key", x))
def test_images_f3(setup_f3, disk, expected):
    _, _, _, engine = setup_f3
    assert engine.image(disk).name == expected


def test_sphere_vertices_are_fixed(setup_f3):
    _, _, sphere, engine = setup_f3
    for i in range(sphere.index + 1):
        d, e = sphere.pair(i)
        assert engine.image(d) == SphereVertex(i, "D")
        assert engine.image(e) == SphereVertex(i, "E")


def test_base_level_is_total():
    surface = build_tubed_surface(1, 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(surface, catalog)
    engine = RetractionEngine(surface, catalog, sphere)
    assert engine.image(Meridian(1)).name == "E0"
    assert engine.image(VerticalDisk(1, (-1,))).name == "D0"
    # band-sum descriptors projected down from higher levels still get images
    assert engine.image(BandSum(1, SELF_PARTNER, (-2,), 2)).name == "E0"


def test_same_region_vertical_disks_share_images(setup_f3):
    _, catalog, _, engine = setup_f3
    by_region = {}
    for v in catalog.vertical_disks():
        by_region.setdefault(v.region, set()).add(engine.image(v).name)
    assert all(len(images) == 1 for images in by_region.values())


# -- surgery -----------------------------------------------------------------------


def test_outermost_arcs(setup_f3):
    surface, _, _, _ = setup_f3
    assert outermost_arcs(BandSum(3, SELF_PARTNER, (-2,), 1), surface) == (0,)
    assert outermost_arcs(BandSum(3, SELF_PARTNER, (-2,), 2), surface) == (0, 1)
    assert outermost_arcs(BandSum(3, Meridian(1), (-2,), 5), surface) == (0, 4)


def test_outermost_arcs_rejections(setup_f3):
    surface, _, _, _ = setup_f3
    for d in [
        Meridian(3),                      # T1: is the top meridian
        Meridian(2),                      # T4: opposite side
        VerticalDisk(3, (-2,)),           # T3: meets the meridian from the other side
        BandSum(1, SELF_PARTNER, (-2,), 1),  # T2 but disjoint from the top meridian
    ]:
        with pytest.raises(InvalidConfigError):
            outermost_arcs(d, surface)


def test_surgery_candidates():
    d1 = BandSum(3, Meridian(1), (-2,), 1)
    assert [c.key for c in surgery_candidates(d1, 0)] == ["M(1)"]
    d2 = BandSum(3, Meridian(1), (-2,), 2)
    assert [c.key for c in surgery_candidates(d2, 0)] == ["M(1)", "B(3;M(1);-2;1)"]
    assert [c.key for c in surgery_candidates(d2, 1)] == ["M(1)", "B(3;M(1);-2;1)"]
    with pytest.raises(InvalidConfigError):
        surgery_candidates(d2, 5)


def test_surgery_outcomes_recorded(setup_f3, monkeypatch):
    surface, catalog, sphere, _ = setup_f3
    engine = RetractionEngine(surface, catalog, sphere)
    surgered = {}
    surgery_image = RetractionEngine._surgery_image

    def recording(self, d, level):
        surgered[(level, d.key)] = d
        return surgery_image(self, d, level)

    monkeypatch.setattr(RetractionEngine, "_surgery_image", recording)
    for d in catalog.disks:
        engine.image(d)
    surgeries, multi = engine.surgery_counts()
    assert surgeries == len(surgered) > 0, "the catalog contains disks requiring surgery"
    assert multi == sum(d.copies >= 2 for d in surgered.values()) > 0, "the catalog contains multi-copy band sums"
    assert surgeries == sum(branch == "surgered" for branch in engine._branches.values())
    for (level, key), d in surgered.items():
        # Every outermost arc's minimal candidate image is the recorded image.
        arcs = outermost_arcs(d, engine._surfaces[level])
        chosen = {min(engine._image(c, level) for c in surgery_candidates(d, arc)) for arc in arcs}
        assert chosen == {engine._images[(level, key)]}, key


def test_minimal_pair_index_rule(setup_f3):
    # Surgery on a band sum with a lower-meridian partner lands in the
    # smallest sub-sphere containing a candidate image: E0, not E2.
    _, _, _, engine = setup_f3
    assert engine.image(BandSum(3, Meridian(1), (-2,), 2)).name == "E0"


@pytest.mark.parametrize("tubes", [1, 3])
def test_image_still_validates_its_argument(tubes):
    # With one tube the recursion classifies nothing, so only image() can reject.
    surface = build_tubed_surface(1, tubes)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    engine = RetractionEngine(surface, catalog, build_suspension_sphere(surface, catalog))
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
    # validate_disk runs once per catalog disk in image() (recursing through
    # its partners) and once per disk of each sphere disjointness check; the
    # recursion, its type and top-meridian tests and the pair pass never do.
    surface = build_tubed_surface(1, 6)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    calls = []
    validate = disks_module.validate_disk

    def counting(d, s):
        calls.append(d.key)
        return validate(d, s)

    monkeypatch.setattr(disks_module, "validate_disk", counting)
    monkeypatch.setattr(retraction_module, "validate_disk", counting)
    assert certify_catalog(catalog)["passed"]

    def chain(d):  # descriptors that validate_disk visits: the disk, then its partners
        return 1 + (chain(d.resolved_partner) if isinstance(d, BandSum) else 0)

    m = surface.tubes
    sphere_checks = m + 4 * m * (m - 1) // 2  # antipodal pairs, then octahedron edges
    assert len(calls) == sum(chain(d) for d in catalog.disks) + 2 * sphere_checks == 630


@pytest.mark.parametrize("genus, tubes", [(1, 6), (2, 4)])
def test_every_disk_the_recursion_reaches_is_valid_at_its_level(genus, tubes, monkeypatch):
    surface = build_tubed_surface(genus, tubes)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    engine = RetractionEngine(surface, catalog, build_suspension_sphere(surface, catalog))
    reached = {}
    recurse = RetractionEngine._image

    def recording(self, d, level):
        reached[(level, d.key)] = d
        return recurse(self, d, level)

    monkeypatch.setattr(RetractionEngine, "_image", recording)
    for d in catalog.disks:
        engine.image(d)
    assert set(reached) == set(engine._images)
    assert set(engine._types) <= set(reached) and set(engine._surgeries) <= set(reached)
    assert any(level < tubes for level, _ in reached)
    for (level, _), d in reached.items():
        validate_disk(d, engine._surfaces[level])


def test_forced_disagreement_raises(monkeypatch):
    surface = build_tubed_surface(1, 2)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(surface, catalog)
    engine = RetractionEngine(surface, catalog, sphere)

    def rigged(d, arc_index):
        # Simulate a geometry where the two outermost arcs split off
        # different pieces: one yields the low meridian, the other the top.
        if arc_index == 0:
            return [Meridian(1)]
        return [Meridian(2)]

    monkeypatch.setattr(retraction_module, "surgery_candidates", rigged)
    target = BandSum(2, SELF_PARTNER, (-2,), 2)
    with pytest.raises(WellDefinednessError) as exc:
        engine.image(target)
    message = str(exc.value)
    assert target.key in message
    assert "E0" in message and "E1" in message


# -- claims ------------------------------------------------------------------------


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


@pytest.mark.parametrize(("genus", "n"), [(1, 5), (2, 4), (3, 4)])
def test_pair_scan_matches_the_calculus_on_every_pair(genus, n):
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    engine = RetractionEngine(surface, catalog, build_suspension_sphere(surface, catalog))
    records = retraction_module._disk_records(engine, {})
    keys = frozenset(d.key for d in catalog.disks)
    pairs, claims, _ = retraction_module._scan_pairs(records, surface, tally=False, keep=keys)
    assert claims is None
    expected = [
        (a, b) for a, b in combinations(catalog.disks, 2) if disks_disjoint_unvalidated(a, b, surface)
    ]
    assert pairs == expected


def per_pair_claims(engine, image):
    """The claim tally as it was first written: two images per disjoint pair."""
    surface, catalog, m = engine.surface, engine.catalog, engine.surface.tubes
    per_case, violations, checked = Counter(), [], 0
    for a, b in combinations(catalog.disks, 2):
        if not disks_disjoint_unvalidated(a, b, surface):
            continue
        checked += 1
        ta, tb = sorted((engine.type_at(a, m), engine.type_at(b, m)))
        case = CASE_OF_TYPES[(ta, tb)]
        per_case[case] += 1
        xa, xb = image(a), image(b)
        if xa.pair_index == xb.pair_index and xa.letter != xb.letter:
            violations.append(
                {"case": case, "disks": [a.key, b.key], "types": [ta, tb], "images": [xa.name, xb.name]}
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
    engine = RetractionEngine(surface, catalog, build_suspension_sphere(surface, catalog))
    expected = per_pair_claims(engine, engine.image)
    assert expected["pairs_checked"] > 0
    assert cert["claims"] == expected
    assert verify_claim_cases(engine) == expected
    # Rigged images that put many disjoint pairs on antipodal vertices.
    rigged = {d.key: SphereVertex(i % 3, "DE"[i % 2]) for i, d in enumerate(catalog.disks)}
    records = retraction_module._disk_records(engine, rigged)
    _, claims, _ = retraction_module._scan_pairs(records, surface, tally=True)
    expected = per_pair_claims(engine, lambda d: rigged[d.key])
    assert len(expected["violations"]) > 0
    assert claims == expected


@pytest.mark.parametrize("n", [0, 2, 4])
def test_provenance_matches_the_type_rules(n):
    """Provenance read from the engine's branches equals the per-disk type rules."""
    cert = certify_minimality(1, n, CatalogConfig(arc_bound=3))
    surface = build_tubed_surface(1, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    engine = RetractionEngine(surface, catalog, build_suspension_sphere(surface, catalog))
    provenance = dict.fromkeys(("top_meridian", "top_vertical", "projected", "surgered"), 0)
    for d in catalog.disks:
        t = engine.type_at(d, surface.tubes)
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


def test_catalog_complex_edges_match_disjointness(setup_f2):
    surface, catalog, _, engine = setup_f2
    from itertools import combinations

    from disklab.disks import disks_disjoint

    pairs = [
        (a, b)
        for a, b in combinations(catalog.disks, 2)
        if disks_disjoint(a, b, surface)
    ]
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
    sphere = build_suspension_sphere(surface, catalog)
    engine = RetractionEngine(surface, catalog, sphere)
    keys = frozenset(d.key for d in catalog.disks)
    records = retraction_module._disk_records(engine, {})
    pairs, _, _ = retraction_module._scan_pairs(records, surface, tally=False, keep=keys)
    return surface, catalog, sphere, engine, pairs


def oracle_report(cert, catalog, pairs, sphere):
    """``check_retraction`` on the certificate's image table over the catalog complex."""
    assignment = {key: entry["key"] for key, entry in cert["retraction"]["images"].items()}
    k = catalog_complex(catalog, pairs)
    return check_retraction(VertexMap(k, k, assignment), sphere.complex())[1]


def rig_key_for(monkeypatch, substitute):
    """Make the sphere name some of its vertices by other disks' keys."""
    real = SuspensionSphere.key_for

    def key_for(self, vertex):
        key = real(self, vertex)
        return substitute.get(key, key)

    monkeypatch.setattr(SuspensionSphere, "key_for", key_for)


def test_certify_flags_an_image_outside_the_sphere(setup_g1n4, monkeypatch):
    _, catalog, sphere, _, pairs = setup_g1n4
    d0 = sphere.d_disks[0]
    # Another vertical disk of region 1: it meets E0 and misses every other
    # sphere vertex, like D0, so every pair still maps to an edge.
    other = next(d for d in catalog.vertical_disks() if d.region == 1 and d != d0)
    rig_key_for(monkeypatch, {d0.key: other.key})
    cert = certify_catalog(catalog)
    report = cert["retraction"]["check"]["report"]
    assert not cert["passed"] and cert["claims"]["passed"] and cert["homology"] is None
    assert cert["first_violation"] == {"kind": "retraction", "detail": report[0]}
    assert report == oracle_report(cert, catalog, pairs, sphere)
    assert report[0].startswith("image of ") and report[-1] == (
        f"subcomplex vertex {d0.key!r} is not fixed (maps to {other.key!r})"
    )
    assert sum(line.startswith("image of ") for line in report) == sum(
        entry["vertex"] == "D0" for entry in cert["retraction"]["images"].values()
    )


def test_certify_flags_a_sphere_vertex_that_is_not_fixed(setup_g1n4, monkeypatch):
    _, catalog, sphere, _, pairs = setup_g1n4
    d0, e0 = sphere.pair(0)
    # Swapping one antipodal pair is an automorphism of the octahedron, so
    # only the fixed-point check can see it.
    rig_key_for(monkeypatch, {d0.key: e0.key, e0.key: d0.key})
    cert = certify_catalog(catalog)
    report = cert["retraction"]["check"]["report"]
    assert not cert["passed"] and cert["claims"]["passed"]
    assert cert["first_violation"] == {"kind": "retraction", "detail": report[0]}
    assert report == oracle_report(cert, catalog, pairs, sphere)
    assert report == [
        f"subcomplex vertex {e0.key!r} is not fixed (maps to {d0.key!r})",
        f"subcomplex vertex {d0.key!r} is not fixed (maps to {e0.key!r})",
    ]


def test_certify_flags_a_sphere_edge_missing_from_the_pair_list(setup_g1n4, monkeypatch):
    _, catalog, sphere, _, pairs = setup_g1n4
    missing = {sphere.d_disks[0].key, sphere.e_disks[1].key}
    real = retraction_module._scan_pairs

    def scan(*args, **kwargs):
        kept, claims, witness = real(*args, **kwargs)
        return [p for p in kept if {p[0].key, p[1].key} != missing], claims, witness

    monkeypatch.setattr(retraction_module, "_scan_pairs", scan)
    cert = certify_catalog(catalog)
    report = cert["retraction"]["check"]["report"]
    assert not cert["passed"] and cert["claims"]["passed"]
    assert cert["first_violation"] == {"kind": "retraction", "detail": report[0]}
    u, v = sorted(missing)
    assert report == [f"subcomplex edge ({u!r}, {v!r}) is not a domain edge"]
    # The oracle, on the catalog complex without that edge, reports the same
    # vertex-level line and then every catalog edge mapped onto the missing
    # edge; the certificate stops at the vertex-level lines.
    expected = oracle_report(cert, catalog, [p for p in pairs if {p[0].key, p[1].key} != missing], sphere)
    assert report == [line for line in expected if not line.startswith("edge (")]
    tail = expected[len(report) :]
    onto_missing = (f"maps to non-edge ({u!r}, {v!r})", f"maps to non-edge ({v!r}, {u!r})")
    assert tail and all(line.endswith(onto_missing) for line in tail)


def assert_scan_matches_the_loop(records, surface, tally, keep):
    expected = scan_pairs_by_loop(records, surface, tally=tally, keep=keep)
    assert retraction_module._scan_pairs(records, surface, tally=tally, keep=keep) == expected
    return expected


CATALOG_GRID = [(1, n) for n in range(7)] + [(2, n) for n in range(5)] + [(3, n) for n in range(4)]


@pytest.mark.parametrize(("genus", "n"), CATALOG_GRID)
def test_pair_pass_matches_the_loop_oracle(genus, n):
    surface = build_tubed_surface(genus, n + 1)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=3))
    sphere = build_suspension_sphere(surface, catalog)
    engine = RetractionEngine(surface, catalog, sphere)
    images = {d.key: engine.image(d) for d in catalog.disks}
    records = retraction_module._disk_records(engine, images)
    # As certify calls it: real images, the sphere's keys kept.
    kept, claims, witness = assert_scan_matches_the_loop(
        records, surface, True, frozenset(sphere.sub_sphere_keys(n))
    )
    assert claims["passed"] and len(kept) == 2 * n * (n + 1)
    assert (witness is None) == (n == 0)
    # No tally, every pair kept.
    keys = frozenset(catalog.keys())
    kept, claims, _ = assert_scan_matches_the_loop(records, surface, False, keys)
    assert claims is None and len(kept) == verify_claim_cases(engine)["pairs_checked"]


def test_pair_pass_matches_the_loop_oracle_on_a_raised_knob_catalog():
    surface = build_tubed_surface(1, 3)
    catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=5, max_vd_arcs_per_region=40))
    engine = RetractionEngine(surface, catalog, build_suspension_sphere(surface, catalog))
    images = {d.key: engine.image(d) for d in catalog.disks}
    records = retraction_module._disk_records(engine, images)
    _, claims, witness = assert_scan_matches_the_loop(records, surface, True, frozenset(catalog.keys()))
    assert len(catalog.vertical_disks()) > 3 * 6 and claims["pairs_checked"] > 0 and witness is not None


def test_pair_pass_matches_the_loop_oracle_on_rigged_images(setup_g1n4):
    surface, catalog, sphere, engine, _ = setup_g1n4
    real = {d.key: engine.image(d) for d in catalog.disks}
    vertices = [SphereVertex(i, letter) for i in range(sphere.index + 1) for letter in "DE"]
    tables = [{d.key: SphereVertex(i % 3, "DE"[i % 2]) for i, d in enumerate(catalog.disks)}]
    for seed in range(4):
        rng = random.Random(seed)
        tables.append({key: rng.choice(vertices) if rng.random() < 0.05 else x for key, x in real.items()})
    keys = frozenset(catalog.keys())
    for table in tables:
        records = retraction_module._disk_records(engine, table)
        _, claims, _ = assert_scan_matches_the_loop(records, surface, True, keys)
        assert len(claims["violations"]) > 0


def test_pair_pass_raises_on_the_oracle_first_forbidden_pair(setup_g1n4):
    surface, catalog, _, engine, _ = setup_g1n4
    real = retraction_module._disk_records(engine, {d.key: engine.image(d) for d in catalog.disks})
    rng = random.Random(7)
    tables = [
        # T4 disks relabeled T3 make them disjoint from the top meridian (T1).
        [r._replace(type="T3") if r.type == "T4" else r for r in real],
        [r._replace(type="T1") for r in real],
        [r._replace(type=rng.choice(["T1", "T2", "T3", "T4"])) for r in real],
    ]
    messages = set()
    for records in tables:
        with pytest.raises(InvalidConfigError) as oracle_exc:
            scan_pairs_by_loop(records, surface, tally=True)
        with pytest.raises(InvalidConfigError) as exc:
            retraction_module._scan_pairs(records, surface, tally=True)
        assert str(exc.value) == str(oracle_exc.value)
        assert "contradicts the type definitions" in str(exc.value)
        messages.add(str(exc.value))
    assert len(messages) == len(tables)


def test_pair_pass_flags_exactly_the_edges_the_oracle_finds(setup_g1n4):
    surface, catalog, sphere, engine, pairs = setup_g1n4
    k = catalog_complex(catalog, pairs)
    real = {d.key: engine.image(d) for d in catalog.disks}
    vertices = [SphereVertex(i, letter) for i in range(sphere.index + 1) for letter in "DE"]
    tables = [real, {d.key: SphereVertex(i % 3, "DE"[i % 2]) for i, d in enumerate(catalog.disks)}]
    for seed in range(4):
        rng = random.Random(seed)
        tables.append({key: rng.choice(vertices) if rng.random() < 0.05 else x for key, x in real.items()})
    flagged_per_table = []
    for table in tables:
        records = retraction_module._disk_records(engine, table)
        _, claims, _ = retraction_module._scan_pairs(records, surface, tally=True)
        flagged = {frozenset(v["disks"]) for v in claims["violations"]}
        assignment = {key: sphere.key_for(x) for key, x in table.items()}
        bad = {frozenset(edge) for edge in check_simplicial(VertexMap(k, k, assignment))}
        assert flagged == bad
        assert claims["passed"] == (not bad)
        flagged_per_table.append(flagged)
    # The real images are simplicial; every rigged table breaks some edge.
    assert flagged_per_table[0] == set() and all(flagged_per_table[1:])


def test_certify_builds_no_catalog_complex(setup_g1n4, monkeypatch):
    _, catalog, sphere, _, _ = setup_g1n4
    n = sphere.index
    vertices, edges = [], []
    add_vertex, add_edge = FlagComplex.add_vertex, FlagComplex.add_edge

    def counting_vertex(self, vertex_id, label=None):
        vertices.append(vertex_id)
        return add_vertex(self, vertex_id, label)

    def counting_edge(self, u, v):
        edges.append((u, v))
        return add_edge(self, u, v)

    monkeypatch.setattr(FlagComplex, "add_vertex", counting_vertex)
    monkeypatch.setattr(FlagComplex, "add_edge", counting_edge)
    cert = certify_catalog(catalog)
    assert cert["passed"]
    sphere_keys = set(sphere.sub_sphere_keys(n))
    # Only the octahedron is ever built: 2(n + 1) vertices and 2n(n + 1) edges.
    assert vertices and set(vertices) == sphere_keys and len(vertices) == 2 * (n + 1)
    assert len(edges) == 2 * n * (n + 1)
    # Nothing in the package can check simpliciality edge by edge, and none of
    # the removed arc-layer model, drawing views, surgery transcripts or
    # pass-through accessors is left for the tests alone.
    removed = (
        "check_simplicial", "check_retraction", "VertexMap", "catalog_complex",
        "PuncturedSurfaceModel", "build_punctured_model", "solo_drawings", "is_embeddable",
        "SurgeryOutcome", "SurgeryCandidate", "ArcSurgery", "disk_key", "resolve_partner",
    )
    for name in ("errors", "surface", "flagcomplex", "homology", "disks", "retraction", "cli"):
        module = importlib.import_module(f"disklab.{name}")
        for helper in removed:
            assert not hasattr(module, helper), (name, helper)


def test_pair_scan_derives_nothing_again(setup_g1n4, monkeypatch):
    """The pass reads stored partners and footprints, and enumerates no arcs."""
    surface, _, _, engine, _ = setup_g1n4
    records = retraction_module._disk_records(engine, {})
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
    kept, _, _ = retraction_module._scan_pairs(records, surface, tally=False)
    assert kept == [] and built == Counter()
