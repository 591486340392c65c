"""Acceptance suite: eight go/no-go checks for the whole pipeline.

Each criterion is one test that prints a single ``ACCEPTANCE k ... PASS``
line on success (run with ``-s`` or read the failure output otherwise), so a
log of this file doubles as a sign-off sheet:

1. Octahedral sphere homology: the n-pair cross-polytope boundary has
   reduced homology Z exactly in dimension n-1, torsion-free, n = 1..5,
   under 10 seconds for the whole sweep.
2. Suspension shift: reduced H_k(susp X) matches reduced H_{k-1}(X) on at
   least 20 seeded random flag complexes with at most 12 vertices each.
3. Strong irreducibility of the one-tube surface: every cataloged vertical
   disk meets the meridian (no disjoint disk pair on opposite sides), and
   the one-tube catalog contains no band sums, for genus 1 and 2 at every
   arc bound up to 4.
4. End-to-end certificates for (genus, n) in {(1,1), (1,2), (2,1), (2,2)}:
   sphere invariants verified, retraction check passes, at least one
   disjoint pair lands in every one of the six claim cases, zero violations,
   homology certificate passes in dimension n, under 5 minutes per instance.
5. Surgery well-definedness: every disk surgered along 2 or more outermost
   arcs yields the same image for every arc, on every certified instance.
6. Type partition: every cataloged disk receives exactly one of the four
   types, and exactly one disk (the top meridian) has type T1.
7. Disjoint-witness: every certificate with n >= 2 records a disjoint
   (v-side disk, w-side disk) pair, re-verified here.
8. Reproducibility: two certification runs with identical parameters render
   byte-identical canonical JSON.
"""

from __future__ import annotations

import random
import time

from disklab.disks import (
    CatalogConfig,
    Meridian,
    build_disk_catalog,
    disks_disjoint,
)
from disklab.flagcomplex import canonical_json
from disklab.homology import reduced_homology
from disklab.retraction import certify_minimality
from disklab.surface import build_tubed_surface, opposite_side, tube_side
from oracles import (
    betti,
    classify_type,
    memo_verdict,
    octahedral_sphere,
    of_variant,
    random_flag_complex,
    suspend,
    torsion,
)

INSTANCES = ((1, 1), (1, 2), (2, 1), (2, 2))
CONFIG = CatalogConfig(arc_bound=3, bandsum_depth=2)


def _passline(k: int, text: str) -> None:
    print(f"ACCEPTANCE {k} ({text}): PASS")


def _certificates():
    """Certify all four standard instances once per session, timed."""
    if not hasattr(_certificates, "cache"):
        cache = {}
        for genus, n in INSTANCES:
            t0 = time.monotonic()
            cert = certify_minimality(genus, n, CONFIG)
            cache[(genus, n)] = (cert, time.monotonic() - t0)
        _certificates.cache = cache
    return _certificates.cache


def test_criterion_1_octahedral_sphere_homology():
    t0 = time.monotonic()
    for n in range(1, 6):
        profile = reduced_homology(octahedral_sphere(n), d_max=n)
        for k in range(n + 1):
            expected = 1 if k == n - 1 else 0
            assert betti(profile, k) == expected, (n, k, betti(profile, k))
            assert torsion(profile, k) == (), (n, k, torsion(profile, k))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
    _passline(1, f"octahedral sphere homology n=1..5 in {elapsed:.2f}s")


def test_criterion_2_suspension_shifts_reduced_homology():
    checked = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        c = random_flag_complex(rng, rng.randint(1, 12), rng.uniform(0.15, 0.7))
        d_max = max(2, c.vertex_count() // 2)
        base = reduced_homology(c, d_max)
        lifted = reduced_homology(suspend(c, "north", "south"), d_max + 1)
        assert betti(lifted, 0) == 0 and torsion(lifted, 0) == ()
        for k in range(d_max + 1):
            assert betti(lifted, k + 1) == betti(base, k), (seed, k)
            assert torsion(lifted, k + 1) == torsion(base, k), (seed, k)
        checked += 1
    assert checked >= 20
    _passline(2, f"suspension homology shift on {checked} random complexes")


def test_criterion_3_one_tube_surface_is_strongly_irreducible():
    combos = 0
    for genus in (1, 2):
        for arc_bound in (1, 2, 3, 4):
            surface = build_tubed_surface(genus, 1)
            catalog = build_disk_catalog(surface, CatalogConfig(arc_bound=arc_bound))
            assert of_variant(catalog, "bandsum") == []
            meridian = Meridian(1)
            v_side = opposite_side(tube_side(1))
            verticals = of_variant(catalog, "vertical")
            assert verticals, (genus, arc_bound)
            for disk in verticals:
                assert disk.side == v_side
                assert disks_disjoint(disk, meridian, memo_verdict(genus)) is False, disk.key
            combos += 1
    assert combos == 8
    _passline(3, "every one-tube vertical disk meets the meridian (8 configs)")


def test_criterion_4_end_to_end_certificates():
    for (genus, n), (cert, elapsed) in _certificates().items():
        assert elapsed < 300.0, (genus, n, elapsed)
        assert cert["passed"] is True, (genus, n)
        inv = cert["sphere"]["invariants"]
        assert inv["pairs"] == n + 1
        assert inv["antipodal_pairs_intersect"] == n + 1
        assert inv["edges_verified"] == 2 * n * (n + 1)
        assert cert["retraction"]["check"]["ok"] is True
        claims = cert["claims"]
        assert claims["violations"] == []
        assert set(claims["per_case"]) == {"1", "2", "3", "4", "5", "6"}
        assert all(count >= 1 for count in claims["per_case"].values()), (genus, n)
        assert sum(claims["per_case"].values()) == claims["pairs_checked"]
        hom = cert["homology"]
        assert hom["passed"] is True and hom["dimension"] == n
        assert cert["bounds"]["topological_index_upper"] == n + 1
    times = ", ".join(f"({g},{n}) {dt:.2f}s" for (g, n), (_, dt) in _certificates().items())
    _passline(4, f"certificates pass for all four instances: {times}")


def test_criterion_5_multi_arc_surgeries_agree():
    total_multi = 0
    for (genus, n), (cert, _) in _certificates().items():
        wd = cert["retraction"]["well_definedness"]
        assert wd["disagreements"] == 0, (genus, n)
        assert wd["agreements"] == wd["multi_arc_surgeries"], (genus, n)
        assert wd["multi_arc_surgeries"] >= 1, (genus, n)
        total_multi += wd["multi_arc_surgeries"]
    _passline(5, f"{total_multi} multi-arc surgeries, all images agree")


def test_criterion_6_type_partition_with_unique_top_type():
    for genus, n in INSTANCES:
        surface = build_tubed_surface(genus, n + 1)
        catalog = build_disk_catalog(surface, CONFIG)
        counts = {"T1": 0, "T2": 0, "T3": 0, "T4": 0}
        for disk in catalog.disks:
            t = classify_type(disk, surface)
            assert t in counts, (disk.key, t)
            counts[t] += 1
        assert sum(counts.values()) == len(catalog.disks)
        assert counts["T1"] == 1, (genus, n, counts)
        cert = _certificates()[(genus, n)][0]
        assert cert["catalog"]["types"] == counts
    _passline(6, "every disk gets exactly one type; exactly one T1 disk")


def test_criterion_7_higher_certificates_carry_disjoint_witness():
    for (genus, n), (cert, _) in _certificates().items():
        witness = cert["witness"]
        if n < 2:
            assert witness is None, (genus, n)
            continue
        assert witness is not None, (genus, n)
        surface = build_tubed_surface(genus, n + 1)
        catalog = build_disk_catalog(surface, CONFIG)
        lookup = {d.key: d for d in catalog.disks}
        v_disk = lookup[witness["v_disk"]]
        w_disk = lookup[witness["w_disk"]]
        assert v_disk.side != w_disk.side
        assert disks_disjoint(v_disk, w_disk, memo_verdict(genus)) is True
    _passline(7, "n >= 2 certificates carry a verified disjoint side pair")


def test_criterion_8_certification_is_reproducible():
    first = canonical_json(certify_minimality(1, 2, CatalogConfig(arc_bound=3)))
    second = canonical_json(certify_minimality(1, 2, CatalogConfig(arc_bound=3)))
    assert first == second
    _passline(8, f"byte-identical certificates ({len(first)} bytes)")
