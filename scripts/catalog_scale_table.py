#!/usr/bin/env python3
"""Tabulate certification of raised-knob catalogs: disks, pairs and times.

Each row is a catalog ``(g, n, k, v, b, p)``: genus ``g``, suspension index
``n`` (``n + 1`` tubes), arc bound ``k``, and the first ``v`` vertical, ``b``
band and ``p`` partner arc classes per region (``all`` means v = 10**6).
For each row the script builds the catalog in this process and prints:

- ``disks``: the catalog size;
- ``pairs``: the certificate's ``pairs_checked``, the disjoint catalog pairs;
- ``rows``: seconds for the pair pass's per-disk disjointness rows
  (``disks.disjointness_rows``) alone;
- ``certify``: seconds for ``certify_catalog(..., max_simplices=10**7)``;
  each time is the median of ``TIMING_RUNS`` runs;
- the verdict, and the first 12 hex digits of the sha256 of the
  certificate's canonical JSON, to compare two checkouts byte for byte.

Each disjointness pass makes its own arc verdict and keeps nothing, so
both columns include the arc searches they trigger.  The default rows are
the raised-knob table of README.md; ``--rows`` picks some of them by
position (1-based), and ``--src`` runs another checkout's sources, for a
before/after table.  The genus-2 rows take about half a minute each.

Usage:
    python3 scripts/catalog_scale_table.py [--rows 1,2,5] [--src DIR]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time

ALL = 10**6
ROWS = (
    (1, 2, 6, 52, 10, 10),
    (1, 4, 7, ALL, 10, 10),
    (1, 2, 7, ALL, 20, 20),
    (2, 2, 5, ALL, 10, 10),
    (1, 2, 8, ALL, 30, 30),
    (2, 3, 5, ALL, 20, 20),
)
# Runs per timed column; a single run varies by up to about a quarter.
TIMING_RUNS = 3


def median_seconds(run):
    """The median wall seconds of ``TIMING_RUNS`` calls of ``run``, and the last call's result."""
    times = []
    for _ in range(TIMING_RUNS):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", default=None, help="comma-separated 1-based row numbers (default: all)")
    parser.add_argument("--src", default=None, help="a checkout's src directory to import disklab from")
    args = parser.parse_args(argv)
    if args.src is not None:
        sys.path.insert(0, os.path.abspath(args.src))

    from disklab.disks import CatalogConfig, build_disk_catalog, disjointness_rows
    from disklab.flagcomplex import canonical_json
    from disklab.retraction import certify_catalog
    from disklab.surface import build_tubed_surface

    rows = ROWS if args.rows is None else [ROWS[int(i) - 1] for i in args.rows.split(",")]
    header = (
        f"{'(g, n, k, v, b, p)':<24} {'disks':>6} {'pairs':>10} {'rows':>8} {'certify':>8}  result  sha256"
    )
    print(header)
    print("-" * len(header))
    for g, n, k, v, b, p in rows:
        surface = build_tubed_surface(g, n + 1)
        config = CatalogConfig(arc_bound=k, max_vd_arcs_per_region=v, max_band_arcs=b, max_partner_arcs=p)
        catalog = build_disk_catalog(surface, config)
        rows_s, _ = median_seconds(lambda: disjointness_rows(catalog.disks, surface))
        certify_s, cert = median_seconds(lambda: certify_catalog(catalog, max_simplices=10**7))
        digest = hashlib.sha256(canonical_json(cert).encode("utf-8")).hexdigest()[:12]
        label = f"({g}, {n}, {k}, {'all' if v == ALL else v}, {b}, {p})"
        verdict = "PASSED" if cert["passed"] else "FAILED"
        pairs = cert["claims"]["pairs_checked"]
        print(
            f"{label:<24} {len(catalog.disks):>6} {pairs:>10}"
            f" {rows_s:>7.2f}s {certify_s:>7.2f}s  {verdict}  {digest}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
