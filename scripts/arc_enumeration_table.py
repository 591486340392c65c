#!/usr/bin/env python3
"""Tabulate arc enumeration and disjointness: classes, disjoint pairs and times.

For each (genus, arc bound k) this prints ``candidate_count``, the number
of canonical reduced codes of length 1..k (the figure the arc-class cap is
checked against), runs ``enumerate_arcs(genus, k)``, and prints the number of
embeddable classes it returns and the median seconds of five runs (one run
takes milliseconds, so a single timing is mostly noise).  It then decides
``arcs_disjoint`` on every pair of distinct classes, with the drawing and
pair memos cleared first, and prints the number of disjoint pairs and the
seconds that took.  The default grid is genus 1 at k = 5..9, genus 2 at
k = 3..5 (genus 2 at k = 6 has about 600,000 pairs) and genus 3 at
k = 3..4; rows whose class counts are frozen in the tests are checked
against those values.

Usage:
    python3 scripts/arc_enumeration_table.py [--genus1-max K] [--genus2-max K] [--genus3-max K]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from itertools import combinations

from disklab import surface
from disklab.surface import arcs_disjoint, candidate_count, enumerate_arcs

ENUMERATION_RUNS = 5

# Embeddable class counts frozen in tests/test_surface.py.
EXPECTED = {(1, 7): 84, (1, 8): 106, (1, 9): 150, (2, 3): 54, (2, 5): 449, (2, 6): 1093, (3, 4): 527}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--genus1-max", type=int, default=9)
    parser.add_argument("--genus2-max", type=int, default=5)
    parser.add_argument("--genus3-max", type=int, default=4)
    args = parser.parse_args(argv)

    grid = [(1, k) for k in range(5, args.genus1_max + 1)]
    grid += [(2, k) for k in range(3, args.genus2_max + 1)]
    grid += [(3, k) for k in range(3, args.genus3_max + 1)]
    header = (
        f"{'g':>2} {'k':>2} {'candidates':>10} {'embeddable':>10} {'time':>8}"
        f" {'pairs':>8} {'disjoint':>8} {'time':>8}"
    )
    print(header)
    print("-" * len(header))
    ok = True
    for genus, k in grid:
        times = []
        for _ in range(ENUMERATION_RUNS):
            t0 = time.monotonic()
            classes = enumerate_arcs(genus, k)
            times.append(time.monotonic() - t0)
        elapsed = statistics.median(times)
        expected = EXPECTED.get((genus, k))
        row_ok = expected is None or len(classes) == expected
        ok = ok and row_ok
        mark = "" if row_ok else f"   <-- expected {expected}"
        surface._closed_drawings.cache_clear()
        arcs_disjoint.cache_clear()
        t0 = time.monotonic()
        pairs = list(combinations(classes, 2))
        disjoint = sum(arcs_disjoint(genus, a, b) for a, b in pairs)
        pair_time = time.monotonic() - t0
        print(
            f"{genus:>2} {k:>2} {candidate_count(genus, k):>10} {len(classes):>10} {elapsed:>7.3f}s"
            f" {len(pairs):>8} {disjoint:>8} {pair_time:>7.3f}s{mark}"
        )
    print("\nall frozen counts match" if ok else "\nMISMATCH: see rows above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
