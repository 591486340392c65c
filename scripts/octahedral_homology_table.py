#!/usr/bin/env python3
"""Tabulate reduced homology of iterated-suspension octahedral spheres.

The n-pair cross-polytope boundary (n-fold iterated suspension of two
points) is homeomorphic to the sphere S^{n-1}, so its reduced homology
should be Z in dimension n-1 and zero elsewhere, with no torsion.  This
script computes the profile for n = 1..N with exact integer homology (one
sparse elimination of the boundary matrices: unit pivots, and Euclid rounds
on a least entry when no unit is left) and prints one row per n.  The spheres come from
``tests/oracles.py``, where the tests build them too.

Usage:
    python3 scripts/octahedral_homology_table.py [N]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from disklab.flagcomplex import flag_cliques
from disklab.homology import reduced_homology

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from oracles import octahedral_sphere  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n_max", nargs="?", type=int, default=6)
    args = parser.parse_args(argv)

    header = f"{'n':>2} {'vertices':>8} {'top simplices':>13} {'time':>8}  reduced Betti numbers b_0..b_n"
    print(header)
    print("-" * len(header))
    ok = True
    for n in range(1, args.n_max + 1):
        sphere = octahedral_sphere(n)
        t0 = time.monotonic()
        profile = reduced_homology(sphere, d_max=n)
        elapsed = time.monotonic() - t0
        betti = [rank for rank, _ in profile]
        torsion_free = all(tors == () for _, tors in profile)
        expected = [1 if k == n - 1 else 0 for k in range(n + 1)]
        row_ok = betti == expected and torsion_free
        ok = ok and row_ok
        top = len(flag_cliques(sphere, n - 1)[n - 1])
        mark = "" if row_ok else "   <-- UNEXPECTED"
        print(
            f"{n:>2} {sphere.vertex_count():>8} {top:>13} {elapsed:>7.3f}s  "
            f"{betti}{'' if torsion_free else ' + torsion'}{mark}"
        )
    print("\nall rows match the sphere profile" if ok else "\nMISMATCH: see rows above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
