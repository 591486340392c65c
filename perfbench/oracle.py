"""Independent homology oracle for the ``homology-cli`` workload.

Nothing here imports disklab.  Cliques come from this module's own
enumeration over adjacency bitmasks, and reduced Betti numbers come from the
ranks of the boundary matrices modulo a large prime, computed by sparse
column reduction.  From them the oracle renders the exact bytes that
``disklab homology FILE D --out DIR`` must write to ``homology.json`` and
the profile lines it must print.
"""

from __future__ import annotations

import json
import random

PRIME = 2_147_483_647  # 2**31 - 1


def random_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A uniformly random simple graph on ``n`` vertices with exactly ``m`` edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, m))


def vertex_id(i: int) -> str:
    # Zero-padded so that lexicographic id order equals numeric order.
    return f"v{i:03d}"


def complex_json_obj(n: int, edges: list[tuple[int, int]]) -> dict:
    """The flag-complex JSON document ``disklab homology`` reads."""
    return {
        "vertices": [{"id": vertex_id(i), "label": None} for i in range(n)],
        "edges": [[vertex_id(u), vertex_id(v)] for u, v in edges],
    }


def cliques(n: int, edges: list[tuple[int, int]], top: int) -> list[list[tuple[int, ...]]]:
    """Cliques by dimension 0..top, each a sorted vertex tuple."""
    higher = [0] * n  # bitmask of neighbours with a larger index
    for u, v in edges:
        higher[u] |= 1 << v
    out: list[list[tuple[int, ...]]] = [[(v,) for v in range(n)]]
    # Each frontier entry is (clique, common higher neighbours of its members).
    frontier = [((v,), higher[v]) for v in range(n)]
    for _ in range(top):
        nxt = []
        for clique, common in frontier:
            rest = common
            while rest:
                w = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                nxt.append((clique + (w,), common & higher[w]))
        out.append([c for c, _ in nxt])
        frontier = nxt
    return out


def boundary_rank(faces: list[tuple[int, ...]], cells: list[tuple[int, ...]]) -> int:
    """Rank mod PRIME of the simplicial boundary map from ``cells`` to ``faces``."""
    index = {f: i for i, f in enumerate(faces)}
    pivots: dict[int, dict[int, int]] = {}  # lowest row -> reduced column
    for cell in cells:
        col: dict[int, int] = {}
        for i in range(len(cell)):
            col[index[cell[:i] + cell[i + 1 :]]] = 1 if i % 2 == 0 else PRIME - 1
        while col:
            low = max(col)
            other = pivots.get(low)
            if other is None:
                pivots[low] = col
                break
            factor = col[low] * pow(other[low], PRIME - 2, PRIME) % PRIME
            for row, val in other.items():
                new = (col.get(row, 0) - factor * val) % PRIME
                if new:
                    col[row] = new
                else:
                    col.pop(row, None)
    return len(pivots)


def reduced_betti(n: int, edges: list[tuple[int, int]], d_max: int) -> list[int]:
    """Reduced Betti numbers in dimensions 0..d_max, over GF(PRIME)."""
    by_dim = cliques(n, edges, d_max + 1)
    # rank[k] is the rank of the boundary C_k -> C_{k-1}; the augmentation
    # C_0 -> Z has rank 1 whenever there is a vertex.
    rank = [1 if n else 0] + [
        boundary_rank(by_dim[k - 1], by_dim[k]) for k in range(1, d_max + 2)
    ]
    return [len(by_dim[k]) - rank[k] - rank[k + 1] for k in range(d_max + 1)]


def describe(betti: int) -> str:
    if betti == 0:
        return "0"
    return "Z" if betti == 1 else f"Z^{betti}"


def expected_homology(n: int, edges: list[tuple[int, int]], d_max: int) -> tuple[bytes, list[str]]:
    """The ``homology.json`` bytes and the profile lines the CLI must print.

    A random flag complex of this size is torsion-free in practice, so the
    oracle expects empty torsion lists; a complex with torsion would show up
    as a failed job, never as a silent pass.
    """
    betti = reduced_betti(n, edges, d_max)
    doc = {
        "kind": "homology_profile",
        "complex": {"vertices": n, "edges": len(edges)},
        "d_max": d_max,
        "profile": [{"dimension": k, "betti": b, "torsion": []} for k, b in enumerate(betti)],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [f"reduced H_{k} = {describe(b)}" for k, b in enumerate(betti)]
    return text.encode("utf-8"), lines
