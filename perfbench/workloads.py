"""The benchmark's workloads: which ``disklab`` jobs each one runs, and what
every job must write.

A workload is a list of chains; a chain is a list of jobs that run in order
(``certify --from-build`` reads what the ``build`` before it wrote).  The
seed orders the chains within each round and, for ``homology-cli``, draws
the input complexes.  Every job of the fixed workloads has golden sha256
sums in ``goldens.json``; every ``homology-cli`` job is checked against the
independent oracle in ``oracle.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from math import comb

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

# Fixed jobs: (name, disklab arguments).  A "{build:NAME}" argument stands for
# the output directory of the job NAME earlier in the same chain.
FIXED = {
    "certify-wide": [
        [("certify-g1-n4", ["certify", "--genus", "1", "--tubes", "4"])],
        [("certify-g2-n4", ["certify", "--genus", "2", "--tubes", "4"])],
        [("certify-g3-n4", ["certify", "--genus", "3", "--tubes", "4"])],
    ],
    "certify-deep": [
        [("certify-g1-n5", ["certify", "--genus", "1", "--tubes", "5"])],
    ],
    "arcs-build": [
        [
            ("build-g1-m2-k7", ["build", "--genus", "1", "--tubes", "2", "--arc-bound", "7"]),
            ("certify-from-build-g1-k7", ["certify", "--from-build", "{build:build-g1-m2-k7}"]),
        ],
        [
            ("build-g2-m2-k5", ["build", "--genus", "2", "--tubes", "2", "--arc-bound", "5"]),
            ("certify-from-build-g2-k5", ["certify", "--from-build", "{build:build-g2-m2-k5}"]),
        ],
    ],
}

# homology-cli: six random graphs G(24, 138), edge density 1/2, d_max 3.
HOMOLOGY_GRAPHS = ((24, 138),) * 6
HOMOLOGY_DMAX = 3
# A drawn graph is kept only if its 3-, 4- and 5-clique counts lie within
# these shares of their expected values.  SNF time follows the boundary
# matrix sizes, so this keeps the work per seed comparable.
CLIQUE_WINDOW = {3: 0.03, 4: 0.05, 5: 0.1}

WORKLOADS = tuple(FIXED) + ("homology-cli",)


@dataclass
class Job:
    name: str
    args: list[str]  # disklab arguments, --out included
    out: str  # directory the job writes into; emptied before each run
    expected: dict[str, str] | None  # file name -> sha256 of its bytes; None while recording
    stdout_lines: list[str] | None = None  # lines stdout must start with


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def _fixed_chains(workload: str, work: str, goldens: dict | None) -> list[list[Job]]:
    chains = []
    for chain in FIXED[workload]:
        jobs = []
        for name, args in chain:
            args = [
                os.path.join(work, a[len("{build:") : -1]) if a.startswith("{build:") else a
                for a in args
            ]
            out = os.path.join(work, name)
            expected = goldens[name] if goldens is not None else None
            jobs.append(Job(name, args + ["--out", out], out, expected))
        chains.append(jobs)
    return chains


def _expected_cliques(n: int, m: int, k: int) -> float:
    p = m / comb(n, 2)
    return comb(n, k) * p ** comb(k, 2)


def draw_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random G(n, m) whose clique counts lie inside ``CLIQUE_WINDOW``."""
    while True:
        edges = oracle.random_graph(rng, n, m)
        by_dim = oracle.cliques(n, edges, max(CLIQUE_WINDOW) - 1)
        if all(
            abs(len(by_dim[k - 1]) - _expected_cliques(n, m, k)) <= share * _expected_cliques(n, m, k)
            for k, share in CLIQUE_WINDOW.items()
        ):
            return edges


def _homology_chains(seed: int, work: str) -> list[list[Job]]:
    rng = random.Random(seed)
    chains = []
    for i, (n, m) in enumerate(HOMOLOGY_GRAPHS):
        name = f"homology-{i}-n{n}-m{m}"
        edges = draw_graph(rng, n, m)
        path = os.path.join(work, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(oracle.complex_json_obj(n, edges), fh)
        data, lines = oracle.expected_homology(n, edges, HOMOLOGY_DMAX)
        out = os.path.join(work, name)
        args = ["homology", path, str(HOMOLOGY_DMAX), "--out", out]
        chains.append([Job(name, args, out, {"homology.json": sha256(data)}, lines)])
    return chains


def make_chains(workload: str, seed: int, work: str, goldens: dict | None = None) -> list[list[Job]]:
    """The workload's chains, with inputs written under ``work``.

    ``goldens`` maps each fixed job to its expected file hashes; pass None
    only to record them.
    """
    if workload == "homology-cli":
        return _homology_chains(seed, work)
    return _fixed_chains(workload, work, goldens)
