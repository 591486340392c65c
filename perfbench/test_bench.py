"""Tests of the benchmark itself.  From the repository root::

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess

import pytest

import layers
import oracle
import run
import workloads
from workloads import Job

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV = run.child_env(os.path.join(ROOT, "src"))


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _small_jobs(work: str) -> list[Job]:
    """A quick certify job and a quick homology job, expecting nothing yet."""
    rng = random.Random(5)
    edges = oracle.random_graph(rng, 14, 45)
    path = os.path.join(work, "small.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(oracle.complex_json_obj(14, edges), fh)
    return [
        Job("certify-small", ["certify", "--genus", "1", "--tubes", "2", "--out", f"{work}/c"], f"{work}/c", None),
        Job("homology-small", ["homology", path, "3", "--out", f"{work}/h"], f"{work}/h", None),
    ]


@pytest.fixture
def work(tmp_path):
    return str(tmp_path)


def test_tracer_changes_no_output_byte(work):
    for job in _small_jobs(work):
        plain = run.run_job(job, ENV, work)
        traced = run.run_job(job, ENV, work, spans=os.path.join(work, "spans.json"))
        assert plain.ok and traced.ok
        assert plain.hashes and traced.hashes == plain.hashes


def test_layer_self_times_account_for_traced_wall(work):
    job = _small_jobs(work)[0]
    spans = os.path.join(work, "spans.json")
    res = run.run_job(job, ENV, work, spans=spans)
    with open(spans, encoding="utf-8") as fh:
        doc = json.load(fh)
    self_total = sum(row[4] for row in doc["nodes"])
    # Every wrapped call sits under cli.main, so self times sum to its span.
    assert self_total == pytest.approx(doc["outer"]["cli.main"], rel=1e-6)
    covered = self_total + doc["import_s"]
    # What is left is interpreter start-up and exit and writing the span
    # file: a fixed cost of a few tenths of a second at most.
    assert covered <= res.wall_s < covered + 0.3 + 0.1 * covered
    names = {row[0].split(".")[0] for row in doc["nodes"]}
    assert names == set(layers.LAYERS)


def test_spans_carry_name_times_parent_and_job(work):
    job = _small_jobs(work)[0]
    spans = os.path.join(work, "spans.json")
    run.run_job(job, ENV, work, spans=spans)
    with open(spans, encoding="utf-8") as fh:
        doc = json.load(fh)
    kept = doc["spans"]
    assert kept and all(s["job"] == "certify-small" and s["end"] >= s["start"] for s in kept)
    for s in kept:
        if s["parent"] is not None:
            parent = kept[s["parent"]]
            assert parent["name"] == s["parent_name"]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
    # Hot calls are folded, not kept one by one.
    calls = sum(row[2] for row in doc["nodes"])
    assert len(kept) < calls


def test_isolation_comes_from_fresh_processes_only(work):
    sources = [
        os.path.join(HERE, name)
        for name in os.listdir(HERE)
        if name.endswith(".py") and name != os.path.basename(__file__)
    ]
    private = re.compile(r"_PAIR_CACHE|cache_clear|cache_info|cache_parameters")
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            assert not private.search(fh.read()), path
    job = _small_jobs(work)[0]
    pids = set()
    for _ in range(2):
        spans = os.path.join(work, "spans.json")
        run.run_job(job, ENV, work, spans=spans)
        with open(spans, encoding="utf-8") as fh:
            pids.add(json.load(fh)["pid"])
    assert len(pids) == 2 and os.getpid() not in pids


def test_failures_are_detected(work):
    job = _small_jobs(work)[0]
    job.expected = {"certificate.json": "0" * 64, "report.txt": "0" * 64}
    assert not run.run_job(job, ENV, work).ok
    bad = Job("bad-args", ["certify", "--genus", "0", "--tubes", "2", "--out", f"{work}/b"], f"{work}/b", {})
    assert not run.run_job(bad, ENV, work).ok


def test_goldens_cover_every_fixed_job(work):
    goldens = workloads.load_goldens()
    names = set()
    for workload in workloads.FIXED:
        for chain in workloads.make_chains(workload, 0, work, goldens):
            for job in chain:
                names.add(job.name)
                outputs = {"certificate.json", "report.txt"} if job.args[0] == "certify" else {"disks.json", "surface.json"}
                assert set(job.expected) == outputs
    assert names == set(goldens)


def test_oracle_on_known_complexes():
    def betti(n, edges, d_max):
        return oracle.reduced_betti(n, edges, d_max)

    # The octahedral 2-sphere: every pair except the antipodes (i, i + 3).
    octahedron = [(u, v) for u in range(6) for v in range(u + 1, 6) if v != u + 3]
    assert betti(6, octahedron, 3) == [0, 0, 1, 0]
    assert betti(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 2) == [0, 1, 0]
    assert betti(5, [(u, v) for u in range(5) for v in range(u + 1, 5)], 3) == [0, 0, 0, 0]
    assert betti(4, [(0, 1), (2, 3)], 1) == [1, 0]


def test_homology_inputs_follow_the_seed(work):
    dirs = [os.path.join(work, "a"), os.path.join(work, "b")]
    for d in dirs:
        os.makedirs(d)
    a, b = (workloads.make_chains("homology-cli", 11, d) for d in dirs)
    assert [c[0].expected for c in a] == [c[0].expected for c in b]
    for x, y in zip(a, b):
        with open(x[0].args[1], "rb") as fa, open(y[0].args[1], "rb") as fb:
            assert fa.read() == fb.read()


def test_metric_names_match_benchmark_json(work):
    spec = _benchmark_json()
    jobs = [[job] for job in _small_jobs(work)]
    timed = run.timed_run(jobs, ENV, work, seed=1, seconds=0)
    assert timed["correct"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in timed["metrics"].items()
    }
    traced = run.traced_run(jobs, ENV, work, seed=1)
    assert traced["correct"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in traced["metrics"].items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = _benchmark_json()
    proc = subprocess.run(
        spec["command"] + ["--workload", "certify-wide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
