"""disklab benchmark: cold-process CLI jobs with golden-checked outputs.

Run from the root of a disklab checkout::

    python3 perfbench/run.py --workload certify-wide --seed 1 --seconds 30 --trace 0

Every job is a fresh ``python3 -m disklab ...`` process against the
checkout's ``src/``, run one at a time, so no job sees another's in-process
caches.  A job fails on an unexpected exit code or on any output byte that
differs from its golden (or, for ``homology-cli``, from the oracle).

``--trace 0`` repeats rounds of the workload's jobs until ``--seconds`` is
used up and reports the end-to-end metrics:

- ``wall_s``: sum over the jobs of each job's median wall time, spawn to exit;
- ``peak_rss_mb``: the largest max-RSS of any job process (``os.wait4``);
- ``setup_s``: median wall time of a fresh interpreter that imports
  ``disklab.cli`` and exits.

``--trace 1`` runs each job once plainly and once under ``tracer.py`` and
reports the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the job failure
share is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import layers
import workloads
from workloads import Job, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")
SETUP_REPEATS = 9
JOB_TIMEOUT_S = 150


@dataclass
class JobResult:
    wall_s: float
    rss_mb: float
    cpu_s: float
    hashes: dict[str, str]
    ok: bool


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], env: dict, cwd: str, stdout, stderr) -> tuple[float, int, object]:
    """Run ``cmd`` to completion; (wall seconds, exit code, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    watchdog.start()
    reaped = False
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        watchdog.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_job(job: Job, env: dict, work: str, spans: str | None = None) -> JobResult:
    """Run one job in a fresh process and check every byte it wrote."""
    shutil.rmtree(job.out, ignore_errors=True)
    os.makedirs(job.out)
    if spans is None:
        cmd = [sys.executable, "-m", "disklab", *job.args]
    else:
        cmd = [sys.executable, TRACER, spans, job.name, "--", *job.args]
    log = os.path.join(work, "log")
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        wall, code, usage = spawn(cmd, env, work, out, err)
    hashes = {}
    for name in sorted(os.listdir(job.out)):
        with open(os.path.join(job.out, name), "rb") as fh:
            hashes[name] = sha256(fh.read())
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if job.expected is not None and hashes != job.expected:
        problems.append(f"outputs {hashes} differ from expected {job.expected}")
    if job.stdout_lines is not None:
        with open(log + ".out", encoding="utf-8", errors="replace") as fh:
            head = fh.read().splitlines()[: len(job.stdout_lines)]
        if head != job.stdout_lines:
            problems.append(f"printed {head}, expected {job.stdout_lines}")
    for problem in problems:
        print(f"FAIL {job.name}{' (traced)' if spans else ''}: {problem}", file=sys.stderr)
    return JobResult(
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
        hashes=hashes,
        ok=not problems,
    )


def setup_seconds(env: dict, cwd: str) -> float:
    """Median wall time of a fresh interpreter importing ``disklab.cli``."""
    times = []
    for _ in range(SETUP_REPEATS):
        wall, code, _ = spawn(
            [sys.executable, "-c", "import disklab.cli"],
            env,
            cwd,
            subprocess.DEVNULL,
            subprocess.DEVNULL,
        )
        if code != 0:
            raise RuntimeError(f"importing disklab.cli exited with code {code}")
        times.append(wall)
    return statistics.median(times)


def timed_run(chains: list[list[Job]], env: dict, work: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds(env, work)
    rng = random.Random(seed)
    walls: dict[str, list[float]] = {job.name: [] for chain in chains for job in chain}
    peak_rss = 0.0
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        order = list(chains)
        rng.shuffle(order)
        for chain in order:
            for job in chain:
                res = run_job(job, env, work)
                walls[job.name].append(res.wall_s)
                peak_rss = max(peak_rss, res.rss_mb)
                attempted += 1
                failed += not res.ok
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    rounds = len(next(iter(walls.values())))
    for name, values in walls.items():
        print(f"{name}: median {statistics.median(values):.4f} s over {len(values)} runs")
    print(f"rounds {rounds}, jobs {attempted}, fail_frac {failed / attempted}")
    metrics = {
        "wall_s": (sum(statistics.median(v) for v in walls.values()), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (setup, "s"),
    }
    return _result(attempted, failed, metrics)


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(chains: list[list[Job]], env: dict, work: str, seed: int) -> dict:
    order = list(chains)
    random.Random(seed).shuffle(order)
    attempted = failed = 0
    plain_wall = traced_wall = cpu = 0.0
    docs = []
    for chain in order:
        for job in chain:
            plain = run_job(job, env, work)
            spans = os.path.join(work, f"{job.name}.spans.json")
            traced = run_job(job, env, work, spans=spans)
            if traced.hashes != plain.hashes:
                print(f"FAIL {job.name}: traced outputs differ from untraced", file=sys.stderr)
                traced.ok = False
            attempted += 2
            failed += (not plain.ok) + (not traced.ok)
            plain_wall += plain.wall_s
            traced_wall += traced.wall_s
            cpu += plain.cpu_s
            if os.path.exists(spans):  # a job that crashed writes no spans
                with open(spans, encoding="utf-8") as fh:
                    docs.append(json.load(fh))
    metrics = layers.per_layer_metrics(docs)
    metrics["proc.cpu_s"] = (cpu, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    metrics["check.fail_frac"] = (failed / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    return _result(attempted, failed, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "disklab", "cli.py")):
        print(f"error: no disklab sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    env = child_env(src)
    found = subprocess.run(
        [sys.executable, "-c", "import disklab; print(disklab.__file__)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    ).stdout.strip()
    if os.path.dirname(os.path.dirname(found)) != src:
        print(f"error: disklab imports from {found!r}, not from {src}", file=sys.stderr)
        return 2

    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        chains = workloads.make_chains(args.workload, args.seed, work, workloads.load_goldens())
        if args.trace:
            result = traced_run(chains, env, work, args.seed)
        else:
            result = timed_run(chains, env, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
