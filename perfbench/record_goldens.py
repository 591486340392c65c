"""Record ``goldens.json``: the sha256 of every file each fixed job writes.

Run from the root of a checkout whose outputs are the reference::

    python3 perfbench/record_goldens.py

Goldens are recorded once, at the commit that defines the benchmark; a later
change that alters output bytes on purpose re-records them and says so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    env = run.child_env(os.path.join(root, "src"))
    work = os.path.join(root, ".bench_work", "goldens")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    goldens = {}
    try:
        for workload in workloads.FIXED:
            for chain in workloads.make_chains(workload, 0, work, goldens=None):
                for job in chain:
                    res = run.run_job(job, env, work)
                    if not res.hashes:
                        print(f"error: {job.name} wrote nothing", file=sys.stderr)
                        return 1
                    goldens[job.name] = res.hashes
                    print(f"{job.name}: {res.wall_s:.2f} s, {sorted(res.hashes)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
