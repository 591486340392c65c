#!/usr/bin/env python3
"""Tabulate what a cold ``disklab`` process spends on imports, per subcommand.

Each subcommand (``build``, ``certify``, ``certify --from-build`` and
``homology``, on small inputs) runs ``--runs`` times, each time in a fresh
``python3 -X importtime -m disklab`` process.  From each run's import log the
script takes the self time of every ``disklab`` module and of the standard
modules in ``WATCHED``, and the time to import the subcommand's layers: the
cumulative time of the ``disklab`` modules that the subcommand imports when
it starts, after ``disklab.cli`` has loaded (``surface``, ``disks``,
``retraction``, ``homology``; see ``disklab/cli.py``), and the cumulative
time of ``site``, which every interpreter imports at start-up unless run
with ``-S``.  It also times each
process's total wall, spawn to exit, beside a ``python3 -c pass`` column: an
interpreter that starts and stops with the same flags and environment, so
the difference is what ``disklab`` itself costs.  It prints the median of
each, in milliseconds; ``-`` marks a module the column does not load.

The sources are copied to a temporary directory first, so no
``__pycache__`` lands in the checkout.  The children inherit the
environment: with ``PYTHONDONTWRITEBYTECODE=1`` every run compiles the
package from source, as every benchmark job does on a host that sets it.
The "total wall, cached bytecode" row times the same children with
``PYTHONPYCACHEPREFIX`` inside the temporary directory and
``PYTHONDONTWRITEBYTECODE`` removed, for those children only, after one
untimed round that writes the bytecode; each of its runs follows the
matching run from source, so host drift hits both rows alike, and their
difference is what compiling the package costs.
``--src`` times another checkout's sources, for a before/after table.

Usage:
    python3 scripts/startup_table.py [--runs N] [--src DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = ("disklab.surface", "disklab.disks", "disklab.retraction", "disklab.homology")
WATCHED = ("dataclasses", "inspect")
SQUARE = {
    "vertices": [{"id": v, "label": v} for v in "abcd"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
}


BASELINE = "python3 -c pass"


def subcommands(work: str) -> dict[str, list[str]]:
    """Each column's interpreter arguments; ``certify --from-build`` reads what ``build`` wrote."""
    build = os.path.join(work, "build")
    return {
        "build": ["-m", "disklab", "build", "--genus", "1", "--tubes", "1", "--out", build],
        "certify": ["-m", "disklab", "certify", "--genus", "1", "--tubes", "1", "--out", os.path.join(work, "certify")],
        "certify --from-build": [
            "-m", "disklab", "certify", "--from-build", build, "--out", os.path.join(work, "from-build")
        ],
        "homology": [
            "-m", "disklab", "homology", os.path.join(work, "square.json"), "2", "--out", os.path.join(work, "homology")
        ],
        BASELINE: ["-c", "pass"],
    }


def import_log(stderr: str) -> tuple[dict[str, float], float, float]:
    """Self seconds of each module, cumulative seconds of the layers imported at top level, and of ``site``."""
    self_s: dict[str, float] = {}
    layers_s = site_s = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        module = name.strip()
        self_s[module] = int(own) / 1e6
        # A layer that ``cmd_*`` imports is logged at the top level, unindented.
        if module in LAYERS and name.startswith(" " + module):
            layers_s += int(cumulative) / 1e6
        if name == " site":
            site_s = int(cumulative) / 1e6
    return self_s, layers_s, site_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh processes per subcommand (default 15)")
    parser.add_argument(
        "--src", default=os.path.join(HERE, os.pardir, "src"), help="sources to time (default: this checkout's)"
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="disklab-startup-") as work:
        src = os.path.join(work, "src")
        shutil.copytree(args.src, src, ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(work, "square.json"), "w", encoding="utf-8") as fh:
            json.dump(SQUARE, fh)
        env = dict(os.environ, PYTHONPATH=src)
        cached_env = dict(env, PYTHONPYCACHEPREFIX=os.path.join(work, "pycache"))
        cached_env.pop("PYTHONDONTWRITEBYTECODE", None)
        rows = subcommands(work)
        self_s = {row: {} for row in rows}
        layers_s = {row: [] for row in rows}
        wall_s = {row: [] for row in rows}
        cached_s = {row: [] for row in rows}
        site_s = {row: [] for row in rows}

        def run(row: str, env_: dict):
            """One child of ``row`` under ``env_``: (wall seconds, result), or ``None`` if it failed."""
            start = time.perf_counter()
            result = subprocess.run(
                [sys.executable, "-X", "importtime", *rows[row]], capture_output=True, text=True, env=env_, cwd=work
            )
            if result.returncode != 0:
                print(f"{row}: exit {result.returncode}\n{result.stderr[-2000:]}", file=sys.stderr)
                return None
            return time.perf_counter() - start, result

        # A first round writes the bytecode and is not timed; after it, each
        # round times every row from source and then from bytecode.
        if any(run(row, cached_env) is None for row in rows):
            return 1
        for _ in range(args.runs):
            for row in rows:
                timed, cached = run(row, env), run(row, cached_env)
                if timed is None or cached is None:
                    return 1
                wall_s[row].append(timed[0])
                cached_s[row].append(cached[0])
                own, layers, site = import_log(timed[1].stderr)
                site_s[row].append(site)
                for module, seconds in own.items():
                    self_s[row].setdefault(module, []).append(seconds)
                if row != BASELINE:
                    layers_s[row].append(layers)

    modules = sorted({m for row in self_s.values() for m in row if m.split(".")[0] == "disklab"}) + list(WATCHED)
    width = max(len(row) for row in rows)

    def line(label: str, samples: dict) -> str:
        cells = (f"{1e3 * statistics.median(samples[row]):.1f}" if samples[row] else "-" for row in rows)
        return f"{label:<28}" + " ".join(f"{cell:>{width}}" for cell in cells)

    print(f"median ms of {args.runs} runs; PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")
    print(f"{'':<28}" + " ".join(f"{row:>{width}}" for row in rows))
    print(line("total wall", wall_s))
    print(line("total wall, cached bytecode", cached_s))
    print(line("site (cumulative)", site_s))
    print(line("layers (cumulative)", layers_s))
    for module in modules:
        print(line(f"{module} self", {row: self_s[row].get(module, []) for row in rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
