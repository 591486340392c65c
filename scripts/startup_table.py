#!/usr/bin/env python3
"""Tabulate what a cold ``disklab`` process spends on imports, per subcommand.

Each subcommand (``build``, ``certify``, ``certify --from-build`` and
``homology``, on small inputs) runs ``--runs`` times, each time in a fresh
``python3 -X importtime -m disklab`` process.  From each run's import log the
script takes the self time of every ``disklab`` module and of the standard
modules in ``WATCHED``, and the time to import the subcommand's layers: the
cumulative time of the ``disklab`` modules that the subcommand imports when
it starts, after ``disklab.cli`` has loaded (``surface``, ``disks``,
``retraction``, ``homology``; see ``disklab/cli.py``).  It prints the median
of each, in milliseconds; ``-`` marks a module the subcommand does not load.

The sources are copied to a temporary directory first, so no
``__pycache__`` lands in the checkout.  The children inherit the
environment: with ``PYTHONDONTWRITEBYTECODE=1`` every run compiles the
package from source, as every benchmark job does on a host that sets it.
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

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = ("disklab.surface", "disklab.disks", "disklab.retraction", "disklab.homology")
WATCHED = ("dataclasses", "inspect")
SQUARE = {
    "vertices": [{"id": v, "label": v} for v in "abcd"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
}


def subcommands(work: str) -> dict[str, list[str]]:
    """Each row's arguments; ``certify --from-build`` reads what ``build`` wrote."""
    build = os.path.join(work, "build")
    return {
        "build": ["build", "--genus", "1", "--tubes", "1", "--out", build],
        "certify": ["certify", "--genus", "1", "--tubes", "1", "--out", os.path.join(work, "certify")],
        "certify --from-build": ["certify", "--from-build", build, "--out", os.path.join(work, "from-build")],
        "homology": ["homology", os.path.join(work, "square.json"), "2", "--out", os.path.join(work, "homology")],
    }


def import_log(stderr: str) -> tuple[dict[str, float], float]:
    """Self seconds of each module, and cumulative seconds of the layers imported at top level."""
    self_s: dict[str, float] = {}
    layers_s = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        module = name.strip()
        self_s[module] = int(own) / 1e6
        # A layer that ``cmd_*`` imports is logged at the top level, unindented.
        if module in LAYERS and name.startswith(" " + module):
            layers_s += int(cumulative) / 1e6
    return self_s, layers_s


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
        rows = subcommands(work)
        self_s = {row: {} for row in rows}
        layers_s = {row: [] for row in rows}
        for _ in range(args.runs):
            for row, argv_ in rows.items():
                result = subprocess.run(
                    [sys.executable, "-X", "importtime", "-m", "disklab", *argv_],
                    capture_output=True, text=True, env=env, cwd=work,
                )
                if result.returncode != 0:
                    print(f"{row}: exit {result.returncode}\n{result.stderr[-2000:]}", file=sys.stderr)
                    return 1
                own, layers = import_log(result.stderr)
                for module, seconds in own.items():
                    self_s[row].setdefault(module, []).append(seconds)
                layers_s[row].append(layers)

    modules = sorted({m for row in self_s.values() for m in row if m.split(".")[0] == "disklab"}) + list(WATCHED)
    width = max(len(row) for row in rows)

    def line(label: str, samples: dict) -> str:
        cells = (f"{1e3 * statistics.median(samples[row]):.1f}" if samples[row] else "-" for row in rows)
        return f"{label:<28}" + " ".join(f"{cell:>{width}}" for cell in cells)

    print(f"median ms of {args.runs} runs; PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')}")
    print(f"{'':<28}" + " ".join(f"{row:>{width}}" for row in rows))
    print(line("layers (cumulative)", layers_s))
    for module in modules:
        print(line(f"{module} self", {row: self_s[row].get(module, []) for row in rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
