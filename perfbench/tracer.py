"""Outside-in tracer for one disklab CLI job.

Usage::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON JOB_ID -- <disklab arguments>

runs ``disklab <arguments>`` in this interpreter exactly as ``python3 -m
disklab`` would, with every public function of every disklab module (except
the accessors in ``UNTRACED``) wrapped in a timing span, and writes the spans
to SPANS_JSON when the job ends.
Nothing under ``src/`` is edited: each public name is rebound in every
disklab module that holds it (``retraction`` holds its own
``disks_disjoint``, ``disks`` its own ``arc_intersection``), and two methods,
``RetractionEngine.image`` and ``FlagComplex.neighbors``, are replaced on
their classes.  The tracer never touches disklab's caches.

A span has a name, start, end, parent and job id.  Hot calls are folded:
the first ``SPAN_CAP`` spans of each (name, parent name) pair are kept one
by one, and every call is also added to that pair's aggregate (calls,
inclusive time, self time).  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

SPAN_CAP = 64

# disklab modules in import order; ``cli`` imports all the others.
MODULES = ("errors", "surface", "flagcomplex", "homology", "disks", "retraction", "cli")
METHODS = (("retraction", "RetractionEngine", "image"), ("flagcomplex", "FlagComplex", "neighbors"))

# Accessors of a few hundred nanoseconds each, called up to ~10^5 times per
# certify job.  A span around each would cost more than the work it times, so
# their time counts as their caller's self time.
UNTRACED = frozenset(
    {
        "disks.disk_key",
        "disks.disk_variant",
        "disks.disk_side",
        "disks.disk_tubes",
        "disks.disk_regions",
        "disks.resolve_partner",
        "disks.distinguished_disk",
        "surface.tube_side",
        "surface.opposite_side",
        "surface.side_word",
        "surface.validate_code",
        "surface.canonical_code",
        "surface.reverse_code",
        "surface.build_punctured_model",
        "homology.permutation_sign",
    }
)


class Tracer:
    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.stack: list[list] = []  # frames: [name, span id or None, child time]
        self.nodes: dict[str, dict] = {}  # name -> parent name -> [calls, inclusive s, self s]
        self.outer: dict[str, float] = {}  # inclusive time of outermost calls per name
        self.spans: list[dict] = []

    def wrap(self, name: str, fn, observe=None):
        stack, spans, outer = self.stack, self.spans, self.outer
        by_parent: dict[str | None, list] = {}  # parent name -> [calls, inclusive s, self s]
        for_parent = by_parent.get
        self.nodes[name] = by_parent
        depth = [0]
        clock = time.perf_counter
        job_id = self.job_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_name = parent[0] if parent else None
            node = for_parent(parent_name)
            if node is None:
                node = by_parent[parent_name] = [0, 0.0, 0.0]
            span_id = None
            if node[0] < SPAN_CAP:
                span_id = len(spans)
                spans.append(None)  # filled in at exit; children append meanwhile
            frame = [name, span_id, 0.0]
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                dur = end - start
                node[0] += 1
                node[1] += dur
                node[2] += dur - frame[2]
                if not depth[0]:
                    outer[name] = outer.get(name, 0.0) + dur
                if parent is not None:
                    parent[2] += dur
                if span_id is not None:
                    spans[span_id] = {
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": parent[1] if parent else None,
                        "parent_name": parent_name,
                        "job": job_id,
                    }
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "job": self.job_id,
            "nodes": [
                [name, parent, *stats]
                for name, by_parent in sorted(self.nodes.items())
                for parent, stats in sorted(by_parent.items(), key=str)
                if stats[0]
            ],
            "outer": self.outer,
            "spans": self.spans,
        }


def _public_functions(module):
    """(attribute, function) for each public function that ``module`` defines."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        # lru_cache wrappers (solo_drawings) are callables, not plain functions.
        if inspect.isfunction(obj) or (callable(obj) and hasattr(obj, "__wrapped__")):
            yield attr, obj


def install(tracer: Tracer, modules: dict) -> dict:
    """Wrap every public disklab function and rebind it wherever it is held.

    Returns the per-name counters that the observers fill.
    """
    counters = {
        "arc_pairs": set(),
        "disjoint_true": 0,
        "codes_returned": 0,
        "snf_entries": 0,
        "snf_max_side": 0,
        "clique_simplices": 0,
    }

    def arc_pair(args, result):
        a, b, m = args[0], args[1], args[2]
        counters["arc_pairs"].add((m.genus, a, b))

    def disjoint(args, result):
        if result:
            counters["disjoint_true"] += 1

    def codes(args, result):
        counters["codes_returned"] += len(result)

    def snf(args, result):
        a = args[0]
        rows, cols = len(a), len(a[0]) if a else 0
        counters["snf_entries"] += rows * cols
        counters["snf_max_side"] = max(counters["snf_max_side"], rows, cols)

    def simplices(args, result):
        counters["clique_simplices"] += sum(len(v) for v in result.values())

    observers = {
        "surface.arc_intersection": arc_pair,
        "disks.disks_disjoint": disjoint,
        "surface.enumerate_arcs": codes,
        "homology.smith_normal_form": snf,
        "flagcomplex.flag_cliques": simplices,
    }

    # id(original) -> wrapper; each wrapper holds its original, so ids stay unique.
    wrapped: dict[int, object] = {}
    for short, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{short}.{attr}"
            if name not in UNTRACED:
                wrapped[id(fn)] = tracer.wrap(name, fn, observers.get(name))
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
    for short, cls_name, meth in METHODS:
        cls = getattr(modules[short], cls_name)
        setattr(cls, meth, tracer.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
    return counters


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON JOB_ID -- <disklab arguments>", file=sys.stderr)
        return 2
    out_path, job_id, cli_args = argv[0], argv[1], argv[3:]
    t0 = time.perf_counter()
    modules = {name: importlib.import_module(f"disklab.{name}") for name in MODULES}
    import_s = time.perf_counter() - t0

    tracer = Tracer(job_id)
    counters = install(tracer, modules)
    try:
        rc = modules["cli"].main(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    doc = tracer.summary()
    doc["pid"] = os.getpid()
    doc["import_s"] = import_s
    canonical_code = modules["surface"].canonical_code  # in UNTRACED, so not wrapped
    distinct = {(g, *sorted((canonical_code(a), canonical_code(b)))) for g, a, b in counters.pop("arc_pairs")}
    counters["arc_pairs_distinct"] = len(distinct)
    doc["counters"] = counters
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
