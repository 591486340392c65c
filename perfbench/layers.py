"""Per-layer metrics from the span files that ``tracer.py`` writes.

Layers are disklab's modules.  Metric names are ``<module>.<function>.<stat>``:
``.s`` is inclusive time of the outermost calls, ``.calls`` a call count, and
``<module>.self_s`` the module's summed self time.  Values are summed over the
jobs of one workload.
"""

from __future__ import annotations

LAYERS = ("surface", "disks", "retraction", "flagcomplex", "homology", "cli")
IO_FUNCTIONS = (
    "flagcomplex.canonical_json",
    "flagcomplex.write_text_file",
    "flagcomplex.read_json_file",
    "flagcomplex.complex_from_json_obj",
)
CALLS = (
    "surface.is_embeddable",
    "surface.solo_drawings",
    "surface.arc_intersection",
    "disks.disks_disjoint",
    "disks.validate_disk",
    "disks.classify_type",
    "disks.meets_distinguished",
    "disks.build_disk_catalog",
    "retraction.RetractionEngine.image",
    "flagcomplex.FlagComplex.neighbors",
    "homology.smith_normal_form",
)
SECONDS = (
    "surface.is_embeddable",
    "surface.solo_drawings",
    "surface.enumerate_arcs",
    "surface.arc_intersection",
    "disks.disks_disjoint",
    "disks.build_disk_catalog",
    "disks.catalog_to_json_obj",
    "disks.catalog_from_json_obj",
    "retraction.RetractionEngine.image",
    "retraction.verify_claim_cases",
    "retraction.verify_sphere",
    "retraction.render_report",
    "flagcomplex.check_retraction",
    "flagcomplex.flag_cliques",
    "homology.smith_normal_form",
    "homology.free_generator",
    "homology.reduced_homology",
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(docs: list[dict]) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric that the spans give."""
    calls: dict[str, int] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    outer: dict[str, float] = {}
    counters: dict[str, int] = {}
    pair_loop = import_s = 0.0
    snf_max_side = 0
    for doc in docs:
        for name, parent, n, incl, own in doc["nodes"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name.split(".")[0]] += own
            if name == "disks.disks_disjoint" and parent == "retraction.certify_minimality":
                pair_loop += incl
        for name, t in doc["outer"].items():
            outer[name] = outer.get(name, 0.0) + t
        for name, v in doc["counters"].items():
            counters[name] = counters.get(name, 0) + v
        snf_max_side = max(snf_max_side, doc["counters"]["snf_max_side"])
        import_s += doc["import_s"]

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SECONDS:
        metrics[f"{name}.s"] = (outer.get(name, 0.0), "s")
    metrics["surface.embeddable_frac"] = (
        _ratio(counters.get("codes_returned", 0), calls.get("surface.is_embeddable", 0)),
        "ratio",
    )
    metrics["surface.arc_intersection.distinct"] = (counters.get("arc_pairs_distinct", 0), "count")
    metrics["disks.disks_disjoint.disjoint_frac"] = (
        _ratio(counters.get("disjoint_true", 0), calls.get("disks.disks_disjoint", 0)),
        "ratio",
    )
    metrics["retraction.pair_loop.s"] = (pair_loop, "s")
    metrics["flagcomplex.flag_cliques.simplices"] = (counters.get("clique_simplices", 0), "count")
    metrics["flagcomplex.io.s"] = (sum(outer.get(n, 0.0) for n in IO_FUNCTIONS), "s")
    metrics["homology.smith_normal_form.entries"] = (counters.get("snf_entries", 0), "count")
    metrics["homology.smith_normal_form.max_side"] = (snf_max_side, "count")
    metrics["proc.import_s"] = (import_s, "s")
    return metrics
