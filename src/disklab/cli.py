"""Command-line interface: build catalogs, certify minimality, compute homology.

Exit codes: 0 success (certificate passed, when one is produced); 1 a
certificate was produced but FAILED; 2 invalid parameters, a malformed input
file or an unwritable output path (the message names the location); 3 a
configured resource cap was exceeded.  ``homology``'s ``--max-simplices``
caps the cliques of each dimension and not ``d_max``: the profile stops at
the complex's first empty dimension, so a huge ``d_max`` costs no more work.

Every artifact is rendered through canonical JSON, so two runs with the same
options produce byte-identical files; nothing here is randomized.

Each process loads only the layers its subcommand runs.  At module level
this file imports what argument parsing and error handling need (``errors``
and the JSON helpers of ``flagcomplex``); each ``cmd_*`` imports its own
layers at the top of its body:

- ``build`` loads ``surface`` and ``disks``;
- ``certify`` loads ``disks`` and ``retraction``, which bring ``surface``
  and ``homology`` (for the sphere's cycle in closed form only: certify
  builds no chain complex);
- ``homology`` loads ``homology`` only.

No subcommand loads ``dataclasses``, and with it ``inspect``: the
descriptor classes are plain slotted records
(:class:`~disklab.surface.FrozenRecord`).  Every ``disklab`` run is a fresh
interpreter that often compiles the package from source, so each module it
does not import is startup time saved.  Compiling from source on Python
3.11, the layers of ``build`` take 9 ms to import and those of ``certify``
14 ms (medians of 21 runs of ``scripts/startup_table.py`` on a 2-vCPU
host); with ``dataclasses`` they took 41 and 66 ms.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import (
    InvalidConfigError,
    MalformedFileError,
    ResourceCapError,
)
from .flagcomplex import DEFAULT_MAX_SIMPLICES, canonical_json, read_json_file, write_text_file

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAP = 3

DEFAULT_ARC_BOUND = 3
DEFAULT_BANDSUM_DEPTH = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    # The catalog options parse to None when absent, so that `certify
    # --from-build` can reject them; `_catalog_config` fills in the defaults.
    parser.add_argument(
        "--arc-bound", type=int, help=f"maximum arc-code length (default {DEFAULT_ARC_BOUND})"
    )
    parser.add_argument(
        "--bandsum-depth", type=int, help=f"band-sum nesting depth, 0-2 (default {DEFAULT_BANDSUM_DEPTH})"
    )
    parser.add_argument("--out", default=".", help="output directory (default: current directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disklab",
        description="Catalog compressing disks of tubed surfaces and certify topological minimality bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build",
        help="enumerate the disk catalog of the surface with the given number of tubes",
        description=(
            "Build the tubed surface and its finite disk catalog, writing surface.json "
            "and disks.json.  Here --tubes is the literal tube count (>= 1)."
        ),
    )
    p_build.add_argument("--genus", type=int, required=True, help="genus of each copy (>= 1)")
    p_build.add_argument("--tubes", type=int, required=True, help="number of tubes (>= 1)")
    _add_common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_cert = sub.add_parser(
        "certify",
        help="run the full certification pipeline for a suspension index",
        description=(
            "Certify the minimality bound for the suspension index n given by --tubes: "
            "the surface built has n + 1 tubes.  (Contrast with `build`, where --tubes "
            "is the literal tube count.)  Writes certificate.json and report.txt; exit "
            "status 0 if the certificate passed, 1 if it failed."
        ),
    )
    p_cert.add_argument("--genus", type=int, help="genus of each copy (>= 1)")
    p_cert.add_argument(
        "--tubes",
        type=int,
        help="suspension index n (>= 0); the certified surface has n + 1 tubes",
    )
    p_cert.add_argument(
        "--from-build",
        metavar="DIR",
        help=(
            "read genus/tubes/catalog options from DIR/disks.json (a `build` output) "
            "instead of flags; the file must equal what `build` writes for that catalog"
        ),
    )
    p_cert.add_argument(
        "--max-simplices",
        type=int,
        default=DEFAULT_MAX_SIMPLICES,
        help=f"cap on the sphere's simplices per dimension (default {DEFAULT_MAX_SIMPLICES})",
    )
    _add_common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_hom = sub.add_parser(
        "homology",
        help="reduced integer homology of a flag complex from a JSON file",
        description=(
            "Compute the reduced integer homology profile of the flag complex in "
            "COMPLEX_JSON for dimensions 0..D_MAX, stopping at the complex's first empty "
            "dimension, printing it and optionally writing homology.json."
        ),
    )
    p_hom.add_argument("complex_json", help="path to a flag-complex JSON file")
    p_hom.add_argument("d_max", type=int, help="largest homology dimension to compute")
    p_hom.add_argument(
        "--max-simplices",
        type=int,
        default=DEFAULT_MAX_SIMPLICES,
        help=f"cap on enumerated simplices per dimension (default {DEFAULT_MAX_SIMPLICES})",
    )
    p_hom.add_argument("--out", default=None, help="directory to write homology.json into (optional)")
    p_hom.set_defaults(func=cmd_homology)

    return parser


def _make_out_dir(out_dir: str) -> None:
    """Create the output directory before any work, so an unusable one fails fast."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InvalidConfigError(f"--out {out_dir}: cannot create directory ({exc.strerror})") from exc


def _write(out_dir: str, name: str, text: str) -> None:
    path = os.path.join(out_dir, name)
    try:
        write_text_file(path, text)
    except OSError as exc:
        raise InvalidConfigError(f"{path}: cannot write ({exc.strerror})") from exc
    print(f"wrote {path}")


def _check_max_simplices(value: int) -> None:
    if value < 0:
        raise InvalidConfigError(f"--max-simplices must be >= 0, got {value}")


def _catalog_config(args):
    from .disks import CatalogConfig

    return CatalogConfig(
        arc_bound=DEFAULT_ARC_BOUND if args.arc_bound is None else args.arc_bound,
        bandsum_depth=DEFAULT_BANDSUM_DEPTH if args.bandsum_depth is None else args.bandsum_depth,
    )


def cmd_build(args) -> int:
    from collections import Counter

    from .disks import build_disk_catalog, catalog_to_json_obj
    from .surface import build_tubed_surface, surface_to_json_obj

    if args.tubes is None or args.tubes < 1:
        raise InvalidConfigError("build needs --tubes >= 1 (the literal tube count)")
    _make_out_dir(args.out)
    config = _catalog_config(args)
    surface = build_tubed_surface(args.genus, args.tubes)
    catalog = build_disk_catalog(surface, config)
    _write(args.out, "surface.json", canonical_json(surface_to_json_obj(surface)))
    _write(args.out, "disks.json", canonical_json(catalog_to_json_obj(catalog)))
    variants = Counter(d.variant for d in catalog.disks)
    print(
        f"catalog: {len(catalog.disks)} disks ({variants['meridian']} meridians, "
        f"{variants['vertical']} vertical, {variants['bandsum']} band sums)"
    )
    return EXIT_OK


def cmd_certify(args) -> int:
    from .disks import catalog_from_json_obj
    from .retraction import certify_catalog, certify_minimality, check_simplex_cap, render_report

    _check_max_simplices(args.max_simplices)
    if args.from_build is not None:
        # disks.json fixes the surface and the catalog options.
        given = (
            (args.genus, "--genus"),
            (args.tubes, "--tubes"),
            (args.arc_bound, "--arc-bound"),
            (args.bandsum_depth, "--bandsum-depth"),
        )
        for flag, name in given:
            if flag is not None:
                raise InvalidConfigError(f"{name} conflicts with --from-build; pass one or the other")
        _make_out_dir(args.out)
        disks_path = os.path.join(args.from_build, "disks.json")
        obj = read_json_file(disks_path)
        # The cap depends on the tube count alone, so a file that exceeds it
        # is refused before the rebuild checks anything else.
        tubes = obj.get("tubes") if isinstance(obj, dict) else None
        if type(tubes) is int and tubes >= 1:
            check_simplex_cap(tubes - 1, args.max_simplices)
        catalog = catalog_from_json_obj(obj, source=disks_path)
        certificate = certify_catalog(catalog, max_simplices=args.max_simplices)
    else:
        if args.genus is None or args.tubes is None:
            raise InvalidConfigError("certify needs --genus and --tubes (or --from-build)")
        _make_out_dir(args.out)
        config = _catalog_config(args)
        certificate = certify_minimality(args.genus, args.tubes, config, max_simplices=args.max_simplices)
    _write(args.out, "certificate.json", canonical_json(certificate))
    _write(args.out, "report.txt", render_report(certificate))
    if certificate["passed"]:
        print(f"PASSED: {certificate['bounds']['statement']}")
        return EXIT_OK
    detail = certificate["first_violation"]["detail"]
    print(f"FAILED: {detail}")
    return EXIT_FAILED


def cmd_homology(args) -> int:
    from .flagcomplex import complex_from_json_obj
    from .homology import profile_rows, reduced_homology

    _check_max_simplices(args.max_simplices)
    if args.d_max < 0:
        raise InvalidConfigError(f"d_max must be >= 0, got {args.d_max}")
    if args.out is not None:
        _make_out_dir(args.out)
    obj = read_json_file(args.complex_json)
    complex_ = complex_from_json_obj(obj, source=args.complex_json)
    profile = reduced_homology(complex_, args.d_max, max_per_dim=args.max_simplices)
    for k, (rank, tors) in enumerate(profile):
        parts = ["Z" if rank == 1 else f"Z^{rank}"] * (rank > 0) + [f"Z/{t}" for t in tors]
        print(f"reduced H_{k} = {' + '.join(parts) or '0'}")
    if len(profile) <= args.d_max:
        print(f"reduced H_k = 0 for k = {len(profile)}..{args.d_max}, past the first empty dimension")
    doc = {
        "kind": "homology_profile",
        "complex": {
            "vertices": complex_.vertex_count(),
            "edges": complex_.edge_count(),
        },
        "d_max": args.d_max,
        "profile": profile_rows(profile),
    }
    if args.out is not None:
        _write(args.out, "homology.json", canonical_json(doc))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedFileError, InvalidConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
