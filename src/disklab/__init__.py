"""disklab: a combinatorial laboratory for disk complexes of tubed surfaces.

The package builds explicit finite models of a family of surfaces obtained by
joining parallel copies of a closed orientable surface with unknotted tubes,
enumerates a catalog of compressing-disk descriptors for each model, realizes
octahedral suspension spheres inside the flag complex spanned by the catalog,
and certifies -- via exact integer homology and an explicitly verified
simplicial retraction -- that those spheres are homologically essential.

Public entry points live in the submodules:

- :mod:`disklab.flagcomplex` -- flag complexes, clique enumeration, suspension,
  octahedral spheres, JSON (de)serialization.
- :mod:`disklab.homology` -- exact integer homology (sparse unit-pivot
  elimination, Smith normal form on the residual core) and the cycle-level
  retraction certificate.
- :mod:`disklab.surface` -- tubed surfaces, arc codes on the once-punctured
  genus-g block, arc enumeration and the exact arc-disjointness search, and
  the frozen-record base of every descriptor class.
- :mod:`disklab.disks` -- compressing-disk descriptors, side/type
  classification, disjointness, and catalog generation.
- :mod:`disklab.retraction` -- suspension spheres, outermost surgery, the
  recursive retraction, and minimality certificates.
- :mod:`disklab.cli` -- the ``disklab`` command-line interface.  It imports
  only ``errors`` and ``flagcomplex`` at start, and each subcommand imports
  the layers it runs (``build``: ``surface`` and ``disks``; ``certify``: all
  of them; ``homology``: ``homology`` only), because every run is a fresh
  interpreter that pays for each module it compiles.
"""

from disklab.errors import (
    DisklabError,
    InvalidConfigError,
    MalformedFileError,
    ResourceCapError,
    WellDefinednessError,
)

__all__ = [
    "DisklabError",
    "InvalidConfigError",
    "MalformedFileError",
    "ResourceCapError",
    "WellDefinednessError",
    "__version__",
]

__version__ = "0.1.0"
