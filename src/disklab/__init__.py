"""disklab: a combinatorial laboratory for disk complexes of tubed surfaces.

The package builds explicit finite models of a family of surfaces obtained by
joining parallel copies of a closed orientable surface with unknotted tubes,
enumerates a catalog of compressing-disk descriptors for each model, realizes
octahedral suspension spheres inside the flag complex spanned by the catalog,
and certifies -- via an explicitly verified simplicial retraction that fixes
the sphere's fundamental cycle, written in closed form -- that those spheres
are homologically essential.

Public entry points live in the submodules:

- :mod:`disklab.flagcomplex` -- flag complexes, clique enumeration, JSON
  (de)serialization.
- :mod:`disklab.homology` -- exact integer homology of flag complexes (one
  sparse elimination: unit pivots, and Euclid rounds on a least entry when
  no unit is left), for the ``homology`` subcommand, and the octahedral sphere's join cycle in closed
  form, for ``certify``.
- :mod:`disklab.surface` -- tubed surfaces, arc codes on the once-punctured
  genus-g block, arc enumeration and the exact arc-disjointness search, and
  the frozen-record base of every descriptor class.
- :mod:`disklab.disks` -- compressing-disk descriptors, side/type
  classification, disjointness, and catalog generation.
- :mod:`disklab.retraction` -- suspension spheres, the retraction (one image
  per disk, outermost surgery in closed form), and minimality certificates
  with the sphere's fundamental cycle in closed form.
- :mod:`disklab.cli` -- the ``disklab`` command-line interface.  It imports
  only ``errors`` and ``flagcomplex`` at start, and each subcommand imports
  the layers it runs (``build``: ``surface`` and ``disks``; ``certify``: all
  of them; ``homology``: ``homology`` only), because every run is a fresh
  interpreter that pays for each module it compiles.  ``python3 -m disklab``
  and the ``disklab`` script enter through ``cli.run()``, which calls
  ``cli.main()``, flushes stdout and stderr and ends the process with
  ``os._exit``, skipping interpreter teardown, ``atexit`` handlers and
  finalizers; ``cli.main()`` is unchanged and returns the exit code to
  in-process callers.
"""

from disklab.errors import (
    DisklabError,
    InvalidConfigError,
    MalformedFileError,
    ResourceCapError,
)

__all__ = [
    "DisklabError",
    "InvalidConfigError",
    "MalformedFileError",
    "ResourceCapError",
    "__version__",
]

__version__ = "0.1.0"
