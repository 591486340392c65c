"""Exception hierarchy shared across disklab.

Every error the package raises deliberately derives from :class:`DisklabError`
so callers (in particular the CLI) can map failure classes onto exit codes:

- :class:`InvalidConfigError`  -- bad parameters or options (CLI exit 2).
- :class:`MalformedFileError`  -- unparseable or inconsistent input file
  (CLI exit 2; carries a human-readable location).
- :class:`ResourceCapError`    -- a configured enumeration/size cap was hit
  (CLI exit 3; names the cap and the offending quantity).

Outermost surgery has no error of its own: it is well defined by a lemma
(see :mod:`disklab.retraction`), and a disk it cannot surger is an
:class:`InvalidConfigError`.
"""

from __future__ import annotations


class DisklabError(Exception):
    """Base class for all deliberate disklab errors."""


class InvalidConfigError(DisklabError):
    """Raised for invalid build/certify parameters (e.g. genus < 1).

    ``field`` names the offending parameter when there is one, so that a
    reader of a config file can give its location.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        self.field = field
        super().__init__(message)


class MalformedFileError(DisklabError):
    """Raised when an input file cannot be parsed or fails validation.

    ``location`` describes where in the file the problem was found, e.g.
    ``"disks.json: entry 3: missing key 'variant'"``.
    """

    def __init__(self, location: str, message: str) -> None:
        self.location = location
        super().__init__(f"{location}: {message}")


class ResourceCapError(DisklabError):
    """Raised when a configured resource cap is exceeded.

    ``cap_name`` identifies which cap fired (e.g. ``"max_simplices"``),
    ``detail`` says what grew too large (e.g. ``"dimension 2"``).
    """

    def __init__(self, cap_name: str, detail: str, limit: int) -> None:
        self.cap_name = cap_name
        self.detail = detail
        self.limit = limit
        super().__init__(f"resource cap {cap_name} ({limit}) exceeded: {detail}")
