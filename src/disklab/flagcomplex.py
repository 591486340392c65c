"""Flag complexes, clique enumeration, JSON formats.

A :class:`FlagComplex` stores only a symmetric, irreflexive adjacency
relation on opaque string vertex ids; its vertices are the relation's keys.
Simplices are never stored: they are exactly the cliques of the adjacency
graph, enumerated on demand by :func:`flag_cliques`.  The JSON reader
:func:`complex_from_json_obj` is the one maker of a complex: it runs every
check on ids, labels and edges and builds the adjacency, which nothing
changes afterwards.  A complex keeps no labels.

Canonical ordering convention: vertex ids are the canonical sort key
everywhere (clique tuples, serialized edge lists, boundary-matrix rows).  This
fixes boundary-matrix signs and makes every downstream artifact reproducible
byte for byte.
"""

from __future__ import annotations

import json

from disklab.errors import InvalidConfigError, MalformedFileError, ResourceCapError

#: Default cap on the number of cliques enumerated per dimension.  Flag
#: complexes explode combinatorially; the tool must fail loudly, not hang.
DEFAULT_MAX_SIMPLICES = 10**6


class FlagComplex:
    """A finite flag complex: vertices + adjacency; simplices are cliques.

    Only :func:`complex_from_json_obj` makes one, from an adjacency it has
    checked; no method changes it afterwards.
    """

    def __init__(self, adjacency: dict[str, set[str]]) -> None:
        self._adjacency = adjacency  # vertex -> neighbours; the only store

    @property
    def vertex_ids(self) -> list[str]:
        return sorted(self._adjacency)

    def neighbors(self, vertex_id: str) -> list[str]:
        return sorted(self._adjacency.get(vertex_id, ()))

    def vertex_count(self) -> int:
        return len(self._adjacency)

    def edge_count(self) -> int:
        return sum(map(len, self._adjacency.values())) // 2


# -- clique enumeration ----------------------------------------------------


def flag_cliques(
    c: FlagComplex,
    d: int,
    max_per_dim: int = DEFAULT_MAX_SIMPLICES,
) -> dict[int, list[tuple[str, ...]]]:
    """Enumerate every clique with at most ``d + 1`` vertices.

    Returns a dict mapping dimension ``k`` (0-based; a ``k``-simplex has
    ``k + 1`` vertices) to the sorted list of cliques of that dimension, for
    every ``k`` in ``0..d``.  Deterministic: cliques are sorted tuples of
    vertex ids, listed in lexicographic order.

    Raises :class:`ResourceCapError` naming the offending dimension when a
    dimension would hold more than ``max_per_dim`` cliques.
    """
    if d < 0:
        raise InvalidConfigError(f"dimension bound must be >= 0, got {d}")
    verts, adj = c.vertex_ids, c._adjacency
    sorted_adj = {v: c.neighbors(v) for v in verts}
    out: dict[int, list[tuple[str, ...]]] = {k: [] for k in range(d + 1)}
    out[0] = [(v,) for v in verts]
    _cap_check(len(out[0]), 0, max_per_dim)
    for k in range(1, d + 1):
        prev = out[k - 1]
        if not prev:
            break
        cur: list[tuple[str, ...]] = []
        for clique in prev:
            last = clique[-1]
            # Extend by ids > last that are adjacent to every clique member.
            for w in sorted_adj[last]:
                if w <= last:
                    continue
                if all(w in adj[u] for u in clique[:-1]):
                    cur.append(clique + (w,))
                    _cap_check(len(cur), k, max_per_dim)
        out[k] = cur
    return out


def _cap_check(count: int, dim: int, max_per_dim: int) -> None:
    """Raise the simplex-cap error if ``count`` simplices in dimension ``dim`` exceed ``max_per_dim``."""
    if count > max_per_dim:
        raise ResourceCapError(
            "max_simplices", f"more than {max_per_dim} simplices in dimension {dim}", max_per_dim
        )


# -- JSON ---------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used for every artifact file."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def complex_from_json_obj(obj, source: str = "complex") -> FlagComplex:
    """Check a complex's JSON object and build its :class:`FlagComplex`.

    Each error names ``source`` and, for a bad entry, its ``vertices[i]`` or
    ``edges[i]``.  A vertex's ``label`` must be a string or null and is not
    kept.  An edge lists its smaller id first, so a loop is refused as
    misordered.
    """
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "expected a JSON object")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise MalformedFileError(source, f"missing key {key!r}")
    if not isinstance(obj["vertices"], list):
        raise MalformedFileError(f"{source}: vertices", "expected a list")
    if not isinstance(obj["edges"], list):
        raise MalformedFileError(f"{source}: edges", "expected a list")
    adjacency: dict[str, set[str]] = {}
    for i, entry in enumerate(obj["vertices"]):
        loc = f"{source}: vertices[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise MalformedFileError(loc, "expected an object with an 'id' key")
        vid = entry["id"]
        if not isinstance(vid, str):
            raise MalformedFileError(loc, "'id' must be a string")
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            raise MalformedFileError(loc, "'label' must be a string or null")
        if not vid:
            raise MalformedFileError(loc, "vertex id must be a nonempty string, got ''")
        if vid in adjacency:
            raise MalformedFileError(loc, f"duplicate vertex id {vid!r}")
        adjacency[vid] = set()
    for i, entry in enumerate(obj["edges"]):
        loc = f"{source}: edges[{i}]"
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise MalformedFileError(loc, "expected a pair [id, id] of strings")
        u, v = entry
        if not (u < v):
            raise MalformedFileError(
                loc, f"edge [{u!r}, {v!r}] must list the lexicographically smaller id first"
            )
        if v in adjacency.get(u, ()):
            raise MalformedFileError(loc, f"duplicate edge [{u!r}, {v!r}]")
        for w in (u, v):
            if w not in adjacency:
                raise MalformedFileError(loc, f"edge endpoint {w!r} is not a vertex")
        adjacency[u].add(v)
        adjacency[v].add(u)
    return FlagComplex(adjacency)


def read_json_file(path: str):
    """Parse a JSON file, converting failures to MalformedFileError with location.

    Bytes that are not UTF-8 are reported at their byte offset, and nesting
    deeper than the parser's recursion limit by the path alone.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MalformedFileError(path, f"cannot read file: {exc}") from exc
    except UnicodeDecodeError as exc:
        # One read() from the start decodes the whole file, so offsets are the file's.
        raise MalformedFileError(f"{path}: byte {exc.start}", f"not valid UTF-8 ({exc.reason})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(
            f"{path}: line {exc.lineno} column {exc.colno}", exc.msg
        ) from exc
    except RecursionError as exc:
        raise MalformedFileError(path, "JSON nested too deeply to parse") from exc


def write_text_file(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
