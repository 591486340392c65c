"""Flag complexes, suspension, octahedral spheres, JSON formats.

A :class:`FlagComplex` stores only vertices (opaque string ids with display
labels) and a symmetric, irreflexive adjacency relation.  Simplices are never
stored: they are exactly the cliques of the adjacency graph, enumerated on
demand by :func:`flag_cliques`.

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
    """A finite flag complex: vertices + adjacency; simplices are cliques."""

    def __init__(self) -> None:
        self._labels: dict[str, str] = {}
        self._adjacency: dict[str, set[str]] = {}  # vertex -> neighbours; the only edge store
        self._frozen = False

    # -- construction -----------------------------------------------------

    def add_vertex(self, vertex_id: str, label: str | None = None) -> None:
        self._check_mutable()
        if not isinstance(vertex_id, str) or not vertex_id:
            raise InvalidConfigError(f"vertex id must be a nonempty string, got {vertex_id!r}")
        if vertex_id in self._labels:
            raise InvalidConfigError(f"duplicate vertex id {vertex_id!r}")
        self._labels[vertex_id] = label if label is not None else vertex_id
        self._adjacency[vertex_id] = set()

    def add_edge(self, u: str, v: str) -> None:
        self._check_mutable()
        if u == v:
            raise InvalidConfigError(f"loop edge at {u!r} not allowed")
        for w in (u, v):
            if w not in self._labels:
                raise InvalidConfigError(f"edge endpoint {w!r} is not a vertex")
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def freeze(self) -> "FlagComplex":
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise InvalidConfigError("complex is frozen; build a new one instead of mutating")

    # -- queries -----------------------------------------------------------

    @property
    def vertex_ids(self) -> list[str]:
        return sorted(self._labels)

    def label(self, vertex_id: str) -> str:
        return self._labels[vertex_id]

    def has_vertex(self, vertex_id: str) -> bool:
        return vertex_id in self._labels

    @property
    def edges(self) -> list[tuple[str, str]]:
        return sorted((u, v) for u, ws in self._adjacency.items() for v in ws if u < v)

    def has_edge(self, u: str, v: str) -> bool:
        return v in self._adjacency.get(u, ())

    def neighbors(self, vertex_id: str) -> list[str]:
        return sorted(self._adjacency.get(vertex_id, ()))

    def vertex_count(self) -> int:
        return len(self._labels)

    def edge_count(self) -> int:
        return sum(map(len, self._adjacency.values())) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlagComplex):
            return NotImplemented
        return self._labels == other._labels and self._adjacency == other._adjacency

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlagComplex({len(self._labels)} vertices, {self.edge_count()} edges)"


def copy_complex(c: FlagComplex) -> FlagComplex:
    out = FlagComplex()
    for vid in c.vertex_ids:
        out.add_vertex(vid, c.label(vid))
    for (u, v) in c.edges:
        out.add_edge(u, v)
    return out


# -- clique enumeration ----------------------------------------------------


def flag_cliques(
    c: FlagComplex,
    d: int,
    max_per_dim: int | None = DEFAULT_MAX_SIMPLICES,
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
    verts = c.vertex_ids
    sorted_adj = {v: c.neighbors(v) for v in verts}
    adj = {v: set(ws) for v, ws in sorted_adj.items()}
    out: dict[int, list[tuple[str, ...]]] = {k: [] for k in range(d + 1)}
    out[0] = [(v,) for v in verts]
    _cap_check(out[0], 0, max_per_dim)
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
                    _cap_check(cur, k, max_per_dim)
        out[k] = cur
    return out


def _cap_check(bucket: list, dim: int, max_per_dim: int | None) -> None:
    if max_per_dim is not None and len(bucket) > max_per_dim:
        raise ResourceCapError(
            "max_simplices", f"more than {max_per_dim} simplices in dimension {dim}", max_per_dim
        )


# -- constructions ----------------------------------------------------------


def suspend(
    c: FlagComplex,
    a: str,
    b: str,
    label_a: str | None = None,
    label_b: str | None = None,
) -> FlagComplex:
    """Suspension: two new mutually non-adjacent vertices coned over ``c``."""
    if c.has_vertex(a):
        raise InvalidConfigError(f"suspension vertex id {a!r} already present")
    if c.has_vertex(b):
        raise InvalidConfigError(f"suspension vertex id {b!r} already present")
    if a == b:
        raise InvalidConfigError("suspension vertices must be distinct")
    out = copy_complex(c)
    out.add_vertex(a, label_a)
    out.add_vertex(b, label_b)
    for vid in c.vertex_ids:
        out.add_edge(a, vid)
        out.add_edge(b, vid)
    return out.freeze()


def octahedral_sphere(n: int) -> FlagComplex:
    """Boundary of the n-dimensional cross-polytope as a flag complex.

    ``n`` antipodal pairs ``p{i}``/``q{i}``; two vertices are adjacent iff
    they belong to different pairs.  Equals ``suspend`` applied ``n - 1``
    times to the two-point complex; homeomorphic to the sphere S^{n-1}.
    """
    if n < 1:
        raise InvalidConfigError(f"octahedral_sphere needs n >= 1, got {n}")
    out = FlagComplex()
    for i in range(n):
        out.add_vertex(f"p{i}", f"antipodal pair {i} (+)")
        out.add_vertex(f"q{i}", f"antipodal pair {i} (-)")
    for i in range(n):
        for j in range(i + 1, n):
            for u in (f"p{i}", f"q{i}"):
                for v in (f"p{j}", f"q{j}"):
                    out.add_edge(u, v)
    return out.freeze()


# -- JSON ---------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used for every artifact file."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def complex_to_json_obj(c: FlagComplex) -> dict:
    return {
        "vertices": [{"id": vid, "label": c.label(vid)} for vid in c.vertex_ids],
        "edges": [[u, v] for (u, v) in c.edges],
    }


def complex_from_json_obj(obj, source: str = "complex") -> FlagComplex:
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "expected a JSON object")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise MalformedFileError(source, f"missing key {key!r}")
    if not isinstance(obj["vertices"], list):
        raise MalformedFileError(f"{source}: vertices", "expected a list")
    if not isinstance(obj["edges"], list):
        raise MalformedFileError(f"{source}: edges", "expected a list")
    out = FlagComplex()
    for i, entry in enumerate(obj["vertices"]):
        loc = f"{source}: vertices[{i}]"
        if not isinstance(entry, dict) or "id" not in entry:
            raise MalformedFileError(loc, "expected an object with an 'id' key")
        vid = entry["id"]
        label = entry.get("label")
        if not isinstance(vid, str):
            raise MalformedFileError(loc, "'id' must be a string")
        if label is None:
            label = vid
        elif not isinstance(label, str):
            raise MalformedFileError(loc, "'label' must be a string or null")
        try:
            out.add_vertex(vid, label)
        except InvalidConfigError as exc:
            raise MalformedFileError(loc, str(exc)) from exc
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
        try:
            out.add_edge(u, v)
        except InvalidConfigError as exc:
            raise MalformedFileError(loc, str(exc)) from exc
    return out.freeze()


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
