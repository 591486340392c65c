"""Test-only complex helpers and the edge-by-edge retraction oracle.

``certify`` checks simpliciality in its pair pass and the retraction on
vertices only; the tests keep the old, direct formulation here as an oracle:
the cataloged complex as a :class:`FlagComplex`, total vertex maps between
flag complexes, and ``check_retraction``, which also walks every domain edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from disklab.errors import InvalidConfigError
from disklab.flagcomplex import FlagComplex


def induced_subcomplex(c: FlagComplex, vertex_ids: Iterable[str]) -> FlagComplex:
    keep = set(vertex_ids)
    missing = sorted(keep - set(c.vertex_ids))
    if missing:
        raise InvalidConfigError(f"vertices not in complex: {missing}")
    out = FlagComplex()
    for vid in sorted(keep):
        out.add_vertex(vid, c.label(vid))
    for (u, v) in c.edges:
        if u in keep and v in keep:
            out.add_edge(u, v)
    return out.freeze()


def catalog_complex(catalog, disjoint_pairs) -> FlagComplex:
    """The cataloged disk complex: disks as vertices, certified-disjoint pairs as edges."""
    fc = FlagComplex()
    for d in catalog.disks:
        fc.add_vertex(d.key, d.key)
    for a, b in disjoint_pairs:
        fc.add_edge(a.key, b.key)
    return fc.freeze()


@dataclass(frozen=True)
class VertexMap:
    """A total assignment of domain vertex ids to codomain vertex ids."""

    domain: FlagComplex
    codomain: FlagComplex
    assignment: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        dom = set(self.domain.vertex_ids)
        missing = sorted(dom - set(self.assignment))
        if missing:
            raise InvalidConfigError(f"assignment is not total; missing {missing[:5]}")
        extra = sorted(set(self.assignment) - dom)
        if extra:
            raise InvalidConfigError(f"assignment has non-domain keys {extra[:5]}")
        bad = sorted(v for v in self.assignment.values() if not self.codomain.has_vertex(v))
        if bad:
            raise InvalidConfigError(f"assignment images not in codomain: {bad[:5]}")

    def __call__(self, vertex_id: str) -> str:
        return self.assignment[vertex_id]


def check_simplicial(f: VertexMap) -> list[tuple[str, str]]:
    """Return exactly the domain edges whose endpoints map to a non-edge.

    An edge {u, v} is fine when f(u) == f(v) (it collapses) or when
    {f(u), f(v)} is a codomain edge.  Empty result <=> f is simplicial.
    """
    bad = []
    for (u, v) in f.domain.edges:
        fu, fv = f(u), f(v)
        if fu != fv and not f.codomain.has_edge(fu, fv):
            bad.append((u, v))
    return bad


def check_retraction(f: VertexMap, s: FlagComplex) -> tuple[bool, list[str]]:
    """Check that ``f`` retracts its domain onto the subcomplex ``s``.

    ``s`` must be a subcomplex of the domain (vertices and edges contained).
    Passes iff: every image lies in ``s``; ``f`` fixes every vertex of ``s``;
    and ``f`` is simplicial.  Returns (ok, report of violations).
    """
    report: list[str] = []
    dom_vertices = set(f.domain.vertex_ids)
    for vid in s.vertex_ids:
        if vid not in dom_vertices:
            report.append(f"subcomplex vertex {vid!r} is not a domain vertex")
    for (u, v) in s.edges:
        if not f.domain.has_edge(u, v):
            report.append(f"subcomplex edge ({u!r}, {v!r}) is not a domain edge")
    sub = set(s.vertex_ids)
    for vid in f.domain.vertex_ids:
        img = f(vid)
        if img not in sub:
            report.append(f"image of {vid!r} is {img!r}, outside the subcomplex")
    for vid in s.vertex_ids:
        if vid in dom_vertices and f(vid) != vid:
            report.append(f"subcomplex vertex {vid!r} is not fixed (maps to {f(vid)!r})")
    for (u, v) in check_simplicial(f):
        report.append(f"edge ({u!r}, {v!r}) maps to non-edge ({f(u)!r}, {f(v)!r})")
    return (not report, report)
