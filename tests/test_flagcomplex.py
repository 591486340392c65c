"""Tests for the flag-complex core: construction, cliques, suspension, maps."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disklab.errors import InvalidConfigError, MalformedFileError, ResourceCapError
from disklab.flagcomplex import (
    DEFAULT_MAX_SIMPLICES,
    FlagComplex,
    canonical_json,
    complex_from_json_obj,
    complex_to_json_obj,
    flag_cliques,
    octahedral_sphere,
    suspend,
)
from oracles import VertexMap, check_retraction, check_simplicial, induced_subcomplex


# -- test-only vertex-map JSON ---------------------------------------------------


def map_to_json_obj(f: VertexMap) -> dict:
    return {"map": [[src, f(src)] for src in f.domain.vertex_ids]}


def map_from_json_obj(
    obj, domain: FlagComplex, codomain: FlagComplex, source: str = "map"
) -> VertexMap:
    if not isinstance(obj, dict) or "map" not in obj:
        raise MalformedFileError(source, "expected an object with a 'map' key")
    if not isinstance(obj["map"], list):
        raise MalformedFileError(f"{source}: map", "expected a list of [from, to] pairs")
    assignment: dict[str, str] = {}
    for i, entry in enumerate(obj["map"]):
        loc = f"{source}: map[{i}]"
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, str) for x in entry)
        ):
            raise MalformedFileError(loc, "expected a pair [from, to] of strings")
        src, dst = entry
        if src in assignment:
            raise MalformedFileError(loc, f"duplicate source vertex {src!r}")
        assignment[src] = dst
    try:
        return VertexMap(domain, codomain, assignment)
    except InvalidConfigError as exc:
        raise MalformedFileError(source, str(exc)) from exc


# -- independent oracle ---------------------------------------------------------


def brute_force_cliques(c: FlagComplex, d: int) -> dict[int, list[tuple[str, ...]]]:
    """All cliques by exhaustive subset enumeration (exponential; small inputs)."""
    ids = c.vertex_ids
    out: dict[int, list[tuple[str, ...]]] = {}
    for k in range(d + 1):
        found = []
        for combo in itertools.combinations(ids, k + 1):
            if all(c.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                found.append(tuple(combo))
        out[k] = sorted(found)
    return out


def top_dimension(c: FlagComplex, max_per_dim: int | None = DEFAULT_MAX_SIMPLICES) -> int:
    """Dimension of the largest clique (-1 for the empty complex)."""
    if c.vertex_count() == 0:
        return -1
    d = 0
    while True:
        cliques = flag_cliques(c, d + 1, max_per_dim)
        if not cliques[d + 1]:
            return d
        d += 1


def random_flag_complex(rng: random.Random, n_vertices: int, p: float) -> FlagComplex:
    c = FlagComplex()
    ids = [f"v{i}" for i in range(n_vertices)]
    for vid in ids:
        c.add_vertex(vid)
    for u, v in itertools.combinations(ids, 2):
        if rng.random() < p:
            c.add_edge(u, v)
    return c.freeze()


def complete_graph(n: int) -> FlagComplex:
    c = FlagComplex()
    ids = [f"v{i}" for i in range(n)]
    for vid in ids:
        c.add_vertex(vid)
    for u, v in itertools.combinations(ids, 2):
        c.add_edge(u, v)
    return c.freeze()


def cycle_graph(n: int) -> FlagComplex:
    c = FlagComplex()
    ids = [f"v{i}" for i in range(n)]
    for vid in ids:
        c.add_vertex(vid)
    for i in range(n):
        c.add_edge(ids[i], ids[(i + 1) % n])
    return c.freeze()


# -- construction basics --------------------------------------------------------


class TestFlagComplexConstruction:
    def test_vertices_and_edges(self):
        c = FlagComplex()
        c.add_vertex("b", label="second")
        c.add_vertex("a")
        c.add_edge("b", "a")
        c.freeze()
        assert c.vertex_ids == ["a", "b"]
        assert c.label("b") == "second"
        assert c.edges == [("a", "b")]
        assert c.has_edge("a", "b") and c.has_edge("b", "a")
        assert not c.has_edge("a", "a")
        assert c.neighbors("a") == ["b"]

    def test_duplicate_vertex_rejected(self):
        c = FlagComplex()
        c.add_vertex("a")
        with pytest.raises(InvalidConfigError):
            c.add_vertex("a")

    def test_loop_edge_rejected(self):
        c = FlagComplex()
        c.add_vertex("a")
        with pytest.raises(InvalidConfigError):
            c.add_edge("a", "a")

    def test_edge_needs_vertices(self):
        c = FlagComplex()
        c.add_vertex("a")
        with pytest.raises(InvalidConfigError):
            c.add_edge("a", "missing")

    def test_frozen_blocks_mutation(self):
        c = FlagComplex()
        c.add_vertex("a")
        c.freeze()
        with pytest.raises(InvalidConfigError):
            c.add_vertex("b")

    def test_induced_subcomplex(self):
        c = complete_graph(4)
        sub = induced_subcomplex(c, ["v0", "v2", "v3"])
        assert sub.vertex_ids == ["v0", "v2", "v3"]
        assert sub.edges == [("v0", "v2"), ("v0", "v3"), ("v2", "v3")]
        with pytest.raises(InvalidConfigError):
            induced_subcomplex(c, ["v0", "nope"])


# -- cliques ---------------------------------------------------------------------


class TestFlagCliques:
    def test_k4_counts_frozen(self):
        c = complete_graph(4)
        cl = flag_cliques(c, 3)
        assert [len(cl[k]) for k in range(4)] == [4, 6, 4, 1]

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(20260817)
        for _ in range(25):
            n = rng.randint(1, 8)
            c = random_flag_complex(rng, n, rng.uniform(0.1, 0.9))
            assert flag_cliques(c, 4) == brute_force_cliques(c, 4)

    def test_octahedral_clique_formula(self):
        # number of k-simplices in the n-fold octahedral sphere: 2^(k+1) C(n, k+1)
        for n in range(1, 6):
            c = octahedral_sphere(n)
            cl = flag_cliques(c, n)
            for k in range(n):
                assert len(cl[k]) == 2 ** (k + 1) * math.comb(n, k + 1)
            assert len(cl[n]) == 0

    def test_top_dimension(self):
        assert top_dimension(complete_graph(4)) == 3
        assert top_dimension(octahedral_sphere(3)) == 2

    def test_resource_cap(self):
        c = complete_graph(12)
        with pytest.raises(ResourceCapError) as exc:
            flag_cliques(c, 3, max_per_dim=50)
        assert exc.value.cap_name == "max_simplices"
        assert exc.value.limit == 50


# -- octahedral spheres and suspension -------------------------------------------


class TestOctahedralSphere:
    def test_structure(self):
        c = octahedral_sphere(3)
        assert c.vertex_count() == 6
        assert c.edge_count() == 12
        assert len(flag_cliques(c, 2)[2]) == 8
        assert not c.has_edge("p0", "q0")
        assert c.has_edge("p0", "q1")

    def test_octa4_euler(self):
        c = octahedral_sphere(4)
        cl = flag_cliques(c, 3)
        counts = [len(cl[k]) for k in range(4)]
        assert counts == [8, 24, 32, 16]
        euler = sum((-1) ** k * counts[k] for k in range(4))
        assert euler == 0  # even-dimensional boundary sphere S^3

    def test_n_must_be_positive(self):
        with pytest.raises(InvalidConfigError):
            octahedral_sphere(0)

    def test_suspension_of_octahedron_is_next_octahedron(self):
        c = octahedral_sphere(2)
        s = suspend(c, "p2", "q2")
        expected = octahedral_sphere(3)
        assert s.vertex_ids == expected.vertex_ids
        assert s.edges == expected.edges

    def test_suspend_rejects_duplicate_ids(self):
        c = octahedral_sphere(1)
        with pytest.raises(InvalidConfigError):
            suspend(c, "p0", "x")

    def test_suspension_points_not_adjacent(self):
        c = cycle_graph(5)
        s = suspend(c, "north", "south")
        assert not s.has_edge("north", "south")
        for vid in c.vertex_ids:
            assert s.has_edge("north", vid)
            assert s.has_edge("south", vid)


# -- vertex maps ------------------------------------------------------------------


class TestVertexMap:
    def test_totality_enforced(self):
        dom = complete_graph(2)
        cod = complete_graph(2)
        with pytest.raises(InvalidConfigError):
            VertexMap(domain=dom, codomain=cod, assignment={"v0": "v0"})

    def test_image_must_exist(self):
        dom = complete_graph(2)
        cod = complete_graph(2)
        with pytest.raises(InvalidConfigError):
            VertexMap(domain=dom, codomain=cod, assignment={"v0": "v0", "v1": "zzz"})

    def test_check_simplicial_reports_bad_edges(self):
        dom = cycle_graph(4)
        cod = complete_graph(2)
        # map opposite corners together: v0,v2 -> v0 ; v1,v3 -> v1 : simplicial
        good = VertexMap(dom, cod, {"v0": "v0", "v1": "v1", "v2": "v0", "v3": "v1"})
        assert check_simplicial(good) == []
        # collapse an edge to two non-adjacent vertices of a path
        path = FlagComplex()
        for vid in ("a", "b", "c"):
            path.add_vertex(vid)
        path.add_edge("a", "b")
        path.add_edge("b", "c")
        path.freeze()
        bad = VertexMap(dom, path, {"v0": "a", "v1": "c", "v2": "a", "v3": "c"})
        assert bad("v0") == "a"
        violations = check_simplicial(bad)
        assert ("v0", "v1") in violations

    def test_check_retraction_identity(self):
        c = octahedral_sphere(2)
        ident = VertexMap(c, c, {v: v for v in c.vertex_ids})
        ok, report = check_retraction(ident, c)
        assert ok and report == []

    def test_check_retraction_catches_moved_subcomplex_vertex(self):
        c = octahedral_sphere(2)
        sub = induced_subcomplex(c, ["p0", "q0"])
        assignment = {v: v for v in c.vertex_ids}
        assignment["q0"] = "p0"
        f = VertexMap(c, c, assignment)
        ok, report = check_retraction(f, sub)
        assert not ok
        assert any("q0" in line for line in report)

    def test_check_retraction_catches_image_outside(self):
        c = octahedral_sphere(2)
        sub = induced_subcomplex(c, ["p0", "q0"])
        assignment = {v: "p1" for v in c.vertex_ids}
        assignment["p0"] = "p0"
        assignment["q0"] = "q0"
        f = VertexMap(c, c, assignment)
        ok, report = check_retraction(f, sub)
        assert not ok


# -- JSON round trips --------------------------------------------------------------


class TestJsonFormats:
    def test_complex_roundtrip(self):
        c = octahedral_sphere(2)
        obj = complex_to_json_obj(c)
        c2 = complex_from_json_obj(obj, "roundtrip")
        assert c2.vertex_ids == c.vertex_ids
        assert c2.edges == c.edges
        assert c2.label("p0") == c.label("p0")

    def test_complex_rejects_reversed_edge(self):
        obj = {
            "vertices": [{"id": "a", "label": None}, {"id": "b", "label": None}],
            "edges": [["b", "a"]],
        }
        with pytest.raises(MalformedFileError) as exc:
            complex_from_json_obj(obj, "bad.json")
        assert "edges[0]" in exc.value.location

    def test_complex_rejects_nonstring_id(self):
        obj = {"vertices": [{"id": 3, "label": None}], "edges": []}
        with pytest.raises(MalformedFileError) as exc:
            complex_from_json_obj(obj, "bad.json")
        assert "vertices[0]" in exc.value.location

    def test_map_roundtrip(self):
        c = octahedral_sphere(1)
        f = VertexMap(c, c, {v: v for v in c.vertex_ids})
        obj = map_to_json_obj(f)
        f2 = map_from_json_obj(obj, c, c, "roundtrip")
        assert f2.assignment == f.assignment

    def test_canonical_json_deterministic(self):
        obj_a = {"b": [3, 2], "a": {"y": 1, "x": 2}}
        obj_b = {"a": {"x": 2, "y": 1}, "b": [3, 2]}
        assert canonical_json(obj_a) == canonical_json(obj_b)
        assert canonical_json(obj_a).endswith("\n")


# -- hypothesis properties ----------------------------------------------------------


@st.composite
def small_graph(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    ids = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(ids, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    c = FlagComplex()
    for vid in ids:
        c.add_vertex(vid)
    for u, v in chosen:
        c.add_edge(u, v)
    return c.freeze()


@settings(max_examples=60, deadline=None)
@given(small_graph())
def test_cliques_agree_with_brute_force(c):
    assert flag_cliques(c, 3) == brute_force_cliques(c, 3)


@settings(max_examples=40, deadline=None)
@given(small_graph())
def test_cliques_are_downward_closed(c):
    cl = flag_cliques(c, 4)
    for k in range(1, 5):
        lower = set(cl[k - 1])
        for s in cl[k]:
            for i in range(len(s)):
                assert s[:i] + s[i + 1 :] in lower


@settings(max_examples=40, deadline=None)
@given(small_graph())
def test_json_roundtrip_property(c):
    c2 = complex_from_json_obj(complex_to_json_obj(c), "prop")
    assert c2.vertex_ids == c.vertex_ids and c2.edges == c.edges
