"""Tests for exact homology: Smith normal form, chain complexes, chain maps."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disklab.errors import InvalidConfigError
from disklab.flagcomplex import (
    FlagComplex,
    copy_complex,
    flag_cliques,
    octahedral_sphere,
    suspend,
)
from disklab.homology import (
    ChainComplex,
    Column,
    HomologyProfile,
    Matrix,
    apply_chain_map,
    certify_homology_retraction,
    free_generator,
    permutation_sign,
    rank_and_torsion,
    reduced_homology,
    smith_normal_form,
)
from oracles import VertexMap, check_retraction, induced_subcomplex

# -- helpers ---------------------------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        rows = len(a)
        cols = len(b[0]) if b else 0
        return [[0] * cols for _ in range(rows)]
    assert len(a[0]) == len(b), f"matrix shape mismatch: {len(a[0])} vs {len(b)}"
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def dense_columns(a: Matrix) -> list[Column]:
    """The columns of a dense matrix as sparse ``{row: entry}`` maps."""
    n = len(a[0]) if a else 0
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(n)]


def matrix_rank(a: Matrix) -> int:
    return rank_and_torsion(dense_columns(a))[0]


def dense_boundary(cc: ChainComplex, k: int) -> Matrix:
    """Dense boundary matrix C_k -> C_{k-1}; k = 0 gives the augmentation row."""
    if k < 0 or k > cc.top:
        return []
    rows = 1 if k == 0 else cc.n_cells(k - 1)
    cols = cc.boundary_columns(k)
    if not cols:
        return []
    mat = [[0] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col.items():
            mat[i][j] = x
    return mat


def chain_boundary(cc: ChainComplex, k: int, chain: dict[tuple[str, ...], int]) -> dict[int, int]:
    """Nonzero entries of the boundary of a k-chain, by (k-1)-simplex index."""
    out: dict[int, int] = {}
    for s, col in zip(cc.simplices[k], cc.boundary_columns(k)):
        for i, x in col.items():
            out[i] = out.get(i, 0) + chain.get(s, 0) * x
    return {i: x for i, x in out.items() if x}


def betti_numbers_rational(c: FlagComplex, d_max: int) -> list[int]:
    """Independent rational-rank oracle (Gaussian elimination over Fraction).

    Cross-checks the integer pipeline; it shares no code with it beyond
    boundary-matrix assembly.
    """
    cliques = flag_cliques(c, d_max + 1)
    cc = ChainComplex(cliques)

    def frank(mat: Matrix) -> int:
        if not mat or not mat[0]:
            return 0
        a = [[Fraction(x) for x in row] for row in mat]
        rows, cols = len(a), len(a[0])
        rank = 0
        r = 0
        for jcol in range(cols):
            pivot = next((i for i in range(r, rows) if a[i][jcol] != 0), None)
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            pv = a[r][jcol]
            a[r] = [x / pv for x in a[r]]
            for i in range(rows):
                if i != r and a[i][jcol] != 0:
                    factor = a[i][jcol]
                    a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
            r += 1
            rank += 1
            if r == rows:
                break
        return rank

    return [
        cc.n_cells(k) - frank(dense_boundary(cc, k)) - frank(dense_boundary(cc, k + 1))
        for k in range(d_max + 1)
    ]


def random_flag_complex(rng: random.Random, n_vertices: int, p: float) -> FlagComplex:
    c = FlagComplex()
    ids = [f"v{i}" for i in range(n_vertices)]
    for vid in ids:
        c.add_vertex(vid)
    for u, v in itertools.combinations(ids, 2):
        if rng.random() < p:
            c.add_edge(u, v)
    return c.freeze()


def determinant(a: Matrix) -> int:
    """Exact determinant by Laplace expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * x * determinant([row[:j] + row[j + 1 :] for row in a[1:]])
        for j, x in enumerate(a[0])
        if x
    )


def determinantal_divisor(a: Matrix, k: int) -> int:
    """gcd of all k x k minors of ``a`` (0 when every minor vanishes)."""
    g = 0
    for rows in itertools.combinations(range(len(a)), k):
        for cols in itertools.combinations(range(len(a[0])), k):
            g = math.gcd(g, determinant([[a[i][j] for j in cols] for i in rows]))
    return g


def snf_postconditions(a: list[list[int]]) -> None:
    diag = smith_normal_form(a)
    m, n = len(a), len(a[0]) if a else 0
    assert len(diag) == min(m, n)
    # diagonal: nonnegative, zeros last, divisibility chain on the nonzero prefix
    assert all(x >= 0 for x in diag)
    nz = [x for x in diag if x != 0]
    assert diag[len(nz) :] == [0] * (len(diag) - len(nz))
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    # d_1 * ... * d_k is the gcd of all k x k minors, computed independently
    for k in range(1, len(diag) + 1):
        assert math.prod(diag[:k]) == determinantal_divisor(a, k), k


# -- Smith normal form ------------------------------------------------------------


class TestSmithNormalForm:
    def test_frozen_small_cases(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
        assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
        assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]
        assert smith_normal_form([[5]]) == [5]
        assert smith_normal_form([[-5]]) == [5]

    def test_postconditions_on_fixed_matrices(self):
        cases = [
            [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
            [[1, 2], [3, 4], [5, 6]],
            [[0, 1], [1, 0]],
            [[6, 10, 15]],
            [[6], [10], [15]],
        ]
        for a in cases:
            snf_postconditions(a)

    def test_rank(self):
        assert matrix_rank([[1, 2], [2, 4]]) == 1
        assert matrix_rank([[1, 0], [0, 1]]) == 2
        assert matrix_rank([]) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    def test_postconditions_random(self, m, n, data):
        a = [
            [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(n)]
            for _ in range(m)
        ]
        snf_postconditions(a)


class TestRankAndTorsion:
    """The sparse unit-pivot reducer against the dense Smith normal form."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.data(),
    )
    def test_matches_dense_snf(self, m, n, data):
        # Entries in -3..3 leave a residual core (no unit entry) on many draws.
        a = [
            [data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
            for _ in range(m)
        ]
        diag = smith_normal_form(a)
        expected = (sum(1 for x in diag if x), tuple(x for x in diag if x > 1))
        assert rank_and_torsion(dense_columns(a)) == expected

    def test_core_without_unit_entries(self):
        assert rank_and_torsion(dense_columns([[2, 4], [6, 8]])) == (2, (2, 4))
        assert rank_and_torsion(dense_columns([[2, 0], [0, 3]])) == (2, (6,))
        assert rank_and_torsion(dense_columns([[6, 10, 15]])) == (1, ())

    def test_unit_pivots_then_core(self):
        # The unit pivot splits off a 1; the 2 x 2 core below it carries Z/2 + Z/4.
        a = [[1, 5, 7], [0, 2, 4], [0, 6, 8]]
        assert rank_and_torsion(dense_columns(a)) == (3, (2, 4))

    def test_empty_and_zero_columns(self):
        assert rank_and_torsion([]) == (0, ())
        assert rank_and_torsion([{}, {0: 0}]) == (0, ())

    def test_input_columns_untouched(self):
        cols = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        rank_and_torsion(cols)
        assert cols == [{0: 1, 1: 1}, {0: 1, 1: -1}]


# -- chain complexes ---------------------------------------------------------------


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


PROJECTIVE_PLANE_TRIANGLES = [
    ("v1", "v2", "v5"),
    ("v1", "v2", "v6"),
    ("v1", "v3", "v4"),
    ("v1", "v3", "v6"),
    ("v1", "v4", "v5"),
    ("v2", "v3", "v4"),
    ("v2", "v3", "v5"),
    ("v2", "v4", "v6"),
    ("v3", "v5", "v6"),
    ("v4", "v5", "v6"),
]


def projective_plane_complex() -> ChainComplex:
    ids = [f"v{i}" for i in range(1, 7)]
    edges = sorted(set(itertools.chain.from_iterable(
        itertools.combinations(t, 2) for t in PROJECTIVE_PLANE_TRIANGLES
    )))
    return ChainComplex({
        0: [(v,) for v in ids],
        1: edges,
        2: sorted(PROJECTIVE_PLANE_TRIANGLES),
    })


class TestChainComplex:
    def test_boundary_squares_to_zero(self):
        rng = random.Random(20260817)
        for _ in range(10):
            c = random_flag_complex(rng, rng.randint(2, 8), 0.5)
            cc = ChainComplex(flag_cliques(c, 4))
            for k in range(1, 5):
                lower = dense_boundary(cc, k - 1)
                upper = dense_boundary(cc, k)
                prod = mat_mul(lower, upper)
                assert all(all(x == 0 for x in row) for row in prod)

    def test_missing_face_rejected(self):
        with pytest.raises(InvalidConfigError):
            ChainComplex({0: [("a",), ("b",)], 1: [("a", "c")]})

    def test_point_has_trivial_reduced_homology(self):
        c = complete_graph(1)
        prof = reduced_homology(c, 2)
        assert all(prof.betti(k) == 0 and not prof.torsion(k) for k in range(3))

    def test_two_points(self):
        c = FlagComplex()
        c.add_vertex("a")
        c.add_vertex("b")
        c.freeze()
        prof = reduced_homology(c, 1)
        assert prof.betti(0) == 1
        assert prof.betti(1) == 0

    def test_circle(self):
        prof = reduced_homology(cycle_graph(4), 2)
        assert [prof.betti(k) for k in range(3)] == [0, 1, 0]
        assert all(not prof.torsion(k) for k in range(3))
        prof6 = reduced_homology(cycle_graph(6), 2)
        assert [prof6.betti(k) for k in range(3)] == [0, 1, 0]

    def test_contractible_simplex(self):
        prof = reduced_homology(complete_graph(5), 3)
        assert all(prof.betti(k) == 0 and not prof.torsion(k) for k in range(4))

    def test_projective_plane_torsion(self):
        prof = projective_plane_complex().profile(2)
        assert prof.entries == ((0, ()), (0, (2,)), (0, ()))
        assert prof.describe(1) == "Z/2"
        assert prof.describe(0) == "0"

    def test_profile_is_an_immutable_value(self):
        prof = projective_plane_complex().profile(2)
        assert prof == HomologyProfile(((0, ()), (0, (2,)), (0, ())))
        assert prof != HomologyProfile(((0, ()), (0, ()), (0, ())))
        assert hash(prof) == hash(HomologyProfile(prof.entries))
        assert prof.d_max == 2 and prof.torsion(1) == (2,) and prof.betti(1) == 0
        assert prof.to_json_obj()[1] == {"dimension": 1, "betti": 0, "torsion": [2]}
        with pytest.raises(AttributeError):
            prof.entries = ()
        with pytest.raises(AttributeError):
            prof.extra = 1

    def test_octahedral_sphere_homology(self):
        for n in range(1, 9):
            prof = reduced_homology(octahedral_sphere(n), n)
            for k in range(n + 1):
                expected = 1 if k == n - 1 else 0
                assert prof.betti(k) == expected, (n, k)
                assert prof.torsion(k) == ()

    def test_matches_rational_oracle(self):
        rng = random.Random(99)
        for _ in range(12):
            c = random_flag_complex(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
            prof = reduced_homology(c, 3)
            oracle = betti_numbers_rational(c, 3)
            assert [prof.betti(k) for k in range(4)] == oracle

    def test_describe_formats(self):
        prof = reduced_homology(cycle_graph(4), 1)
        assert prof.describe(1) == "Z"
        assert prof.describe(0) == "0"


class TestSuspensionShift:
    def test_shift_on_seeded_random_complexes(self):
        failures = []
        for seed in range(1000, 1020):
            rng = random.Random(seed)
            c = random_flag_complex(rng, rng.randint(1, 10), rng.uniform(0.15, 0.65))
            base = reduced_homology(c, 2)
            s = suspend(c, "suspension_north", "suspension_south")
            lifted = reduced_homology(s, 3)
            if lifted.betti(0) != 0 or lifted.torsion(0):
                failures.append((seed, 0))
            for k in range(3):
                if lifted.entries[k + 1] != base.entries[k]:
                    failures.append((seed, k + 1))
        assert failures == []

    def test_shift_on_octahedra(self):
        for n in range(1, 4):
            s = suspend(octahedral_sphere(n), f"p{n}", f"q{n}")
            prof = reduced_homology(s, n + 1)
            assert prof.betti(n) == 1
            assert all(prof.betti(k) == 0 for k in range(n + 1) if k != n)


# -- generators and chain maps -------------------------------------------------------


def octahedron_with_vertex(n: int, neighbours: list[str]) -> FlagComplex:
    """``octahedral_sphere(n)`` plus a vertex ``x`` adjacent to ``neighbours`` only."""
    c = copy_complex(octahedral_sphere(n))
    c.add_vertex("x")
    for v in neighbours:
        c.add_edge(v, "x")
    return c.freeze()


def octahedron_and_projective_plane(prefix: str) -> ChainComplex:
    """Disjoint union of the octahedron and RP^2, whose vertices are ``prefix1..prefix6``.

    Reduced H_2 is Z (from the octahedron) with no torsion in dimension 2.
    """
    simplices = flag_cliques(octahedral_sphere(3), 2)
    rp2 = projective_plane_complex()
    for k, bucket in rp2.simplices.items():
        simplices[k] = simplices.get(k, []) + [
            tuple(v.replace("v", prefix) for v in s) for s in bucket
        ]
    return ChainComplex(simplices)


class TestFreeGenerator:
    def test_circle_generator(self):
        cc = ChainComplex(flag_cliques(octahedral_sphere(2), 2))
        gen = free_generator(cc, 1)
        assert len(gen) == 4  # the full square
        assert all(abs(c) == 1 for c in gen.values())
        assert chain_boundary(cc, 1, gen) == {}

    def test_sphere_generator_uses_all_facets(self):
        cc = ChainComplex(flag_cliques(octahedral_sphere(3), 3))
        gen = free_generator(cc, 2)
        assert len(gen) == 8
        assert all(abs(c) == 1 for c in gen.values())
        assert chain_boundary(cc, 2, gen) == {}

    def test_eight_pair_sphere_generator(self):
        cc = ChainComplex(flag_cliques(octahedral_sphere(8), 8))
        gen = free_generator(cc, 7)
        assert len(gen) == 256 == cc.n_cells(7)
        assert all(abs(c) == 1 for c in gen.values())
        assert gen[cc.simplices[7][-1]] == 1
        assert chain_boundary(cc, 7, gen) == {}

    def test_rejects_wrong_homology(self):
        cc = ChainComplex(flag_cliques(complete_graph(4), 3))
        with pytest.raises(InvalidConfigError):
            free_generator(cc, 1)

    def test_rejects_ridge_in_three_facets(self):
        # A fin on the edge p0-p1 keeps H_2 = Z, but that edge lies in 3 triangles.
        cc = ChainComplex(flag_cliques(octahedron_with_vertex(3, ["p0", "p1"]), 3))
        assert cc.profile(2).betti(2) == 1 and cc.n_cells(3) == 0
        with pytest.raises(InvalidConfigError, match="lies in 3"):
            free_generator(cc, 2)

    def test_rejects_incoherent_orientation(self):
        # The last triangle lies in RP^2, which admits no orientation.
        cc = octahedron_and_projective_plane("x")
        assert (cc.betti_reduced(2), cc.torsion(2)) == (1, ())
        with pytest.raises(InvalidConfigError, match="no coherent orientation"):
            free_generator(cc, 2)

    def test_rejects_unreached_facets(self):
        # The last triangle lies in the octahedron; RP^2 is never reached from it.
        cc = octahedron_and_projective_plane("a")
        assert (cc.betti_reduced(2), cc.torsion(2)) == (1, ())
        with pytest.raises(InvalidConfigError, match="10 simplices of dimension 2 are not reached"):
            free_generator(cc, 2)

    def test_rejects_higher_simplices(self):
        # A cone on the triangle p0 p1 p2 keeps H_2 = Z but adds a 3-simplex.
        cc = ChainComplex(flag_cliques(octahedron_with_vertex(3, ["p0", "p1", "p2"]), 3))
        assert cc.profile(2).betti(2) == 1 and cc.n_cells(3) == 1
        with pytest.raises(InvalidConfigError, match="no simplices above dimension 2"):
            free_generator(cc, 2)


class TestChainMaps:
    def test_permutation_sign(self):
        assert permutation_sign(["a", "b", "c"]) == 1
        assert permutation_sign(["b", "a", "c"]) == -1
        assert permutation_sign(["b", "c", "a"]) == 1

    def test_degenerate_collapses(self):
        out = apply_chain_map({"a": "x", "b": "x"}, {("a", "b"): 1})
        assert out == {}

    def test_orientation_flip(self):
        out = apply_chain_map({"a": "b", "b": "a"}, {("a", "b"): 2})
        assert out == {("a", "b"): -2}

    def test_rotation_keeps_orientation(self):
        out = apply_chain_map({"a": "b", "b": "c", "c": "a"}, {("a", "b", "c"): 1})
        assert out == {("a", "b", "c"): 1}

    def test_cancellation(self):
        chain = {("a", "b"): 1, ("c", "d"): -1}
        out = apply_chain_map({"a": "a", "b": "b", "c": "a", "d": "b"}, chain)
        assert out == {}


class TestCertifyHomologyRetraction:
    def test_identity_on_octahedron(self):
        s = octahedral_sphere(3)
        doc = certify_homology_retraction({v: v for v in s.vertex_ids}, s, 2)
        assert doc["passed"] is True
        assert doc["composite_is_identity"] is True
        assert doc["generating_cycle"] == doc["image_cycle"]
        assert len(doc["generating_cycle"]) == 8

    def test_identity_on_eight_pair_sphere(self):
        s = octahedral_sphere(8)
        doc = certify_homology_retraction({v: v for v in s.vertex_ids}, s, 7)
        assert doc["passed"] is True
        assert len(doc["generating_cycle"]) == 256
        assert doc["generating_cycle"][-1][1] == 1

    def test_rejects_non_retraction(self):
        s = octahedral_sphere(2)
        assignment = {v: v for v in s.vertex_ids}
        assignment["p0"] = "q0"
        with pytest.raises(InvalidConfigError, match="'p0' is not fixed"):
            certify_homology_retraction(assignment, s, 1)

    def test_rejects_wrong_dimension(self):
        c = octahedral_sphere(2)
        sub = induced_subcomplex(c, ["p0"])
        f = VertexMap(c, c, {v: "p0" for v in c.vertex_ids})
        ok, _ = check_retraction(f, sub)
        assert ok
        with pytest.raises(InvalidConfigError):
            certify_homology_retraction(f.assignment, sub, 1)
