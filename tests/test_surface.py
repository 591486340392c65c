"""Tests for the chord-model surface module.

Frozen intersection numbers below were derived independently of the
implementation: small cases by hand-enumerated chord drawings, and the
genus-1 table against the classical fact that arcs on a once-punctured
torus correspond to rational slopes with minimal crossing number
|ps - qr| - 1 for slopes p/q and r/s (the arc complex is the Farey graph,
so Farey-adjacent slopes give disjoint arcs).
"""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from disklab import surface
from disklab.errors import InvalidConfigError, MalformedFileError, ResourceCapError
from disklab.surface import (
    SIDE_A,
    SIDE_B,
    ArcCode,
    TubedSurface,
    arc_verdict,
    build_tubed_surface,
    candidate_count,
    canonical_code,
    enumerate_arcs,
    opposite_side,
    reverse_code,
    surface_to_json_obj,
    tube_side,
    validate_code,
)
from oracles import (
    all_reduced_codes,
    arcs_disjoint,
    canonical_reduced_codes,
    chord_endpoints,
    crossings,
    entries_of,
    enumerate_arcs_by_filtering,
    has_crossing_free_merge,
    min_crossings,
    positions,
    side_index,
    side_word,
)


# -- test-only helpers --------------------------------------------------------


def exhaustive_solo_drawings(genus: int, code: ArcCode) -> tuple:
    """Reference for ``solo_drawings``: every combination of orders, then a check.

    Tries every plus-side slot order of every crossed pair (pairs in
    increasing order, each in ``permutations`` order) and both station orders,
    and keeps the drawings with zero self-crossings.  No pruning.
    """
    validate_code(code, genus)
    entries = entries_of(code)
    by_pair: dict[int, list[tuple[int, int]]] = {}
    for idx, (p, _s) in enumerate(entries):
        by_pair.setdefault(p, []).append((0, idx))
    chords = chord_endpoints(genus, {0: code})[0]
    out = []
    endpoint_orders = [((0, 0), (0, 1)), ((0, 1), (0, 0))]
    pair_ids = sorted(by_pair)
    pair_perm_lists = [list(itertools.permutations(by_pair[p])) for p in pair_ids]

    def rec(i: int, chosen: dict[int, tuple]) -> None:
        if i == len(pair_ids):
            for station in endpoint_orders:
                pos = positions(genus, station, chosen)
                if crossings(pos, chords, chords, stop_at=1) == 0:
                    out.append((station, tuple(chosen.get(p, ()) for p in range(2 * genus))))
            return
        for perm in pair_perm_lists[i]:
            chosen[pair_ids[i]] = perm
            rec(i + 1, chosen)
        del chosen[pair_ids[i]]

    rec(0, {})
    return tuple(out)


def word_of(genus: int, drawing: tuple) -> ArcCode:
    """The word an open drawing was grown by, read off the blocks its chords join.

    Chord i runs from the exit side of letter i - 1 (the station for i = 0)
    to the arrival side of letter i; the oracle's word names both.
    """
    side = side_word(genus)
    word, prev = [], 0
    for u, v in drawing[1]:
        arrive = v[0] if u[0] == prev else u[0]
        p, s = side[arrive - 1]
        word.append(s * (p + 1))
        prev = side.index((p, -s)) + 1
    return tuple(word)


def solo_drawings(genus: int, code: ArcCode) -> tuple:
    """The closed drawings of ``surface._closed_drawings`` as token orders.

    Each drawing becomes (station order, per-pair plus-side orders), the form
    of ``exhaustive_solo_drawings``: chord i ends at letter i's arrival, whose
    rank, signed back to the plus side, orders that letter's slot token.  End
    rank 1 puts the end token after the start token at the station.
    """
    sidx = side_index(genus)
    letters = entries_of(code)
    out = []
    for end, (_ranks, chords, _free) in surface._closed_drawings(genus, code):
        ranks = []
        for (u, v), (p, s) in zip(chords, letters):
            arrive = u if u[0] == sidx[(p, s)] + 1 else v
            ranks.append(s * arrive[1])
        by_rank = sorted(range(len(code)), key=ranks.__getitem__)
        orders = tuple(tuple((0, i) for i in by_rank if letters[i][0] == p) for p in range(2 * genus))
        out.append((((0, 0), (0, 1)) if end > 0 else ((0, 1), (0, 0)), orders))
    return tuple(out)


def is_embeddable(genus: int, code: ArcCode) -> bool:
    return bool(surface._closed_drawings(genus, code))


def crossing_free(chords: list) -> bool:
    return not any((w < y < x) != (w < z < x) for (w, x), (y, z) in itertools.combinations(chords, 2))


def fresh_verdict(genus: int, a: ArcCode, b: ArcCode) -> bool:
    """The verdict of a new ``arc_verdict``, which draws both codes and keeps nothing from earlier calls."""
    return arc_verdict(genus)(a, b)


# Each engine with its value for disjoint arcs: the exhaustive crossing
# number, and the exact disjointness search that replaced it, both through
# the tests' verdict kept for the run and through a fresh one.
ENGINES = ((min_crossings, 0), (arcs_disjoint, True), (fresh_verdict, True))


def arcs_to_json_obj(genus: int, k: int, arcs: list[ArcCode]) -> dict:
    return {
        "kind": "arc_catalog",
        "genus": genus,
        "arc_bound": k,
        "classes": [list(code) for code in arcs],
    }


def arcs_from_json_obj(obj, source: str = "arcs") -> tuple[int, int, list[ArcCode]]:
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "expected an object")
    if obj.get("kind") != "arc_catalog":
        raise MalformedFileError(f"{source}.kind", "expected 'arc_catalog'")
    genus = obj.get("genus")
    k = obj.get("arc_bound")
    if not isinstance(genus, int) or genus < 1:
        raise MalformedFileError(f"{source}.genus", "expected an int >= 1")
    if not isinstance(k, int) or k < 0:
        raise MalformedFileError(f"{source}.arc_bound", "expected an int >= 0")
    raw = obj.get("classes")
    if not isinstance(raw, list):
        raise MalformedFileError(f"{source}.classes", "expected a list")
    out: list[ArcCode] = []
    for i, entry in enumerate(raw):
        loc = f"{source}.classes[{i}]"
        if not isinstance(entry, list) or not all(isinstance(x, int) for x in entry):
            raise MalformedFileError(loc, "expected a list of ints")
        code = tuple(entry)
        try:
            validate_code(code, genus)
        except InvalidConfigError as exc:
            raise MalformedFileError(loc, str(exc)) from exc
        if canonical_code(code) != code:
            raise MalformedFileError(loc, f"code {code!r} is not canonical")
        out.append(code)
    if out != sorted(out, key=lambda c: (len(c), c)):
        raise MalformedFileError(f"{source}.classes", "classes are not in catalog order")
    return genus, k, out


# -- punctured block ----------------------------------------------------------


def test_model_word_structure():
    assert side_word(2) == (
        (0, 1), (1, 1), (0, -1), (1, -1),
        (2, 1), (3, 1), (2, -1), (3, -1),
    )


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_step_blocks_follow_the_word(genus):
    # The step computes each letter's blocks; the oracle's word lists them.
    word = side_word(genus)
    for x in (x for x in range(-2 * genus, 2 * genus + 1) if x):
        p, s = abs(x) - 1, 1 if x > 0 else -1
        children = list(surface._step(surface._blank(genus), x))
        assert children, x
        for _ranks, chords, free in children:
            assert [block for (block, _rank) in chords[-1]] == [0, 1 + word.index((p, s))], x
            assert free[0] == 1 + word.index((p, -s)), x


def test_model_validation():
    with pytest.raises(InvalidConfigError):
        enumerate_arcs(0, 1)
    with pytest.raises(InvalidConfigError):
        enumerate_arcs(0, 0)
    with pytest.raises(InvalidConfigError):
        enumerate_arcs(-1, 3)


# -- codes --------------------------------------------------------------------


def test_validate_code_rejections():
    with pytest.raises(InvalidConfigError):
        validate_code((), 1)
    with pytest.raises(InvalidConfigError):
        validate_code((0,), 1)
    with pytest.raises(InvalidConfigError):
        validate_code((3,), 1)  # out of range for genus 1
    with pytest.raises(InvalidConfigError):
        validate_code((1, -1), 1)  # not reduced


def test_reverse_and_canonical():
    assert reverse_code((1, -2)) == (2, -1)
    assert canonical_code((1,)) == (-1,)
    assert canonical_code((-1,)) == (-1,)
    assert canonical_code((1, 2)) == (-2, -1)
    # canonical is idempotent and reversal-invariant
    for code in [(-1,), (2,), (1, -2), (-2, 1), (-1, 2, -1)]:
        c = canonical_code(code)
        assert canonical_code(c) == c
        assert canonical_code(reverse_code(code)) == c


# -- enumeration (frozen values) ----------------------------------------------


def test_enumerate_empty_at_zero(monkeypatch):
    # Nothing of the genus's size is built: at genus 10**9 the blank drawing
    # or the letter list would take tens of gigabytes, so refusing the one
    # and bounding the time makes a regression fail at once.
    def refuse(*args):
        raise AssertionError("enumerate_arcs built a drawing of the genus's size at arc bound 0")

    monkeypatch.setattr(surface, "_blank", refuse)
    start = time.perf_counter()
    assert enumerate_arcs(1, 0) == [] and enumerate_arcs(10**9, 0) == []
    assert time.perf_counter() - start < 1.0


def test_enumerate_genus1_k1_exactly_two_classes():
    assert enumerate_arcs(1, 1) == [(-2,), (-1,)]


def test_enumerate_genus1_k2_frozen():
    # Hand enumeration: six canonical reduced length-2 codes, of which
    # (-1,-1)/(-2,-2) (non-primitive wrap) and (-1,-2) (kinked crossing
    # order) admit no embedded drawing.
    assert enumerate_arcs(1, 2) == [
        (-2,), (-1,), (-2, -1), (-2, 1), (1, -2),
    ]


def test_enumerate_genus2_k1():
    assert enumerate_arcs(2, 1) == [(-4,), (-3,), (-2,), (-1,)]


def test_enumerate_regression_counts():
    assert len(enumerate_arcs(1, 3)) == 13
    assert len(enumerate_arcs(1, 4)) == 22
    assert len(enumerate_arcs(2, 3)) == 54


def test_enumerate_monotone_and_canonical():
    k1 = enumerate_arcs(1, 1)
    k2 = enumerate_arcs(1, 2)
    k3 = enumerate_arcs(1, 3)
    assert set(k1) <= set(k2) <= set(k3)
    for code in k3:
        assert canonical_code(code) == code
    assert k3 == sorted(k3, key=lambda c: (len(c), c))


@pytest.mark.parametrize(
    "genus, k, count",
    [(1, 7, 84), (2, 5, 449), (1, 8, 106), (1, 9, 150), (2, 6, 1093), (3, 4, 527)],
)
def test_enumerate_embeddable_counts(genus, k, count):
    assert len(enumerate_arcs(genus, k)) == count


@pytest.mark.parametrize(
    "genus, k", [(1, k) for k in range(1, 8)] + [(1, 9), (2, 4), (2, 5), (3, 3), (3, 4)]
)
def test_enumerate_matches_filtering_oracle(genus, k):
    assert enumerate_arcs(genus, k) == enumerate_arcs_by_filtering(genus, k)


def test_enumerate_resource_cap(monkeypatch):
    monkeypatch.setattr(surface, "DEFAULT_MAX_ARC_CLASSES", 10)
    with pytest.raises(ResourceCapError) as exc:
        enumerate_arcs(2, 4)
    assert exc.value.cap_name == "max_arc_classes"
    assert exc.value.limit == 10


def test_candidate_count_matches_canonical_codes():
    for genus, k in [(1, 1), (1, 5), (2, 3)]:
        assert candidate_count(genus, k) == len(canonical_reduced_codes(genus, k))
    assert candidate_count(1, 0) == 0
    assert candidate_count(1, 9) == 19682 and candidate_count(2, 6) == 78432


def test_enumerate_resource_cap_boundary_is_decided_before_search(monkeypatch):
    count = candidate_count(2, 4)
    monkeypatch.setattr(surface, "DEFAULT_MAX_ARC_CLASSES", count)
    assert len(enumerate_arcs(2, 4)) == 159

    def no_search(*args):
        raise AssertionError("the search ran although the cap was exceeded")

    monkeypatch.setattr(surface, "_step", no_search)
    monkeypatch.setattr(surface, "DEFAULT_MAX_ARC_CLASSES", count - 1)
    with pytest.raises(ResourceCapError) as exc:
        enumerate_arcs(2, 4)
    assert exc.value.limit == count - 1


# -- embeddability (frozen values) ---------------------------------------------


@pytest.mark.parametrize(
    "code, expected",
    [
        ((-1,), True),
        ((-2,), True),
        ((1, 1), False),      # non-primitive double wrap
        ((-1, -1), False),
        ((-2, -2), False),
        ((-1, -2), False),    # kinked crossing order
        ((-2, -1), True),     # slope -1 diagonal
        ((-2, 1), True),      # slope +1 diagonal
        ((1, -2), True),
        ((-1, 2, -1), True),  # slope +2
        ((-1, -2, -1), False),
    ],
)
def test_embeddability_frozen(code, expected):
    assert is_embeddable(1, code) is expected


def test_solo_drawings_nonempty_for_embeddable():
    assert solo_drawings(1, (-2, -1))
    assert solo_drawings(1, (1, 1)) == ()


@pytest.mark.parametrize("code", [(3,), (1, -1), (), (0,)])
def test_drawing_search_rejects_invalid_codes(code):
    with pytest.raises(InvalidConfigError):
        is_embeddable(1, code)
    with pytest.raises(InvalidConfigError):
        solo_drawings(1, code)


@pytest.mark.parametrize("genus, k", [(1, 6), (2, 4)])
def test_solo_drawings_match_exhaustive_oracle(genus, k):
    # The same drawings, in whatever order the insertion search grows them.
    for code in canonical_reduced_codes(genus, k):
        assert sorted(solo_drawings(genus, code)) == sorted(exhaustive_solo_drawings(genus, code)), code


@pytest.mark.parametrize("genus, k", [(1, 6), (2, 4)])
def test_embeddability_ignores_orientation(genus, k):
    for code in all_reduced_codes(genus, k):
        assert is_embeddable(genus, code) == is_embeddable(genus, reverse_code(code)), code


@pytest.mark.parametrize(
    "code, rejected_early",
    [((-1, -2), True), ((-1, -2, -1), True), ((1, 1), False)],
    ids=["(-1,-2)", "(-1,-2,-1)", "(1,1)"],
)
def test_side_word_alone_rejects_some_codes(monkeypatch, code, rejected_early):
    # A crossing between chords whose endpoints lie on different sides is
    # fixed before any slot order is chosen.  In (-1, -2), chord 0 runs from
    # the station to side 2 and chord 1 from side 0 to side 3, so the prefix
    # (-1, -2) has no crossing-free open drawing, and enumeration never
    # visits a word that extends it.  (1, 1) keeps an open drawing and fails
    # only when its last chord is closed at the station.
    visited = []
    step = surface._step

    def recording_step(drawing, x):
        visited.append(drawing)
        return step(drawing, x)

    monkeypatch.setattr(surface, "_step", recording_step)
    arcs = enumerate_arcs(1, len(code) + 1)
    words = {word_of(1, d) for d in visited}
    assert all(crossing_free(d[1]) for d in visited)  # every visited word has an open drawing
    assert (code in words) is not rejected_early
    assert any(w[: len(code)] == code for w in words) is not rejected_early
    assert not is_embeddable(1, code) and canonical_code(code) not in arcs
    drawings = [surface._blank(1)]
    for x in code:
        drawings = [child for d in drawings for child in step(d, x)]
    assert (drawings == []) is rejected_early


def test_enumerate_tries_one_orientation_of_each_longest_word(monkeypatch):
    # A word of the bound's length and its reversal have the same canonical
    # code and embed together, so the last letter x of such a word is only
    # tried with x <= -word[0]; both orientations are tried only when
    # x == -word[0].
    genus, k = 1, 4
    last_letters = []
    step = surface._step

    def recording_step(drawing, x):
        word = word_of(genus, drawing)
        if len(word) == k - 1:
            last_letters.append((word, x))
        return step(drawing, x)

    monkeypatch.setattr(surface, "_step", recording_step)
    arcs = enumerate_arcs(genus, k)
    assert arcs == enumerate_arcs_by_filtering(genus, k)
    assert last_letters and all(x <= -word[0] for word, x in last_letters)
    assert {x for word, x in last_letters if word == (-1, 2, -1)} == {-2, -1}


# -- intersection numbers (frozen oracle table) ---------------------------------

# Slope dictionary (verified by geometric trace):
#   (-1,) ~ infinity=(0,1); (-2,) ~ 0=(1,0); (-2,1) ~ +1=(1,1);
#   (-2,-1) ~ -1=(1,-1); (-1,2,-1) ~ +2=(1,2).
FAREY_TABLE = [
    ((-1,), (-2,), 0),          # det 1
    ((-1,), (-2, -1), 0),       # det 1
    ((-2,), (-2, -1), 0),       # det 1
    ((-2,), (-2, 1), 0),        # det 1
    ((-1,), (1, -2), 0),        # det 1
    ((-2, -1), (-2, 1), 1),     # det 2
    ((-2, -1), (1, -2), 1),     # det 2
    ((-1, 2, -1), (-1,), 0),    # det 1
    ((-1, 2, -1), (-2, 1), 0),  # det 1
    ((-1, 2, -1), (-2,), 1),    # det 2
    ((-1, 2, -1), (-2, -1), 2), # det 3
]


@pytest.mark.parametrize("a, b, expected", FAREY_TABLE)
def test_intersection_farey_oracle(a, b, expected):
    assert min_crossings(1, a, b) == expected
    assert min_crossings(1, b, a) == expected


@pytest.mark.parametrize("genus, k", [(1, 4), (2, 3)])
def test_crossing_free_merge_is_a_zero_crossing_minimum(genus, k):
    # The early-stopping oracle against the full count it shortens.
    arcs = enumerate_arcs(genus, k)
    for a, b in itertools.combinations(arcs, 2):
        assert has_crossing_free_merge(genus, a, b) is (min_crossings(genus, a, b) == 0), (a, b)


@pytest.mark.parametrize("genus, k", [(1, 6), (2, 4)])
def test_disjointness_search_matches_crossing_oracle(genus, k):
    arcs = enumerate_arcs(genus, k)
    for a, b in itertools.combinations(arcs, 2):
        expected = has_crossing_free_merge(genus, a, b)
        assert arcs_disjoint(genus, a, b) is expected, (a, b)
        assert arcs_disjoint(genus, b, a) is expected, (b, a)


@pytest.mark.parametrize("genus, k", [(1, 5), (2, 3)])
def test_every_disjoint_verdict_has_a_zero_crossing_drawing(genus, k):
    # The search's witness holds one chord per step of each arc, on the
    # blocks the codes visit, and no two of its chords interleave.
    sidx = side_index(genus)

    def blocks(code):
        ends = [0] + [sidx[e] + 1 for p, s in entries_of(code) for e in ((p, s), (p, -s))] + [0]
        return sorted(tuple(sorted(ends[i : i + 2])) for i in range(0, len(ends), 2))

    arcs = enumerate_arcs(genus, k)
    for a, b in itertools.combinations(arcs, 2):
        drawing = surface._joint_drawing(surface._closed_drawings(genus, a), b)
        assert (drawing is not None) is arcs_disjoint(genus, a, b), (a, b)
        if drawing is None:
            continue
        assert sorted((u[0], v[0]) for u, v in drawing) == sorted(blocks(a) + blocks(b)), (a, b)
        assert len({x for chord in drawing for x in chord}) == 2 * len(drawing), (a, b)
        for (w, x), (y, z) in itertools.combinations(drawing, 2):
            assert (w < y < x) == (w < z < x), (a, b, (w, x), (y, z))


def test_intersection_diagonal_zero():
    arcs = enumerate_arcs(1, 3)
    for engine, disjoint in ENGINES:
        for code in arcs:
            assert engine(1, code, code) == disjoint


def test_intersection_parallel_copies_any_form():
    # The same class handed in as a non-canonical code still reads as parallel.
    for engine, disjoint in ENGINES:
        assert engine(1, (1,), (-1,)) == disjoint
        assert engine(1, (1, 2), (-2, -1)) == disjoint


def test_intersection_symmetric_over_catalog():
    arcs = enumerate_arcs(1, 3)
    for engine, _ in ENGINES:
        for a, b in itertools.combinations(arcs, 2):
            assert engine(1, a, b) == engine(1, b, a)


def test_intersection_diagonal_and_symmetry_k4():
    arcs = enumerate_arcs(1, 4)
    for engine, disjoint in ENGINES:
        for code in arcs:
            assert engine(1, code, code) == disjoint
        for a, b in list(itertools.combinations(arcs, 2))[:60]:
            assert engine(1, a, b) == engine(1, b, a)


def test_intersection_rejects_non_embeddable():
    for engine, _ in ENGINES:
        with pytest.raises(InvalidConfigError):
            engine(1, (1, 1), (-1,))
        with pytest.raises(InvalidConfigError):
            engine(1, (-1,), (1, 1))


def test_intersection_genus2_cross_handle():
    for engine, disjoint in ENGINES:
        assert engine(2, (-1,), (-3,)) == disjoint
        assert engine(2, (-1,), (-4,)) == disjoint
        assert engine(2, (-1,), (-2,)) == disjoint


# -- tubed surfaces -------------------------------------------------------------


def test_tube_sides_alternate():
    assert tube_side(1) == SIDE_B
    assert tube_side(2) == SIDE_A
    assert tube_side(3) == SIDE_B
    assert opposite_side(SIDE_A) == SIDE_B


def test_build_tubed_surface_f1():
    s = build_tubed_surface(1, 1)
    assert s.genus_total == 2
    assert s.w_side == SIDE_B
    assert s.v_side == SIDE_A
    (r,) = surface_to_json_obj(s)["regions"]
    assert r["index"] == 1
    assert r["block_side"] == SIDE_A
    assert r["own_tube_side"] == SIDE_B
    assert r["feet_bottom"] == [] and r["feet_top"] == []


def test_build_tubed_surface_f2():
    s = build_tubed_surface(1, 2)
    assert s.genus_total == 3
    assert s.w_side == SIDE_A
    r1, r2 = surface_to_json_obj(s)["regions"]
    assert r1["feet_top"] == [2] and r1["feet_bottom"] == []
    assert r2["feet_bottom"] == [1] and r2["feet_top"] == []
    assert r1["block_side"] == SIDE_A and r2["block_side"] == SIDE_B


def test_build_tubed_surface_f3_interior_region():
    s = build_tubed_surface(2, 3)
    assert s.genus_total == 8
    assert s.w_side == SIDE_B
    regions = surface_to_json_obj(s)["regions"]
    assert [r["index"] for r in regions] == [1, 2, 3]
    assert regions[1]["feet_bottom"] == [1] and regions[1]["feet_top"] == [3]
    # block and own tube on opposite sides; consecutive regions alternate
    for r in regions:
        assert r["block_side"] == opposite_side(r["own_tube_side"])
    sides = [r["block_side"] for r in regions]
    assert all(x != y for x, y in zip(sides, sides[1:]))


def test_build_tubed_surface_validation():
    with pytest.raises(InvalidConfigError):
        build_tubed_surface(0, 1)
    with pytest.raises(InvalidConfigError):
        build_tubed_surface(1, 0)


# -- JSON -----------------------------------------------------------------------


def surface_from_json_obj(obj, source: str = "surface") -> TubedSurface:
    """Read back what ``surface_to_json_obj`` writes, checking every region against a rebuilt surface."""
    if not isinstance(obj, dict):
        raise MalformedFileError(source, "expected an object")
    if obj.get("kind") != "tubed_surface":
        raise MalformedFileError(f"{source}.kind", "expected 'tubed_surface'")
    genus = obj.get("genus_base")
    tubes = obj.get("tubes")
    if type(genus) is not int or genus < 1:
        raise MalformedFileError(f"{source}.genus_base", "expected an int >= 1")
    if type(tubes) is not int or tubes < 1:
        raise MalformedFileError(f"{source}.tubes", "expected an int >= 1")
    built = build_tubed_surface(genus, tubes)
    built_regions = surface_to_json_obj(built)["regions"]
    regions = obj.get("regions")
    if not isinstance(regions, list) or len(regions) != tubes:
        raise MalformedFileError(f"{source}.regions", f"expected a list of {tubes} regions")
    for i, entry in enumerate(regions):
        loc = f"{source}.regions[{i}]"
        if not isinstance(entry, dict):
            raise MalformedFileError(loc, "expected an object")
        fields = ("index", "block_side", "own_tube_side", "feet_bottom", "feet_top")
        got = tuple(entry.get(name) for name in fields)
        expect = tuple(built_regions[i][name] for name in fields)
        if got != expect:
            raise MalformedFileError(loc, f"inconsistent region data; expected {expect}")
    return built


def test_surface_json_roundtrip():
    s = build_tubed_surface(2, 3)
    obj = surface_to_json_obj(s)
    assert surface_from_json_obj(obj) == s


def test_surface_json_rejects_tampering():
    obj = surface_to_json_obj(build_tubed_surface(1, 2))
    obj["regions"][1]["feet_bottom"] = [2]
    with pytest.raises(MalformedFileError) as exc:
        surface_from_json_obj(obj)
    assert "regions[1]" in exc.value.location


def test_surface_json_rejects_bad_kind():
    with pytest.raises(MalformedFileError):
        surface_from_json_obj({"kind": "nope"})


@pytest.mark.parametrize("field, value", [("genus_base", True), ("tubes", True), ("genus_base", 1.0)])
def test_surface_json_rejects_non_int_counts(field, value):
    # A bool is an int to isinstance, but not a genus or a tube count.
    obj = surface_to_json_obj(build_tubed_surface(1, 1))
    obj[field] = value
    with pytest.raises(MalformedFileError) as exc:
        surface_from_json_obj(obj)
    assert exc.value.location == f"surface.{field}"


def test_arcs_json_roundtrip():
    arcs = enumerate_arcs(1, 2)
    obj = arcs_to_json_obj(1, 2, arcs)
    assert arcs_from_json_obj(obj) == (1, 2, arcs)


def test_arcs_json_rejects_non_canonical():
    obj = arcs_to_json_obj(1, 1, [(-2,), (-1,)])
    obj["classes"][0] = [2]
    with pytest.raises(MalformedFileError) as exc:
        arcs_from_json_obj(obj)
    assert "classes[0]" in exc.value.location


def test_arcs_json_rejects_disorder():
    obj = arcs_to_json_obj(1, 1, [(-2,), (-1,)])
    obj["classes"] = [[-1], [-2]]
    with pytest.raises(MalformedFileError):
        arcs_from_json_obj(obj)


# -- hypothesis properties --------------------------------------------------------


@st.composite
def reduced_codes(draw, genus=1, max_len=3):
    top = 2 * genus
    letters = [x for x in range(-top, top + 1) if x != 0]
    length = draw(st.integers(1, max_len))
    code = [draw(st.sampled_from(letters))]
    for _ in range(length - 1):
        nxt = draw(st.sampled_from([x for x in letters if x != -code[-1]]))
        code.append(nxt)
    return tuple(code)


@given(reduced_codes())
@settings(max_examples=60, deadline=None)
def test_canonical_involution_property(code):
    c = canonical_code(code)
    assert canonical_code(c) == c
    assert canonical_code(reverse_code(code)) == c
    assert c <= tuple(code) or c <= reverse_code(code)


@given(reduced_codes(max_len=2), reduced_codes(max_len=2))
@settings(max_examples=40, deadline=None)
def test_intersection_symmetry_property(a, b):
    if not is_embeddable(1, a) or not is_embeddable(1, b):
        return
    for engine, _ in ENGINES:
        assert engine(1, a, b) == engine(1, b, a)
