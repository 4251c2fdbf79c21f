"""Face counts, lattice structure, skeleton metrics, casks, flags, 4-d invariants."""

import math
from fractions import Fraction as F

import pytest

from isocant import combinatorics
from isocant.combinatorics import (
    FaceInterval,
    all_vertex_labels,
    antipode,
    antipode_interval,
    bfs_diameter,
    bfs_distances,
    box_fvector,
    build_face_lattice,
    cask_fvector,
    casks_and_belt,
    check_label,
    count_flags,
    count_flags_by_chains,
    diameter,
    distance,
    facet_intervals,
    fatness_f03,
    fvector_recursion_holds,
    fvector_tables,
    isocanted_fvector,
    label_text,
    skeleton,
    valence,
)
from isocant.geometry import verify_unique_vertex
from isocant.matrices import IsocantedSpec

import reference


def test_fvector_printed_values():
    assert isocanted_fvector(2) == (6, 6)
    assert isocanted_fvector(3) == (14, 24, 12)
    assert isocanted_fvector(4) == (30, 70, 60, 20)
    assert isocanted_fvector(4, extended=True) == (30, 70, 60, 20, 1)


def test_fvector_basic_shape():
    for d in range(2, 25):
        seq = isocanted_fvector(d)
        assert len(seq) == d
        assert seq[0] == 2 ** (d + 1) - 2
        assert seq[-1] == (d + 1) * d
        assert all(v > 0 and v % 2 == 0 for v in seq)
    with pytest.raises(ValueError):
        isocanted_fvector(1)


def test_box_fvector():
    assert box_fvector(3) == (8, 12, 6)
    assert box_fvector(3, extended=True) == (8, 12, 6, 1)
    # A bool is an int to isinstance, but not a dimension.
    for bad in (True, False, 2.0):
        with pytest.raises(ValueError, match="^dimension must be an integer >= 1$"):
            box_fvector(bad)


def test_cask_fvector_printed_values():
    assert cask_fvector(3) == (7, 9)
    assert cask_fvector(4) == (15, 28, 18)


def test_fvector_recursion():
    for d in range(3, 21):
        assert fvector_recursion_holds(d)


def _same_row(got, want):
    """Equal values of equal types, entry by entry."""
    assert got == want
    assert type(got) is type(want) and [type(v) for v in got] == [type(v) for v in want]


def test_row_builders_match_the_per_entry_formulas():
    # Each count against its closed form taken entry by entry through
    # math.comb, for every accepted d up to 30 and every table up to 12.
    for d in range(1, 31):
        for extended in (False, True):
            _same_row(box_fvector(d, extended), reference.box_fvector(d, extended))
            if d >= 2:
                _same_row(isocanted_fvector(d, extended), reference.fvector(d, extended))
        if d >= 2:
            _same_row(cask_fvector(d), reference.cask_fvector(d))
        if d >= 3:
            assert fvector_recursion_holds(d) is reference.fvector_recursion_holds(d) is True
    for dmax in range(13):
        got, want = fvector_tables(dmax), reference.fvector_tables(dmax)
        assert got == want
        for name in ("two_power", "pascal", "box", "half"):
            _same_row(getattr(got, name), getattr(want, name))
            for row, ref_row in zip(getattr(got, name), getattr(want, name)):
                _same_row(row, ref_row)


def test_factor_step_matches_the_row_built_from_scratch():
    # The sweep steps the factor row 2**(d+1-j) - 2 by one new entry in
    # front; each step must give the row of the next dimension.
    factors = combinatorics._factor_row(1)
    for d in range(2, 301):
        factors = combinatorics._factor_step(factors, d)
        assert factors == combinatorics._factor_row(d) == [2 ** (d + 1 - j) - 2 for j in range(d)], d


@pytest.mark.parametrize("count, floor", [
    (box_fvector, 1), (isocanted_fvector, 2), (cask_fvector, 2), (fvector_recursion_holds, 3),
], ids=["box", "isocanted", "cask", "recursion"])
def test_row_builders_refuse_what_they_refused(count, floor):
    for bad in (True, False, 2.0, float(floor), "3", None, floor - 1, -1):
        with pytest.raises(ValueError, match=f"^dimension must be an integer >= {floor}$"):
            count(bad)


def test_fvector_tables_refuse_a_negative_dimension():
    for dmax in (-1, -12):
        with pytest.raises(ValueError, match="^dmax must be non-negative$"):
            fvector_tables(dmax)


LABEL_DIM_TEXT = "^dimension must be an integer >= 2$"


@pytest.mark.parametrize("call, error, text", [
    (lambda: valence({1}, 1), ValueError, LABEL_DIM_TEXT),
    (lambda: valence({1}, True), ValueError, LABEL_DIM_TEXT),
    (lambda: distance({1}, {2}, 2.5), ValueError, LABEL_DIM_TEXT),
    (lambda: antipode({1}, 2.5), ValueError, LABEL_DIM_TEXT),
    (lambda: check_label({1}, 2.5), ValueError, LABEL_DIM_TEXT),
    (lambda: check_label({1}, 0), ValueError, LABEL_DIM_TEXT),
    (lambda: fvector_tables(True), TypeError, "^dmax must be an int, got True$"),
    (lambda: fvector_tables(2.0), TypeError, "^dmax must be an int, got 2.0$"),
    (lambda: fvector_tables("3"), TypeError, "^dmax must be an int, got '3'$"),
    (lambda: fvector_tables(None), TypeError, "^dmax must be an int, got None$"),
    (lambda: label_text(check_label([1.0, 2], 3)), TypeError, r"^label elements must be ints, got 1\.0$"),
    (lambda: check_label([None], 3), TypeError, "^label elements must be ints, got None$"),
    (lambda: check_label(["1"], 3), TypeError, "^label elements must be ints, got '1'$"),
    (lambda: valence([True], 3), TypeError, "^label elements must be ints, got True$"),
    (lambda: distance({1}, {"2"}, 3), TypeError, "^label elements must be ints, got '2'$"),
    (lambda: verify_unique_vertex(IsocantedSpec(3, 2, 1), [True]), TypeError,
     "^label elements must be ints, got True$"),
    (lambda: antipode_interval(FaceInterval(frozenset({1}), frozenset({1, 2, 3})), 1), ValueError,
     LABEL_DIM_TEXT),
    (lambda: antipode_interval(FaceInterval(frozenset({1}), frozenset({1, 2, 3})), 1.5), ValueError,
     LABEL_DIM_TEXT),
    (lambda: antipode_interval(FaceInterval(frozenset(), frozenset({1})), 3), ValueError,
     "^bottom must be nonempty$"),
    (lambda: antipode_interval(FaceInterval(frozenset({1}), frozenset({1, 2, 3, 4})), 3), ValueError,
     r"^label must be a proper nonempty subset of 1\.\.4$"),
    # FaceInterval's own refusals, in the order it makes them: element type,
    # element range, empty bottom, containment.
    (lambda: FaceInterval(frozenset({1.5}), frozenset({1.5, 2})), TypeError,
     r"^label elements must be ints, got 1\.5$"),
    (lambda: FaceInterval(frozenset({True}), frozenset({True, 2})), TypeError,
     "^label elements must be ints, got True$"),
    (lambda: FaceInterval(frozenset(), frozenset({"2"})), TypeError,
     "^label elements must be ints, got '2'$"),
    (lambda: FaceInterval([None], [None, 1]), TypeError, "^label elements must be ints, got None$"),
    (lambda: FaceInterval(frozenset({0}), frozenset()), ValueError,
     "^label elements must be at least 1, got 0$"),
    (lambda: FaceInterval(frozenset(), frozenset({-1, 2})), ValueError,
     "^label elements must be at least 1, got -1$"),
    (lambda: FaceInterval(frozenset(), frozenset()), ValueError, "^bottom must be nonempty$"),
    (lambda: FaceInterval(frozenset({1, 2}), frozenset({1, 3})), ValueError,
     "^bottom must be contained in top$"),
], ids=[
    "valence-d1", "valence-bool", "distance-float", "antipode-float", "check_label-float",
    "check_label-d0", "tables-bool", "tables-float", "tables-str", "tables-none", "label-float-element",
    "label-none-element", "label-str-element", "valence-bool-element", "distance-str-element", "unique_vertex-bool-element",
    "antipode_interval-d1", "antipode_interval-float", "antipode_interval-empty-bottom",
    "antipode_interval-full-top", "face-float-element", "face-bool-element",
    "face-str-before-empty-bottom", "face-none-element", "face-zero-before-containment", "face-negative-before-empty-bottom",
    "face-empty", "face-not-contained",
])
def test_label_functions_and_tables_refuse_a_bad_dimension(call, error, text):
    with pytest.raises(error, match=text):
        call()


def test_fvector_tables_identity():
    tables = fvector_tables(12)
    for d in range(13):
        assert tables.box[d] == tuple(
            t * p for t, p in zip(tables.two_power[d], tables.pascal[d])
        )
        if d >= 2:
            doubled = tuple(2 * h for h in tables.half[d])
            assert doubled == tuple(isocanted_fvector(d, extended=True))
            assert tables.half[d][d] == F(1, 2)
            assert tuple(tables.box[d][:d]) == box_fvector(d)


def test_lattice_counts_match_formula():
    for d in range(2, 9):
        lattice = build_face_lattice(d)
        counts = tuple(len(lattice[k]) for k in range(d))
        assert counts == isocanted_fvector(d)
    for beyond_cap in (build_face_lattice, casks_and_belt):
        with pytest.raises(ValueError, match="^dimension 9 exceeds lattice limit 8$"):
            beyond_cap(9)


def test_vertex_faces_are_proper_subsets():
    lattice = build_face_lattice(3)
    assert len(lattice[0]) == 14
    assert all(f.bottom == f.top for f in lattice[0])
    labels = {f.bottom for f in lattice[0]}
    assert labels == set(all_vertex_labels(3))


def test_facets_are_singleton_cosingleton_intervals():
    for d in (2, 3, 4):
        lattice = build_face_lattice(d)
        facets = set(lattice[d - 1])
        assert facets == set(facet_intervals(d))
        assert len(facets) == (d + 1) * d


def test_unchecked_facets_equal_the_checked_intervals():
    # facet_intervals builds each [{i}, {1..d+1} - {j}] without FaceInterval's
    # element checks, as the lattice builders do: each facet still equals the
    # checked interval, in the same order, and d=1 is still refused.
    with pytest.raises(ValueError, match="dimension must be an integer >= 2"):
        facet_intervals(1)
    for d in range(2, 9):
        labels = range(1, d + 2)
        checked = tuple(FaceInterval({i}, set(labels) - {j}) for i in labels for j in labels if i != j)
        facets = facet_intervals(d)
        assert facets == checked
        assert all(type(face.bottom) is type(face.top) is frozenset for face in facets)
        if d == 4:
            assert fatness_f03() == (F(11, 4), sum(2 ** face.dim for face in checked))


def test_two_faces_are_labeled_quadruples():
    # Every 2-face consists of the four labels jW, jkW, jrW, jkrW.
    lattice = build_face_lattice(4)
    for face in lattice[2]:
        extras = sorted(face.top - face.bottom)
        assert len(extras) == 2
        k, r = extras
        verts = set(face.vertices())
        assert verts == {
            face.bottom,
            face.bottom | {k},
            face.bottom | {r},
            face.bottom | {k, r},
        }


def test_faces_are_combinatorial_cubes():
    lattice = build_face_lattice(5)
    for dim, faces in lattice.items():
        for face in faces:
            assert face.dim == dim
            assert len(list(face.vertices())) == 2**dim
            assert len(list(face.covered_faces())) == 2 * dim


def test_face_interval_containment():
    big = FaceInterval(frozenset({1}), frozenset({1, 2, 3}))
    small = FaceInterval(frozenset({1, 2}), frozenset({1, 2, 3}))
    assert big.contains(small)
    assert not small.contains(big)


def test_valences():
    assert all(valence({i}, 2) == 2 for i in range(1, 4))
    assert valence({1}, 3) == 3
    assert valence({1, 2, 3}, 3) == 3
    assert valence({1, 2}, 3) == 4
    with pytest.raises(ValueError):
        valence({1, 2, 3, 4}, 3)


def test_valence_census():
    for d in (3, 4, 5, 6):
        vals = [valence(w, d) for w in all_vertex_labels(d)]
        assert vals.count(d) == 2 * (d + 1)
        assert vals.count(d + 1) == 2 * (2**d - d - 2)
        assert len(vals) == 2 ** (d + 1) - 2


def test_skeleton_edges_match_edge_count():
    for d in (2, 3, 4):
        graph = skeleton(d)
        assert len(graph.nodes) == 2 ** (d + 1) - 2
        assert len(graph.edges) == isocanted_fvector(d)[1]
        for w, w2 in graph.edges:
            assert w < w2 and len(w2) == len(w) + 1


def test_skeleton_degrees_equal_valence():
    graph = skeleton(4)
    for node in graph.nodes:
        assert len(graph.neighbors(node)) == valence(node, 4)


def test_bfs_rejects_non_vertex_source():
    graph = skeleton(3)
    for source in (frozenset(), frozenset({1, 2, 3, 4}), frozenset({5})):
        with pytest.raises(ValueError, match="proper nonempty subset"):
            bfs_distances(graph, source)
        with pytest.raises(ValueError, match="proper nonempty subset"):
            graph.neighbors(source)
    # The adjacency built for the walk is not a field: equality is unchanged.
    assert graph == skeleton(3)


def test_distance_formula_vs_bfs():
    for d in (2, 3, 4, 5):
        graph = skeleton(d)
        for w in graph.nodes:
            dist = bfs_distances(graph, w)
            for w2 in graph.nodes:
                assert dist[w2] == distance(w, w2, d) == len(w ^ w2)


def test_diameter_formula_and_bfs():
    for d in range(2, 7):
        assert diameter(d) == d + 1
        assert bfs_diameter(d) == d + 1


def test_orbit_bfs_diameter_matches_all_pairs_reference():
    # One search per label size against one search per label.
    for d in range(2, 9):
        assert bfs_diameter(d) == reference.bfs_diameter(d) == d + 1


def test_label_builders_match_per_face_reference():
    # One shared subset table and one face walk change where labels and
    # faces come from, not what the builders return: faces in order per
    # dimension, nodes, edges (in the set-difference order, which is not
    # ascending from d = 7), BFS distances and cask/belt groups, keys and
    # faces in order, all match the per-face builders.
    for d in range(2, 9):
        lattice = build_face_lattice(d)
        expected = reference.build_face_lattice_per_face(d)
        assert list(lattice) == list(expected)
        for k in expected:
            assert lattice[k] == expected[k], (d, k)
        graph = skeleton(d)
        old = reference.skeleton_per_edge(d)
        assert graph.nodes == old.nodes
        assert graph.edges == old.edges
        n = len(graph.nodes)
        for source in (graph.nodes[0], graph.nodes[n // 3], graph.nodes[-1]):
            dist = bfs_distances(graph, source)
            assert list(dist.items()) == list(bfs_distances(old, source).items())
        assert casks_and_belt(d) == reference.casks_and_belt_per_face(d)


def test_label_builders_share_one_object_per_label():
    # Equal labels within one result are one object, taken from the table;
    # a builder that makes a new frozenset per face or edge fails here.
    for d in (3, 6):
        first: dict[frozenset, frozenset] = {}
        for faces in build_face_lattice(d).values():
            for face in faces:
                assert first.setdefault(face.top, face.top) is face.top
                assert first.setdefault(face.bottom, face.bottom) is face.bottom
        graph = skeleton(d)
        node = {w: w for w in graph.nodes}
        assert all(node[w] is w and node[v] is v for w, v in graph.edges)


def test_antipodal_distance_is_diameter():
    for d in (2, 3, 4, 5):
        for w in all_vertex_labels(d):
            assert distance(w, antipode(w, d), d) == d + 1


def test_antipode_involution():
    assert antipode({1}, 3) == frozenset({2, 3, 4})
    assert antipode(antipode({1}, 3), 3) == frozenset({1})
    assert antipode({1, 2, 3}, 3) == frozenset({4})
    d = 3
    for w in all_vertex_labels(d):
        assert antipode(antipode(w, d), d) == w


def test_antipode_reverses_label_order_and_maps_facets():
    d = 3
    # Complementation reverses inclusion on vertex labels.
    for w in all_vertex_labels(d):
        for w2 in all_vertex_labels(d):
            if w <= w2:
                assert antipode(w2, d) <= antipode(w, d)
    # The induced interval map is a dimension-preserving lattice automorphism
    # (central symmetry carries faces to faces respecting incidence).
    lattice = build_face_lattice(d)
    for dim, faces in lattice.items():
        images = {antipode_interval(f, d) for f in faces}
        assert images == set(faces)
    big = FaceInterval(frozenset({1}), frozenset({1, 2, 3}))
    small = FaceInterval(frozenset({1, 2}), frozenset({1, 2}))
    assert big.contains(small)
    assert antipode_interval(big, d).contains(antipode_interval(small, d))


def test_flag_formula_small_values():
    assert count_flags(2) == 12
    assert count_flags(3) == 96


def test_flag_chains_small_dimensions():
    # Hand-checks: the hexagon has 6 vertices with 2 flags each; in dimension
    # 3 every quad facet carries 8 flags.
    assert count_flags_by_chains(2) == 12
    assert count_flags_by_chains(3) == 96
    assert count_flags_by_chains(2) == count_flags(2)
    assert count_flags_by_chains(3) == count_flags(3)


def test_flag_chains_closed_form():
    # The chain count follows the facet decomposition: (d+1)d facets, each a
    # (d-1)-cube carrying 2^(d-1) (d-1)! flags.  The stated closed formula
    # agrees only in dimensions 2 and 3 (see the flag verification sweep).
    # The shape table never builds the lattice, so it runs past the lattice cap.
    for d in range(2, 61):
        chains = count_flags_by_chains(d)
        assert chains == 2 ** (d - 1) * math.factorial(d + 1)
        assert chains == (d + 1) * d * 2 ** (d - 1) * math.factorial(d - 1)
    assert count_flags(4) != count_flags_by_chains(4)


def test_shape_chain_count_matches_lattice_reference():
    # The (|B|, |T|) table against the covering DP over every face.
    for d in range(2, 9):
        assert count_flags_by_chains(d) == reference.count_flags_by_chains(d)


def test_flags_exceed_box_flags():
    for d in range(2, 8):
        assert count_flags_by_chains(d) > 2**d * math.factorial(d)


def test_casks_and_belt_partition():
    for d in (2, 3, 4, 5):
        part = casks_and_belt(d)
        north = part.counts("north")
        south = part.counts("south")
        assert north == south
        assert north[: d - 1] == cask_fvector(d)
        # The cask complex tops out with the facets at the pole.
        assert north[d - 1] == d
        full = isocanted_fvector(d)
        belt = part.counts("belt")
        for k in range(d):
            n_k = north[k] if k < len(north) else 0
            b_k = belt[k] if k < len(belt) else 0
            assert n_k * 2 + b_k == full[k]


def test_belt_facets_contain_pole_direction_edges():
    d = 4
    part = casks_and_belt(d)
    belt_facets = part.belt[d - 1]
    assert len(belt_facets) == d * (d - 1)
    for face in belt_facets:
        assert d + 1 in face.top and d + 1 not in face.bottom
        # Contains an edge joining some W to W + (d+1).
        w = face.bottom
        assert FaceInterval(w, w | {d + 1}).dim == 1
        assert face.contains(FaceInterval(w, w | {d + 1}))
    for face in part.north[d - 1]:
        assert d + 1 not in face.top


def test_poles_belong_to_their_casks_only():
    d = 4
    part = casks_and_belt(d)
    north_pole = FaceInterval(frozenset(range(1, d + 1)), frozenset(range(1, d + 1)))
    south_pole = FaceInterval(frozenset({d + 1}), frozenset({d + 1}))
    assert north_pole in part.north[0] and south_pole in part.south[0]
    assert north_pole not in part.belt[0] and south_pole not in part.belt[0]
    # No belt face contains either pole.
    for faces in part.belt:
        for face in faces:
            assert not (face.bottom <= north_pole.bottom <= face.top)
            assert not (face.bottom <= south_pole.bottom <= face.top)


#: d -> (north and south counts, belt counts), written out by hand so that a
#: change to how the parts are held cannot move them.
CASK_COUNTS = {
    2: ((3, 2), (0, 2)),
    3: ((7, 9, 3), (0, 6, 6)),
    4: ((15, 28, 18, 4), (0, 14, 24, 12)),
    5: ((31, 75, 70, 30, 5), (0, 30, 70, 60, 20)),
    6: ((63, 186, 225, 140, 45, 6), (0, 62, 180, 210, 120, 30)),
    7: ((127, 441, 651, 525, 245, 63, 7), (0, 126, 434, 630, 490, 210, 42)),
    8: ((255, 1016, 1764, 1736, 1050, 392, 84, 8), (0, 254, 1008, 1736, 1680, 980, 336, 56)),
}


@pytest.mark.parametrize("d", sorted(CASK_COUNTS))
def test_cask_parts_hash_and_keep_their_counts(d):
    part = casks_and_belt(d)
    twin = casks_and_belt(d)
    assert part == twin and part is not twin
    assert hash(part) == hash(twin)
    assert {part, twin} == {part}
    cask, belt = CASK_COUNTS[d]
    assert (part.counts("north"), part.counts("south"), part.counts("belt")) == (cask, cask, belt)
    for name in ("north", "south", "belt"):
        groups = getattr(part, name)
        assert type(groups) is tuple and len(groups) == d
        assert all(type(faces) is tuple for faces in groups)
        assert all(face.dim == k for k, faces in enumerate(groups) for face in faces)


def test_face_interval_stores_frozensets():
    face = FaceInterval([2, 1], (1, 2, 3))
    assert type(face.bottom) is frozenset and type(face.top) is frozenset
    assert face == FaceInterval(frozenset({1, 2}), frozenset({1, 2, 3}))
    assert hash(face) == hash(FaceInterval(frozenset({1, 2}), frozenset({1, 2, 3})))


def test_belt_count_equals_lower_dimensional_fvector():
    for d in (3, 4, 5):
        part = casks_and_belt(d)
        belt = part.counts("belt")
        lower = isocanted_fvector(d - 1)
        for k in range(1, d):
            assert belt[k] == lower[k - 1]
        assert (belt[0] if belt else 0) == 0


def test_fatness_and_f03():
    fatness, f03 = fatness_f03()
    assert fatness == F(11, 4)
    assert f03 == 160
    assert fatness <= 5
    with pytest.raises(ValueError):
        fatness_f03(3)
    # 4.0 once gave the d = 4 answer; True keeps the dimension-4 text.
    with pytest.raises(ValueError, match="^dimension must be an integer >= 2$"):
        fatness_f03(4.0)
    with pytest.raises(ValueError, match="^fatness and f03 are defined here for dimension 4 only$"):
        fatness_f03(True)


def test_check_label_validation():
    with pytest.raises(ValueError):
        check_label(set(), 3)
    with pytest.raises(ValueError):
        check_label({1, 2, 3, 4}, 3)
    assert check_label({2, 4}, 3) == frozenset({2, 4})


def test_unchecked_faces_equal_validated_faces():
    for d in range(2, 9):
        part = casks_and_belt(d)
        groups = [build_face_lattice(d).values(), part.north, part.south, part.belt]
        for faces in (f for group in groups for f in group):
            for face in faces:
                assert type(face) is FaceInterval
                assert face == FaceInterval(face.bottom, face.top)
                # Unchecked and checked faces alike hold their ends in slots only.
                checked = FaceInterval(face.bottom, face.top)
                assert not hasattr(face, "__dict__") and not hasattr(checked, "__dict__")
                assert (face.bottom, face.top) == (checked.bottom, checked.top)
    with pytest.raises(ValueError, match="bottom must be contained in top"):
        FaceInterval(frozenset({1, 2}), frozenset({1, 3}))


@pytest.mark.parametrize(
    "d, message",
    [
        (1, "dimension must be an integer >= 2"),
        (True, "dimension must be an integer >= 2"),
        (9, "dimension 9 exceeds lattice limit 8"),
    ],
)
def test_casks_and_belt_errors(d, message):
    for build in (casks_and_belt, build_face_lattice):
        with pytest.raises(ValueError) as err:
            build(d)
        assert str(err.value) == message
