"""Halfspace systems, the exact vertex oracle, vertex maps, symmetry, zonotopes."""

import functools
import itertools
import random
import re
import tracemalloc
from fractions import Fraction as F
from math import comb

import pytest

from isocant.geometry import (
    ORACLE_DIM_LIMIT,
    _closed_bounds,
    _cone_faces,
    _constraint_rank,
    _has_closed_table,
    _lone_vertex,
    _two_layer,
    _vertex_cone,
    _walk,
    HRep,
    VertexSet,
    auxiliary_matrix,
    bounding_box,
    central_symmetry_check,
    closed_form_vertices,
    enumerate_vertices_oracle,
    hrep_from_matrix,
    isocanted_vertex,
    isocanted_vertex_sni,
    label_vertices,
    oracle_face_counts,
    poles,
    polytope_extremes,
    unique_vertex_conditions,
    verify_unique_vertex,
    zonotope_check,
)
from isocant.combinatorics import all_vertex_labels, isocanted_fvector, skeleton
from isocant.matrices import (
    PLACEMENTS,
    IsocantedSpec,
    box_sni,
    box_vni,
    cube_sni,
    cube_vni,
    decompose,
    isocanted_box_vni,
    isocanted_sni,
    isocanted_vni,
    is_ni,
)
from isocant.tropical import _LAYERS, NEG_INF, TropMatrix, _scaled, mat_mul

import reference

HEXAGON = IsocantedSpec(2, F(2), F(1))

# Hand-checked hexagon vertex set for edge length 2, cant 1.
HEXAGON_POINTS = {
    (F(0), F(0)),
    (F(0), F(-1)),
    (F(-1), F(0)),
    (F(-1), F(-2)),
    (F(-2), F(-1)),
    (F(-2), F(-2)),
}


def test_hrep_of_cube_is_box():
    h = hrep_from_matrix(cube_vni(3, 2))
    assert h.d == 3
    assert h.single == ((F(-2), F(0)),) * 3
    for _, _, lo, hi in h.diff:
        assert (lo, hi) == (F(-2), F(2))


def test_hrep_of_isocanted_adds_difference_bounds():
    h = hrep_from_matrix(isocanted_vni(IsocantedSpec(3, F(2), F(1))))
    assert h.single == ((F(-2), F(0)),) * 3
    for _, _, lo, hi in h.diff:
        assert (lo, hi) == (F(-1), F(1))


def test_hrep_rejects_inconsistent_bounds():
    bad = TropMatrix.from_rows([[0, 1], [0, 0]])  # 1 <= x_1 <= 0
    with pytest.raises(ValueError):
        hrep_from_matrix(bad)


def test_origin_membership_iff_normal():
    normal = isocanted_sni(IsocantedSpec(2, F(2), F(1)))
    assert hrep_from_matrix(normal).contains((F(0), F(0)))
    # Shift so the polytope no longer contains the origin.
    from isocant.tropical import conjugate_diag

    shifted = conjugate_diag(cube_vni(2, 1), [F(3), F(3), F(0)])
    from isocant.matrices import is_normal

    assert not is_normal(shifted)
    assert not hrep_from_matrix(shifted).contains((F(0), F(0)))


def test_auxiliary_matrix_fixed_point_iff_vni():
    vni = isocanted_vni(IsocantedSpec(3, F(2), F(1)))
    assert auxiliary_matrix(vni) == vni
    sni = isocanted_sni(IsocantedSpec(3, F(2), F(1)))
    assert auxiliary_matrix(sni) != sni
    assert all(v == 0 for v in auxiliary_matrix(sni).row(4))


def test_auxiliary_fixed_point_iff_vni_randomized():
    # Over random NI matrices, being fixed by column normalization is exactly
    # the visualized placement.
    import random

    from isocant.matrices import PerturbationMatrix, apply_perturbation, box_vni, is_ni, is_vni
    from isocant.tropical import conjugate_diag

    rng = random.Random(5)
    lengths_pool = [F(1), F(2), F(5, 2)]
    pert_pool = [F(0), F(-1, 4), F(-1, 2)]
    shift_pool = [F(0), F(0), F(1, 4), F(1, 2)]
    for _ in range(60):
        d = rng.randint(2, 4)
        n = d + 1
        pert = PerturbationMatrix.from_rows(
            [
                [
                    rng.choice(pert_pool) if (i != j and i != n - 1 and j != n - 1) else F(0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )
        shifts = [rng.choice(shift_pool) for _ in range(d)] + [F(0)]
        a = conjugate_diag(
            apply_perturbation(box_vni([rng.choice(lengths_pool) for _ in range(d)]), pert),
            shifts,
        )
        assert is_ni(a)
        assert (auxiliary_matrix(a) == a) == is_vni(a)


def test_polytope_extremes_of_symmetric_box():
    mn, mx = polytope_extremes(box_sni([F(2), F(2)]))
    assert mn == (F(-1), F(-1))
    assert mx == (F(1), F(1))


def test_extremes_are_the_auxiliary_matrix_last_column_and_diagonal():
    # polytope_extremes reads the matrix directly; the auxiliary matrix is
    # the definition, on seeded finite matrices that are not normal.
    rng = random.Random(191)
    pool = [F(-3), F(-1, 2), F(0), F(2, 3), F(5, 2), F(-7, 4)]
    for n in range(2, 7):
        for _ in range(6):
            a = TropMatrix.from_rows([[rng.choice(pool) for _ in range(n)] for _ in range(n)])
            aux = auxiliary_matrix(a).entries
            assert polytope_extremes(a) == (tuple(row[-1] for row in aux[:-1]),
                                            tuple(aux[i][i] for i in range(n - 1))), a
    with pytest.raises(ValueError, match="^matrix must have finite entries$"):
        polytope_extremes(TropMatrix.from_rows([[0, NEG_INF], [0, 0]]))


def test_extremes_agree_with_oracle():
    for matrix in (
        isocanted_vni(IsocantedSpec(3, F(2), F(1))),
        isocanted_sni(IsocantedSpec(2, F(5, 2), F(3, 4))),
        box_vni([F(1), F(2), F(3)]),
    ):
        mn, mx = polytope_extremes(matrix)
        vset = enumerate_vertices_oracle(hrep_from_matrix(matrix))
        d = matrix.n - 1
        assert mn == tuple(min(p[k] for p in vset.points) for k in range(d))
        assert mx == tuple(max(p[k] for p in vset.points) for k in range(d))


def test_hexagon_oracle_vertices():
    vset = enumerate_vertices_oracle(hrep_from_matrix(isocanted_vni(HEXAGON)))
    assert len(vset) == 6
    assert set(vset.points) == HEXAGON_POINTS


@pytest.mark.parametrize("d,expected", [(2, 6), (3, 14), (4, 30)])
def test_oracle_vertex_counts(d, expected):
    spec = IsocantedSpec(d, F(2), F(1))
    vset = enumerate_vertices_oracle(hrep_from_matrix(isocanted_vni(spec)))
    assert len(vset) == expected == 2 ** (d + 1) - 2


def test_oracle_agrees_with_gaussian_elimination():
    # The edge walk against a plain linear-algebra route.
    samples = [
        isocanted_vni(IsocantedSpec(2, F(2), F(1))),
        isocanted_vni(IsocantedSpec(3, F(5, 2), F(3, 4))),
        isocanted_sni(IsocantedSpec(3, F(2), F(1, 2))),
        isocanted_box_vni([F(2), F(3), F(5, 2)], F(1)),
        box_sni([F(1), F(3)]),
    ]
    for matrix in samples:
        h = hrep_from_matrix(matrix)
        fast = set(enumerate_vertices_oracle(h).points)
        assert fast == reference.naive_vertex_enumeration(h)


def test_conjugation_translates_vertices():
    from isocant.tropical import conjugate_diag

    a = isocanted_vni(IsocantedSpec(3, F(2), F(1)))
    shifts = [F(1, 2), F(1, 4), F(1, 2), F(0)]
    moved = conjugate_diag(a, shifts)
    before = enumerate_vertices_oracle(hrep_from_matrix(a)).points
    after = enumerate_vertices_oracle(hrep_from_matrix(moved)).points
    translated = {tuple(p[k] + shifts[k] for k in range(3)) for p in before}
    assert set(after) == translated


def test_bounding_box_contains_polytope():
    a = isocanted_sni(IsocantedSpec(3, F(2), F(1)))
    box = bounding_box(a)
    for p in enumerate_vertices_oracle(hrep_from_matrix(a)).points:
        assert box.contains(p)


def test_oracle_counts_respect_sharp_alcoved_bound():
    # Alcoved polytopes have at most C(2d, d) vertices; the isocanted counts
    # sit under the bound, meeting it exactly in the hexagon case.
    from math import comb

    for d in (2, 3, 4):
        spec = IsocantedSpec(d, F(2), F(1))
        vset = enumerate_vertices_oracle(hrep_from_matrix(isocanted_vni(spec)))
        assert len(vset) == 2 ** (d + 1) - 2 <= comb(2 * d, d)
    assert 2**3 - 2 == comb(4, 2)  # the hexagon attains the bound


def test_oracle_rejects_large_dimension():
    assert ORACLE_DIM_LIMIT == 8
    d = ORACLE_DIM_LIMIT + 1
    spec = IsocantedSpec(d, F(2), F(1))
    message = f"^dimension {d} exceeds oracle limit {ORACLE_DIM_LIMIT}$"
    with pytest.raises(ValueError, match=message):
        enumerate_vertices_oracle(hrep_from_matrix(isocanted_vni(spec)))
    # The cap comes before the empty-polytope error.
    empty = HRep(d, ((F(0), F(1)),) * d, ((1, 2, F(3), F(3)),))
    with pytest.raises(ValueError, match=message):
        enumerate_vertices_oracle(empty)
    # The closed-table checks walk nothing, so the cap is the walk's alone.
    for k in (d, 12, 24):
        spec = IsocantedSpec(k, F(2), F(1))
        assert central_symmetry_check(isocanted_sni(spec)) is True
        assert central_symmetry_check(isocanted_vni(spec)) is False
        assert zonotope_check(spec) is True


def test_oracle_empty_polytope():
    # x1 - x2 = 3 exactly, but both variables confined to [0, 1].
    rows = [[0, 3, 0], [-3, 0, -1], [-1, 0, 0]]
    h = hrep_from_matrix(TropMatrix.from_rows(rows))
    with pytest.raises(ValueError, match="^empty polytope: no feasible vertex found$"):
        enumerate_vertices_oracle(h)


@pytest.mark.parametrize("d", [6, 7])
def test_walk_matches_closed_form_beyond_sweep_reach(d):
    # The subset sweep in reference.py needs about 40 s at d=6, so check against the closed form.
    spec = IsocantedSpec(d, F(5, 2), F(3, 4))
    for placement, build in (("vni", isocanted_vni), ("sni", isocanted_sni)):
        vset = enumerate_vertices_oracle(hrep_from_matrix(build(spec)))
        assert vset.points == tuple(sorted(closed_form_vertices(spec, placement).values()))
    if d == 7:
        assert central_symmetry_check(isocanted_sni(spec))
        assert zonotope_check(spec)


def test_oracle_vertices_have_full_active_rank():
    spec = IsocantedSpec(3, F(5, 2), F(3, 4))
    h = hrep_from_matrix(isocanted_vni(spec))
    vset = enumerate_vertices_oracle(h)
    for p in vset.points:
        assert h.contains(p)
        assert h.tight_rank(p) == 3


def _point_in_triangle(p, a, b, c):
    def orient(u, v, w):
        return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])
    d1 = orient(a, b, p)
    d2 = orient(b, c, p)
    d3 = orient(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def test_hexagon_vertices_are_extreme_points():
    # No vertex is a convex combination of the others: in the plane this
    # reduces to point-in-triangle tests over all triples, done exactly.
    pts = sorted(HEXAGON_POINTS)
    for p in pts:
        others = [q for q in pts if q != p]
        assert not any(
            _point_in_triangle(p, a, b, c)
            for a, b, c in itertools.combinations(others, 3)
        )


def test_oracle_matches_closed_form_map():
    for d in (2, 3, 4):
        spec = IsocantedSpec(d, F(5, 2), F(3, 4))
        vset = enumerate_vertices_oracle(hrep_from_matrix(isocanted_vni(spec)))
        expected = closed_form_vertices(spec)
        assert set(vset.points) == set(expected.values())
        labeled = label_vertices(spec, vset)
        assert labeled.label_map == expected


def test_label_vertices_rejects_mismatch():
    spec = IsocantedSpec(2, F(2), F(1))
    vset = enumerate_vertices_oracle(hrep_from_matrix(cube_vni(2, 2)))
    with pytest.raises(ValueError):
        label_vertices(spec, vset)


def test_mixed_length_isocanted_same_combinatorics():
    a = isocanted_box_vni([F(2), F(3)], F(1))
    h = hrep_from_matrix(a)
    vset = enumerate_vertices_oracle(h)
    assert len(vset) == 6
    assert oracle_face_counts(h, vset) == isocanted_fvector(2)
    b = isocanted_box_vni([F(2), F(3), F(5, 2)], F(3, 4))
    hb = hrep_from_matrix(b)
    vb = enumerate_vertices_oracle(hb)
    assert len(vb) == 14
    assert oracle_face_counts(hb, vb) == isocanted_fvector(3)


def test_oracle_face_counts_match_closed_form():
    # Both placements and two seeded (edge, cant) pairs per dimension, up to
    # d=8 (18,660 faces on 510 vertices, counted during the walk).
    rng = random.Random(18)
    for d in range(2, 9):
        for _ in range(2):
            ell = F(rng.randint(2, 12), rng.randint(1, 4))
            spec = IsocantedSpec(d, ell, ell * F(rng.randint(1, 9), 10))
            for build in (isocanted_vni, isocanted_sni):
                h = hrep_from_matrix(build(spec))
                vset = enumerate_vertices_oracle(h)
                assert oracle_face_counts(h, vset) == isocanted_fvector(d), (spec, build)


@pytest.mark.parametrize("d", [9, 10])
def test_walk_of_isocanted_beyond_the_oracle_cap_gives_the_papers_counts(d):
    # The paper's claim past ORACLE_DIM_LIMIT: 2^(d+1) - 2 vertices and the
    # closed-form f-vector, for both placements.  An NI matrix's bound table
    # is already closed, so its own table goes to the walk directly.
    spec = IsocantedSpec(d, F(3), F(1))
    for build in (isocanted_vni, isocanted_sni):
        a = build(spec)
        assert is_ni(a), build
        table, _ = hrep_from_matrix(a)._grid
        grid, counts = _walk(table)
        assert len(grid) == 2 ** (d + 1) - 2, (build, len(grid))
        assert counts == isocanted_fvector(d), (build, counts)


def _point_hrep(point):
    """Every bound an equality through ``point``: a 0-dimensional polytope."""
    x = (F(0), *point)
    d = len(point)
    single = tuple((x[i], x[i]) for i in range(1, d + 1))
    diff = tuple((i, j, x[i] - x[j], x[i] - x[j]) for i, j in itertools.combinations(range(1, d + 1), 2))
    return HRep(d, single, diff)


def test_face_counts_of_a_point_and_a_segment():
    for d in (2, 3, 5):
        h = _point_hrep(tuple(F(k - 2, 3) for k in range(d)))
        vset = enumerate_vertices_oracle(h)
        assert len(vset) == 1
        assert oracle_face_counts(h, vset) == reference.face_counts(h, vset) == (0,) * d
    # A segment along (1, 1, 0): x_1 = x_2 in [0, 1] and x_3 = 1/2.
    h = HRep(3, ((F(0), F(1)), (F(0), F(1)), (F(1, 2), F(1, 2))),
             ((1, 2, F(0), F(0)), (1, 3, F(-1), F(1)), (2, 3, F(-1), F(1))))
    vset = enumerate_vertices_oracle(h)
    assert len(vset) == 2
    assert oracle_face_counts(h, vset) == reference.face_counts(h, vset) == (2, 0, 0)


def test_face_counts_with_unattained_and_coincident_bounds():
    # Directly built: x_2 - x_3 = 1 is one bound whose lo and hi planes
    # coincide, and x_3 <= 5 and |x_1 - x_3| <= 10 are attained nowhere on
    # the quadrilateral (0, 1), (2, 1), (2, 2), (1, 2) in (x_1, x_2).
    h = HRep(3, ((F(0), F(2)), (F(0), F(2)), (F(0), F(5))),
             ((1, 2, F(-1), F(1)), (1, 3, F(-10), F(10)), (2, 3, F(1), F(1))))
    vset = enumerate_vertices_oracle(h)
    assert oracle_face_counts(h, vset) == reference.face_counts(h, vset) == (4, 4, 0)
    # Seeded: each closed system gets bounds loosened past what the polytope
    # attains and one bound pinned to lo == hi at a vertex, so it stays
    # nonempty, against the affine-rank reference.
    rng = random.Random(18)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    for d in (2, 3, 4):
        for _ in range(4 if d < 4 else 2):
            for kind, a in _seeded_cases(rng, d, pool):
                full = hrep_from_matrix(a)
                p = (F(0), *rng.choice(enumerate_vertices_oracle(full).points))
                bounds = list(full._bounds())
                for k in rng.sample(range(len(bounds)), len(bounds) // 3):
                    i, j, lo, hi = bounds[k]
                    bounds[k] = (i, j, lo - rng.choice((0, 1)), hi + rng.choice((1, F(5, 2))))
                i, j, _, _ = bounds[pin := rng.randrange(len(bounds))]
                bounds[pin] = (i, j, p[i] - p[j], p[i] - p[j])
                h = HRep(d, tuple((lo, hi) for _, _, lo, hi in bounds[:d]), tuple(bounds[d:]))
                vset = enumerate_vertices_oracle(h)
                assert h.contains(p[1:])
                assert oracle_face_counts(h, vset) == reference.face_counts(h, vset), (kind, h)


def test_face_counts_of_an_empty_vertex_set_and_a_wrong_length_point():
    h = hrep_from_matrix(isocanted_vni(IsocantedSpec(3, F(2), F(1))))
    assert oracle_face_counts(h, VertexSet(3, ())) == (0, 0, 0)
    for point in ((F(0), F(0)), (F(0),) * 4):
        with pytest.raises(ValueError, match=f"^point dimension {len(point)} != 3$"):
            oracle_face_counts(h, VertexSet(len(point), (point,)))
    # An empty set of another dimension is refused as a non-empty one is.
    for d in (2, 4):
        with pytest.raises(ValueError, match=f"^point dimension {d} != 3$"):
            oracle_face_counts(HRep(3, ((0, 1),) * 3, ()), VertexSet(d, ()))


def test_vertex_set_refuses_points_of_another_dimension():
    # The first point whose length is not d is named, before any grid is built.
    for points, bad in (
        (((F(0), F(0)), (F(1),)), 2),
        (((F(0),) * 3, (F(1),)), 1),
        (((F(0),) * 3, (F(1),) * 4, (F(2),)), 4),
    ):
        with pytest.raises(ValueError, match=f"^point dimension {bad} != 3$"):
            VertexSet(3, points)
    assert len(VertexSet(3, ((F(0),) * 3, (F(1),) * 3))) == 2


SQUARE_BOUNDS = ((F(0), F(1)), (F(0), F(1)))


@pytest.mark.parametrize("i, j", [(5, 1), (1, 3), (2, 0), (1, 1)])
def test_hrep_rejects_a_difference_bound_off_two_nodes(i, j):
    # A bound on node 5 at d=2 was dropped by the walk, which returned the
    # square, and face recovery then failed with a KeyError.
    with pytest.raises(ValueError, match=rf"^bound on x_{i} - x_{j} needs two distinct nodes in 1\.\.2$"):
        HRep(2, SQUARE_BOUNDS, ((1, 2, F(-1), F(1)), (i, j, F(0), F(1))))


def test_hrep_rejects_a_third_single_bound():
    # x_3 in [5, 6] at d=2 was ignored without any error.
    with pytest.raises(ValueError, match=r"^dimension 2 needs 2 single bounds, got 3$"):
        HRep(2, SQUARE_BOUNDS + ((F(5), F(6)),), ())


def test_hrep_rejects_a_missing_single_bound():
    # One single bound at d=2 made the walk fail with a KeyError.
    with pytest.raises(ValueError, match=r"^dimension 2 needs 2 single bounds, got 1$"):
        HRep(2, SQUARE_BOUNDS[:1], ())


def test_hrep_takes_a_difference_bound_in_either_node_order():
    hs = [HRep(2, SQUARE_BOUNDS, (bound,)) for bound in ((1, 2, F(-1, 2), F(1)), (2, 1, F(-1), F(1, 2)))]
    vsets = [enumerate_vertices_oracle(h) for h in hs]
    assert vsets[0] == vsets[1] and len(vsets[0]) == 5
    assert oracle_face_counts(hs[0], vsets[0]) == oracle_face_counts(hs[1], vsets[1]) == (5, 5)


def test_every_d2_matrix_over_one_zero_minus_one():
    # All 729 zero-diagonal 3 x 3 matrices with off-diagonal entries in
    # {1, 0, -1}, against the references: the NI test, the walk (or the same
    # error), face counts, central symmetry and, on NI inputs, the
    # decomposition.  Many of the walked systems have a bound that no vertex
    # attains, so face recovery meets extreme classes that are no bound's.
    seen = dict.fromkeys(("ni", "inconsistent", "empty", "walked", "unattained"), 0)
    for values in itertools.product((1, 0, -1), repeat=6):
        off = iter(values)
        a = TropMatrix.from_rows([[0 if i == j else next(off) for j in range(3)] for i in range(3)])
        assert is_ni(a) == reference.is_ni(a), a
        symmetric = _vertices_or_error(central_symmetry_check, a)
        assert symmetric == _vertices_or_error(reference.central_symmetry_by_vertices, a), a
        if is_ni(a):
            seen["ni"] += 1
            assert _vertices_or_error(decompose, a) == _vertices_or_error(reference.decompose, a), a
        try:
            h = hrep_from_matrix(a)
        except ValueError as exc:
            assert str(exc).startswith("inconsistent bounds on x_"), a
            assert symmetric == str(exc), a
            seen["inconsistent"] += 1
            continue
        vset = _vertices_or_error(enumerate_vertices_oracle, h)
        assert vset == _vertices_or_error(reference.sweep_vertices, h), a
        if isinstance(vset, str):
            seen["empty"] += 1
            continue
        seen["walked"] += 1
        assert oracle_face_counts(h, vset) == reference.face_counts(h, vset), a
        xs = [(0, *p) for p in vset.points]
        if any(not {lo, hi} <= {x[i] - x[j] for x in xs} for i, j, lo, hi in h._bounds()):
            seen["unattained"] += 1
    assert seen == {"ni": 29, "inconsistent": 513, "empty": 56, "walked": 160, "unattained": 119}


def _random_normal(rng, d, pool):
    n = d + 1
    return [[F(0) if i == j else rng.choice(pool) for j in range(n)] for i in range(n)]


def _kleene_star(rows):
    # Powers of a normal matrix rise to its NI closure within n - 1 squarings.
    a = TropMatrix.from_rows(rows)
    while (b := mat_mul(a, a)) != a:
        a = b
    return a


def _empty_rows(rng, d):
    # Box bounds plus one difference bound that no point of the box meets.
    lengths = [rng.choice((F(1), F(3, 2), F(2))) for _ in range(d)] + [F(0)]
    rows = [[F(0) if i == j or i == d else -lengths[i] for j in range(d + 1)] for i in range(d + 1)]
    p, q = rng.sample(range(d), 2)
    gap = lengths[q] + rng.choice((F(1, 2), F(1)))
    rows[p][q] = gap
    rows[q][p] = -(gap + 1)
    return rows


def _vertices_or_error(enumerate_vertices, h):
    try:
        return enumerate_vertices(h)
    except ValueError as exc:
        return str(exc)


def test_walk_matches_subset_sweep():
    # The edge walk against the exhaustive hyperplane-subset sweep it replaced,
    # on seeded NI, non-NI, flat and empty polytopes: same sorted points, or
    # the same error text.
    import random

    rng = random.Random(6)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    for d in (2, 3, 4):
        for _ in range(6 if d < 4 else 1):
            nonni = _random_normal(rng, d, pool)
            i, j, k = rng.sample(range(d + 1), 3)
            # a[i][j] < a[i][k] + a[k][j] = 0: the closure tightens x_i - x_j >= 0.
            nonni[i][k] = nonni[k][j] = F(0)
            nonni[i][j] = rng.choice(pool)
            flat = _random_normal(rng, d, pool)
            i, j = rng.sample(range(d + 1), 2)
            flat[i][j] = flat[j][i] = F(0)
            assert hrep_from_matrix(_kleene_star(nonni)) != hrep_from_matrix(TropMatrix.from_rows(nonni))
            cases = (
                _kleene_star(_random_normal(rng, d, pool)),
                TropMatrix.from_rows(nonni),
                TropMatrix.from_rows(flat),
                _kleene_star(flat),
                TropMatrix.from_rows(_empty_rows(rng, d)),
            )
            for a in cases:
                h = hrep_from_matrix(a)
                walk = _vertices_or_error(enumerate_vertices_oracle, h)
                assert walk == _vertices_or_error(reference.sweep_vertices, h), a
            assert walk == "empty polytope: no feasible vertex found"
    # Isocanted at d=5, where the sweep tries 142,506 subsets per polytope.
    spec = IsocantedSpec(5, F(2), F(1))
    for a in (isocanted_vni(spec), isocanted_sni(spec)):
        h = hrep_from_matrix(a)
        assert enumerate_vertices_oracle(h) == reference.sweep_vertices(h)


def _walk_or_error(walk, h):
    try:
        vset = walk(h)
    except ValueError as exc:
        return str(exc)
    return vset, vset._grid


def test_up_set_walk_matches_cut_scan():
    # The walk that scans each vertex's up-sets against the walk that tries
    # every cut: the same vertex set and grid, or the same error text.  Kleene
    # stars over a small pool have many non-simple vertices.
    rng = random.Random(23)
    cases = []
    for d in (2, 3, 4, 5):
        for _ in range(4 if d < 5 else 2):
            cases.append(_kleene_star(_random_normal(rng, d, [F(0), F(-1), F(-2)])))
            cases.extend(a for _, a in _seeded_cases(rng, d, [F(-1, 2), F(-1), F(-2), F(-3)]))
            cases.append(TropMatrix.from_rows(_empty_rows(rng, d)))
        cases.append(TropMatrix.from_rows([[F(0)] * (d + 1)] * (d + 1)))
        cases.append(reference.maximal_polytrope(rng, d))
    cases.append(reference.maximal_polytrope(rng, 6))
    for d in range(2, 8):
        spec = IsocantedSpec(d, F(rng.randint(3, 9), 2), F(rng.randint(1, 5), 3))
        cases += [isocanted_vni(spec), isocanted_sni(spec)]
    seen = {"empty": 0, "point": 0, "non-simple": 0}
    for a in cases:
        h = hrep_from_matrix(a)
        got = _walk_or_error(enumerate_vertices_oracle, h)
        assert got == _walk_or_error(reference.walk_by_cut_scan, h), a
        if isinstance(got, str):
            seen["empty"] += 1
            continue
        (points, _), (_, den) = got[1], h._grid
        seen["point"] += len(points) == 1
        # The points are over the closure's denominator, the one of h._grid.
        bounds = [(i, j, lo * den, hi * den) for i, j, lo, hi in h._bounds()]
        seen["non-simple"] += any(
            sum(x[i] - x[j] in (lo, hi) for i, j, lo, hi in bounds) > h.d for x in points
        )
    assert seen["empty"] == 14 and seen["point"] >= 4 and seen["non-simple"] >= 30, seen


def _vertex_edges(ups, tight):
    """``_vertex_cone``'s edges at one vertex; the edges do not depend on ``dim P``, so ``d`` stands in for it."""
    return _vertex_cone(ups, tight, len(ups) - 1, [0] * len(ups), [0] * len(ups))


def _vertex_tally(ups, tight, dim_p):
    """``_vertex_cone``'s edges at one vertex and its count of the faces the vertex tops, h-vector row expanded."""
    hvec, counts = [0] * (len(ups) + 1), [0] * (len(ups) + 1)
    edges = _vertex_cone(ups, tight, dim_p, hvec, counts)
    for i, h in enumerate(hvec):
        for k in range(i + 1):
            counts[k] += comb(i, k) * h
    return edges, counts


def test_edge_cuts_match_the_up_set_union_filter_at_every_vertex(monkeypatch):
    # At every vertex, the edge cuts against the reference's test of an edge:
    # a cut closed under the up-sets whose two sides the tight pairs not
    # crossing it leave connected, each cut once.  A vertex with exactly d
    # tight arcs is simple, so it has exactly d edges and d distinct cuts
    # that pass the test are all of them; there the library checks no
    # connectivity.  A two-layer vertex reads its d + 1 edges off its order
    # and checks none either.  Any other vertex runs the library's filter.
    # The cuts of both non-tree kinds are compared with the reference filter
    # of every union of its up-sets.  Every vertex of a maximal polytrope has
    # a tight tree, none of a flat system has one or is two-layer, the seeded
    # systems have trees and general vertices (the NI ones two-layer vertices
    # too), and every isocanted vertex is a tree or two-layer vertex: the
    # paper's polytopes never reach the filter.
    import isocant.geometry as geometry

    connected, checks = geometry._connected, []

    def counted(part, tight):
        checks.append(part)
        return connected(part, tight)

    def walked(kind, a):
        h = hrep_from_matrix(a)
        return kind, h, enumerate_vertices_oracle(h)

    rng = random.Random(32)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    cases = [("maximal", *_maximal(d, 0)[1:]) for d in range(2, 9)]
    for d in range(2, 6):
        cases += [walked(kind, a) for kind, a in _seeded_cases(rng, d, pool)]
    for d in range(2, 9):
        spec = IsocantedSpec(d, F(rng.randint(3, 9), 2), F(rng.randint(1, 5), 3))
        cases += [walked("isocanted", isocanted_vni(spec)), walked("isocanted", isocanted_sni(spec))]
    monkeypatch.setattr(geometry, "_connected", counted)
    seen = {}
    for kind, h, vset in cases:
        bound, _ = _closed_bounds(h)
        grid, _ = vset._grid
        full = (1 << (h.d + 1)) - 1
        for x in grid:
            ups, tight = reference.tight_order(bound, x)
            checks.clear()
            arcs = sum(u.bit_count() for u in ups) - (h.d + 1)
            tops = _two_layer(ups)
            edges = _vertex_edges(ups, tight)
            tree = arcs == h.d
            rule = "tree" if tree else "two-layer" if tops else "general"
            assert len(set(edges)) == len(edges)
            if tree:
                assert len(edges) == h.d, (h, x)
                for cut in edges:
                    assert all(ups[i] | cut == cut for i in range(h.d + 1) if cut >> i & 1), (h, x, cut)
                    assert reference._connected_by_neighbours(cut, tight), (h, x, cut)
                    assert reference._connected_by_neighbours(full ^ cut, tight), (h, x, cut)
            else:
                assert set(edges) == reference.edge_cuts_by_up_set_unions(ups, tight), (h, x)
            assert bool(checks) == (rule == "general")
            seen.setdefault(kind, set()).add(rule)
    assert seen == {"maximal": {"tree"}, "flat": {"general"}, "ni": {"tree", "two-layer", "general"},
                    "nonni": {"tree", "general"}, "isocanted": {"tree", "two-layer"}}, seen


def test_vertex_cone_tally_matches_the_cone_count_at_every_vertex():
    # At every vertex, the faces _vertex_cone counts as that vertex's (its
    # h-vector entry expanded, plus what it adds directly) against
    # _cone_faces on the same edges, the count of the cone's downward faces
    # that the general rule runs.  Walk totals check only the sum over all
    # vertices; this checks each vertex's share.  Maximal polytropes have
    # only tree vertices, the isocanted ones tree and two-layer vertices
    # with the ground on either side, and the seeded systems general ones,
    # simple or not.  A flat system takes the walk's dim P, which is below d.
    def walked(kind, a):
        h = hrep_from_matrix(a)
        return kind, h, enumerate_vertices_oracle(h)

    rng = random.Random(39)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    cases = [("maximal", *_maximal(d, 0)[1:]) for d in range(2, 8)]
    for d in range(2, 6):
        cases += [walked(kind, a) for kind, a in _seeded_cases(rng, d, pool)]
    for d in range(2, 8):
        spec = IsocantedSpec(d, F(rng.randint(5, 9), 2), F(rng.randint(1, 5), 3))
        cases += [walked("isocanted", isocanted_vni(spec)), walked("isocanted", isocanted_sni(spec))]
    seen = {}
    for kind, h, vset in cases:
        bound, _ = _closed_bounds(h)
        grid, _ = vset._grid
        nodes = range(h.d + 1)
        fixed = [(i, j) for i in nodes for j in range(i) if bound[i][j] + bound[j][i] == 0]
        dim_p = h.d - _constraint_rank(h.d, fixed)
        for x in grid:
            ups, tight = reference.tight_order(bound, x)
            edges, tally = _vertex_tally(ups, tight, dim_p)
            counts = [0] * len(tally)
            _cone_faces(edges, ups, counts)
            assert tally == counts, (kind, h, x)
            tops = reference.two_layer_tops(ups)
            if sum(u.bit_count() for u in ups) == 2 * h.d + 1:
                rule = "tree"
            elif tops:
                rule = "two-layer, ground top" if tops & 1 else "two-layer, ground bottom"
            else:
                rule = "general, simple" if len(edges) == dim_p else "general"
            seen.setdefault(kind, set()).add(rule)
    assert seen == {
        "maximal": {"tree"},
        "isocanted": {"tree", "two-layer, ground top", "two-layer, ground bottom"},
        "ni": {"tree", "two-layer, ground bottom", "general, simple", "general"},
        "nonni": {"tree", "general, simple", "general"},
        "flat": {"general, simple", "general"},
    }, seen


def _closed_order(n, arcs):
    """``ups`` and ``tight`` of the order on the nodes ``0..n-1`` that the arcs ``(i, j)`` generate."""
    ups = [1 << k for k in range(n)]
    for i, j in arcs:
        ups[i] |= 1 << j
    while True:  # transitive closure: ups[i] takes in the up-set of each node it holds
        grown = [functools.reduce(int.__or__, (ups[j] for j in range(n) if u >> j & 1), u) for u in ups]
        if grown == ups:
            break
        ups = grown
    tight = [u | sum(1 << j for j in range(n) if ups[j] >> i & 1) for i, u in enumerate(ups)]
    return ups, tight


def _check_two_layer(ups, tight):
    """At a two-layer order: the closed-form cuts are the reference filter's and the vertex's tally ``_cone_faces``'."""
    tops = _two_layer(ups)
    assert tops == reference.two_layer_tops(ups), ups
    if not tops:
        return 0
    n, full = len(ups), (1 << len(ups)) - 1
    a = n - tops.bit_count()
    edges, tally = _vertex_tally(ups, tight, n - 1)
    assert len(edges) == n and set(edges) == reference.edge_cuts_by_up_set_unions(ups, tight), ups
    assert set(edges[:n - a]) == {1 << k for k in range(n) if tops >> k & 1}
    assert set(edges[n - a:]) == {full ^ 1 << k for k in range(n) if not tops >> k & 1}
    counts = [0] * (n + 1)
    _cone_faces(edges, ups, counts)
    ground_top = tops & 1 == 1
    down = a + 1 if ground_top else a - 1
    # C(down, k), less the two sets holding every bottom ray when the ground is a top.
    closed = [comb(down, k) - (ground_top and k in (down - 1, down)) for k in range(n + 1)]
    assert counts == closed, (ups, counts, closed)
    assert tally == counts, (ups, tally, counts)
    return tops


def test_two_layer_rule_matches_the_union_filter_and_the_cone_count():
    # Differential: wherever a tight order is complete bipartite, its edges
    # read off the order must be the reference union filter's cuts, tops
    # first, and the walk's count of its downward faces, C(down, k) for its
    # down downward rays less one at k = down - 1 and at k = down when the
    # ground is a top, must be what _cone_faces counts on those cuts.  The library
    # test must agree with the reference reading of the definition, which
    # counts no arcs.  Hand-built orders with a, b = 2..4 put the ground on
    # either side.  Then every vertex of seeded NI, non-NI and flat systems
    # and of both isocanted placements is checked.  A flat system, with a
    # pair tight both ways everywhere, never has a two-layer vertex.  Each
    # isocanted vertex whose label w has 2 <= |w| <= d - 1 must be two-layer
    # with its bottoms the nodes of w, d + 1 standing for the ground: a = |w|,
    # and the ground is a top exactly when d + 1 is not in w.
    rng = random.Random(34)
    for a in range(2, 5):
        for b in range(2, 5):
            for ground_top in (True, False):
                nodes = [0, *rng.sample(range(1, a + b), a + b - 1)]
                if ground_top:
                    nodes.reverse()
                bottoms, tops = nodes[:a], nodes[a:]
                got = _check_two_layer(*_closed_order(a + b, [(l, t) for l in bottoms for t in tops]))
                assert got == sum(1 << t for t in tops)
    seen = {}
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    cases = [(kind, a, None, None) for d in range(2, 6) for kind, a in _seeded_cases(rng, d, pool)]
    for d in range(2, 9):
        spec = IsocantedSpec(d, F(rng.randint(3, 9), 2), F(rng.randint(1, 5), 3))
        cases += [("isocanted", isocanted_vni(spec), spec, "vni"), ("isocanted", isocanted_sni(spec), spec, "sni")]
    for kind, a, spec, placement in cases:
        h = hrep_from_matrix(a)
        vset = enumerate_vertices_oracle(h)
        bound, _ = _closed_bounds(h)
        grid, _ = vset._grid
        full = (1 << (h.d + 1)) - 1
        at = dict(zip(vset.points, grid))
        label_of = {} if spec is None else {at[p]: w for w, p in label_vertices(spec, vset, placement).labels}
        for x in grid:
            ups, tight = reference.tight_order(bound, x)
            got = _check_two_layer(ups, tight)
            seen[kind] = seen.get(kind, 0) + bool(got)
            if spec is not None:
                w = label_of[x]
                bottoms = sum(1 << (k if k <= h.d else 0) for k in w)
                assert got == (full ^ bottoms if 2 <= len(w) <= h.d - 1 else 0), (placement, w, got)
    assert seen["ni"] >= 1 and seen["flat"] == 0, seen
    assert seen["isocanted"] == sum(2 * (2 ** (d + 1) - 2 - 2 * (d + 1)) for d in range(2, 9)), seen

    # Refusals fall through to the tree rule (a star is a tree) or to the
    # filter, and their cuts are still the reference's.
    refused = {
        "one bottom": [(0, 1), (0, 2), (0, 3)],
        "one top": [(0, 3), (1, 3), (2, 3)],
        "one missing arc": [(l, t) for l in (0, 1, 2) for t in (3, 4, 5) if (l, t) != (1, 4)],
        "three-level chain": [(0, 2), (1, 2), (2, 3), (2, 4)],
        "flat pair": [(0, 1), (1, 0), (0, 2), (0, 3)],
        "an arc moved": [(0, 1), (1, 3), (1, 4), (2, 3)],
    }
    for name, arcs in refused.items():
        ups, tight = _closed_order(max(map(max, arcs)) + 1, arcs)
        assert _check_two_layer(ups, tight) == 0, name
        assert set(_vertex_edges(ups, tight)) == reference.edge_cuts_by_up_set_unions(ups, tight), name


def test_walk_is_unchanged_with_the_two_layer_rule_off(monkeypatch):
    # Metamorphic: with no order taken as two-layer, every non-tree vertex
    # goes through the union filter and _cone_faces, so the walk's h-vector
    # count of two-layer vertices, with its ground-top correction, is checked
    # against the general path, on seeded NI systems and both isocanted
    # placements.  With the rule on, every isocanted vertex is a tree or
    # two-layer vertex, so the isocanted walks never reach _cone_faces, not
    # even at d = 3, where a two-layer vertex has a·b = 4 = d + 1 arcs.
    import isocant.geometry as geometry

    rng = random.Random(3400)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    ni = [_closed_bounds(hrep_from_matrix(_kleene_star(_random_normal(rng, d, pool))))[0] for d in range(3, 6)]
    isocanted = []
    for d in range(3, 9):
        spec = IsocantedSpec(d, F(rng.randint(3, 9), 2), F(rng.randint(1, 5), 3))
        isocanted += [_closed_bounds(hrep_from_matrix(a))[0] for a in (isocanted_vni(spec), isocanted_sni(spec))]
    cone, general = geometry._cone_faces, []
    monkeypatch.setattr(geometry, "_cone_faces", lambda *args: general.append(args) or cone(*args))
    walks = [_walk(t) for t in isocanted]
    assert general == []
    walks += [_walk(t) for t in ni]
    monkeypatch.setattr(geometry, "_two_layer", lambda ups: 0)
    assert [_walk(t) for t in isocanted + ni] == walks


def test_walk_of_negated_bounds_is_the_negated_vertex_set():
    # Metamorphic, d = 7 and 8: x is a vertex of P exactly when -x is one of
    # -P.  A maximal polytrope, then seeded non-maximal and flat systems.
    rng = random.Random(78)
    systems = [hrep_from_matrix(reference.maximal_polytrope(random.Random(7), 7))]
    systems += [_table_hrep(_nonempty_table(rng, d, flats)) for d in (7, 8) for flats in (0, 1, 2)]
    for h in systems:
        negated = HRep(h.d, tuple((-hi, -lo) for lo, hi in h.single),
                       tuple((i, j, -hi, -lo) for i, j, lo, hi in h.diff))
        points = enumerate_vertices_oracle(h).points
        assert enumerate_vertices_oracle(negated).points == tuple(sorted(tuple(-v for v in p) for p in points))
    assert sum(lo == hi for h in systems for lo, hi in h.single) + sum(
        lo == hi for h in systems for *_, lo, hi in h.diff) >= 4


def _seeded_table(rng, d, flats):
    """Seeded upper bounds ``t[i][j]`` on ``x_i - x_j`` over the nodes ``0..d``.

    Each entry is a half in ``0..3`` plus ``s_i - s_j`` for a seeded point
    ``s`` (``s_0 = 0``), so the table is rarely closed; then ``flats`` pairs
    are forced flat (``t[j][i] = -t[i][j]``), which can empty the system.
    """
    nodes = range(d + 1)
    s = [F(0)] + [F(rng.randint(-4, 4), 3) for _ in range(d)]
    t = [[F(0) if i == j else F(rng.randint(0, 6), 2) + s[i] - s[j] for j in nodes] for i in nodes]
    for _ in range(flats):
        i, j = rng.sample(nodes, 2)
        t[j][i] = -t[i][j]
    return t


def _nonempty_table(rng, d, flats):
    """The first :func:`_seeded_table` whose system has a vertex."""
    while True:
        t = _seeded_table(rng, d, flats)
        if not isinstance(_vertices_or_error(enumerate_vertices_oracle, _table_hrep(t)), str):
            return t


def _table_hrep(t):
    """The system ``x_i - x_j <= t[i][j]`` on the nodes ``0..d``, as single and difference bounds."""
    d = len(t) - 1
    return HRep(d, tuple((-t[0][i], t[i][0]) for i in range(1, d + 1)),
                tuple((i, j, -t[j][i], t[i][j]) for i, j in itertools.combinations(range(1, d + 1), 2)))


def _euler_holds(counts):
    """Euler's relation on the proper faces of a polytope of dimension ``k``, read off the counts."""
    k = max(i for i, f in enumerate(counts) if f) + 1
    return sum((-1) ** i * f for i, f in enumerate(counts[:k])) == 1 - (-1) ** k


@pytest.mark.parametrize("d", range(2, 9))
def test_walk_and_faces_commute_with_node_relabelling(d):
    # Metamorphic, no reference: relabelling the nodes 0..d by sigma, ground
    # included, maps each grounded vertex x to y_k = x_sigma(k) - x_sigma(0).
    # It moves the walk's start and its whole order, so the walk and face
    # recovery are checked against themselves where no sweep runs.  The moved
    # system also states one pair twice, looser first.  Every face count
    # satisfies Euler's relation.
    rng = random.Random(2600 + d)
    seen = {"empty": 0, "point": 0, "flat": 0, "full": 0}
    for k in range(12):
        t = _seeded_table(rng, d, (0, 1, 0, 2)[k % 4])
        sigma = rng.sample(range(d + 1), d + 1)
        h, moved = _table_hrep(t), _table_hrep([[t[p][q] for q in sigma] for p in sigma])
        i, j, lo, hi = rng.choice(moved.diff)
        moved = HRep(d, moved.single, ((i, j, lo - 1, hi + 1), *moved.diff))
        vset, got = (_vertices_or_error(enumerate_vertices_oracle, g) for g in (h, moved))
        if isinstance(vset, str):
            assert got == vset == "empty polytope: no feasible vertex found"
            seen["empty"] += 1
            continue
        grounded = [(0, *p) for p in vset.points]
        assert got.points == tuple(sorted({tuple(x[q] - x[sigma[0]] for q in sigma[1:]) for x in grounded}))
        counts = oracle_face_counts(h, vset)
        assert oracle_face_counts(moved, got) == counts
        if not any(counts):
            seen["point"] += 1
            continue
        assert _euler_holds(counts), counts
        seen["flat" if counts[-1] == 0 else "full"] += 1
    assert seen["full"] >= 1 and seen["flat"] >= 1, seen


def test_constraint_rank_matches_union_find():
    # Component bitmasks against the union-find they replaced, on seeded
    # edge lists over the nodes 0..d, loops and repeats included.
    rng = random.Random(121)
    ranks = set()
    for d in range(13):
        for _ in range(30):
            edges = [(rng.randint(0, d), rng.randint(0, d)) for _ in range(rng.randint(0, 2 * d + 2))]
            rank = _constraint_rank(d, edges)
            assert rank == reference.constraint_rank_by_union_find(d, edges), (d, edges)
            ranks.add((d, rank))
    assert {(d, 0) for d in range(13)} | {(d, d) for d in range(1, 13)} <= ranks


@pytest.mark.parametrize("node", [2.0, True, F(1), "1", None])
def test_hrep_refuses_node_indices_that_are_not_ints(node):
    # A float node once built a system whose contains() raised on a tuple
    # index, and a bool node was read as node 1.
    for bound in ((node, 2, -1, F(1, 2)), (2, node, -1, F(1, 2))):
        with pytest.raises(TypeError, match=f"^node indices must be ints, got {re.escape(repr(node))}$"):
            HRep(2, ((0, 1), (0, 1)), (bound,))
    h = HRep(2, ((0, 1), (0, 1)), ((2, 1, -1, F(1, 2)),))
    assert h.contains((F(1, 2), F(1, 2))) and len(enumerate_vertices_oracle(h)) == 5


@pytest.mark.parametrize("args, error, text", [
    ((True, ((0, 1),), ()), TypeError, "dimension must be an int, got True"),
    ((1.0, ((0, 1),), ()), TypeError, "dimension must be an int, got 1.0"),
    (("1", ((0, 1),), ()), TypeError, "dimension must be an int, got '1'"),
    ((1, ((0, 1, 2),), ()), ValueError, "single bound on x_1 must be a (lo, hi) pair, got (0, 1, 2)"),
    ((1, ((0,),), ()), ValueError, "single bound on x_1 must be a (lo, hi) pair, got (0,)"),
    ((2, ((0, 1), 1), ()), ValueError, "single bound on x_2 must be a (lo, hi) pair, got 1"),
    ((2, ((0, 1), (0, 1)), ((1, 2, 0),)), ValueError, "difference bound must be (i, j, lo, hi), got (1, 2, 0)"),
    ((2, ((0, 1), (0, 1)), ((1, 2, 0, 1, 2),)), ValueError,
     "difference bound must be (i, j, lo, hi), got (1, 2, 0, 1, 2)"),
    # The count of single bounds is still checked before their shape.
    ((2, ((0, 1, 2),), ()), ValueError, "dimension 2 needs 2 single bounds, got 1"),
    # A negative dimension is named before the count of single bounds.
    ((-1, (), ()), ValueError, "dimension must be non-negative, got -1"),
])
def test_hrep_refuses_malformed_dimension_and_bounds_when_built(args, error, text):
    # Each of these once built a system whose walk failed on unpacking or
    # slicing, or built one with d=True.
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        HRep(*args)


@pytest.mark.parametrize("d, points, error, text", [
    (True, ((F(0),), (F(1),)), TypeError, "dimension must be an int, got True"),
    # A float dimension once built a set whose face counts failed on range().
    (1.0, ((F(0),), (F(1),)), TypeError, "dimension must be an int, got 1.0"),
    # Points the length check or the exact gate would refuse: the dimension is named first.
    ("2", ((F(0), F(0)),), TypeError, "dimension must be an int, got '2'"),
    (-1, (("x",),), ValueError, "dimension must be non-negative, got -1"),
])
def test_vertex_set_refuses_a_malformed_dimension_before_its_points(d, points, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        VertexSet(d, points)


def test_vertex_set_label_keys_become_frozensets():
    # A list key once built a set whose hash() raised on an unhashable list.
    listed = VertexSet(1, ((F(0),),), (([1], (F(0),)), ((2,), (F(-1),))))
    assert listed.labels == ((frozenset({1}), (F(0),)), (frozenset({2}), (F(-1),)))
    assert hash(listed) == hash(VertexSet(1, ((F(0),),), listed.labels))
    assert listed.label_map[frozenset({2})] == (F(-1),)
    key = frozenset({1})
    assert VertexSet(1, ((F(0),),), ((key, (F(0),)),)).labels[0][0] is key
    with pytest.raises(TypeError):
        VertexSet(1, ((F(0),),), ((1, (F(0),)),))


def test_vertex_set_label_points_pass_the_exact_gate():
    # Label points are gated and length-checked as the points are: exact
    # tuples pass as they are, ints and lists become Fractions and tuples.
    with pytest.raises(ValueError, match="^point dimension 1 != 2$"):
        VertexSet(2, ((F(0), F(0)),), ((frozenset({1}), (F(0),)),))
    loose = VertexSet(1, ((F(0),),), ((frozenset({1}), [0]), (frozenset({2}), (F(-1),))))
    assert loose.labels == ((frozenset({1}), (F(0),)), (frozenset({2}), (F(-1),)))
    assert type(loose.labels[0][1]) is tuple and type(loose.labels[0][1][0]) is F
    assert hash(loose) == hash(VertexSet(1, ((F(0),),), loose.labels))
    labeled = label_vertices(HEXAGON, enumerate_vertices_oracle(hrep_from_matrix(isocanted_vni(HEXAGON))))
    again = VertexSet(labeled.d, labeled.points, labeled.labels)
    assert again == labeled and all(p is q for (_, p), (_, q) in zip(again.labels, labeled.labels))


def _seeded_cases(rng, d, pool):
    """Seeded NI, non-NI and flat (equal-bound) matrices of size ``d + 1``; all contain the origin."""
    nonni = _random_normal(rng, d, pool)
    i, j, k = rng.sample(range(d + 1), 3)
    # a[i][j] < a[i][k] + a[k][j] = 0, so the square differs.
    nonni[i][k] = nonni[k][j] = F(0)
    nonni[i][j] = F(-1)
    flat = _random_normal(rng, d, pool)
    i, j = rng.sample(range(d + 1), 2)
    flat[i][j] = flat[j][i] = F(0)
    return (
        ("ni", _kleene_star(_random_normal(rng, d, pool))),
        ("nonni", TropMatrix.from_rows(nonni)),
        ("flat", TropMatrix.from_rows(flat)),
        ("flat", _kleene_star(flat)),
    )


def test_oracle_face_counts_match_affine_rank_reference():
    # Constraint-graph rank against Gaussian elimination on the face vertices,
    # over NI, non-NI and flat (equal-bound) polytopes; all contain the origin.
    import random

    rng = random.Random(4)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    for d in (2, 3, 4):
        for _ in range(6 if d < 4 else 3):
            for kind, a in _seeded_cases(rng, d, pool):
                h = hrep_from_matrix(a)
                vset = enumerate_vertices_oracle(h)
                counts = oracle_face_counts(h, vset)
                assert counts == reference.face_counts(h, vset), (kind, a)
                if kind == "ni":
                    assert is_ni(a)
                if kind == "nonni":
                    assert not is_ni(a)
                if kind == "flat":
                    assert counts[-1] == 0
    # Isocanted d=5 from its closed-form vertices, which the oracle tests match.
    spec = IsocantedSpec(5, F(3), F(1))
    h = hrep_from_matrix(isocanted_vni(spec))
    vset = VertexSet(5, tuple(sorted(closed_form_vertices(spec).values())))
    assert oracle_face_counts(h, vset) == reference.face_counts(h, vset) == isocanted_fvector(5)


def _with_gaps(rng, h):
    # Drop about half the difference bounds, at least one, but never an equal
    # one, so the polytope keeps its dimension and some pair has no bound of
    # its own.  Unchanged when every difference bound is an equality.
    free = [b for b in h.diff if b[2] != b[3]]
    dropped = set(rng.sample(free, min(len(free), max(1, len(free) // 2))))
    return HRep(h.d, h.single, tuple(b for b in h.diff if b not in dropped))


def test_missing_pairs_start_through_the_ground():
    # Only a directly built HRep can lack a difference pair: hrep_from_matrix
    # fills every one.  The closure then starts such a pair from its path
    # through the ground, and the walk and face recovery must still agree
    # with the subset sweep and the affine-rank face counts.
    rng = random.Random(8)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    checked = {"ni": 0, "flat": 0}
    for d in (2, 3, 4):
        for _ in range(5 if d < 4 else 2):
            for kind, a in _seeded_cases(rng, d, pool):
                if kind == "nonni":
                    continue
                full = hrep_from_matrix(a)
                h = _with_gaps(rng, full)
                if h == full:
                    continue
                checked[kind] += 1
                vset = enumerate_vertices_oracle(h)
                assert vset == reference.sweep_vertices(h), (kind, h)
                counts = oracle_face_counts(h, vset)
                assert counts == reference.face_counts(h, vset), (kind, h)
                assert (counts[-1] == 0) == (kind == "flat")
    assert min(checked.values()) >= 8, checked


def _edge_counts(h, vset):
    """Each vertex's number of edges, and of those going down under ``x_1 + ... + x_d``.

    The edges are the two-vertex faces of the hyperplane-meet reference.
    """
    height = [sum(p) for p in vset.points]
    edges, down = [0] * len(vset), [0] * len(vset)
    for face in reference.face_vertex_sets(h, vset):
        if len(face) == 2:
            u, v = face
            for a, b in ((u, v), (v, u)):
                edges[a] += 1
                down[a] += height[b] < height[a]
    return edges, down


def test_walk_face_counts_match_facet_closure_and_affine_rank():
    # The counts the walk takes at each face's highest vertex against the
    # facet-meet closure they replaced and, up to d=4, the affine-rank
    # reference: seeded NI, non-NI and flat matrices, seeded bound tables
    # (one with a flat pair), a point and both isocanted placements, d=2..7.
    # Up to d=5 the reference's edges show that the sample holds non-simple
    # vertices and, at each d, vertices with every number 0..d of edges
    # going down.
    rng = random.Random(28)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    non_simple = 0
    for d in range(2, 8):
        spec = IsocantedSpec(d, F(rng.randint(3, 9), 2), F(rng.randint(1, 5), 3))
        systems = [hrep_from_matrix(a) for _, a in _seeded_cases(rng, d, pool)]
        systems += [_table_hrep(_nonempty_table(rng, d, flats)) for flats in (0, 1)]
        systems += [_point_hrep(tuple(F(rng.randint(-4, 4), 3) for _ in range(d)))]
        systems += [hrep_from_matrix(build(spec)) for build in (isocanted_vni, isocanted_sni)]
        downs = set()
        for h in systems:
            vset = enumerate_vertices_oracle(h)
            counts = oracle_face_counts(h, vset)
            assert counts == reference.face_counts_by_facet_closure(h, vset), h
            if d <= 4:
                assert counts == reference.face_counts(h, vset), h
            if d <= 5:
                dim = reference.affine_dim(vset.points)
                edges, down = _edge_counts(h, vset)
                non_simple += sum(n > dim for n in edges)
                downs.update(down)
        assert d > 5 or set(range(d + 1)) <= downs, (d, downs)
    assert non_simple >= 30, non_simple


def test_hand_built_vertex_sets_walk_their_own_extremes():
    # A hand-built set walks the table of its own extremes: its points in any
    # order give the walk's counts, and a set that is not exactly that walk's
    # vertices is refused.
    rng = random.Random(29)
    text = "^points are not the vertices of an alcoved polytope$"
    for d in (2, 3, 4):
        spec = IsocantedSpec(d, F(5, 2), F(3, 4))
        for h in [hrep_from_matrix(isocanted_sni(spec)), _table_hrep(_nonempty_table(rng, d, 1))]:
            vset = enumerate_vertices_oracle(h)
            points = list(vset.points)
            rng.shuffle(points)
            assert oracle_face_counts(h, VertexSet(d, tuple(points))) == oracle_face_counts(h, vset)
            assert oracle_face_counts(h, VertexSet(d, ())) == (0,) * d
            if len(points) < 2:
                continue
            middle = tuple((u + v) / 2 for u, v in zip(points[0], points[1]))
            for bad in (points + [middle], points + points[:1]):
                with pytest.raises(ValueError, match=text):
                    oracle_face_counts(h, VertexSet(d, tuple(bad)))
    # The unit square without a corner: its alcoved hull is the whole square.
    square = HRep(2, SQUARE_BOUNDS, ())
    corners = ((F(0), F(0)), (F(0), F(1)), (F(1), F(0)))
    assert oracle_face_counts(square, VertexSet(2, corners + ((F(1), F(1)),))) == (4, 4)
    with pytest.raises(ValueError, match=text):
        oracle_face_counts(square, VertexSet(2, corners))


def test_hand_built_segment_walks_in_memory_that_does_not_grow_with_two_to_the_d():
    # Hand-built sets are not capped at ORACLE_DIM_LIMIT, so nothing the walk
    # keeps may be sized 2^(d+1): a diagonal segment at d=20 walks two vertices.
    d = 20
    h = HRep(d, ((0, 1),) * d, ())
    vset = VertexSet(d, ((0,) * d, (1,) * d))
    tracemalloc.start()
    try:
        counts = oracle_face_counts(h, vset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (2,) + (0,) * (d - 1)
    assert peak < 1 << 20, peak


def test_walk_names_a_cut_whose_step_is_not_positive(monkeypatch):
    # Every slack crossing a true edge is positive.  A blocked cut among a
    # vertex's edges steps 0 and goes nowhere, which once let a faulty edge
    # rule send the d=20 segment's cone count through 2^20 faces; the walk
    # now names the cut and stops.
    import isocant.geometry as geometry

    vertex_cone = geometry._vertex_cone
    monkeypatch.setattr(geometry, "_vertex_cone", lambda *order: [*vertex_cone(*order), 0b011])
    # x_1 = x_2 on the unit square: the tight x_1 - x_2 <= 0 blocks the cut {ground, x_1}.
    h = HRep(2, ((0, 1), (0, 1)), ((1, 2, 0, 0),))
    with pytest.raises(RuntimeError, match=r"^cut 0b11 at \(0, 1, 1\) steps 0: not an edge$"):
        enumerate_vertices_oracle(h)


def test_maximal_walk_holds_a_vertex_state_only_until_it_is_expanded():
    # The walk keeps a set of the points it has seen; each vertex's tight
    # order lives on the work stack until it is expanded.  Keeping every
    # vertex's order until the walk ended peaked at about 570 KB.
    h = hrep_from_matrix(reference.maximal_polytrope(random.Random(0), 6))
    bound, _ = _closed_bounds(h)
    tracemalloc.start()
    try:
        grid, _ = _walk(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid) == comb(12, 6)
    assert peak < 400_000, peak


def test_tight_rank_checks_the_point_length():
    h = hrep_from_matrix(cube_vni(3, 2))
    for point in ((F(0), F(0)), (F(0), F(0), F(0), F(5))):
        with pytest.raises(ValueError, match=f"^point dimension {len(point)} != 3$"):
            h.tight_rank(point)
        with pytest.raises(ValueError, match=f"^point dimension {len(point)} != 3$"):
            h.contains(point)
    assert h.tight_rank((F(0), F(0), F(0))) == 3


def test_hrep_accessors_match_a_direct_reading():
    # hyperplanes, contains and tight_rank against a reading of single and
    # diff written here, with the rank taken by Gaussian elimination, at
    # vertices, at the centroid and at points stepped off a few vertices.
    rng = random.Random(9)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    seen = set()
    for d in (2, 3, 4):
        unit = [tuple(F(int(k == i)) for k in range(d)) for i in range(d)]
        for _ in range(3):
            for kind, a in _seeded_cases(rng, d, pool):
                for h in (hrep_from_matrix(a), _with_gaps(rng, hrep_from_matrix(a))):
                    planes = {(i, 0, c) for i, (lo, hi) in enumerate(h.single, 1) for c in (lo, hi)}
                    planes |= {(i, j, c) for i, j, lo, hi in h.diff for c in (lo, hi)}
                    assert h.hyperplanes() == sorted(planes)

                    vertices = enumerate_vertices_oracle(h).points
                    centroid = tuple(sum(c) / len(vertices) for c in zip(*vertices))
                    stepped = [
                        tuple(x + step * e for x, e in zip(p, unit[k]))
                        for p in vertices[:3] for k in range(d) for step in (F(1, 5), F(-1, 5))
                    ]
                    for p in (*vertices, centroid, *stepped):
                        singles = [i for i, (lo, hi) in enumerate(h.single, 1) if p[i - 1] in (lo, hi)]
                        diffs = [(i, j) for i, j, lo, hi in h.diff if p[i - 1] - p[j - 1] in (lo, hi)]
                        normals = [unit[i - 1] for i in singles]
                        normals += [tuple(x - y for x, y in zip(unit[i - 1], unit[j - 1])) for i, j in diffs]
                        inside = all(lo <= p[i - 1] <= hi for i, (lo, hi) in enumerate(h.single, 1))
                        inside = inside and all(lo <= p[i - 1] - p[j - 1] <= hi for i, j, lo, hi in h.diff)
                        rank = reference.affine_dim([(F(0),) * d, *normals])
                        assert h.contains(p) == inside, (kind, h, p)
                        assert h.tight_rank(p) == rank, (kind, h, p)
                        if p in vertices:
                            assert inside and rank == d
                        seen.add((kind, inside, p == centroid))
    for kind in ("ni", "nonni", "flat"):
        assert {(kind, True, True), (kind, True, False), (kind, False, False)} <= seen


def test_geometric_faces_equal_interval_faces():
    # Beyond equal counts: the two lattices contain literally the same faces,
    # each face taken as its set of vertices.
    from isocant.combinatorics import build_face_lattice

    for d in (2, 3, 4):
        spec = IsocantedSpec(d, F(2), F(1))
        h = hrep_from_matrix(isocanted_vni(spec))
        vset = enumerate_vertices_oracle(h)
        labeled = label_vertices(spec, vset)
        index = {lab: vset.points.index(pt) for lab, pt in labeled.labels}
        interval_faces = {
            frozenset(index[u] for u in face.vertices())
            for faces in build_face_lattice(d).values()
            for face in faces
        }
        assert reference.face_vertex_sets(h, vset) == interval_faces


@pytest.mark.parametrize("d", range(2, 9))
def test_geometric_edges_are_the_skeleton(d):
    # The oracle polytope's edges, under the closed-form label map, are
    # exactly the skeleton's edges: BFS distances and the diameter on labels
    # are then distances on the polytope's own graph.  Up to d=5 the edges are
    # the two-vertex faces of the facet-meet closure; past it, too slow there,
    # each vertex's edge cuts are stepped to the neighbour at their far end.
    spec = IsocantedSpec(d, F(2), F(1))
    h = hrep_from_matrix(isocanted_vni(spec))
    vset = enumerate_vertices_oracle(h)
    label_of = {pt: lab for lab, pt in label_vertices(spec, vset).labels}
    if d <= 5:
        geometric = {
            frozenset(label_of[vset.points[k]] for k in face)
            for face in reference.face_vertex_sets(h, vset)
            if len(face) == 2
        }
    else:
        bound, _ = _closed_bounds(h)
        grid, _ = vset._grid
        label_of = {x: label_of[p] for x, p in zip(grid, vset.points)}
        nodes = range(d + 1)
        geometric = set()
        for x in grid:
            ups, tight = reference.tight_order(bound, x)
            for cut in _vertex_edges(ups, tight):
                # x + step * 1_cut, re-grounded; the step is the least slack leaving the cut.
                outs = [j for j in nodes if not cut >> j & 1]
                step = min(bound[i][j] - x[i] + x[j] for i in nodes if cut >> i & 1 for j in outs)
                lift = [step if cut >> k & 1 else 0 for k in nodes]
                y = tuple(x[k] + lift[k] - lift[0] for k in nodes)
                geometric.add(frozenset({label_of[x], label_of[y]}))
    edges = skeleton(d).edges
    assert len(edges) == len(geometric)
    assert geometric == {frozenset(edge) for edge in edges}


def test_isocanted_vertex_worked_cases_d5():
    ell, a = F(2), F(1)
    spec = IsocantedSpec(5, ell, a)
    assert isocanted_vertex(spec, {1, 2, 3}) == (0, 0, 0, -ell + a, -ell + a)
    assert isocanted_vertex(spec, {1, 2, 6}) == (-a, -a, -ell, -ell, -ell)
    assert isocanted_vertex(spec, {1, 2, 3, 4, 5}) == (0, 0, 0, 0, 0)
    assert isocanted_vertex(spec, {6}) == (-ell,) * 5


def test_isocanted_vertex_rejects_bad_labels():
    spec = IsocantedSpec(3, F(2), F(1))
    with pytest.raises(ValueError):
        isocanted_vertex(spec, set())
    with pytest.raises(ValueError):
        isocanted_vertex(spec, {1, 2, 3, 4})
    with pytest.raises(ValueError):
        isocanted_vertex(spec, {5})


@pytest.mark.parametrize("d", range(2, 9))
def test_verify_unique_vertex_sweep(d):
    spec = IsocantedSpec(d, F(5, 2), F(3, 4))
    for size in range(1, d + 1):
        for w in itertools.combinations(range(1, d + 2), size):
            assert verify_unique_vertex(spec, w)


def test_perturbed_point_fails_vertex_conditions():
    spec = IsocantedSpec(3, F(2), F(1))
    c = isocanted_vni(spec)
    w = frozenset({1, 2})
    point = list(isocanted_vertex(spec, w)) + [F(0)]
    assert unique_vertex_conditions(c, w, point)
    point[0] += F(1, 7)
    assert not unique_vertex_conditions(c, w, point)


def test_unique_vertex_conditions_full_and_empty_labels():
    # A label holding every index leaves no column slot for the candidate; an
    # empty label has one Laplace term, which cannot attain the minor twice.
    c = isocanted_vni(IsocantedSpec(3, F(2), F(1)))
    point = [F(0)] * 4
    with pytest.raises(ValueError, match="label must leave a column slot outside it"):
        unique_vertex_conditions(c, {1, 2, 3, 4}, point)
    assert unique_vertex_conditions(c, set(), point) is False


def _unique_vertex_or_error(check, c, w, point):
    try:
        return check(c, w, point)
    except (ValueError, StopIteration) as exc:
        return type(exc).__name__, str(exc)


def _unique_vertex_cases(rng):
    # Closed-form points (all true), another label's point or a nudged point
    # (mostly false), then random normal matrices with -inf entries, random
    # labels (empty, full and out-of-range ones too) and random points.
    for d in range(2, 6):
        spec = IsocantedSpec(d, F(5, 2), F(3, 4))
        c = isocanted_vni(spec)
        labels = list(all_vertex_labels(d))
        for w in labels:
            point = list(isocanted_vertex(spec, w)) + [F(0)]
            yield "closed_form", c, w, point
            yield "other", c, w, list(isocanted_vertex(spec, rng.choice(labels))) + [F(0)]
            point[rng.randrange(d)] += rng.choice((F(1, 7), F(-1, 3), F(1, 100)))
            yield "nudged", c, w, point
    pool = [F(0), F(-1), F(-3, 2), F(-2), NEG_INF]
    for _ in range(400):
        d = rng.randint(1, 4)
        c = TropMatrix.from_rows(_random_normal(rng, d, pool))
        size = rng.randint(1, d) if rng.random() < 0.8 else rng.choice((0, d + 1))
        w = rng.sample(range(1, d + 2), size)
        if rng.random() < 0.1:
            w.append(rng.choice((0, d + 2)))
        point = [rng.choice(pool) for _ in range(d)] + [F(rng.random() < 0.05)]
        yield "random", c, w, point


def _expected_unique_vertex(c, w, point):
    # The old two-pass test, with one intended change: a label entry outside
    # 1..n raises where the old test found no row subset of the minor's order
    # (the label has n or more entries) and answered without checking.
    expected = _unique_vertex_or_error(reference.unique_vertex_conditions, c, w, point)
    bad = sorted(j for j in set(w) if not 1 <= j <= c.n)
    if bad and isinstance(expected, bool):
        return "ValueError", f"column index {bad[0]} out of range"
    return expected


def test_unique_vertex_laplace_pass_matches_two_pass_reference():
    # The Laplace-term pass alone against the old test that also demanded a
    # minor multiplicity of at least 2: the same result or the same error.
    outcomes = {}
    for kind, c, w, point in _unique_vertex_cases(random.Random(11)):
        got = _unique_vertex_or_error(unique_vertex_conditions, c, w, point)
        assert got == _expected_unique_vertex(c, w, point), (w, point)
        outcomes.setdefault(kind, []).append(got)
    assert all(r is True for r in outcomes["closed_form"])
    assert outcomes["nudged"].count(False) > len(outcomes["nudged"]) // 2
    assert {True, False} <= set(outcomes["random"])
    assert any(isinstance(r, tuple) for r in outcomes["random"])


def test_unique_vertex_conditions_match_permutation_reference():
    # The integer pass on a once-scaled matrix against Fraction terms whose
    # complementary minors come from all permutations: every label at d=2..5,
    # both placements, at the closed-form point and at a perturbed one.
    rng = random.Random(1313)
    outcomes = {"closed_form": [], "perturbed": []}
    for d in range(2, 6):
        spec = IsocantedSpec(d, F(5, 2), F(3, 4))
        for c, vertex in ((isocanted_vni(spec), isocanted_vertex), (isocanted_sni(spec), isocanted_vertex_sni)):
            for w in all_vertex_labels(d):
                point = list(vertex(spec, w)) + [F(0)]
                nudged = list(point)
                nudged[rng.randrange(d)] += rng.choice((F(1, 7), F(-1, 3), F(1, 100)))
                for kind, p in (("closed_form", point), ("perturbed", nudged)):
                    got = unique_vertex_conditions(c, w, p)
                    assert got == reference.unique_vertex_conditions_by_permutations(c, w, p), (d, w, p)
                    outcomes[kind].append(got)
    assert all(outcomes["closed_form"])
    assert outcomes["perturbed"].count(False) > len(outcomes["perturbed"]) // 2


def test_unique_vertex_conditions_error_paths():
    c = isocanted_vni(IsocantedSpec(3, F(2), F(1)))
    for check in (unique_vertex_conditions, reference.unique_vertex_conditions_by_permutations):
        with pytest.raises(ValueError, match="^label must leave a column slot outside it$"):
            check(c, {1, 2, 3, 4}, [F(0)] * 4)
        for point in ([F(0)] * 3, [F(0)] * 5, [F(0), F(0), F(0), F(1)]):
            with pytest.raises(ValueError, match="^candidate point must have length n with last entry zero$"):
                check(c, {1, 2}, point)
    # Order 10 is the largest minor the permanent cap admits; order 11 is refused.
    spec = IsocantedSpec(10, F(2), F(1))
    assert verify_unique_vertex(spec, range(1, 10))
    big = isocanted_vni(IsocantedSpec(11, F(2), F(1)))
    for check in (unique_vertex_conditions, reference.unique_vertex_conditions_by_permutations):
        with pytest.raises(ValueError, match="^minor order 11 exceeds permanent limit 10$"):
            check(big, range(1, 11), [F(0)] * 12)


def test_unique_vertex_conditions_rejects_labels_outside_range():
    # With n = 3 no row subset of order 5 exists, so this label once passed
    # without a single check; entries outside 1..n now raise before the loop,
    # with the text the minor check gave when the order still fit.
    with pytest.raises(ValueError, match="^column index 5 out of range$"):
        unique_vertex_conditions(cube_vni(2, 1), {1, 2, 5, 6}, [0, 0, 0])
    for label, bad in (({2, 3, 4}, 4), ({0, 1}, 0), ({1, 5}, 5)):
        with pytest.raises(ValueError, match=f"^column index {bad} out of range$"):
            unique_vertex_conditions(cube_vni(2, 1), label, [0, 0, 0])
    # A text label element once raised Python's own error from sorting.
    for label, bad in ((["1"], "'1'"), ([True], "True"), ([1, True], "True"), ([2.0], r"2\.0")):
        with pytest.raises(TypeError, match=f"^column indices must be ints, got {bad}$"):
            unique_vertex_conditions(cube_vni(2, 1), label, [0, 0, 0])


def test_vertex_minor_multiplicity_can_exceed_laplace_count():
    # The vertex condition is equality of the Laplace terms, not an exact
    # permutation count: on rows {3,4,5} for the label {1,2} the extended
    # minor is constant, so all six permutations attain the maximum while the
    # three Laplace terms still coincide.
    from isocant.tropical import laplace_terms, trop_minor

    ell, a = F(2), F(1)
    spec = IsocantedSpec(5, ell, a)
    c = isocanted_vni(spec)
    w = frozenset({1, 2})
    point = list(isocanted_vertex(spec, w)) + [F(0)]
    slot = 3
    cx = c.replace_column(slot, point)
    cols = sorted(w | {slot})
    terms = laplace_terms(cx, [3, 4, 5], cols, slot)
    assert terms == [3 * (a - ell)] * 3
    ev = trop_minor(cx, [3, 4, 5], cols)
    assert ev.value == 3 * (a - ell)
    assert ev.multiplicity == 6
    assert unique_vertex_conditions(c, w, point)


def test_boundary_cants_still_satisfy_minor_conditions():
    # Documenting a subtle point: at cant 0 (the box) and cant = edge length
    # the Laplace-equality conditions still hold at the closed-form points,
    # so they cannot flag the degeneracy; what breaks down is injectivity of
    # the label-to-vertex map, checked in the next test.
    d, ell = 2, F(2)
    for a in (F(0), ell):
        rows = [
            [
                F(0) if (i == j or i == d) else (-ell if j == d else -ell + a)
                for j in range(d + 1)
            ]
            for i in range(d + 1)
        ]
        c = TropMatrix.from_rows(rows)
        for size in range(1, d + 1):
            for w in itertools.combinations(range(1, d + 2), size):
                label = frozenset(w)
                if d + 1 in label:
                    point = [-a if k in label else -ell for k in range(1, d + 1)]
                else:
                    point = [F(0) if k in label else a - ell for k in range(1, d + 1)]
                assert unique_vertex_conditions(c, label, point + [F(0)])


def test_degenerate_cants_collapse_vertex_map():
    # At cant 0 (a box) and cant = edge length the closed-form map stops being
    # injective, which is how the degeneracy shows up.
    d, ell = 3, F(2)

    def image_size(a):
        pts = set()
        for size in range(1, d + 1):
            for w in itertools.combinations(range(1, d + 2), size):
                label = frozenset(w)
                if d + 1 in label:
                    pts.add(tuple(-a if k in label else -ell for k in range(1, d + 1)))
                else:
                    pts.add(tuple(F(0) if k in label else a - ell for k in range(1, d + 1)))
        return len(pts)

    assert image_size(F(1)) == 2 ** (d + 1) - 2
    assert image_size(F(0)) < 2 ** (d + 1) - 2
    assert image_size(ell) < 2 ** (d + 1) - 2


def test_poles_vni_and_sni():
    spec = IsocantedSpec(3, F(2), F(1))
    north, south = poles(spec)
    assert north == (F(0), F(0), F(0))
    assert south == (F(-2), F(-2), F(-2))
    north_s, south_s = poles(spec, "sni")
    assert north_s == tuple(-v for v in south_s)
    assert north_s == (F(1), F(1), F(1))


@pytest.mark.parametrize("placement", ["vni", "sni"])
def test_poles_match_matrix_extremes_and_walk(placement):
    # The poles come from the vertex map; the former matrix route and the
    # coordinatewise extremes of the walked vertex set must agree with them.
    rng = random.Random(2401)
    for d in range(2, 7):
        for _ in range(3):
            den = rng.choice((1, 2, 3, 7))
            ell = F(rng.randint(2, 30), den)
            spec = IsocantedSpec(d, ell, ell * F(rng.randint(1, 9), 10))
            got = poles(spec, placement)
            assert got == reference.poles_by_extremes(spec, placement), spec
            points = enumerate_vertices_oracle(hrep_from_matrix(PLACEMENTS[placement](spec))).points
            assert got == (tuple(map(max, zip(*points))), tuple(map(min, zip(*points)))), spec


def test_pole_labels_match_vertex_map():
    spec = IsocantedSpec(4, F(2), F(1))
    north, south = poles(spec)
    assert north == isocanted_vertex(spec, {1, 2, 3, 4})
    assert south == isocanted_vertex(spec, {5})


def test_bounding_box_of_isocanted_is_cube():
    spec = IsocantedSpec(3, F(2), F(1))
    h = bounding_box(isocanted_vni(spec))
    assert h.single == ((F(-2), F(0)),) * 3
    mn, mx = polytope_extremes(decompose(isocanted_vni(spec)).box)
    assert mn == (F(-2),) * 3 and mx == (F(0),) * 3


def test_sni_vertices_are_antipodal():
    for d in (2, 3, 4):
        spec = IsocantedSpec(d, F(2), F(1, 2))
        universe = frozenset(range(1, d + 2))
        for size in range(1, d + 1):
            for w in itertools.combinations(range(1, d + 2), size):
                v = isocanted_vertex_sni(spec, w)
                opposite = isocanted_vertex_sni(spec, universe - frozenset(w))
                assert tuple(-x for x in v) == opposite


@pytest.mark.parametrize("d", [2, 3])
def test_central_symmetry_sni(d):
    spec = IsocantedSpec(d, F(2), F(1))
    assert central_symmetry_check(isocanted_sni(spec))
    assert central_symmetry_check(box_sni([F(2)] * d))


def test_central_symmetry_fails_for_single_cant():
    # Cant a single codimension-2 face of the symmetric cube.
    q = cube_sni(3, 2)
    rows = [list(r) for r in q.entries]
    rows[0][1] = rows[0][1] + F(1, 2)
    a = TropMatrix.from_rows(rows)
    from isocant.matrices import is_ni

    assert is_ni(a)
    assert not central_symmetry_check(a)


def _symmetric_rows(rng, d, pool, flat=False):
    # a[i][j] = a[j][i]: every bound a[i][j] <= x_i - x_j <= -a[j][i] is
    # symmetric about zero, so the polytope is its own negation, NI or not.
    rows = _random_normal(rng, d, pool)
    for i in range(d + 1):
        for j in range(i):
            rows[i][j] = rows[j][i]
    if flat:
        i, j = rng.sample(range(d + 1), 2)
        rows[i][j] = rows[j][i] = F(0)
    return rows


def test_central_symmetry_matches_vertex_negation_reference():
    # The closed-bound test against negating the walk's vertex set, on
    # isocanted, box, flat, non-NI, symmetric and empty inputs and one over
    # the cap: the same answer, or the same error text.
    rng = random.Random(15)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    q = [list(r) for r in cube_sni(3, 2).entries]
    q[0][1] += F(1, 2)
    cases = {
        "single cant": (TropMatrix.from_rows(q), False),
        "flat point at the origin": (TropMatrix.from_rows([[0, 0], [0, 0]]), True),
        "flat point off the origin": (TropMatrix.from_rows([[0, -1], [1, 0]]), False),
    }
    for d in (2, 3, 4, 5):
        spec = IsocantedSpec(d, rng.choice((F(2), F(5, 2), F(3))), rng.choice((F(1, 2), F(1), F(3, 4))))
        cases[f"sni {d}"] = (isocanted_sni(spec), True)
        cases[f"vni {d}"] = (isocanted_vni(spec), False)
        cases[f"box_sni {d}"] = (box_sni([rng.choice((F(1), F(3, 2), F(2))) for _ in range(d)]), True)
    for d in (2, 3, 4):
        for t in range(4):
            for k, (kind, a) in enumerate(_seeded_cases(rng, d, pool)):
                cases[f"{kind} {d} {t} {k}"] = (a, None)
            for flat in (False, True):
                rows = _symmetric_rows(rng, d, pool, flat)
                cases[f"symmetric {d} {t} {flat}"] = (TropMatrix.from_rows(rows), True)
                cases[f"symmetric star {d} {t} {flat}"] = (_kleene_star(rows), True)
            cases[f"empty {d} {t}"] = (TropMatrix.from_rows(_empty_rows(rng, d)), None)
    answers = {}
    for name, (a, expected) in cases.items():
        answer = _vertices_or_error(central_symmetry_check, a)
        assert answer == _vertices_or_error(reference.central_symmetry_by_vertices, a), name
        assert expected is None or answer is expected, name
        answers[name] = answer
    assert answers["empty 4 3"] == "empty polytope: no feasible vertex found"
    # Over the cap the reference cannot walk, and the closed-table check still answers.
    over = isocanted_sni(IsocantedSpec(ORACLE_DIM_LIMIT + 1, F(2), F(1)))
    message = f"dimension {ORACLE_DIM_LIMIT + 1} exceeds oracle limit {ORACLE_DIM_LIMIT}"
    assert _vertices_or_error(reference.central_symmetry_by_vertices, over) == message
    assert central_symmetry_check(over) is True
    assert sum(a is False for a in answers.values()) >= 30
    symmetric_non_ni = [n for n in cases if n.startswith("symmetric ") and not is_ni(cases[n][0])]
    assert len(symmetric_non_ni) >= 10


@functools.lru_cache(maxsize=None)
def _maximal(d, seed):
    """A seeded maximal polytrope's matrix, halfspaces and walked vertex set, built once for the tests."""
    a = reference.maximal_polytrope(random.Random(seed), d)
    h = hrep_from_matrix(a)
    return a, h, enumerate_vertices_oracle(h)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_maximal_polytrope_counts(d):
    # Maximal polytropes: every vertex is simple, so each is reached with the
    # tight pairs it inherits from one edge.  Observed and pinned here on three
    # seeds per dimension (one at d=8, to keep the suite fast), not cited as a
    # theorem: C(2d, d) vertices, the most an alcoved d-polytope has, and
    # f_k = C(d, k) C(2d - k, d).  Up to d=5 one seed's counts also match the
    # affine-rank reference.
    for seed in range(1 if d == 8 else 3):
        a, h, vset = _maximal(d, seed)
        assert is_ni(a)
        assert len(vset) == comb(2 * d, d)
        counts = oracle_face_counts(h, vset)
        assert counts == tuple(comb(d, k) * comb(2 * d - k, d) for k in range(d))
        if d <= 4:
            assert vset == reference.sweep_vertices(h)
        if d <= 5 and seed == 0:
            assert counts == reference.face_counts(h, vset)


def test_zonotope_check_small_dimensions():
    assert zonotope_check(IsocantedSpec(2, F(2), F(1)))
    assert zonotope_check(IsocantedSpec(3, F(2), F(1)))
    assert zonotope_check(IsocantedSpec(2, F(5, 2), F(3, 4)))


def test_zonotope_check_matches_vertex_reference():
    rng = random.Random(18)
    for d in range(2, 7):
        for _ in range(3 if d < 6 else 1):
            ell = F(rng.randint(2, 12), rng.randint(1, 4))
            spec = IsocantedSpec(d, ell, ell * F(rng.randint(1, 9), 10))
            assert zonotope_check(spec) is reference.zonotope_by_vertices(spec) is True, spec


def _sum_table(d, ell, a):
    # Closed bounds x_i - x_j <= t[i][j] of the box prod [-(ell - a), 0] plus
    # the segment [0, -a * 1], node 0 the ground.
    return [[F(0) if i == j or j == 0 else ell if i == 0 else ell - a for j in range(d + 1)]
            for i in range(d + 1)]


def test_closed_table_helper_rejects_a_moved_bound():
    for d, ell, a in ((2, F(2), F(1)), (4, F(5, 2), F(3, 4))):
        matrix = isocanted_vni(IsocantedSpec(d, ell, a))
        table = _sum_table(d, ell, a)
        assert _has_closed_table(matrix, table)
        for i, j in itertools.permutations(range(d + 1), 2):
            for step in (F(1, 7), F(-1, 7)):
                moved = [list(row) for row in table]
                moved[i][j] += step
                assert not _has_closed_table(matrix, moved), (d, i, j, step)
        # The matrix with one bound moved: x_1 - x_2 >= a - ell tightened by 1/7.
        rows = [list(row) for row in matrix.entries]
        rows[0][1] += F(1, 7)
        assert not _has_closed_table(TropMatrix.from_rows(rows), table)
        assert not _has_closed_table(isocanted_sni(IsocantedSpec(d, ell, a)), table)


def test_zero_segment_sum_is_box():
    # Degenerate comparison: a box summed with a zero-length segment is the
    # box itself, mirrored here by the oracle on the plain cube.
    h = hrep_from_matrix(cube_vni(2, 2))
    vset = enumerate_vertices_oracle(h)
    corners = {
        (F(0), F(0)), (F(0), F(-2)), (F(-2), F(0)), (F(-2), F(-2)),
    }
    assert set(vset.points) == {tuple(b[k] + F(0) for k in range(2)) for b in corners}


@pytest.mark.parametrize("d", range(2, 8))
def test_verify_unique_vertex_matches_fraction_conditions(d):
    # The grid built on ints with the vertex in its slot column against the
    # Fraction matrix and point, every label, on seeded (edge, cant) pairs
    # whose ratio is 13/k, an integer only for k = 1 (one pair at d = 7).
    rng = random.Random(1600 + d)
    for _ in range(1 if d == 7 else 2):
        ell = F(rng.randint(2, 40), rng.choice((1, 3, 7, 11)))
        spec = IsocantedSpec(d, ell, ell * F(rng.randint(1, 12), 13))
        c = isocanted_vni(spec)
        for w in all_vertex_labels(d):
            expected = unique_vertex_conditions(c, w, isocanted_vertex(spec, w) + (F(0),))
            assert expected is True
            assert verify_unique_vertex(spec, w) == expected, (spec, w)


def test_lone_vertex_helper_fails_a_moved_slot_column():
    # Every valid label passes, so agreement alone cannot catch a helper that
    # always answers True: on the grid with one slot entry moved by 1/7 it
    # must answer as the permutation reference does, which is False here.
    rng = random.Random(1620)
    outcomes = []
    for d in (2, 3, 4):
        spec = IsocantedSpec(d, F(5, 2), F(3, 4))
        c = isocanted_vni(spec)
        for w in all_vertex_labels(d):
            slot = min(set(range(1, d + 2)) - w)
            point = list(isocanted_vertex(spec, w)) + [F(0)]
            point[rng.randrange(d)] += F(1, 7)
            grid, _ = _scaled(c.replace_column(slot, point).entries)
            got = _lone_vertex(grid, sorted(w), slot)
            assert got == reference.unique_vertex_conditions_by_permutations(c, w, point), (d, w)
            outcomes.append(got)
    assert outcomes.count(False) > len(outcomes) // 2
    spec = IsocantedSpec(3, F(2), F(1))
    point = list(isocanted_vertex(spec, {1, 2})) + [F(0)]
    point[0] += F(1, 7)
    grid, _ = _scaled(isocanted_vni(spec).replace_column(3, point).entries)
    assert _lone_vertex(grid, [1, 2], 3) is False



def test_lone_vertex_one_pass_matches_the_per_subset_loop():
    # One assignment program over all rows against the loop over row subsets
    # it replaced: seeded normal matrices with -inf entries and a random
    # candidate in the slot column, d = 1..6, labels of every size from empty
    # to all columns but the slot, some with an entry outside 1..n, plus
    # closed-form vertices and nudged ones.  Same result or same error.
    rng = random.Random(2202)
    pool = [F(0), F(-1), F(-3, 2), F(-2), NEG_INF]
    cases = []
    for d in range(1, 7):
        n = d + 1
        for _ in range(30):
            slot = rng.randint(1, n)
            label = rng.sample([j for j in range(1, n + 1) if j != slot], rng.randint(0, n - 1))
            if rng.random() < 0.15:
                label.append(rng.choice((0, n + 1, n + 2)))
            point = [rng.choice(pool + [F(1, 2)]) for _ in range(n)]
            c = TropMatrix.from_rows(_random_normal(rng, d, pool))
            cases.append((c.replace_column(slot, point), label, slot))
        if d >= 2:
            spec = IsocantedSpec(d, F(5, 2), F(3, 4))
            for w in rng.sample(list(all_vertex_labels(d)), 6):
                slot = min(set(range(1, n + 1)) - w)
                point = list(isocanted_vertex(spec, w)) + [F(0)]
                cases.append((isocanted_vni(spec).replace_column(slot, point), sorted(w), slot))
                point[rng.randrange(d)] += F(1, 7)
                cases.append((isocanted_vni(spec).replace_column(slot, point), sorted(w), slot))
    outcomes = set()
    for c, label, slot in cases:
        grid, _ = _scaled(c.entries)
        got, expected = (
            _unique_vertex_or_error(check, grid, label, slot)
            for check in (_lone_vertex, reference.lone_vertex_by_subsets)
        )
        assert got == expected, (c, label, slot)
        outcomes.add(got if isinstance(got, bool) else got[1].split()[0])
    assert outcomes == {True, False, "column", "row"}


def test_unique_vertex_on_31_rows_stops_at_the_label_size():
    # d = 30: the program reads the masks of at most |w| + 1 of the 31 rows,
    # so nothing it allocates is sized 2^31, and a grid taller than the
    # permanent cap keeps no mask table after the call.
    spec = IsocantedSpec(30, F(2), F(1))
    tracemalloc.start()
    try:
        assert verify_unique_vertex(spec, [1])
        assert verify_unique_vertex(spec, [1, 2])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert 31 not in _LAYERS


def test_unique_vertex_on_6_rows_keeps_its_mask_table():
    _LAYERS.pop(6, None)
    assert verify_unique_vertex(IsocantedSpec(5, F(2), F(1)), [1, 2])
    assert [len(layer) for layer in _LAYERS[6]] == [comb(6, m) for m in range(4)]


def test_verify_unique_vertex_cap_error():
    # d = 10 with a 10-element label needs a minor of order 11.
    with pytest.raises(ValueError, match="^minor order 11 exceeds permanent limit 10$"):
        verify_unique_vertex(IsocantedSpec(10, F(2), F(1)), range(1, 11))


@pytest.mark.parametrize("placement", ["vni", "sni"])
def test_closed_form_vertices_match_per_label_vertices(placement):
    vertex = {"vni": isocanted_vertex, "sni": isocanted_vertex_sni}[placement]
    rng = random.Random(1621)
    for d in range(2, 9):
        spec = IsocantedSpec(d, F(rng.randint(15, 40), 7), F(rng.randint(1, 13), 14))
        got = closed_form_vertices(spec, placement)
        assert list(got.items()) == [(w, vertex(spec, w)) for w in all_vertex_labels(d)]
        assert all(type(v) is F for p in got.values() for v in p)
        # The symmetric placement is the visualized one moved by half an edge.
        half = spec.edge_length / 2
        assert [isocanted_vertex_sni(spec, w) for w in got] == [
            tuple(v + half for v in isocanted_vertex(spec, w)) for w in got
        ]
    with pytest.raises(ValueError, match="^unknown placement 'box'$"):
        closed_form_vertices(HEXAGON, "box")


def test_label_vertices_refuses_a_grid_off_the_closed_form_denominator():
    # The integer vertices of cant 1 against cant 1/2: the set's grid has
    # denominator 1, and the closed-form values need 2.  Then the vertices of
    # ell 3, cant 1/2 (values over 2) shrunk by 2/3, a set over 3 whose
    # integer grid is the values' own: only the denominators tell them apart.
    walked = enumerate_vertices_oracle(hrep_from_matrix(isocanted_vni(IsocantedSpec(3, 2, 1))))
    spec = IsocantedSpec(3, 2, F(1, 2))
    shrunk = IsocantedSpec(3, 3, F(1, 2))
    points = tuple(tuple(v * F(2, 3) for v in p) for p in closed_form_vertices(shrunk).values())
    cases = [(spec, VertexSet(3, walked.points)), (shrunk, VertexSet(3, points))]
    for spec, vset in cases:
        assert vset._grid[1] % _scaled(list(closed_form_vertices(spec).values()))[1]
        with pytest.raises(ValueError, match="^oracle vertices do not match the closed-form vertex map$"):
            label_vertices(spec, vset)


def test_unknown_placement_is_a_value_error():
    from isocant.serialize import build_mesh

    spec = IsocantedSpec(3, F(2), F(1))
    vset = enumerate_vertices_oracle(hrep_from_matrix(isocanted_vni(spec)))
    calls = [
        lambda: closed_form_vertices(spec, "bogus"),
        lambda: poles(spec, "bogus"),
        lambda: label_vertices(spec, vset, "bogus"),
        lambda: build_mesh(spec, "bogus"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^unknown placement 'bogus'$"):
            call()


@pytest.mark.parametrize("placement", ["vni", "sni"])
def test_label_vertices_rejects_moved_and_dropped_points(placement):
    spec = IsocantedSpec(3, F(5, 2), F(3, 4))
    vset = enumerate_vertices_oracle(hrep_from_matrix(PLACEMENTS[placement](spec)))
    points = list(vset.points)
    labeled = label_vertices(spec, VertexSet(3, tuple(reversed(points))), placement)
    assert labeled.label_map == closed_form_vertices(spec, placement)
    moved = [list(p) for p in points]
    moved[5][1] += F(1, 997)  # same size; the grid's denominator changes
    text = "^oracle vertices do not match the closed-form vertex map$"
    # Moved, dropped, replaced by a duplicate, and duplicated (the same set).
    for bad in (moved, points[1:], points[:-1] + points[:1], points + points[:1]):
        with pytest.raises(ValueError, match=text):
            label_vertices(spec, VertexSet(3, tuple(map(tuple, bad))), placement)


def _bound_error(a):
    try:
        hrep_from_matrix(a)
    except ValueError as exc:
        return str(exc)
    return None


def test_hrep_inconsistent_bound_texts_and_order():
    # The check runs on the matrix's integer grid; the message still shows
    # the bounds as Fractions, and single bounds fail before difference bounds,
    # each in index order.
    def matrix(n, **entries):
        rows = [[F(0)] * n for _ in range(n)]
        for key, v in entries.items():
            rows[int(key[1]) - 1][int(key[2]) - 1] = v
        return TropMatrix.from_rows(rows)

    cases = [
        # x_1 and x_2 and x_1 - x_2 all fail: x_1 is reported.
        (matrix(3, e13=F(1, 2), e31=F(1, 3), e23=F(5, 4), e12=F(3, 4), e21=F(1, 6)),
         "inconsistent bounds on x_1: 1/2 > -1/3"),
        # x_2 and x_1 - x_2 fail: the single bound comes first.
        (matrix(3, e23=F(5, 4), e12=F(3, 4), e21=F(1, 6)),
         "inconsistent bounds on x_2: 5/4 > 0"),
        (matrix(3, e12=F(3, 4), e21=F(1, 2)),
         "inconsistent bounds on x_1 - x_2: 3/4 > -1/2"),
        # x_1 - x_3 and x_2 - x_3 fail at d = 3: combination order.
        (matrix(4, e23=F(2), e32=F(-1, 3), e13=F(1, 7), e31=F(-1, 8)),
         "inconsistent bounds on x_1 - x_3: 1/7 > 1/8"),
        (matrix(4, e24=F(-2), e42=F(3)), "inconsistent bounds on x_2: -2 > -3"),
    ]
    for a, text in cases:
        assert _bound_error(a) == text
    # Equal bounds are consistent: a flat polytope, not an error.
    assert _bound_error(matrix(3, e12=F(1, 2), e21=F(-1, 2))) is None
    assert _bound_error(TropMatrix.from_rows([[0, 0], [0, F(1, 2)]])) == "matrix must have zero diagonal"


def _face_counts_or_error(h, vset):
    try:
        return oracle_face_counts(h, vset)
    except ValueError as exc:
        return str(exc)


def _labels_or_error(spec, vset, placement):
    try:
        return label_vertices(spec, vset, placement)
    except ValueError as exc:
        return str(exc)


def _with_loose_bound(h):
    # One more bound on x_1 - x_2, implied by the single bounds and looser by
    # 1/7: the polytope is the same, but the bounds' denominator gains a 7
    # that no vertex has.
    (lo1, hi1), (lo2, hi2) = h.single[:2]
    return HRep(h.d, h.single, h.diff + ((1, 2, lo1 - hi2 - F(1, 7), hi1 - lo2 + F(1, 7)),))


def test_walk_grid_and_hand_built_grid_read_alike():
    # A walk-built VertexSet carries the walk's integer points over the
    # bounds' denominator; a hand-built one scales its points on first read.
    # Face recovery and label matching must not tell them apart, whether the
    # denominators agree or not (label matching reads each set's own grid).
    rng = random.Random(2020)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    seen = {"lcm": 0, "labeled": 0, "empty": 0}
    for d in (2, 3, 4, 5):
        spec = IsocantedSpec(d, rng.choice((F(2), F(5, 2), F(3))), rng.choice((F(1, 2), F(3, 4), F(1))))
        cases = list(_seeded_cases(rng, d, pool)) if d < 5 else []
        cases += [("empty", TropMatrix.from_rows(_empty_rows(rng, d)))]
        cases += [(p, PLACEMENTS[p](spec)) for p in ("vni", "sni")]
        for kind, a in cases:
            h = hrep_from_matrix(a)
            twin, loose = HRep(h.d, h.single, h.diff), _with_loose_bound(h)
            assert h._grid == twin._grid
            walks = [_vertices_or_error(enumerate_vertices_oracle, g) for g in (h, twin, loose)]
            assert walks[0] == walks[1] == walks[2], (kind, a)
            if kind == "empty":
                assert walks[0] == "empty polytope: no feasible vertex found"
                # An empty set has no faces, but still has to have the polytope's dimension.
                assert _face_counts_or_error(h, VertexSet(d, ())) == (0,) * d
                assert _face_counts_or_error(h, VertexSet(d - 1, ())) == f"point dimension {d - 1} != {d}"
                seen["empty"] += 1
                continue
            vset, loose_vset = walks[0], walks[2]
            hand = VertexSet(d, vset.points)
            assert vset == hand == loose_vset
            if loose_vset._grid[1] != hand._grid[1]:
                seen["lcm"] += 1
            counts = {_face_counts_or_error(g, v) for g in (h, twin, loose) for v in (vset, hand, loose_vset)}
            assert counts == {oracle_face_counts(h, vset)}, (kind, a)
            with pytest.raises(ValueError, match=f"^point dimension {d - 1} != {d}$"):
                VertexSet(d, vset.points[:-1] + (vset.points[-1][:-1],))
            short = VertexSet(d - 1, tuple(p[:-1] for p in vset.points))
            assert {_face_counts_or_error(g, short) for g in (h, loose)} == {f"point dimension {d - 1} != {d}"}
            for placement in ("vni", "sni"):
                labeled = {repr(_labels_or_error(spec, v, placement)) for v in (vset, hand, loose_vset)}
                assert len(labeled) == 1, (kind, placement)
                if placement == kind:
                    assert label_vertices(spec, hand, placement).label_map == closed_form_vertices(spec, placement)
                    seen["labeled"] += 1
                else:
                    assert labeled == {repr("oracle vertices do not match the closed-form vertex map")}
    assert seen == {"lcm": 20, "labeled": 8, "empty": 4}


def test_grids_are_scaled_at_most_twice_per_chain(monkeypatch):
    # One polytope op of the benchmark's kind: parse, halfspaces, walk, faces,
    # NI test, decomposition, labels and the symmetry check.  The matrix is
    # scaled once, and label matching scales the four closed-form values.
    from isocant import matrices, serialize, tropical
    from isocant import geometry

    calls = []
    scaled = tropical._scaled

    def counted(grid):
        calls.append(len(grid))
        return scaled(grid)

    for module in (tropical, matrices, geometry):
        monkeypatch.setattr(module, "_scaled", counted, raising=False)
    spec = IsocantedSpec(4, F(5, 2), F(3, 4))
    for placement, budget in (("sni", 2), ("vni", 2), (None, 1)):
        a = PLACEMENTS[placement or "vni"](spec)
        text = {"size": a.n, "entries": [[str(v) for v in row] for row in a.entries]}
        calls.clear()
        a = serialize.matrix_from_json(text)
        h = hrep_from_matrix(a)
        vset = enumerate_vertices_oracle(h)
        assert oracle_face_counts(h, vset) == isocanted_fvector(4)
        assert is_ni(a)
        if placement:
            dec = decompose(a)
            found = IsocantedSpec(4, dec.edge_lengths[0], dec.perturbation.constant_cant())
            label_vertices(found, vset, placement)
            assert central_symmetry_check(a) is (placement == "sni")
        assert len(calls) <= budget, (placement, calls)


def test_isocanted_symmetry_and_unique_vertex_orbits():
    # Permuting 1..d with d+1 fixed maps isocanted_vni to itself entrywise and
    # the vertex of each label to the permuted vertex of the permuted label.
    # So the unique-vertex check depends on a label's orbit only, fixed by its
    # size and by whether it holds d+1: 2d orbits, each one answer.
    rng = random.Random(4)
    for d in range(2, 7):
        spec = IsocantedSpec(d, F(rng.randint(9, 20), 4), F(rng.randint(1, 8), 5))
        labels = list(all_vertex_labels(d))
        if 3 <= d <= 5:
            a = isocanted_vni(spec).entries
            vertex = {w: isocanted_vertex(spec, w) for w in labels}
            for perm in itertools.permutations(range(d)):
                p = perm + (d,)
                assert all(a[p[i]][p[j]] == v for i, row in enumerate(a) for j, v in enumerate(row))
                for w, x in vertex.items():
                    y = vertex[frozenset(p[k - 1] + 1 for k in w)]
                    assert all(y[p[k]] == x[k] for k in range(d))
        orbits = {}
        for w in labels:
            orbits.setdefault((len(w), d + 1 in w), set()).add(verify_unique_vertex(spec, w))
        assert len(orbits) == 2 * d
        assert all(len(answers) == 1 for answers in orbits.values()), orbits
