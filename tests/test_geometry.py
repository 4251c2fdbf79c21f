"""Halfspace systems, the exact vertex oracle, vertex maps, symmetry, zonotopes."""

import itertools
from fractions import Fraction as F

import pytest

from isocant.geometry import (
    ORACLE_DIM_LIMIT,
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
from isocant.combinatorics import isocanted_fvector
from isocant.matrices import (
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
from isocant.tropical import TropMatrix, mat_mul

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
    with pytest.raises(ValueError, match=message):
        central_symmetry_check(isocanted_vni(spec))
    with pytest.raises(ValueError, match=message):
        zonotope_check(spec)


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
    for d in (2, 3):
        spec = IsocantedSpec(d, F(3), F(1))
        h = hrep_from_matrix(isocanted_vni(spec))
        vset = enumerate_vertices_oracle(h)
        assert oracle_face_counts(h, vset) == isocanted_fvector(d)


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


def test_oracle_face_counts_match_affine_rank_reference():
    # Constraint-graph rank against Gaussian elimination on the face vertices,
    # over NI, non-NI and flat (equal-bound) polytopes; all contain the origin.
    import random

    rng = random.Random(4)
    pool = [F(-1, 2), F(-1), F(-3, 2), F(-2), F(-3), F(-7, 3)]
    for d in (2, 3, 4):
        for _ in range(6 if d < 4 else 3):
            nonni = _random_normal(rng, d, pool)
            i, j, k = rng.sample(range(d + 1), 3)
            # a[i][j] < a[i][k] + a[k][j] = 0, so the square differs.
            nonni[i][k] = nonni[k][j] = F(0)
            nonni[i][j] = F(-1)
            flat = _random_normal(rng, d, pool)
            i, j = rng.sample(range(d + 1), 2)
            flat[i][j] = flat[j][i] = F(0)
            cases = (
                ("ni", _kleene_star(_random_normal(rng, d, pool))),
                ("nonni", TropMatrix.from_rows(nonni)),
                ("flat", TropMatrix.from_rows(flat)),
                ("flat", _kleene_star(flat)),
            )
            for kind, a in cases:
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


@pytest.mark.parametrize("d", [2, 3, 4])
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


def test_zonotope_check_small_dimensions():
    assert zonotope_check(IsocantedSpec(2, F(2), F(1)))
    assert zonotope_check(IsocantedSpec(3, F(2), F(1)))
    assert zonotope_check(IsocantedSpec(2, F(5, 2), F(3, 4)))


def test_zero_segment_sum_is_box():
    # Degenerate comparison: a box summed with a zero-length segment is the
    # box itself, mirrored here by the oracle on the plain cube.
    h = hrep_from_matrix(cube_vni(2, 2))
    vset = enumerate_vertices_oracle(h)
    corners = {
        (F(0), F(0)), (F(0), F(-2)), (F(-2), F(0)), (F(-2), F(-2)),
    }
    assert set(vset.points) == {tuple(b[k] + F(0) for k in range(2)) for b in corners}
