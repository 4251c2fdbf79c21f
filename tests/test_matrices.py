"""Matrix classes, constructors, decomposition and the isocanted predicate."""

import random
import re
from fractions import Fraction as F

import pytest

from isocant.geometry import HRep, VertexSet
from isocant.matrices import (
    IsocantedSpec,
    PerturbationMatrix,
    apply_perturbation,
    box_sni,
    box_vni,
    cube_sni,
    cube_vni,
    decompose,
    is_isocanted,
    is_ni,
    is_normal,
    is_sni,
    is_vni,
    isocanted_box_vni,
    isocanted_sni,
    isocanted_vni,
)
from isocant.tropical import NEG_INF, TropMatrix, conjugate_diag

import reference


def test_box_vni_entries():
    b = box_vni([F(1), F(2), F(3)])
    assert b.n == 4
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j or i == 4:
                assert b.entry(i, j) == 0
            else:
                assert b.entry(i, j) == -F(i)


def test_cube_vni_d2_entries():
    q = cube_vni(2, 1)
    assert q.entries == ((F(0), F(-1), F(-1)), (F(-1), F(0), F(-1)), (F(0), F(0), F(0)))


def test_box_sni_entry_table():
    lengths = [F(1), F(2), F(3)]
    c = box_sni(lengths)
    for i in range(1, 4):
        assert c.entry(i, 4) == -lengths[i - 1] / 2
        assert c.entry(4, i) == -lengths[i - 1] / 2
        for j in range(1, 4):
            if i != j:
                assert c.entry(i, j) == (-lengths[i - 1] - lengths[j - 1]) / 2
    assert all(c.entry(i, i) == 0 for i in range(1, 5))


def test_box_class_flags():
    assert is_vni(box_vni([F(1), F(2), F(3)]))
    assert is_sni(box_sni([F(1), F(2), F(3)]))
    assert is_ni(cube_sni(3, 2)) and is_ni(cube_vni(3, 2))
    assert not is_sni(box_vni([F(1), F(2), F(3)]))


def test_constructors_reject_bad_lengths():
    with pytest.raises(ValueError):
        box_vni([F(1), F(0)])
    with pytest.raises(ValueError):
        box_sni([])
    with pytest.raises(ValueError):
        cube_vni(2, -1)
    for cube in (cube_vni, cube_sni):
        with pytest.raises(ValueError, match="^at least one edge length is required$"):
            cube(0, 2)


def test_class_implication_chain():
    samples = [
        box_vni([F(1), F(2)]),
        box_sni([F(3), F(1)]),
        isocanted_vni(IsocantedSpec(3, F(2), F(1))),
        isocanted_sni(IsocantedSpec(4, F(3), F(1, 2))),
    ]
    for a in samples:
        if is_vni(a) or is_sni(a):
            assert is_ni(a)
        if is_ni(a):
            assert is_normal(a)


def test_isocanted_spec_validation():
    # The dimension is checked by the label layer's rule, with its text.
    for d in (1, True, False, 3.0, "3", None):
        with pytest.raises(ValueError, match="^dimension must be an integer >= 2$"):
            IsocantedSpec(d, F(2), F(1))
    with pytest.raises(ValueError):
        IsocantedSpec(3, F(2), F(2))
    with pytest.raises(ValueError):
        IsocantedSpec(3, F(2), F(0))
    spec = IsocantedSpec(3, 2, "1/2")
    assert spec.edge_length == F(2) and spec.cant == F(1, 2)


@pytest.mark.parametrize("cube", [cube_vni, cube_sni])
@pytest.mark.parametrize("d", [True, False, 2.0, "2", None])
def test_cube_dimension_must_be_an_int(cube, d):
    with pytest.raises(TypeError, match=f"^cube dimension must be an int, got {re.escape(repr(d))}$"):
        cube(d, 2)


# Every matrix builder and record that takes user numbers, with one argument
# replaced by a float or a bool that ``Fraction()`` alone would accept silently.
INEXACT_CALLS = [
    ("box_vni", lambda v: box_vni([2, v]), 0.5, True),
    ("box_sni", lambda v: box_sni([v, 2]), 0.5, True),
    ("cube_vni", lambda v: cube_vni(3, v), 0.5, True),
    ("cube_sni", lambda v: cube_sni(3, v), 0.5, True),
    ("isocanted_box_vni_length", lambda v: isocanted_box_vni([v, 2], F(1, 4)), 0.5, True),
    ("isocanted_box_vni_cant", lambda v: isocanted_box_vni([2, 2], v), 0.5, True),
    ("perturbation_from_rows",
     lambda v: PerturbationMatrix.from_rows([[0, v, 0], [0, 0, 0], [0, 0, 0]]), -0.5, False),
    ("perturbation_constant", lambda v: PerturbationMatrix.constant(3, v), 0.5, True),
    ("perturbation_constructor", lambda v: PerturbationMatrix(((0, v), (0, 0))), 0.0, False),
    ("trop_matrix_constructor", lambda v: TropMatrix(((0, v), (-1, 0))), 0.5, True),
    ("isocanted_spec_edge_length", lambda v: IsocantedSpec(3, v, F(1, 2)), 1.5, True),
    ("isocanted_spec_cant", lambda v: IsocantedSpec(3, F(2), v), 0.5, True),
    # A float bound once built an HRep whose walk then failed with an
    # AttributeError, and a bool bound was walked as 1.
    ("hrep_single", lambda v: HRep(2, ((v, F(1)), (F(0), F(1))), ()), 0.0, True),
    ("hrep_diff", lambda v: HRep(2, ((F(0), F(1)),) * 2, ((1, 2, v, F(1)),)), 0.5, True),
    ("vertex_set", lambda v: VertexSet(2, ((F(0), F(1)), (v, F(1)))), 0.5, True),
    # A float or bool point coordinate was once compared as it stood:
    # contains((0.5, 0)) returned True.
    ("hrep_contains", lambda v: HRep(2, ((0, 1), (0, 1)), ()).contains((v, 0)), 0.5, True),
    ("hrep_tight_rank", lambda v: HRep(2, ((0, 1), (0, 1)), ()).tight_rank((v, 0)), 0.5, True),
    # A float or bool label point once built, and hash() then failed on a list point.
    ("vertex_set_label", lambda v: VertexSet(1, ((F(0),),), ((frozenset({1}), [v]),)), 0.5, True),
]


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{name}-{type(value).__name__}")
    for name, call, *values in INEXACT_CALLS
    for value in values
])
def test_builders_reject_floats_and_bools(call, value):
    if isinstance(value, bool):
        message = "^bool is not a tropical scalar$"
    else:
        message = f"^tropical scalars are exact rationals or -inf, got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=message):
        call(value)


@pytest.mark.parametrize("i, j", [(0, 1), (4, 1), (1, 0), (1, 4)])
def test_perturbation_entry_bounds(i, j):
    p = PerturbationMatrix.constant(3, 1)
    assert p.entry(1, 2) == -1 and p.entry(3, 3) == 0
    with pytest.raises(IndexError, match=re.escape(f"index ({i}, {j}) out of range for size 3")):
        p.entry(i, j)


def test_isocanted_vni_entry_table():
    spec = IsocantedSpec(5, F(2), F(1))
    c = isocanted_vni(spec)
    n = 6
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or i == n:
                assert c.entry(i, j) == 0
            elif j == n:
                assert c.entry(i, j) == -2
            else:
                assert c.entry(i, j) == -1
    assert is_vni(c)
    assert is_ni(isocanted_sni(spec)) and is_sni(isocanted_sni(spec))


def test_isocanted_matches_perturbed_cube():
    spec = IsocantedSpec(4, F(5, 2), F(3, 4))
    e = PerturbationMatrix.constant(5, spec.cant)
    assert isocanted_vni(spec) == apply_perturbation(cube_vni(4, spec.edge_length), e)
    assert isocanted_sni(spec) == apply_perturbation(cube_sni(4, spec.edge_length), e)


def test_zero_cant_limit_is_cube():
    # The constructor rejects cant = 0; the entry table then degenerates to
    # the plain cube, checked via a direct zero perturbation.
    q = apply_perturbation(cube_vni(3, 2), PerturbationMatrix.constant(4, 0))
    assert q == cube_vni(3, 2)


def test_boundary_cant_behavior():
    # cant = edge_length is rejected by the constructor.  The raw entry table
    # at that boundary still satisfies the normal-idempotent definition; the
    # degeneracy is geometric (the polytope loses dimension), so the class
    # predicate alone cannot exclude it.
    with pytest.raises(ValueError):
        IsocantedSpec(3, F(1), F(1))
    rows = [[0 if (i == j or i == 3) else (0 if j != 3 else -1) for j in range(4)] for i in range(4)]
    boundary = TropMatrix.from_rows(rows)
    assert is_ni(boundary)
    from isocant.geometry import enumerate_vertices_oracle, hrep_from_matrix

    vset = enumerate_vertices_oracle(hrep_from_matrix(boundary))
    assert len(vset) == 2  # a segment, far fewer than the 14 isocanted vertices


def test_above_boundary_cant_not_normal():
    rows = [
        [0, F(1, 2), -1],
        [F(1, 2), 0, -1],
        [0, 0, 0],
    ]
    assert not is_normal(TropMatrix.from_rows(rows))


def test_perturbation_validation():
    for rows in ([[0]], [[0, 0], [0]], [[0, 0, 0], [0, 0, 0]]):
        with pytest.raises(ValueError, match="^perturbation matrix must be square, size >= 2$"):
            PerturbationMatrix.from_rows(rows)
    with pytest.raises(ValueError, match="^cant must be non-negative$"):
        PerturbationMatrix.constant(3, -1)
    with pytest.raises(ValueError):
        PerturbationMatrix.from_rows([[0, -1], [0, 0]])  # nonzero last column
    with pytest.raises(ValueError):
        PerturbationMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    e = PerturbationMatrix.constant(4, F(1, 2))
    assert e.constant_cant() == F(1, 2)
    assert PerturbationMatrix.constant(4, 0).constant_cant() is None
    # The constructor itself makes ints exact, as from_rows does.
    ints = PerturbationMatrix(((0, 0, 0), (-1, 0, 0), (0, 0, 0)))
    assert ints == PerturbationMatrix.from_rows([[0, 0, 0], [F(-1), 0, 0], [0, 0, 0]])
    assert all(type(v) is F for row in ints.entries for v in row)
    # List rows are copied into tuples, so the record hashes like its twin.
    lists = PerturbationMatrix([[F(0), F(0), F(0)], [F(-1), F(0), F(0)], [F(0), F(0), F(0)]])
    assert lists == ints and hash(lists) == hash(ints)
    assert all(type(row) is tuple for row in lists.entries)


def test_decompose_isocanted():
    spec = IsocantedSpec(4, F(3), F(1))
    dec = decompose(isocanted_vni(spec))
    assert dec.box == cube_vni(4, 3)
    assert dec.perturbation == PerturbationMatrix.constant(5, 1)
    assert dec.edge_lengths == (F(3),) * 4


def test_decompose_box_gives_zero_perturbation():
    dec = decompose(box_vni([F(1), F(2), F(3)]))
    assert dec.perturbation.is_zero()
    assert dec.box == box_vni([F(1), F(2), F(3)])


def test_decompose_requires_ni():
    bad = TropMatrix.from_rows([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        decompose(bad)


def test_decompose_rejects_degenerate_box():
    # All-zeros is NI (its polytope is the origin) but has no box part with
    # positive edge lengths.
    flat = TropMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert is_ni(flat)
    with pytest.raises(ValueError):
        decompose(flat)


def test_decompose_reconstruction_randomized():
    rng = random.Random(431)
    lengths_pool = [F(1), F(3, 2), F(2), F(5, 2), F(3)]
    pert_pool = [F(0), F(-1, 8), F(-1, 4), F(-1, 3), F(-1, 2)]
    shift_pool = [F(0), F(1, 8), F(1, 4), F(1, 2)]
    for _ in range(200):
        d = rng.randint(2, 5)
        lengths = [rng.choice(lengths_pool) for _ in range(d)]
        box = box_vni(lengths)
        shifts = [rng.choice(shift_pool) for _ in range(d)] + [F(0)]
        box = conjugate_diag(box, shifts)
        n = d + 1
        rows = [
            [
                rng.choice(pert_pool) if (i != j and i != n - 1 and j != n - 1) else F(0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        pert = PerturbationMatrix.from_rows(rows)
        a = apply_perturbation(box, pert)
        assert is_ni(a)
        dec = decompose(a)
        assert dec.box == box
        assert dec.perturbation == pert
        assert apply_perturbation(dec.box, dec.perturbation) == a


#: Positive rationals with denominators 1, 2, 3 and 7: lengths from 1 to 3,
#: shifts and cants below 1/2.
_LENGTHS = sorted({F(k, q) for q in (1, 2, 3, 7) for k in range(q, 3 * q + 1)})
_SMALL = sorted({F(k, q) for q in (1, 2, 3, 7) for k in range(1, q) if F(k, q) <= F(1, 2)})


def test_constructors_match_reference_tables():
    rng = random.Random(1307)
    for d in range(2, 10):
        n = d + 1
        for _ in range(8):
            ls = [rng.choice(_LENGTHS) for _ in range(d)]
            ell = rng.choice(_LENGTHS)
            assert box_vni(ls) == reference.box_vni_table(ls)
            assert box_sni(ls) == reference.box_sni_table(ls)
            assert cube_vni(d, ell) == reference.box_vni_table([ell] * d)
            assert cube_sni(d, ell) == reference.box_sni_table([ell] * d)
            for cant in rng.sample(_SMALL, 3) + [min(ls + [ell]) - F(1, 7)]:
                e = PerturbationMatrix.constant(n, cant)
                iso = isocanted_box_vni(ls, cant)
                assert iso == apply_perturbation(reference.box_vni_table(ls), e)
                spec = IsocantedSpec(d, ell, cant)
                vni = isocanted_vni(spec)
                assert vni == reference.isocanted_vni_table(ell, cant, n)
                assert vni == apply_perturbation(reference.box_vni_table([ell] * d), e)
                assert isocanted_sni(spec) == apply_perturbation(
                    reference.box_sni_table([ell] * d), e
                )


def test_decompose_box_matches_reference_table():
    rng = random.Random(1308)
    perts = [F(0)] + [-v for v in _SMALL]
    for d in range(2, 10):
        n = d + 1
        for _ in range(8):
            ls = [rng.choice(_LENGTHS) for _ in range(d)]
            shifts = [rng.choice([F(0)] + _SMALL) for _ in range(d)] + [F(0)]
            box = reference.decompose_box_table(ls, shifts)
            assert box == conjugate_diag(reference.box_vni_table(ls), shifts)
            cant = rng.choice(_SMALL)
            canted = conjugate_diag(isocanted_box_vni(ls, cant), shifts)
            dec = decompose(canted)
            assert dec.box == box
            assert dec.perturbation == PerturbationMatrix.constant(n, cant)
            assert apply_perturbation(box, PerturbationMatrix.constant(n, cant)) == canted
            pert = PerturbationMatrix.from_rows(
                [
                    [rng.choice(perts) if i != j and i < d and j < d else F(0) for j in range(n)]
                    for i in range(n)
                ]
            )
            a = apply_perturbation(box, pert)
            assert is_ni(a)
            dec = decompose(a)
            assert dec.box == box and dec.perturbation == pert
            assert dec.edge_lengths == tuple(ls)


def test_perturbation_invariant_under_conjugation():
    spec = IsocantedSpec(3, F(2), F(1))
    a = isocanted_vni(spec)
    base = decompose(a).perturbation
    rng = random.Random(77)
    pool = [F(0), F(1, 8), F(1, 4), F(3, 8)]
    for _ in range(50):
        shifts = [rng.choice(pool) for _ in range(3)] + [F(0)]
        conj = conjugate_diag(a, shifts)
        assert is_ni(conj)
        assert decompose(conj).perturbation == base


def test_is_isocanted_round_trip():
    assert is_isocanted(isocanted_sni(IsocantedSpec(3, F(2), F(1, 2)))) == F(1, 2)
    assert is_isocanted(isocanted_vni(IsocantedSpec(2, F(2), F(1)))) == F(1)
    assert is_isocanted(box_vni([F(1), F(2)])) is None


def test_is_isocanted_rejects_mixed_cants():
    # Cant two codimension-2 faces of a cube by different depths: still NI,
    # but the perturbation is not constant.
    q = cube_vni(3, 2)
    rows = [list(r) for r in q.entries]
    rows[0][1] = F(-2) + F(1, 2)
    rows[1][2] = F(-2) + F(1, 4)
    a = TropMatrix.from_rows(rows)
    assert is_ni(a)
    assert is_isocanted(a) is None


def test_extended_mixed_length_constructor():
    a = isocanted_box_vni([F(2), F(3), F(5, 2)], F(1, 2))
    assert is_ni(a) and is_vni(a)
    assert is_isocanted(a) == F(1, 2)
    with pytest.raises(ValueError):
        isocanted_box_vni([F(2), F(1)], F(1))


def test_apply_perturbation_size_mismatch():
    with pytest.raises(ValueError):
        apply_perturbation(cube_vni(2, 1), PerturbationMatrix.constant(4, 0))


def test_predicates_require_finite_entries():
    a = TropMatrix.from_rows([[0, NEG_INF], [0, 0]])
    with pytest.raises(ValueError):
        is_normal(a)


def _closure(rows):
    """Kleene star of a normal matrix by Floyd-Warshall on its entries."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rows[i][j] = max(rows[i][j], rows[i][k] + rows[k][j])
    return rows


def _violated_triangles(rows):
    n = len(rows)
    return [
        (i, k, j)
        for i in range(n) for k in range(n) for j in range(n)
        if rows[i][k] + rows[k][j] > rows[i][j]
    ]


def _box_minus_perturbation(rng, n, placement):
    d = n - 1
    ls = [rng.choice(_LENGTHS) for _ in range(d)]
    if placement == "vni":
        shifts = [F(0)] * n
    elif placement == "sni":
        shifts = [v / 2 for v in ls] + [F(0)]
    else:
        shifts = [rng.choice([F(0)] + _SMALL) for _ in range(d)] + [F(0)]
    pert = [[F(0)] * n for _ in range(n)]
    for i in range(d):
        for j in range(i + 1, d):
            pert[i][j] = -rng.choice([F(0)] + _SMALL)
            pert[j][i] = pert[i][j] if placement == "sni" else -rng.choice([F(0)] + _SMALL)
    box = conjugate_diag(box_vni(ls), shifts)
    return apply_perturbation(box, PerturbationMatrix.from_rows(pert))


def _one_violated_triangle(rng, n):
    """A normal matrix failing exactly one triangle ``a[i,k] + a[k,j] <= a[i,j]``.

    Off-diagonal entries ``-1 - e`` with ``0 < e < 1/2`` make every triangle
    strict; ``a[i,j]`` then drops just below the largest ``a[i,k] + a[k,j]``.
    """
    while True:
        rows = [[F(0) if i == j else -1 - F(rng.randint(1, 96), 193) for j in range(n)] for i in range(n)]
        i, j = rng.sample(range(n), 2)
        sums = sorted(rows[i][k] + rows[k][j] for k in range(n) if k not in (i, j))
        gap = sums[-1] - sums[-2] if len(sums) > 1 else F(1)
        if gap:
            rows[i][j] = sums[-1] - gap / 2
            return rows


def _flat(rng, n):
    """Normal rows with one pair of equal bounds ``a[i,j] = a[j,i] = 0``."""
    rows = [[F(0) if i == j else -rng.choice(_LENGTHS) for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    rows[i][j] = rows[j][i] = F(0)
    return rows


def _class_outcome(predicate, a):
    try:
        return predicate(a)
    except ValueError as exc:
        return "ValueError", str(exc)



def test_is_normal_verdicts_on_seeded_matrices():
    # is_normal reads signs off the cached int grid (the matrix times the lcm
    # of its denominators): the same verdicts as the entrywise definition on
    # normal matrices with mixed denominators, some with one entry moved a
    # hair past 0, and the finite-entry error first.
    rng = random.Random(2203)
    pool = [F(0), F(-1, 3), F(-5, 7), F(-2), F(-1, 1000)]
    seen = set()
    for _ in range(300):
        n = rng.randint(2, 7)
        rows = [[F(0) if i == j else rng.choice(pool) for j in range(n)] for i in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rng.choice((rows[i][j], F(1, 1000), F(-1, 1000), F(3, 2), NEG_INF))
        a = TropMatrix.from_rows(rows)
        got = _class_outcome(is_normal, a)
        assert got == _class_outcome(reference.is_normal, a), rows
        seen.add(got if isinstance(got, bool) else got[1])
    assert seen == {True, False, "matrix must have finite entries"}

def test_class_predicates_match_product_definition():
    # The integer triangle test and the cheap vni/sni pre-checks against the
    # definitions through the tropical square, on seeded inputs of size 2..10.
    rng = random.Random(1313)
    predicates = [
        (is_normal, reference.is_normal),
        (is_ni, reference.is_ni),
        (is_vni, reference.is_vni),
        (is_sni, reference.is_sni),
    ]
    seen = {}
    for n in range(2, 11):
        for _ in range(6):
            cases = [("ni", _box_minus_perturbation(rng, n, p)) for p in ("vni", "sni", "any")]
            nonnormal = [list(r) for r in rng.choice(cases)[1].entries]
            i, j = rng.randrange(n), rng.randrange(n)
            nonnormal[i][j] = rng.choice([F(1, 3), F(2)]) if i != j else rng.choice([F(-1, 3), F(1)])
            cases.append(("nonnormal", TropMatrix.from_rows(nonnormal)))
            if n >= 3:
                rows = _one_violated_triangle(rng, n)
                assert len(_violated_triangles(rows)) == 1
                cases.append(("one_triangle", TropMatrix.from_rows(rows)))
                cases.append(("ni", TropMatrix.from_rows(_closure(rows))))
            flat = _flat(rng, n)
            cases.append(("flat", TropMatrix.from_rows(flat)))
            cases.append(("flat_ni", TropMatrix.from_rows(_closure(flat))))
            dead = [list(r) for r in rng.choice(cases)[1].entries]
            dead[rng.randrange(n)][rng.randrange(n)] = NEG_INF
            cases.append(("neg_inf", TropMatrix.from_rows(dead)))
            for kind, a in cases:
                got = tuple(_class_outcome(p, a) for p, _ in predicates)
                assert got == tuple(_class_outcome(r, a) for _, r in predicates), (kind, a)
                seen.setdefault(kind, set()).add(got)
    assert seen["neg_inf"] == {(("ValueError", "matrix must have finite entries"),) * 4}
    assert all(flags[1] for flags in seen["ni"] | seen["flat_ni"])
    assert {flags[2] for flags in seen["ni"]} == {flags[3] for flags in seen["ni"]} == {True, False}
    assert seen["one_triangle"] == {(True, False, False, False)}
    assert {flags[0] for flags in seen["nonnormal"]} == {False}
    assert {flags[1] for flags in seen["flat"]} == {True, False}


def _decompose_outcome(split, a):
    try:
        return split(a)
    except ValueError as exc:
        return "ValueError", str(exc)


def test_decompose_matches_fraction_reference():
    # The split on the integer grid against the Fraction body it replaced, on
    # seeded NI matrices of size 2..10: equal results, every entry a Fraction.
    rng = random.Random(1616)
    seen = set()
    for n in range(2, 11):
        d = n - 1
        for _ in range(4):
            ls = [rng.choice(_LENGTHS) for _ in range(d)]
            shifts = [rng.choice([F(0)] + _SMALL) for _ in range(d)] + [F(0)]
            cases = [
                ("box", box_vni(ls)),
                ("shifted", conjugate_diag(box_vni(ls), shifts)),
                ("perturbed", _box_minus_perturbation(rng, n, "any")),
            ]
            if d >= 2:
                cant = rng.choice(_SMALL)
                spec = IsocantedSpec(d, rng.choice(_LENGTHS), cant)
                cases.append(("isocanted", rng.choice((isocanted_vni, isocanted_sni))(spec)))
                cases.append(("mixed_length", conjugate_diag(isocanted_box_vni(ls, cant), shifts)))
            for kind, a in cases:
                dec = decompose(a)
                assert dec == reference.decompose(a), (kind, a)
                parts = (dec.box.entries, dec.perturbation.entries)
                assert all(type(v) is F for part in parts for row in part for v in row)
                seen.add(kind)
    assert seen == {"box", "shifted", "perturbed", "isocanted", "mixed_length"}


def test_decompose_errors_match_fraction_reference():
    # Not NI (not normal, then one failed triangle), a zero edge length (all
    # of them, then one) and a -inf entry.
    not_ni = "decomposition requires a normal idempotent matrix"
    flat = "degenerate bounding box: non-positive edge length"
    cases = [
        ([[0, 1], [0, 0]], not_ni),
        (_one_violated_triangle(random.Random(1617), 4), not_ni),
        ([[0, 0, 0]] * 3, flat),
        ([[0, -1, -1], [0, 0, 0], [0, 0, 0]], flat),
        ([[0, NEG_INF], [0, 0]], "matrix must have finite entries"),
    ]
    for rows, text in cases:
        a = TropMatrix.from_rows(rows)
        assert _decompose_outcome(decompose, a) == ("ValueError", text), a
        assert _decompose_outcome(reference.decompose, a) == ("ValueError", text), a
        with pytest.raises(ValueError):
            is_isocanted(a)


def test_perturbation_errors_match_fraction_comparisons():
    # The numerator checks name the same first misplaced entry, row by row,
    # as the Fraction comparisons they replaced.
    rng = random.Random(1618)
    pool = [F(0), F(-1, 3), F(-2), F(1, 7), F(3)]
    outcomes = set()
    for _ in range(400):
        n = rng.randint(2, 5)
        rows = [
            [F(0) if i == j or n - 1 in (i, j) else -rng.choice(_SMALL) for j in range(n)]
            for i in range(n)
        ]
        for _ in range(rng.randint(0, 2)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(pool)
        expected = reference.perturbation_error(rows)
        try:
            PerturbationMatrix.from_rows(rows)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected, rows
        outcomes.add(got)
    assert len(outcomes) == 3


def _free_entries_reference(p):
    # The comparison loop constant_cant used before it counted by identity.
    n = p.n
    free = [p.entries[i][j] for i in range(n - 1) for j in range(n - 1) if i != j]
    if not free or free[0] >= 0 or any(v != free[0] for v in free):
        return None
    return -free[0]


def test_constant_cant_on_equal_distinct_and_mixed_entries():
    for n in range(2, 8):
        # Equal values as distinct Fraction objects: the count falls back to
        # equality where identity does not hold.
        rows = [
            [F(0) if i == j or n - 1 in (i, j) else F(-3 * (i + j + 1), 2 * (i + j + 1)) for j in range(n)]
            for i in range(n)
        ]
        free = [v for i, row in enumerate(rows[:-1]) for j, v in enumerate(row[:-1]) if i != j]
        assert len({id(v) for v in free}) == len(free)
        equal = PerturbationMatrix.from_rows(rows)
        zero = PerturbationMatrix.constant(n, 0)
        assert equal.constant_cant() == _free_entries_reference(equal)
        assert zero.constant_cant() is _free_entries_reference(zero) is None
        if n == 2:
            assert equal.constant_cant() is None  # no free entry
        else:
            cant = equal.constant_cant()
            assert cant == F(3, 2) and type(cant) is F
        if n > 3:
            # One free entry off by 1/7, then one set to zero.
            for value in (F(-3, 2) - F(1, 7), F(0)):
                moved = [list(row) for row in rows]
                moved[n - 2][0] = value
                p = PerturbationMatrix.from_rows(moved)
                assert p.constant_cant() is _free_entries_reference(p) is None
    # Decomposed isocanted matrices share one object per value.
    spec = IsocantedSpec(6, F(7, 2), F(1, 3))
    for a in (isocanted_vni(spec), conjugate_diag(isocanted_sni(spec), [F(k, 5) for k in range(6)] + [0])):
        p = decompose(a).perturbation
        assert p.constant_cant() == _free_entries_reference(p) == F(1, 3)
        assert is_isocanted(a) == F(1, 3)
