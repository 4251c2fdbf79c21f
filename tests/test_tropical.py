"""Semiring arithmetic, tropical products, permanents, minors, conjugation."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from isocant.tropical import (
    NEG_INF,
    MinorEvaluation,
    TropMatrix,
    as_scalar,
    conjugate_diag,
    laplace_terms,
    mat_mul,
    trop_add,
    trop_minor,
    trop_mul,
    trop_permanent,
)

SCALARS = [NEG_INF, F(-2), F(0), F(1, 2), F(1), F(7, 3)]

# Value pools for random grids: small integers with sparse -inf, mixed
# denominators, mostly -inf, and few distinct values (many tied permutations).
GRID_POOLS = [
    [NEG_INF, F(-2), F(-1), F(-1, 2), F(0), F(1)],
    [F(1, 3), F(-2, 5), F(7, 6), F(0), F(-3, 4), NEG_INF],
    [NEG_INF] * 4 + [F(1, 2), F(-5, 3)],
    [F(0), F(1, 2)],
]


def test_trop_add_examples():
    assert trop_add(F(3), F(5)) == F(5)
    assert trop_add(NEG_INF, F(-2)) == F(-2)
    assert trop_add(F(7, 2), F(7, 2)) == F(7, 2)


def test_trop_mul_examples():
    assert trop_mul(F(3), F(5)) == F(8)
    assert trop_mul(NEG_INF, F(4)) is NEG_INF
    for x in SCALARS:
        assert trop_mul(F(0), x) == x or (x is NEG_INF and trop_mul(F(0), x) is NEG_INF)


def test_semiring_axioms_exhaustive():
    for x, y, z in itertools.product(SCALARS, repeat=3):
        assert trop_add(x, y) == trop_add(y, x)
        assert trop_add(trop_add(x, y), z) == trop_add(x, trop_add(y, z))
        assert trop_mul(trop_mul(x, y), z) == trop_mul(x, trop_mul(y, z))
        assert trop_mul(x, trop_add(y, z)) == trop_add(trop_mul(x, y), trop_mul(x, z))
    for x in SCALARS:
        assert trop_add(NEG_INF, x) == x or (x is NEG_INF and trop_add(NEG_INF, x) is NEG_INF)
        assert trop_mul(NEG_INF, x) is NEG_INF
        assert trop_add(x, x) == x


def test_as_scalar_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar(True)


def test_matrix_validation():
    with pytest.raises(ValueError):
        TropMatrix.from_rows([[0]])
    with pytest.raises(ValueError):
        TropMatrix.from_rows([[0, 1], [0, 1], [0, 1]])
    a = TropMatrix.from_rows([[0, -1], [NEG_INF, 0]])
    assert a.entry(2, 1) is NEG_INF
    assert not a.is_finite()
    with pytest.raises(IndexError):
        a.entry(0, 1)


def test_mat_mul_zero_matrix_idempotent():
    zero = TropMatrix.from_rows([[0, 0], [0, 0]])
    assert mat_mul(zero, zero) == zero


def test_mat_mul_size_mismatch():
    a = TropMatrix.from_rows([[0, 0], [0, 0]])
    b = TropMatrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        mat_mul(a, b)


def test_mat_mul_isocanted_idempotent():
    from isocant.matrices import IsocantedSpec, isocanted_vni

    a = isocanted_vni(IsocantedSpec(3, F(2), F(1)))
    assert mat_mul(a, a) == a


def test_mat_mul_perturbed_cube_not_idempotent():
    # One off-diagonal entry pushed up to +1 breaks a triangle inequality.
    from isocant.matrices import cube_vni

    q = cube_vni(3, 1)
    rows = [list(r) for r in q.entries]
    rows[0][1] = F(1)
    a = TropMatrix.from_rows(rows)
    assert mat_mul(a, a) != a


def _random_matrix(rng, n, pool):
    return TropMatrix.from_rows(
        [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
    )


def test_mat_mul_matches_fraction_reference():
    rng = random.Random(31)
    pools = [[NEG_INF, F(-2), F(-1), F(0), F(1, 2), F(1), F(3)], *GRID_POOLS]
    for pool in pools:
        for n in (2, 3, 5):
            a = _random_matrix(rng, n, pool)
            b = _random_matrix(rng, n, pool)
            expected = []
            for i in range(1, n + 1):
                row = []
                for k in range(1, n + 1):
                    best = NEG_INF
                    for j in range(1, n + 1):
                        best = trop_add(best, trop_mul(a.entry(i, j), b.entry(j, k)))
                    row.append(best)
                expected.append(tuple(row))
            assert mat_mul(a, b).entries == tuple(expected)


def test_mat_mul_associative_random():
    rng = random.Random(20240817)
    pool = [NEG_INF, F(-2), F(-1), F(0), F(1, 2), F(1), F(3)]
    for _ in range(30):
        a = _random_matrix(rng, 4, pool)
        b = _random_matrix(rng, 4, pool)
        c = _random_matrix(rng, 4, pool)
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_permanent_zero_matrix():
    zero = TropMatrix.from_rows([[0, 0], [0, 0]])
    assert trop_permanent(zero) == MinorEvaluation(F(0), 2)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("ell,a", [(F(2), F(1)), (F(5, 2), F(3, 4))])
def test_permanent_isocanted_unique_identity(d, ell, a):
    from isocant.matrices import IsocantedSpec, isocanted_vni

    ev = trop_permanent(isocanted_vni(IsocantedSpec(d, ell, a)))
    assert ev.value == 0
    assert ev.multiplicity == 1


def _brute_force_permanent(grid):
    """Independent recount over all permutations, the oracle for multiplicities."""
    values = []
    for perm in itertools.permutations(range(len(grid))):
        total = F(0)
        dead = False
        for r, c in enumerate(perm):
            v = grid[r][c]
            if v is NEG_INF:
                dead = True
                break
            total += v
        values.append(None if dead else total)
    finite = [v for v in values if v is not None]
    if not finite:
        return NEG_INF, len(values)
    best = max(finite)
    return best, sum(1 for v in finite if v == best)


def test_permanent_multiplicity_matches_brute_force():
    rng = random.Random(7)
    for n in [2, 3, 4, 5, 6, 7]:
        grids = [
            [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            for pool in GRID_POOLS
            for _ in range(3 if n < 7 else 1)
        ]
        # All -inf and all equal: every permutation attains the maximum.
        ties = [[[NEG_INF] * n for _ in range(n)], [[F(-2, 3)] * n for _ in range(n)]]
        for grid in grids + ties:
            value, mult = _brute_force_permanent(grid)
            ev = trop_permanent(TropMatrix.from_rows(grid))
            assert ev.value == value
            assert ev.multiplicity == mult
        for grid in ties:
            assert trop_permanent(TropMatrix.from_rows(grid)).multiplicity == math.factorial(n)


def test_permanent_size_limit():
    big = TropMatrix.from_rows([[0] * 11 for _ in range(11)])
    with pytest.raises(ValueError, match="^matrix size 11 exceeds permanent limit 10$"):
        trop_permanent(big)
    at_cap = TropMatrix.from_rows([[0] * 10 for _ in range(10)])
    assert trop_permanent(at_cap) == MinorEvaluation(F(0), math.factorial(10))
    full = range(1, 12)
    message = "^minor order 11 exceeds permanent limit 10$"
    with pytest.raises(ValueError, match=message):
        trop_minor(big, full, full)
    with pytest.raises(ValueError, match=message):
        laplace_terms(big, full, full, 1)


def test_minor_ragged_selection():
    a = TropMatrix.from_rows([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        trop_minor(a, [1, 2], [1])
    with pytest.raises(ValueError):
        trop_minor(a, [1], [3])


def _isocanted_case1_value(r, w, ell, a):
    # Columns avoid the last index: one zero per labeled or last row, the rest
    # pay the canted difference bound once each.
    h = len(set(r) - (set(w) | {6}))
    return h * (-ell + a)


def _isocanted_case2_value(r, w, ell, a):
    # Columns include the last index: its column costs the full edge unless
    # the last row is available, and each unlabeled leftover row pays the
    # canted bound.
    h1 = 0 if 6 in r else 1
    h2 = len(set(r) - set(w)) - h1
    return h1 * (-ell) + h2 * (-ell + a)


@pytest.mark.parametrize("ell,a", [(F(2), F(1)), (F(5, 2), F(3, 4))])
def test_minor_values_isocanted_d5(ell, a):
    from isocant.matrices import IsocantedSpec, isocanted_vni

    c = isocanted_vni(IsocantedSpec(5, ell, a))
    universe = range(1, 7)
    for j in range(1, 6):
        for w in itertools.combinations(universe, j):
            for r in itertools.combinations(universe, j):
                got = trop_minor(c, r, w).value
                if 6 not in w:
                    assert got == _isocanted_case1_value(r, w, ell, a)
                else:
                    assert got == _isocanted_case2_value(r, w, ell, a)
                    # The looser bookkeeping that drops the largest row index
                    # agrees exactly when that index is 6 or lies outside w.
                    if 6 in r or max(r) not in w:
                        h1 = 0 if 6 in r else 1
                        h2 = len(set(sorted(r)[:-1]) - set(w))
                        assert got == h1 * (-ell) + h2 * (-ell + a)


def test_laplace_terms_single_entry():
    a = TropMatrix.from_rows([[0, -1], [-2, 0]])
    assert laplace_terms(a, [2], [1], 1) == [F(-2)]


def test_laplace_max_equals_minor():
    rng = random.Random(99)
    for pool in [[NEG_INF, F(-2), F(-1), F(0), F(1)], *GRID_POOLS]:
        for _ in range(20):
            m = _random_matrix(rng, 6, pool)
            k = rng.randint(1, 6)
            rows = sorted(rng.sample(range(1, 7), k))
            cols = sorted(rng.sample(range(1, 7), k))
            exp = rng.choice(cols)
            terms = laplace_terms(m, rows, cols, exp)
            best = NEG_INF
            for t in terms:
                best = trop_add(best, t)
            assert best == trop_minor(m, rows, cols).value
            # Term by term against brute-force complementary minors.
            others = [c for c in cols if c != exp]
            expected = [
                trop_mul(
                    m.entry(i, exp),
                    _brute_force_permanent(
                        [[m.entry(r, c) for c in others] for r in rows if r != i]
                    )[0],
                )
                for i in rows
            ]
            assert terms == expected


def test_laplace_requires_expansion_column_in_selection():
    a = TropMatrix.from_rows([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        laplace_terms(a, [1, 2], [1, 2], 3)


def test_conjugate_diag_identity_and_inverse():
    from isocant.matrices import IsocantedSpec, isocanted_vni

    a = isocanted_vni(IsocantedSpec(3, F(2), F(1)))
    assert conjugate_diag(a, [0, 0, 0, 0]) == a
    shifts = [F(1, 2), F(-1), F(2), F(0)]
    back = [-s for s in shifts]
    assert conjugate_diag(conjugate_diag(a, shifts), back) == a


def test_conjugate_diag_validation():
    a = TropMatrix.from_rows([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        conjugate_diag(a, [0, 1])
    with pytest.raises(ValueError):
        conjugate_diag(a, [0])
    with pytest.raises(ValueError):
        conjugate_diag(a, [NEG_INF, 0])


def test_conjugate_maps_vni_box_to_sni_box():
    from isocant.matrices import box_sni, box_vni

    lengths = [F(1), F(2), F(3)]
    diag = [v / 2 for v in lengths] + [F(0)]
    assert conjugate_diag(box_vni(lengths), diag) == box_sni(lengths)
