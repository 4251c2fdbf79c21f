"""Semiring arithmetic, tropical products, permanents, minors, conjugation."""

import itertools
import math
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import isocant
import reference
from isocant.tropical import (
    NEG_INF,
    MinorEvaluation,
    TropMatrix,
    _assignments,
    _layers,
    _scaled,
    _unscaled,
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


def test_constructor_makes_entries_exact():
    # Entries are checked when the record is built, not when an integer path
    # first reads their numerators; floats and bools are refused there too
    # (``test_builders_reject_floats_and_bools``).
    a = TropMatrix(((0, -1), (NEG_INF, 0)))
    assert a.entries == ((F(0), F(-1)), (NEG_INF, F(0)))
    assert all(type(v) is F for v in (a.entries[0] + a.entries[1][1:]))
    assert a == TropMatrix.from_rows([[0, -1], [NEG_INF, 0]])
    with pytest.raises(TypeError):
        TropMatrix.from_rows([[0, 0.5], [-1, 0]])


def test_constructor_makes_rows_tuples():
    # List rows are copied into tuples: the record hashes and equals its
    # ``from_rows`` twin.
    for rows in ([[F(0), F(0)], [F(0), F(0)]], [(F(0), NEG_INF), [F(1), F(0)]], ([F(0), F(0)], (F(0), F(0)))):
        a = TropMatrix(rows)
        twin = TropMatrix.from_rows(rows)
        assert type(a.entries) is tuple and all(type(row) is tuple for row in a.entries)
        assert a == twin and hash(a) == hash(twin)


def test_unscaled_inverts_scaled_with_one_object_per_value():
    rng = random.Random(25)
    pools = [[NEG_INF, -3, 0, 2, F(-1, 2), F(5, 6), F(7, 4)], *GRID_POOLS]
    for pool in pools:
        for _ in range(10):
            rows = [[rng.choice(pool) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 4))]
            back = _unscaled(*_scaled(rows))
            assert back == tuple(map(tuple, rows))
            assert all(type(row) is tuple for row in back)
            values = [v for row in back for v in row]
            assert len({id(v) for v in values}) == len(set(values))
    [[low, none, high, same]] = _unscaled([[-1, None, 2, 2]], 4)
    assert (low, none, high) == (F(-1, 4), NEG_INF, F(1, 2)) and high is same


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



def test_assignments_match_permutation_reference():
    # The layered program against every bijection, on int grids with None for
    # -inf: k = 1..8 rows, as many columns as rows or fewer, taken in a
    # shuffled order from a grid wider than k.  A program over the first
    # ``size`` columns returns one entry per mask of ``size`` rows, each mask
    # listed once, and best and count agree on every one.
    rng = random.Random(2201)
    pools = [(-2, -1, 0, 1, None), (0, 1), (None, None, None, 3, -5), (7, -3, 2, 11)]
    cases = 0
    for k in range(1, 9):
        for m in sorted({k, k - 1, rng.randint(0, k), 0} if k < 8 else {8, 5}):
            for pool in pools if k < 7 else pools[:2]:
                grid = [[rng.choice(pool) for _ in range(k + 2)] for _ in range(k)]
                cols = rng.sample(range(k + 2), m)
                got = {}
                for size in range(m + 1):
                    layers = _layers(k, size)
                    best, count = _assignments(grid, cols[:size], layers)
                    masks = [mask for mask, _ in layers[size]]
                    assert sorted(masks) == [x for x in range(1 << k) if x.bit_count() == size]
                    assert len(best) == len(count) == len(masks)
                    got.update((mask, (best[p], count[p])) for p, mask in enumerate(masks))
                assert got == reference.assignments_by_permutations(grid, cols), (grid, cols)
                cases += 1
    assert cases > 60


def test_no_mask_table_is_built_at_import():
    src = str(Path(isocant.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import isocant.cli, isocant.tropical as t\n"
        "print(len(t._LAYERS))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout.split() == ["0"]

def test_minor_ragged_selection():
    a = TropMatrix.from_rows([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        trop_minor(a, [1, 2], [1])
    with pytest.raises(ValueError):
        trop_minor(a, [1], [3])
    with pytest.raises(ValueError, match="^empty selection$"):
        trop_minor(a, [], [])


@pytest.mark.parametrize("fn, args, text", [
    (trop_minor, ([True], [2]), "row indices must be ints, got True"),
    (trop_minor, ([1.0], [2]), "row indices must be ints, got 1.0"),
    (trop_minor, (["1"], [2]), "row indices must be ints, got '1'"),
    (trop_minor, ([1], [True]), "column indices must be ints, got True"),
    (trop_minor, ([1], [2.0]), "column indices must be ints, got 2.0"),
    (trop_minor, ([1], ["2"]), "column indices must be ints, got '2'"),
    (trop_minor, ([True], [2.0]), "row indices must be ints, got True"),
    (laplace_terms, ([True], [1], 1), "row indices must be ints, got True"),
    (laplace_terms, ([1], [True], True), "column indices must be ints, got True"),
    (laplace_terms, ([1], [1], True), "expansion column must be an int, got True"),
    (laplace_terms, ([1], [1], 1.0), "expansion column must be an int, got 1.0"),
    (laplace_terms, ([1], [1], "1"), "expansion column must be an int, got '1'"),
])
def test_selections_refuse_indices_that_are_not_ints(fn, args, text):
    # Checked before a set merges True into 1: rows, then columns, then the
    # expansion column.
    a = TropMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(TypeError, match=f"^{re.escape(text)}$"):
        fn(a, *args)


def test_neg_inf_prints_and_refuses_negation():
    assert repr(NEG_INF) == "-inf"
    with pytest.raises(ArithmeticError, match="^negation of -inf is undefined here$"):
        -NEG_INF


def test_rows_columns_and_column_replacement_check_their_index_and_length():
    a = TropMatrix.from_rows([[0, F(1, 2)], [NEG_INF, -3]])
    assert a.row(2) == (NEG_INF, F(-3))
    assert a.column(2) == (F(1, 2), F(-3))
    for i in (0, 3):
        with pytest.raises(IndexError, match=f"^row {i} out of range for size 2$"):
            a.row(i)
        with pytest.raises(IndexError, match=f"^column {i} out of range for size 2$"):
            a.column(i)
    for values in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="^replacement column has wrong length$"):
            a.replace_column(1, values)


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


def test_minor_and_laplace_terms_read_the_whole_matrix_grid():
    # Minors and Laplace terms select from the matrix's own integer grid,
    # whose denominator also clears entries outside the selection: here a
    # 7 that occurs only there.  Values are the brute-force Fraction ones.
    rng = random.Random(17)
    pool = [NEG_INF, F(-2), F(-1, 2), F(0), F(3, 4), F(1)]
    for n in (3, 4, 5, 6):
        for _ in range(12):
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            k = rng.randint(1, n - 1)
            sel_rows = sorted(rng.sample(range(1, n + 1), k))
            sel_cols = sorted(rng.sample(range(1, n + 1), k))
            outside = [(i, j) for i in range(n) for j in range(n) if i + 1 not in sel_rows]
            i, j = rng.choice(outside)
            rows[i][j] = F(-1, 7)
            m = TropMatrix.from_rows(rows)
            assert m._grid[1] % 7 == 0
            sub = [[m.entry(r, c) for c in sel_cols] for r in sel_rows]
            ev = trop_minor(m, sel_rows, sel_cols)
            assert (ev.value, ev.multiplicity) == _brute_force_permanent(sub)
            exp = rng.choice(sel_cols)
            others = [c for c in sel_cols if c != exp]
            assert laplace_terms(m, sel_rows, sel_cols, exp) == [
                trop_mul(m.entry(r, exp), _brute_force_permanent(
                    [[m.entry(q, c) for c in others] for q in sel_rows if q != r])[0])
                for r in sel_rows
            ]


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
