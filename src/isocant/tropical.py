"""Exact max-plus (tropical) arithmetic: scalars, square matrices, permanents, minors.

The semiring carries addition ``x (+) y = max(x, y)`` and multiplication
``x (*) y = x + y`` over exact rationals extended with ``-inf``, the additive
identity.  Everything here is exact: finite scalars are ``fractions.Fraction``
values and no floating point is accepted anywhere.

Tropical permanents come with their attainment multiplicity (how many
permutations reach the maximum).  The multiplicity, not the value, is what the
geometric layer consumes: a point lies on a tropical span when every relevant
minor attains its maximum at least twice, and sits at a vertex when the Laplace
terms of every minor coincide.

A permanent is an optimal assignment, so it is computed by a dynamic program
over row subsets instead of over the ``k!`` permutations: columns are assigned
in order, and each subset of rows keeps the best partial sum and the number of
partial assignments attaining it, which costs ``O(2^k * k)`` steps.  Each call
clears denominators once, so this program and ``mat_mul`` run on ``int`` and
``Fraction`` appears only in their results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union


class _NegInf:
    """Additive identity of the max-plus semiring; unordered, so callers test ``is NEG_INF``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "-inf"

    def __neg__(self) -> "_NegInf":
        raise ArithmeticError("negation of -inf is undefined here")


NEG_INF = _NegInf()

TropScalar = Union[Fraction, _NegInf]

#: Hard cap on permanent evaluation; minors used downstream stay tiny.  The
#: subset program is ``O(2^k * k)`` and would stay fast well beyond 10, but the
#: refusal of 11 x 11 inputs is pinned by ``test_permanent_size_limit`` and by the
#: benchmark's oversized-permanent case, so raising it changes behaviour.
PERMANENT_SIZE_LIMIT = 10


def as_scalar(value: object) -> TropScalar:
    """Coerce ``value`` to a tropical scalar (exact rational or ``NEG_INF``).

    Floats are rejected: tolerating them would silently destroy exactness.
    """
    if isinstance(value, _NegInf):
        return NEG_INF
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a tropical scalar")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"tropical scalars are exact rationals or -inf, got {value!r}")


def trop_add(x: TropScalar, y: TropScalar) -> TropScalar:
    """Tropical addition: max, with ``NEG_INF`` neutral."""
    if x is NEG_INF:
        return y
    if y is NEG_INF:
        return x
    return x if x >= y else y


def trop_mul(x: TropScalar, y: TropScalar) -> TropScalar:
    """Tropical multiplication: classical addition, with ``NEG_INF`` absorbing."""
    if x is NEG_INF or y is NEG_INF:
        return NEG_INF
    return x + y


@dataclass(frozen=True)
class TropMatrix:
    """Square matrix over the max-plus semiring.

    Public indexing is 1-based throughout (``entry(1, 1)`` is the top-left
    corner); the internal tuple-of-tuples storage is an implementation detail.
    Instances are immutable and safe to share.
    """

    entries: tuple[tuple[TropScalar, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n < 2:
            raise ValueError("matrix size must be at least 2")
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[object]]) -> "TropMatrix":
        return cls(tuple(tuple(as_scalar(v) for v in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> TropScalar:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"index ({i}, {j}) out of range for size {self.n}")
        return self.entries[i - 1][j - 1]

    def row(self, i: int) -> tuple[TropScalar, ...]:
        if not 1 <= i <= self.n:
            raise IndexError(f"row {i} out of range for size {self.n}")
        return self.entries[i - 1]

    def column(self, j: int) -> tuple[TropScalar, ...]:
        if not 1 <= j <= self.n:
            raise IndexError(f"column {j} out of range for size {self.n}")
        return tuple(row[j - 1] for row in self.entries)

    def is_finite(self) -> bool:
        return all(not isinstance(v, _NegInf) for row in self.entries for v in row)

    def replace_column(self, j: int, values: Sequence[object]) -> "TropMatrix":
        """Return a copy with column ``j`` (1-based) replaced by ``values``."""
        if len(values) != self.n:
            raise ValueError("replacement column has wrong length")
        coerced = [as_scalar(v) for v in values]
        rows = [
            tuple(coerced[r] if c == j - 1 else row[c] for c in range(self.n))
            for r, row in enumerate(self.entries)
        ]
        return TropMatrix(tuple(rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"TropMatrix[{body}]"


def _scaled(
    grid: Sequence[Sequence[TropScalar]],
) -> tuple[list[list[int | None]], int]:
    """Clear denominators: ``grid`` times the lcm of its finite denominators.

    Returns the integer grid, with ``None`` for ``-inf``, and that lcm.
    """
    den = math.lcm(*(v.denominator for row in grid for v in row if v is not NEG_INF))
    return [
        [None if v is NEG_INF else v.numerator * (den // v.denominator) for v in row]
        for row in grid
    ], den


def _unscaled(value: int | None, den: int) -> TropScalar:
    return NEG_INF if value is None else Fraction(value, den)


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Tropical matrix product: ``(a*b)[i,k] = max_j (a[i,j] + b[j,k])``."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    scaled, den = _scaled(a.entries + b.entries)
    b_cols = list(zip(*scaled[a.n:]))
    rows = []
    for a_row in scaled[: a.n]:
        rows.append(tuple(
            _unscaled(max(
                (x + y for x, y in zip(a_row, b_col) if x is not None and y is not None),
                default=None,
            ), den)
            for b_col in b_cols
        ))
    return TropMatrix(tuple(rows))


@dataclass(frozen=True)
class MinorEvaluation:
    """Value of a tropical permanent plus its exact attainment multiplicity."""

    value: TropScalar
    multiplicity: int


def _assignments(
    grid: list[list[int | None]], cols: Sequence[int]
) -> tuple[list[int | None], list[int]]:
    """Optimal assignments of ``cols`` to subsets of the rows of ``grid``.

    For each row mask with ``m <= len(cols)`` bits, ``best[mask]`` is the
    largest sum over bijections from the rows in ``mask`` to ``cols[:m]``
    (``None`` when every one meets ``-inf``) and ``count[mask]`` is how many
    bijections attain it.  Masks with more bits than columns stay unset.
    """
    size = 1 << len(grid)
    best: list[int | None] = [None] * size
    count = [0] * size
    best[0], count[0] = 0, 1
    for mask in range(1, size):
        c = mask.bit_count() - 1
        if c >= len(cols):
            continue
        col = cols[c]
        top = None
        ways = 0
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            prev = best[mask ^ bit]
            v = grid[bit.bit_length() - 1][col]
            if prev is None or v is None:
                continue
            total = prev + v
            if top is None or total > top:
                top, ways = total, count[mask ^ bit]
            elif total == top:
                ways += count[mask ^ bit]
        best[mask], count[mask] = top, ways
    return best, count


def _grid_permanent(grid: Sequence[Sequence[TropScalar]]) -> MinorEvaluation:
    """Tropical permanent of a square grid with multiplicity."""
    k = len(grid)
    scaled, den = _scaled(grid)
    best, count = _assignments(scaled, range(k))
    if best[-1] is None:
        # Every permutation hits -inf, so all of them attain the maximum.
        return MinorEvaluation(NEG_INF, math.factorial(k))
    # An empty grid is the empty product: the multiplicative identity, once.
    return MinorEvaluation(Fraction(best[-1], den), count[-1])


def _check_selection(
    a: TropMatrix, rows: Iterable[int], cols: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    row_idx = tuple(sorted(set(rows)))
    col_idx = tuple(sorted(set(cols)))
    if len(row_idx) != len(col_idx):
        raise ValueError(f"ragged selection: {len(row_idx)} rows vs {len(col_idx)} columns")
    if not row_idx:
        raise ValueError("empty selection")
    for i in row_idx:
        if not 1 <= i <= a.n:
            raise ValueError(f"row index {i} out of range")
    for j in col_idx:
        if not 1 <= j <= a.n:
            raise ValueError(f"column index {j} out of range")
    return row_idx, col_idx


def trop_permanent(a: TropMatrix, *, size_limit: int = PERMANENT_SIZE_LIMIT) -> MinorEvaluation:
    """Tropical permanent of the whole matrix, with its attainment multiplicity."""
    if a.n > size_limit:
        raise ValueError(f"matrix size {a.n} exceeds permanent limit {size_limit}")
    return _grid_permanent(a.entries)


def trop_minor(
    a: TropMatrix,
    rows: Iterable[int],
    cols: Iterable[int],
    *,
    size_limit: int = PERMANENT_SIZE_LIMIT,
) -> MinorEvaluation:
    """Tropical permanent of the square submatrix on ``rows`` x ``cols`` (1-based)."""
    row_idx, col_idx = _check_selection(a, rows, cols)
    if len(row_idx) > size_limit:
        raise ValueError(f"minor order {len(row_idx)} exceeds permanent limit {size_limit}")
    grid = [[a.entries[i - 1][j - 1] for j in col_idx] for i in row_idx]
    return _grid_permanent(grid)


def laplace_terms(
    a: TropMatrix,
    rows: Iterable[int],
    cols: Iterable[int],
    expansion_col: int,
    *,
    size_limit: int = PERMANENT_SIZE_LIMIT,
) -> list[TropScalar]:
    """Terms of the tropical Laplace expansion of a minor along one column.

    For the selection ``rows`` x ``cols`` and a column ``expansion_col`` of the
    selection, the k-th term is ``a[i_k, expansion_col] + M_k`` where ``M_k``
    is the complementary minor omitting row ``i_k`` and the expansion column.
    Terms are returned in ascending row order; their maximum equals the value
    of the full minor.
    """
    row_idx, col_idx = _check_selection(a, rows, cols)
    if expansion_col not in col_idx:
        raise ValueError(f"expansion column {expansion_col} not in selection")
    if len(row_idx) > size_limit:
        raise ValueError(f"minor order {len(row_idx)} exceeds permanent limit {size_limit}")
    grid, den = _scaled([[a.entries[i - 1][j - 1] for j in col_idx] for i in row_idx])
    e = col_idx.index(expansion_col)
    # One pass over the other columns yields every complementary minor: the one
    # omitting row r sits at the mask of all rows but r.
    best, _ = _assignments(grid, [c for c in range(len(col_idx)) if c != e])
    full = len(best) - 1
    terms: list[TropScalar] = []
    for r, row in enumerate(grid):
        minor = best[full ^ (1 << r)]
        terms.append(_unscaled(None if minor is None or row[e] is None else row[e] + minor, den))
    return terms


def conjugate_diag(a: TropMatrix, diag: Sequence[object]) -> TropMatrix:
    """Conjugate by a diagonal matrix: entries become ``a[i,j] + d_i - d_j``.

    The last diagonal entry must be zero; geometrically this is translation of
    the associated polyhedron.
    """
    if len(diag) != a.n:
        raise ValueError(f"diagonal length {len(diag)} does not match size {a.n}")
    shifts = []
    for v in diag:
        s = as_scalar(v)
        if s is NEG_INF:
            raise ValueError("diagonal entries must be finite")
        shifts.append(s)
    if shifts[-1] != 0:
        raise ValueError("last diagonal entry must be zero")
    rows = []
    for i in range(a.n):
        out = []
        for j in range(a.n):
            v = a.entries[i][j]
            out.append(NEG_INF if v is NEG_INF else v + shifts[i] - shifts[j])
        rows.append(tuple(out))
    return TropMatrix(tuple(rows))
