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
partial assignments attaining it, which costs ``O(2^k * k)`` steps.  The
subsets are visited by size, one layer per column, from a table of masks kept
for the process, so a program over many rows that stops at a small size
touches only the small subsets; it keeps one layer and returns the top one.
The integer body of ``laplace_terms`` is one private helper on an already
scaled grid: one program over all rows of a grid gives the Laplace terms of
every row subset of a given size, so the unique-vertex check in ``geometry``
scales its matrix once and compares ``int`` terms.

Exact numbers cross one boundary, kept here: ``_exact_rows`` is the gate into
every record of number rows, ``_scaled`` clears a grid's denominators once per
call (a ``TropMatrix`` keeps its own, ``_grid``, which permanents, minors and
Laplace terms read), and ``_unscaled`` is the only way back to scalars.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, Union

from ._record import Record, _require_at_most, _require_ints


class _NegInf:
    """Additive identity of the max-plus semiring; unordered, so callers test ``is NEG_INF``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "-inf"

    def __neg__(self) -> "_NegInf":
        raise ArithmeticError("negation of -inf is undefined here")


NEG_INF = _NegInf()

TropScalar = Union[Fraction, _NegInf]
_SquareT = TypeVar("_SquareT", bound="_Square")

#: Cap on permanent, minor and Laplace-term order, with no per-call override.
#: The subset program would stay fast well beyond 10, but the refusal of 11 x 11
#: inputs is pinned by the permanent cap test in ``tests/test_tropical.py`` and
#: by the benchmark's oversized-permanent op, whose error text its digest records.
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


def as_rational(value: object) -> Fraction:
    """``Fraction(value)``, except that floats and bools raise as in :func:`as_scalar`."""
    if isinstance(value, (bool, float)):
        as_scalar(value)
    return Fraction(value)


def _exact_rows(rows: Iterable[Iterable[object]], kinds: set[type], convert: Callable) -> tuple:
    """``rows`` itself when tuple rows of entries typed in ``kinds``, else a copy through ``convert``."""
    # The set tests run at C level: one type test per row and one per entry.
    tuple_rows = type(rows) is tuple and set(map(type, rows)) <= {tuple}
    if tuple_rows and set(map(type, itertools.chain.from_iterable(rows))) <= kinds:
        return rows
    return tuple(tuple(map(convert, row)) for row in rows)


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


class _Square:
    """Row construction, size and 1-based entry access for a record of square ``entries``.

    A plain class, listed before ``Record``: a ``Record`` subclass without
    fields of its own could not be created.
    """

    entries: tuple[tuple[object, ...], ...]

    @classmethod
    def from_rows(cls: type[_SquareT], rows: Iterable[Iterable[object]]) -> _SquareT:
        return cls(rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> object:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"index ({i}, {j}) out of range for size {self.n}")
        return self.entries[i - 1][j - 1]


class TropMatrix(_Square, Record):
    """Square matrix over the max-plus semiring.

    Public indexing is 1-based throughout (``entry(1, 1)`` is the top-left
    corner); the internal tuple-of-tuples storage is an implementation detail.
    Instances are immutable and safe to share.
    """

    entries: tuple[tuple[TropScalar, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _exact_rows(self.entries, {Fraction, _NegInf}, as_scalar))
        n = len(self.entries)
        if n < 2:
            raise ValueError("matrix size must be at least 2")
        if any(len(row) != n for row in self.entries):
            raise ValueError("matrix must be square")

    def row(self, i: int) -> tuple[TropScalar, ...]:
        if not 1 <= i <= self.n:
            raise IndexError(f"row {i} out of range for size {self.n}")
        return self.entries[i - 1]

    def column(self, j: int) -> tuple[TropScalar, ...]:
        if not 1 <= j <= self.n:
            raise IndexError(f"column {j} out of range for size {self.n}")
        return tuple(row[j - 1] for row in self.entries)

    def is_finite(self) -> bool:
        return not any(v is NEG_INF for row in self.entries for v in row)

    def replace_column(self, j: int, values: Sequence[object]) -> "TropMatrix":
        """Return a copy with column ``j`` (1-based) replaced by ``values``."""
        if len(values) != self.n:
            raise ValueError("replacement column has wrong length")
        rows = [
            tuple(values[r] if c == j - 1 else row[c] for c in range(self.n))
            for r, row in enumerate(self.entries)
        ]
        return TropMatrix(tuple(rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in row) for row in self.entries)
        return f"TropMatrix[{body}]"

    @cached_property
    def _grid(self) -> tuple[tuple[tuple[int | None, ...], ...], int]:
        """``_scaled(self.entries)``, built on first read and kept with the record.

        Every integer path that reads a whole matrix reads this grid, so one
        matrix clears its denominators once however many checks it meets.
        """
        return _scaled(self.entries)


def _scaled(
    grid: Sequence[Sequence[TropScalar]],
) -> tuple[tuple[tuple[int | None, ...], ...], int]:
    """Clear denominators: ``grid`` times the lcm of its finite denominators.

    Returns the integer grid as tuple rows, with ``None`` for ``-inf``, and
    that lcm.
    """
    den = math.lcm(*(v.denominator for row in grid for v in row if v is not NEG_INF))
    return tuple([
        tuple([None if v is NEG_INF else v.numerator * (den // v.denominator) for v in row])
        for row in grid
    ]), den


def _unscaled(rows: Sequence[Sequence[int | None]], den: int) -> tuple[tuple[TropScalar, ...], ...]:
    """Undo :func:`_scaled`: tuple rows of scalars, ``NEG_INF`` for ``None``, one object per value."""
    value = {v: NEG_INF if v is None else Fraction(v, den) for v in set().union(*rows)}
    return tuple([tuple(map(value.__getitem__, row)) for row in rows])


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Tropical matrix product: ``(a*b)[i,k] = max_j (a[i,j] + b[j,k])``."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    scaled, den = _scaled(a.entries + b.entries)
    b_cols = list(zip(*scaled[a.n:]))
    rows = []
    for a_row in scaled[: a.n]:
        rows.append([
            max((x + y for x, y in zip(a_row, b_col) if x is not None and y is not None), default=None)
            for b_col in b_cols
        ])
    return TropMatrix(_unscaled(rows, den))


class MinorEvaluation(Record):
    """Value of a tropical permanent plus its exact attainment multiplicity."""

    value: TropScalar
    multiplicity: int


#: Row masks by row count and size, built on first use: ``_LAYERS[n][m]`` lists
#: each mask of ``m`` of ``n`` rows once as ``(mask, ((p, r), ...))``, one pair
#: per row ``r`` in the mask, where ``p`` is the position of the mask without
#: ``r`` in layer ``m - 1``.  Positions, not masks, index the program's tables,
#: so nothing is sized ``2^n``: a layer is built only when a program reaches
#: it.  Tables are kept for the process only up to ``PERMANENT_SIZE_LIMIT``
#: rows; a taller grid's layers are built for the call and dropped with it.
_Layer = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
_LAYERS: dict[int, list[_Layer]] = {}


def _layers(n: int, top: int) -> list[_Layer]:
    """The mask layers ``0..top`` (at least) of ``n`` rows, kept in ``_LAYERS`` for short grids."""
    start = [((0, ()),)]
    layers = _LAYERS.setdefault(n, start) if n <= PERMANENT_SIZE_LIMIT else start
    while len(layers) <= top:
        below = {mask: p for p, (mask, _) in enumerate(layers[-1])}
        layers.append(tuple(
            (mask, tuple([(below[mask ^ (1 << r)], r) for r in rows]))
            for rows in itertools.combinations(range(n), len(layers))
            for mask in [sum(1 << r for r in rows)]
        ))
    return layers


def _assignments(
    grid: Sequence[Sequence[int | None]], cols: Sequence[int], layers: list[_Layer]
) -> tuple[list[int | None], list[int]]:
    """Optimal assignments of ``cols`` to the subsets of ``len(cols)`` rows of ``grid``.

    The program visits the row masks layer by layer (``_layers``): layer
    ``m`` assigns ``cols[m - 1]`` to one row of each mask of ``m`` rows, on
    top of the best assignment of the rest in layer ``m - 1``, and reads that
    column once.  It keeps one layer and returns the top one: for its
    ``p``-th mask, ``best[p]`` is the largest sum over bijections from its
    rows to ``cols`` (``None`` when every one meets ``-inf``) and
    ``count[p]`` how many attain it.  That is ``O(C(n, m) * m)`` steps per
    layer, ``O(2^k * k)`` in all for a ``k x k`` permanent.
    """
    best: list[int | None] = [0]
    count = [1]
    for col, layer in zip(cols, layers[1:]):
        column = [row[col] for row in grid]
        below, ways_below = best, count
        best, count = [], []
        for _, subs in layer:
            top = None
            ways = 0
            for p, r in subs:
                prev = below[p]
                v = column[r]
                if prev is None or v is None:
                    continue
                total = prev + v
                if top is None or total > top:
                    top, ways = total, ways_below[p]
                elif total == top:
                    ways += ways_below[p]
            best.append(top)
            count.append(ways)
    return best, count


def _grid_permanent(grid: Sequence[Sequence[int | None]], den: int) -> MinorEvaluation:
    """Tropical permanent with multiplicity of a square integer grid over ``den``."""
    k = len(grid)
    best, count = _assignments(grid, range(k), _layers(k, k))
    [[value]] = _unscaled([best], den)
    # When every permutation hits -inf, all of them attain the maximum.  An
    # empty grid is the empty product: the multiplicative identity, once.
    return MinorEvaluation(value, math.factorial(k) if value is NEG_INF else count[0])


def _check_selection(
    n: int, rows: Iterable[int], cols: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rows, cols = tuple(rows), tuple(cols)
    # Before ``set`` merges ``True`` into ``1``.
    _require_ints(rows, "row indices must be ints")
    _require_ints(cols, "column indices must be ints")
    row_idx = tuple(sorted(set(rows)))
    col_idx = tuple(sorted(set(cols)))
    if len(row_idx) != len(col_idx):
        raise ValueError(f"ragged selection: {len(row_idx)} rows vs {len(col_idx)} columns")
    if not row_idx:
        raise ValueError("empty selection")
    for i in row_idx:
        if not 1 <= i <= n:
            raise ValueError(f"row index {i} out of range")
    for j in col_idx:
        if not 1 <= j <= n:
            raise ValueError(f"column index {j} out of range")
    _require_at_most(len(row_idx), PERMANENT_SIZE_LIMIT, "minor order", "permanent")
    return row_idx, col_idx


def trop_permanent(a: TropMatrix) -> MinorEvaluation:
    """Tropical permanent of the whole matrix, with its attainment multiplicity."""
    _require_at_most(a.n, PERMANENT_SIZE_LIMIT, "matrix size", "permanent")
    return _grid_permanent(*a._grid)


def trop_minor(a: TropMatrix, rows: Iterable[int], cols: Iterable[int]) -> MinorEvaluation:
    """Tropical permanent of the square submatrix on ``rows`` x ``cols`` (1-based)."""
    row_idx, col_idx = _check_selection(a.n, rows, cols)
    grid, den = a._grid
    return _grid_permanent([[grid[i - 1][j - 1] for j in col_idx] for i in row_idx], den)


def _laplace_terms(
    grid: Sequence[Sequence[int | None]], cols: Sequence[int], e: int
) -> Iterator[list[int | None]]:
    """Laplace terms along column ``e`` of the minor on each ``len(cols)`` rows of ``grid``.

    ``grid`` is already scaled, indices are 0-based and ``e`` is one of
    ``cols``.  One ``_assignments`` program over all rows and the other
    columns stops one layer short of ``len(cols)`` rows; the row sets of that
    size are then read in layer order, each term ``grid[r][e]`` plus the
    best assignment of the set without ``r``.  The terms are ``int``
    (``None`` for ``-inf``), in ascending row order.
    """
    layers = _layers(len(grid), len(cols))
    minors, _ = _assignments(grid, [c for c in cols if c != e], layers)
    column = [row[e] for row in grid]
    for _, subs in layers[len(cols)]:
        yield [
            None if minors[p] is None or column[r] is None else column[r] + minors[p]
            for p, r in subs
        ]


def laplace_terms(
    a: TropMatrix, rows: Iterable[int], cols: Iterable[int], expansion_col: int
) -> list[TropScalar]:
    """Terms of the tropical Laplace expansion of a minor along one column.

    For the selection ``rows`` x ``cols`` and a column ``expansion_col`` of the
    selection, the k-th term is ``a[i_k, expansion_col] + M_k`` where ``M_k``
    is the complementary minor omitting row ``i_k`` and the expansion column.
    Terms are returned in ascending row order; their maximum equals the value
    of the full minor.
    """
    row_idx, col_idx = _check_selection(a.n, rows, cols)
    _require_ints((expansion_col,), "expansion column must be an int")
    if expansion_col not in col_idx:
        raise ValueError(f"expansion column {expansion_col} not in selection")
    grid, den = a._grid
    [terms] = _laplace_terms([grid[i - 1] for i in row_idx], [j - 1 for j in col_idx], expansion_col - 1)
    return list(_unscaled([terms], den)[0])


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
