"""Special max-plus matrix classes and the box-minus-perturbation decomposition.

A square matrix with zero diagonal and non-positive entries is *normal*; if it
is also idempotent under the tropical product it is *normal idempotent* (NI)
and describes its alcoved polytope tightly.  Two placements matter downstream:
*visualized* NI matrices (zero last row, polytope maximum at the origin) and
*symmetric* NI matrices (polytope symmetric about the origin).

Every NI matrix splits uniquely as ``box - perturbation`` where the box part
is an NI box matrix and the perturbation is non-positive with zero diagonal,
last row and last column.  An *isocanted* matrix is one whose perturbation is
constant ``-cant`` with ``cant > 0``: geometrically, a box with every cantable
codimension-2 face beveled by the same amount.

Every box and isocanted matrix comes from one entry table, the visualized
box canted by ``cant`` (zero for a plain box); other placements are that
table translated by ``tropical.conjugate_diag``.  ``is_ni`` is the one NI
test, and the decomposition asks it first.  Both run on the matrix's integer
grid (``a._grid``), which ``tropical._scaled`` builds once per matrix and the
matrix keeps; the decomposition reads the box off that grid's ground row and
column, and ``tropical._unscaled`` turns the results back.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import Sequence

from ._record import Record, _require_ints
from .combinatorics import _check_dim
from .tropical import TropMatrix, _Square, _exact_rows, _unscaled, as_rational, conjugate_diag

Rational = int | Fraction


def _require_finite(a: TropMatrix, what: str = "matrix") -> None:
    if not a.is_finite():
        raise ValueError(f"{what} must have finite entries")


def is_normal(a: TropMatrix) -> bool:
    """Zero diagonal and all entries non-positive (origin lies in the polytope)."""
    _require_finite(a)
    # The cached grid is the matrix times a positive integer: same signs.
    grid, _ = a._grid
    return all(not row[i] for i, row in enumerate(grid)) and max(map(max, grid)) <= 0


def is_ni(a: TropMatrix) -> bool:
    """Normal and tropically idempotent: ``a (*) a == a``.

    A normal matrix has zero diagonal, so ``a (*) a >= a`` entrywise, and it
    is idempotent exactly when every triangle ``a[i,k] + a[k,j] <= a[i,j]``
    holds (the Kleene-star condition).  That is checked on the matrix's own
    integer grid (``a._grid``), row ``i`` against row ``k`` as
    ``min_j (a[i,j] - a[k,j]) >= a[i,k]``.
    """
    if not is_normal(a):
        return False
    grid, _ = a._grid
    return all(min(map(sub, row, rk)) >= x for row in grid for x, rk in zip(row, grid))


def is_vni(a: TropMatrix) -> bool:
    """NI with zero last row: the polytope's maximum sits at the origin."""
    _require_finite(a)
    return not any(a.entries[-1]) and is_ni(a)


def is_sni(a: TropMatrix) -> bool:
    """NI and symmetric: the polytope is centrally symmetric about the origin."""
    _require_finite(a)
    return a.entries == tuple(zip(*a.entries)) and is_ni(a)


def _positive_lengths(lengths: Sequence[Rational]) -> tuple[Fraction, ...]:
    out = tuple(as_rational(v) for v in lengths)
    if not out:
        raise ValueError("at least one edge length is required")
    if any(v <= 0 for v in out):
        raise ValueError("edge lengths must be positive")
    return out


def _visualized(lengths: Sequence[Rational], cant: Rational) -> tuple[tuple[Rational, ...], ...]:
    """Rows of the visualized matrix of the box ``prod_i [-lengths[i], 0]`` canted by ``cant``.

    Zero on the diagonal and in the last row, ``-lengths[i]`` in the last
    column and ``cant - lengths[i]`` elsewhere; ``cant = 0`` is the plain box.
    The entries are ints or Fractions, as the arguments are.
    """
    d = len(lengths)
    zero = cant - cant
    rows = []
    for i, length in enumerate(lengths):
        row = [cant - length] * (d + 1)
        row[i] = zero
        row[d] = -length
        rows.append(tuple(row))
    rows.append((zero,) * (d + 1))
    return tuple(rows)


def box_vni(lengths: Sequence[Rational]) -> TropMatrix:
    """Visualized box matrix for the box ``prod_i [-lengths[i], 0]``."""
    return TropMatrix(_visualized(_positive_lengths(lengths), Fraction(0)))


def box_sni(lengths: Sequence[Rational]) -> TropMatrix:
    """Symmetric box matrix for the box ``prod_i [-lengths[i]/2, lengths[i]/2]``."""
    ls = _positive_lengths(lengths)
    return conjugate_diag(box_vni(ls), [v / 2 for v in ls] + [Fraction(0)])


def _cube_lengths(d: int, edge_length: Rational) -> list[Rational]:
    _require_ints((d,), "cube dimension must be an int")
    return [edge_length] * d


def cube_vni(d: int, edge_length: Rational) -> TropMatrix:
    """Visualized cube matrix: all edge lengths equal."""
    return box_vni(_cube_lengths(d, edge_length))


def cube_sni(d: int, edge_length: Rational) -> TropMatrix:
    """Symmetric cube matrix: all edge lengths equal."""
    return box_sni(_cube_lengths(d, edge_length))


class PerturbationMatrix(_Square, Record):
    """Non-positive square matrix with zero diagonal, last row and last column."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _exact_rows(self.entries, {Fraction}, as_rational))
        n = len(self.entries)
        if n < 2 or any(len(row) != n for row in self.entries):
            raise ValueError("perturbation matrix must be square, size >= 2")
        # A Fraction's sign is its numerator's.
        for i, row in enumerate(self.entries):
            for j, v in enumerate(row):
                if i == j or i == n - 1 or j == n - 1:
                    if v.numerator:
                        raise ValueError(
                            "perturbation matrix needs zero diagonal, last row and column"
                        )
                elif v.numerator > 0:
                    raise ValueError("perturbation entries must be non-positive")

    @classmethod
    def constant(cls, n: int, cant: Rational) -> "PerturbationMatrix":
        """The constant perturbation with every free entry equal to ``-cant``."""
        c = as_rational(cant)
        if c < 0:
            raise ValueError("cant must be non-negative")
        rows = [[0 if i == j or i == n - 1 or j == n - 1 else -c for j in range(n)] for i in range(n)]
        return cls(rows)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def constant_cant(self) -> Fraction | None:
        """Return ``a > 0`` when every free entry equals ``-a``, else ``None``."""
        free = [v for i, row in enumerate(self.entries[:-1]) for j, v in enumerate(row[:-1]) if i != j]
        if not free:
            return None
        # Entries are Fractions, so the sign is the numerator's; the count
        # compares by identity first, and ``decompose`` shares equal values.
        first = free[0]
        if first.numerator >= 0 or free.count(first) != len(free):
            return None
        return -first


class Decomposition(Record):
    """The unique split ``matrix = box - perturbation`` of an NI matrix."""

    box: TropMatrix
    perturbation: PerturbationMatrix

    @property
    def edge_lengths(self) -> tuple[Fraction, ...]:
        """Edge lengths of the bounding box, read off the box matrix."""
        n = self.box.n
        return tuple(
            -self.box.entries[n - 1][i] - self.box.entries[i][n - 1]
            for i in range(n - 1)
        )


def apply_perturbation(box: TropMatrix, perturbation: PerturbationMatrix) -> TropMatrix:
    """Entrywise classical difference ``box - perturbation``."""
    _require_finite(box, "box matrix")
    if box.n != perturbation.n:
        raise ValueError("size mismatch between box and perturbation")
    rows = [
        tuple(box.entries[i][j] - perturbation.entries[i][j] for j in range(box.n))
        for i in range(box.n)
    ]
    return TropMatrix(tuple(rows))


def decompose(a: TropMatrix) -> Decomposition:
    """Split an NI matrix into its NI box matrix and perturbation parts.

    The last row, negated, is the polytope's maximum (its north pole) and
    ``-a[d][i] - a[i][d]`` its i-th edge length.  The box is read off the
    ground row and column: ``a[i][d] + a[d][j]`` off the diagonal, zero on
    it.  The perturbation is then ``box - a`` and its sign and zero pattern
    are validated rather than repaired.  Once :func:`is_ni` holds, all of it
    runs on the integer grid that test read (``a._grid``), and
    ``tropical._unscaled`` turns the result back into scalars.
    """
    if not is_ni(a):
        raise ValueError("decomposition requires a normal idempotent matrix")
    grid, den = a._grid
    last = grid[-1]
    if any(last[i] + row[-1] >= 0 for i, row in enumerate(grid[:-1])):
        raise ValueError("degenerate bounding box: non-positive edge length")
    box = [[0 if i == j else row[-1] + t for j, t in enumerate(last)] for i, row in enumerate(grid)]
    pert = [list(map(sub, brow, arow)) for brow, arow in zip(box, grid)]
    rows = _unscaled(box + pert, den)
    return Decomposition(TropMatrix(rows[:a.n]), PerturbationMatrix(rows[a.n:]))


def is_isocanted(a: TropMatrix) -> Fraction | None:
    """Return the cant parameter when the perturbation is constant negative.

    ``None`` means the matrix is NI but not isocanted (for instance a plain
    box, whose perturbation vanishes).
    """
    return decompose(a).perturbation.constant_cant()


class IsocantedSpec(Record):
    """Parameters of an isocanted polytope with cubic bounding box.

    ``d`` is the ambient dimension (at least 2), ``edge_length`` the common
    box edge and ``cant`` the beveling depth, with ``0 < cant < edge_length``.
    """

    d: int
    edge_length: Fraction
    cant: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_length", as_rational(self.edge_length))
        object.__setattr__(self, "cant", as_rational(self.cant))
        _check_dim(self.d)
        if not 0 < self.cant < self.edge_length:
            raise ValueError("cant must satisfy 0 < cant < edge_length")

    @property
    def n(self) -> int:
        return self.d + 1


def isocanted_vni(spec: IsocantedSpec) -> TropMatrix:
    """Visualized isocanted matrix: cube matrix minus the constant perturbation."""
    return TropMatrix(_visualized([spec.edge_length] * spec.d, spec.cant))


def isocanted_sni(spec: IsocantedSpec) -> TropMatrix:
    """Symmetric isocanted matrix: the visualized one translated by half an edge."""
    half = spec.edge_length / 2
    return conjugate_diag(isocanted_vni(spec), [half] * spec.d + [Fraction(0)])


#: Isocanted matrix builders by placement name.
PLACEMENTS = {"vni": isocanted_vni, "sni": isocanted_sni}


def isocanted_box_vni(lengths: Sequence[Rational], cant: Rational) -> TropMatrix:
    """Extended form: isocanted matrix over a general box, ``0 < cant < min length``.

    The cubic-box constructors are the ones exercised throughout; this variant
    is provided because mixed edge lengths leave the combinatorics unchanged.
    """
    ls = _positive_lengths(lengths)
    c = as_rational(cant)
    if not 0 < c < min(ls):
        raise ValueError("cant must satisfy 0 < cant < min(edge lengths)")
    return TropMatrix(_visualized(ls, c))
