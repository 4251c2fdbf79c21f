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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .tropical import TropMatrix, mat_mul

Rational = int | Fraction


def _require_finite(a: TropMatrix, what: str = "matrix") -> None:
    if not a.is_finite():
        raise ValueError(f"{what} must have finite entries")


def is_normal(a: TropMatrix) -> bool:
    """Zero diagonal and all entries non-positive (origin lies in the polytope)."""
    _require_finite(a)
    for i in range(a.n):
        for j in range(a.n):
            v = a.entries[i][j]
            if i == j:
                if v != 0:
                    return False
            elif v > 0:
                return False
    return True


def is_ni(a: TropMatrix) -> bool:
    """Normal and tropically idempotent: ``a (*) a == a``."""
    if not is_normal(a):
        return False
    return mat_mul(a, a) == a


def is_vni(a: TropMatrix) -> bool:
    """NI with zero last row: the polytope's maximum sits at the origin."""
    if not is_ni(a):
        return False
    return all(v == 0 for v in a.row(a.n))


def is_sni(a: TropMatrix) -> bool:
    """NI and symmetric: the polytope is centrally symmetric about the origin."""
    if not is_ni(a):
        return False
    return all(
        a.entries[i][j] == a.entries[j][i] for i in range(a.n) for j in range(i + 1, a.n)
    )


def _positive_lengths(lengths: Sequence[Rational]) -> tuple[Fraction, ...]:
    out = tuple(Fraction(v) for v in lengths)
    if not out:
        raise ValueError("at least one edge length is required")
    if any(v <= 0 for v in out):
        raise ValueError("edge lengths must be positive")
    return out


def box_vni(lengths: Sequence[Rational]) -> TropMatrix:
    """Visualized box matrix for the box ``prod_i [-lengths[i], 0]``.

    Entry (i, j) is ``-lengths[i]`` whenever ``i != j`` and i is not the last
    row, and zero otherwise.
    """
    ls = _positive_lengths(lengths)
    d = len(ls)
    rows = []
    for i in range(d + 1):
        rows.append(
            tuple(
                Fraction(0) if (i == j or i == d) else -ls[i]
                for j in range(d + 1)
            )
        )
    return TropMatrix(tuple(rows))


def box_sni(lengths: Sequence[Rational]) -> TropMatrix:
    """Symmetric box matrix for the box ``prod_i [-lengths[i]/2, lengths[i]/2]``."""
    ls = _positive_lengths(lengths)
    d = len(ls)
    rows = []
    for i in range(d + 1):
        out = []
        for j in range(d + 1):
            if i == j:
                out.append(Fraction(0))
            elif j == d:
                out.append(-ls[i] / 2)
            elif i == d:
                out.append(-ls[j] / 2)
            else:
                out.append((-ls[i] - ls[j]) / 2)
        rows.append(tuple(out))
    return TropMatrix(tuple(rows))


def cube_vni(d: int, edge_length: Rational) -> TropMatrix:
    """Visualized cube matrix: all edge lengths equal."""
    return box_vni([edge_length] * d)


def cube_sni(d: int, edge_length: Rational) -> TropMatrix:
    """Symmetric cube matrix: all edge lengths equal."""
    return box_sni([edge_length] * d)


@dataclass(frozen=True)
class PerturbationMatrix:
    """Non-positive square matrix with zero diagonal, last row and last column."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n < 2 or any(len(row) != n for row in self.entries):
            raise ValueError("perturbation matrix must be square, size >= 2")
        for i in range(n):
            for j in range(n):
                v = self.entries[i][j]
                if i == j or i == n - 1 or j == n - 1:
                    if v != 0:
                        raise ValueError(
                            "perturbation matrix needs zero diagonal, last row and column"
                        )
                elif v > 0:
                    raise ValueError("perturbation entries must be non-positive")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Rational]]) -> "PerturbationMatrix":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @classmethod
    def constant(cls, n: int, cant: Rational) -> "PerturbationMatrix":
        """The constant perturbation with every free entry equal to ``-cant``."""
        c = Fraction(cant)
        if c < 0:
            raise ValueError("cant must be non-negative")
        rows = [
            tuple(
                Fraction(0) if (i == j or i == n - 1 or j == n - 1) else -c
                for j in range(n)
            )
            for i in range(n)
        ]
        return cls(tuple(rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i - 1][j - 1]

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.entries for v in row)

    def constant_cant(self) -> Fraction | None:
        """Return ``a > 0`` when every free entry equals ``-a``, else ``None``."""
        n = self.n
        free = [
            self.entries[i][j]
            for i in range(n - 1)
            for j in range(n - 1)
            if i != j
        ]
        if not free:
            return None
        first = free[0]
        if first >= 0 or any(v != first for v in free):
            return None
        return -first


@dataclass(frozen=True)
class Decomposition:
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

    The box is read off the bounding-box data carried by the last row and
    column; the perturbation is then ``box - a`` and its sign and zero pattern
    are validated rather than repaired.
    """
    if not is_ni(a):
        raise ValueError("decomposition requires a normal idempotent matrix")
    n = a.n
    d = n - 1
    # Translation of the polytope relative to visualized placement.
    shifts = [-a.entries[n - 1][j] for j in range(d)] + [Fraction(0)]
    lengths = [-a.entries[n - 1][i] - a.entries[i][n - 1] for i in range(d)]
    if any(v <= 0 for v in lengths):
        raise ValueError("degenerate bounding box: non-positive edge length")
    rows = []
    for i in range(n):
        out = []
        for j in range(n):
            if i == j:
                out.append(Fraction(0))
            elif i == d:
                out.append(-shifts[j])
            else:
                out.append(-lengths[i] + shifts[i] - shifts[j])
        rows.append(tuple(out))
    box = TropMatrix(tuple(rows))
    pert_rows = [
        tuple(box.entries[i][j] - a.entries[i][j] for j in range(n)) for i in range(n)
    ]
    perturbation = PerturbationMatrix.from_rows(pert_rows)
    return Decomposition(box, perturbation)


def is_isocanted(a: TropMatrix) -> Fraction | None:
    """Return the cant parameter when the perturbation is constant negative.

    ``None`` means the matrix is NI but not isocanted (for instance a plain
    box, whose perturbation vanishes).
    """
    return decompose(a).perturbation.constant_cant()


@dataclass(frozen=True)
class IsocantedSpec:
    """Parameters of an isocanted polytope with cubic bounding box.

    ``d`` is the ambient dimension (at least 2), ``edge_length`` the common
    box edge and ``cant`` the beveling depth, with ``0 < cant < edge_length``.
    """

    d: int
    edge_length: Fraction
    cant: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "edge_length", Fraction(self.edge_length))
        object.__setattr__(self, "cant", Fraction(self.cant))
        if not isinstance(self.d, int) or self.d < 2:
            raise ValueError("dimension must be an integer >= 2")
        if not 0 < self.cant < self.edge_length:
            raise ValueError("cant must satisfy 0 < cant < edge_length")

    @property
    def n(self) -> int:
        return self.d + 1


def isocanted_vni(spec: IsocantedSpec) -> TropMatrix:
    """Visualized isocanted matrix: cube matrix minus the constant perturbation.

    Entry table: ``-edge_length`` in the last column (off-diagonal), zero on
    the diagonal and the last row, ``-edge_length + cant`` elsewhere.
    """
    ell, a = spec.edge_length, spec.cant
    n = spec.n
    rows = []
    for i in range(n):
        out = []
        for j in range(n):
            if i == j or i == n - 1:
                out.append(Fraction(0))
            elif j == n - 1:
                out.append(-ell)
            else:
                out.append(-ell + a)
        rows.append(tuple(out))
    return TropMatrix(tuple(rows))


def isocanted_sni(spec: IsocantedSpec) -> TropMatrix:
    """Symmetric isocanted matrix: symmetric cube matrix minus the perturbation."""
    return apply_perturbation(
        cube_sni(spec.d, spec.edge_length), PerturbationMatrix.constant(spec.n, spec.cant)
    )


#: Isocanted matrix builders by placement name.
PLACEMENTS = {"vni": isocanted_vni, "sni": isocanted_sni}


def isocanted_box_vni(lengths: Sequence[Rational], cant: Rational) -> TropMatrix:
    """Extended form: isocanted matrix over a general box, ``0 < cant < min length``.

    The cubic-box constructors are the ones exercised throughout; this variant
    is provided because mixed edge lengths leave the combinatorics unchanged.
    """
    ls = _positive_lengths(lengths)
    c = Fraction(cant)
    if not 0 < c < min(ls):
        raise ValueError("cant must satisfy 0 < cant < min(edge lengths)")
    return apply_perturbation(box_vni(ls), PerturbationMatrix.constant(len(ls) + 1, c))
