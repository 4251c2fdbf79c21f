"""Exact geometry of alcoved polytopes: halfspace systems, vertex enumeration, poles.

An alcoved polytope is cut out by bounds on single coordinates and on
coordinate differences, so every defining hyperplane has the form ``x_i = c``
or ``x_i - x_j = c``.  Adding a ground node 0 with ``x_0 = 0`` makes every
bound a difference bound on the nodes ``0..d``; closing them under shortest
paths gives the tightest bounds (the Kleene star, the normal idempotent form).
Every edge of such a polytope runs along a cut direction ``+1_S`` for a node
set ``S``, so the vertex enumerator walks the edge graph from the maximum
point without any linear programming, trying the ``2^(d+1) - 2`` cuts at each
vertex: its cost is ``vertices * 2^(d+1)`` cut checks.  All arithmetic is
integer after clearing denominators once, so the enumeration is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .combinatorics import all_vertex_labels, check_label
from .matrices import PLACEMENTS, IsocantedSpec, decompose, isocanted_vni
from .tropical import TropMatrix, laplace_terms, trop_minor

Point = tuple[Fraction, ...]

#: Cap on the vertex oracle's dimension; each vertex costs 2^(d+1) cut checks.
ORACLE_DIM_LIMIT = 8


@dataclass(frozen=True)
class HRep:
    """Halfspace description of an alcoved polytope.

    ``single[i-1] = (lo, hi)`` bounds ``x_i``; each ``(i, j, lo, hi)`` in
    ``diff`` bounds ``x_i - x_j`` for ``i < j``.  Bounds are exact rationals
    with ``lo <= hi``.
    """

    d: int
    single: tuple[tuple[Fraction, Fraction], ...]
    diff: tuple[tuple[int, int, Fraction, Fraction], ...]

    def contains(self, point: Sequence[Fraction]) -> bool:
        if len(point) != self.d:
            raise ValueError(f"point dimension {len(point)} != {self.d}")
        for i in range(self.d):
            lo, hi = self.single[i]
            if not lo <= point[i] <= hi:
                return False
        for i, j, lo, hi in self.diff:
            if not lo <= point[i - 1] - point[j - 1] <= hi:
                return False
        return True

    def hyperplanes(self) -> list[tuple[int, int, Fraction]]:
        """Defining hyperplanes as ``(i, j, c)`` meaning ``x_i - x_j = c``.

        ``j = 0`` denotes the ground node, i.e. the single bound ``x_i = c``.
        Coincident hyperplanes (degenerate equal bounds) are merged.
        """
        planes: set[tuple[int, int, Fraction]] = set()
        for i in range(1, self.d + 1):
            lo, hi = self.single[i - 1]
            planes.add((i, 0, lo))
            planes.add((i, 0, hi))
        for i, j, lo, hi in self.diff:
            planes.add((i, j, lo))
            planes.add((i, j, hi))
        return sorted(planes)

    def tight_rank(self, point: Sequence[Fraction]) -> int:
        """Rank of the normals of the constraints active at ``point``; ``d`` at a vertex."""
        edges = [(i, 0) for i, bounds in enumerate(self.single, 1) if point[i - 1] in bounds]
        edges += [(i, j) for i, j, lo, hi in self.diff if point[i - 1] - point[j - 1] in (lo, hi)]
        return _constraint_rank(self.d, edges)


def _constraint_rank(d: int, edges: Iterable[tuple[int, int]]) -> int:
    """Rank of single/difference normals given as constraint-graph edges.

    Edge ``(i, j)`` stands for the normal of ``x_i - x_j``, with ``j = 0`` the
    ground node for a single bound ``x_i``.  The rank is ``d + 1`` minus the
    number of connected components on the nodes ``0..d``.
    """
    parent = list(range(d + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rank = 0
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            rank += 1
    return rank


def hrep_from_matrix(a: TropMatrix) -> HRep:
    """Halfspace system of the alcoved polytope described by a finite matrix.

    Rows and columns give ``a[i, n] <= x_i <= -a[n, i]`` and
    ``a[i, j] <= x_i - x_j <= -a[j, i]``; inconsistent bounds are rejected.
    """
    if not a.is_finite():
        raise ValueError("matrix must have finite entries")
    n = a.n
    d = n - 1
    for i in range(n):
        if a.entries[i][i] != 0:
            raise ValueError("matrix must have zero diagonal")
    single = []
    for i in range(1, d + 1):
        lo = a.entry(i, n)
        hi = -a.entry(n, i)
        if lo > hi:
            raise ValueError(f"inconsistent bounds on x_{i}: {lo} > {hi}")
        single.append((lo, hi))
    diff = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            lo = a.entry(i, j)
            hi = -a.entry(j, i)
            if lo > hi:
                raise ValueError(f"inconsistent bounds on x_{i} - x_{j}: {lo} > {hi}")
            diff.append((i, j, lo, hi))
    return HRep(d, tuple(single), tuple(diff))


def auxiliary_matrix(a: TropMatrix) -> TropMatrix:
    """Column-normalized matrix with entries ``a[i,j] - a[n,j]`` and zero last row.

    Its columns are the generators of the polytope; a visualized NI matrix is
    its own auxiliary matrix.
    """
    if not a.is_finite():
        raise ValueError("matrix must have finite entries")
    n = a.n
    rows = [
        tuple(a.entries[i][j] - a.entries[n - 1][j] for j in range(n))
        for i in range(n)
    ]
    return TropMatrix(tuple(rows))


def polytope_extremes(a: TropMatrix) -> tuple[Point, Point]:
    """Coordinatewise minimum and maximum of the polytope of an NI matrix.

    The minimum is the last column of the auxiliary matrix, the maximum its
    diagonal; both are attained because NI matrices describe their polytope
    tightly.
    """
    aux = auxiliary_matrix(a)
    d = a.n - 1
    mn = tuple(aux.entries[i][d] for i in range(d))
    mx = tuple(aux.entries[i][i] for i in range(d))
    return mn, mx


@dataclass(frozen=True)
class VertexSet:
    """Exact vertex list, optionally labeled by proper subsets of ``[d+1]``."""

    d: int
    points: tuple[Point, ...]
    labels: tuple[tuple[frozenset[int], Point], ...] = ()

    @property
    def label_map(self) -> dict[frozenset[int], Point]:
        return dict(self.labels)

    def __len__(self) -> int:
        return len(self.points)


def _closed_bounds(h: HRep, scale: int) -> list[list[int]]:
    """Tightest bounds ``x_i - x_j <= bound[i][j]`` on the nodes ``0..d`` (``x_0 = 0``), times ``scale``.

    Each pair starts from its bound through the ground and its own difference
    bound, then Floyd-Warshall closes them (the Kleene star).  A negative
    diagonal entry is a negative cycle: the system has no solution.
    """
    nodes = range(h.d + 1)
    top = [0] + [int(hi * scale) for _, hi in h.single]
    floor = [0] + [-int(lo * scale) for lo, _ in h.single]
    bound = [[0 if i == j else top[i] + floor[j] for j in nodes] for i in nodes]
    for i, j, lo, hi in h.diff:
        bound[i][j] = min(bound[i][j], int(hi * scale))
        bound[j][i] = min(bound[j][i], -int(lo * scale))
    for k in nodes:
        bound = [[min(b, row[k] + via) for b, via in zip(row, bound[k])] for row in bound]
    return bound


def _subset_unions(masks: Sequence[int]) -> list[int]:
    """Table indexed by a node set ``s``: the union of ``masks[k]`` over ``k`` in ``s``."""
    table = [0]
    for mask in masks:
        table += [m | mask for m in table]
    return table


def _connected(part: int, reach: Sequence[int]) -> bool:
    """True when the node set ``part`` is connected in the graph whose neighbour table is ``reach``."""
    comp = part & -part
    while True:
        grown = comp | reach[comp] & part
        if grown == comp:
            return comp == part
        comp = grown


def enumerate_vertices_oracle(h: HRep) -> VertexSet:
    """All vertices of the polytope, by walking its edge graph from the maximum point.

    The bounds are scaled to integers once and closed (:func:`_closed_bounds`);
    an empty closure means an empty polytope.  The walk starts at the vertex
    where every ``x_i`` sits at its closed upper bound.  Every edge of an
    alcoved polytope runs along a cut direction ``+1_S`` for a proper nonempty
    node set ``S`` (ground included, points re-grounded to ``x_0 = 0``), so
    from each vertex the walk tries all ``2^(d+1) - 2`` cuts.  A cut is an
    edge when the tight bounds not crossing it leave exactly the two
    components ``S`` and its complement, and no tight bound leaving ``S``
    blocks the step; the step length is the least slack of the bounds
    leaving ``S``.  The cost is ``vertices * 2^(d+1)`` cut checks, with no
    linear programming.  The name keeps "oracle" from the exhaustive
    hyperplane-subset sweep this replaced, for compatibility.
    """
    d = h.d
    if d > ORACLE_DIM_LIMIT:
        raise ValueError(f"dimension {d} exceeds oracle limit {ORACLE_DIM_LIMIT}")
    scale = lcm(*(c.denominator for _, _, c in h.hyperplanes()))
    bound = _closed_bounds(h, scale)
    nodes = range(d + 1)
    if any(bound[k][k] < 0 for k in nodes):
        raise ValueError("empty polytope: no feasible vertex found")

    full = (1 << (d + 1)) - 1
    start = tuple(bound[k][0] for k in nodes)
    seen = {start}
    work = [start]
    while work:
        x = work.pop()
        # up[i]: the nodes j with x_i - x_j at its bound, so that i cannot rise without j.
        up = [sum(1 << j for j in nodes if x[i] - x[j] == bound[i][j]) for i in nodes]
        tight = [up[i] | sum(1 << j for j in nodes if up[j] >> i & 1) for i in nodes]
        blocked = _subset_unions(up)
        reach = _subset_unions(tight)
        for cut in range(1, full):
            if blocked[cut] & ~cut or not _connected(cut, reach) or not _connected(full ^ cut, reach):
                continue
            step = min(bound[i][j] - x[i] + x[j]
                       for i in nodes if cut >> i & 1 for j in nodes if not cut >> j & 1)
            lift = [step if cut >> k & 1 else 0 for k in nodes]
            y = tuple(x[k] + lift[k] - lift[0] for k in nodes)
            if y not in seen:
                seen.add(y)
                work.append(y)
    points = tuple(sorted(tuple(Fraction(v, scale) for v in p[1:]) for p in seen))
    return VertexSet(d, points)


def isocanted_vertex(spec: IsocantedSpec, w: Iterable[int]) -> Point:
    """Closed-form vertex of the visualized isocanted polytope for label ``w``.

    With the maximum at the origin: when the last index is absent, labeled
    coordinates are zero and the rest are ``cant - edge_length``; when it is
    present, labeled coordinates are ``-cant`` and the rest ``-edge_length``.
    """
    label = check_label(w, spec.d)
    ell, a = spec.edge_length, spec.cant
    if spec.n in label:
        return tuple(
            -a if k in label else -ell for k in range(1, spec.d + 1)
        )
    return tuple(
        Fraction(0) if k in label else a - ell for k in range(1, spec.d + 1)
    )


def isocanted_vertex_sni(spec: IsocantedSpec, w: Iterable[int]) -> Point:
    """Vertex of the origin-symmetric placement: the visualized vertex shifted."""
    half = spec.edge_length / 2
    return tuple(v + half for v in isocanted_vertex(spec, w))


def closed_form_vertices(spec: IsocantedSpec, placement: str = "vni") -> dict[frozenset[int], Point]:
    """Label-to-vertex map over all proper nonempty subsets of ``1..d+1``, in label order."""
    fn = {"vni": isocanted_vertex, "sni": isocanted_vertex_sni}[placement]
    return {w: fn(spec, w) for w in all_vertex_labels(spec.d)}


def label_vertices(spec: IsocantedSpec, vset: VertexSet, placement: str = "vni") -> VertexSet:
    """Attach closed-form labels to oracle output, demanding exact agreement."""
    expected = closed_form_vertices(spec, placement)
    if set(vset.points) != set(expected.values()) or len(vset.points) != len(expected):
        raise ValueError("oracle vertices do not match the closed-form vertex map")
    return VertexSet(vset.d, vset.points, tuple(expected.items()))


def unique_vertex_conditions(c: TropMatrix, w: Iterable[int], point: Sequence[Fraction]) -> bool:
    """Minor-multiplicity test that ``point`` is the lone vertex for label ``w``.

    ``point`` is a full coordinate vector of length ``n = c.n`` whose last
    entry must be zero.  The candidate column is substituted into a column
    slot outside ``w`` and, for every row subset one larger than ``w``, the
    Laplace terms along that column must all coincide (so the maximum is
    attained once per term) and the minor maximum must be attained at least
    twice (membership in the span).
    """
    label = sorted(set(w))
    n = c.n
    if len(point) != n or point[-1] != 0:
        raise ValueError("candidate point must have length n with last entry zero")
    slot = next(k for k in range(1, n + 1) if k not in label)
    extended = c.replace_column(slot, list(point))
    cols = sorted(set(label) | {slot})
    order = len(label) + 1
    for rows in itertools.combinations(range(1, n + 1), order):
        terms = laplace_terms(extended, rows, cols, slot)
        first = terms[0]
        if any(t != first for t in terms[1:]):
            return False
        if trop_minor(extended, rows, cols).multiplicity < 2:
            return False
    return True


def verify_unique_vertex(spec: IsocantedSpec, w: Iterable[int]) -> bool:
    """Check the closed-form vertex against the minor-multiplicity conditions."""
    label = check_label(w, spec.d)
    c = isocanted_vni(spec)
    point = isocanted_vertex(spec, label) + (Fraction(0),)
    return unique_vertex_conditions(c, label, point)


def poles(spec: IsocantedSpec, placement: str = "vni") -> tuple[Point, Point]:
    """North and south poles: the polytope's maximum and minimum points."""
    mn, mx = polytope_extremes(PLACEMENTS[placement](spec))
    return mx, mn


def bounding_box(a: TropMatrix) -> HRep:
    """Halfspace system of the bounding box of an NI matrix's polytope."""
    return hrep_from_matrix(decompose(a).box)


def central_symmetry_check(a: TropMatrix) -> bool:
    """True when the vertex set of the polytope is closed under negation."""
    vset = enumerate_vertices_oracle(hrep_from_matrix(a))
    pts = set(vset.points)
    return all(tuple(-v for v in p) in pts for p in pts)


def zonotope_check(spec: IsocantedSpec) -> bool:
    """Verify the polytope is the sum of a shrunken box and a diagonal segment.

    Candidates are all sums of a vertex of ``prod [-(edge_length - cant), 0]``
    with an endpoint of the segment from the origin to ``-cant * (1, ..., 1)``.
    Three exact checks establish equality of vertex sets: every candidate lies
    in the polytope, every oracle vertex is a candidate, and the candidates
    with full active rank are exactly the oracle vertices.
    """
    d = spec.d
    ell, a = spec.edge_length, spec.cant
    h = hrep_from_matrix(isocanted_vni(spec))
    vset = enumerate_vertices_oracle(h)

    box_side = ell - a
    box_vertices = [
        tuple(Fraction(0) if bit else -box_side for bit in bits)
        for bits in itertools.product((0, 1), repeat=d)
    ]
    segment = [tuple(Fraction(0) for _ in range(d)), tuple(-a for _ in range(d))]
    candidates = {
        tuple(b[k] + s[k] for k in range(d)) for b in box_vertices for s in segment
    }

    if not all(h.contains(p) for p in candidates):
        return False
    oracle_points = set(vset.points)
    if not oracle_points <= candidates:
        return False
    extremal = {p for p in candidates if h.tight_rank(p) == d}
    return extremal == oracle_points


def oracle_face_counts(h: HRep, vset: VertexSet) -> tuple[int, ...]:
    """Face counts by dimension, recovered from vertex-facet incidences.

    Each hyperplane's tight vertex set is an int bitmask.  Facet sets are
    intersected to closure (every proper face of a polytope is an
    intersection of facets).  A face's dimension is ``d`` minus the
    constraint-graph rank of the hyperplanes tight on all its vertices: those
    cut out its affine hull.  Hyperplanes tight on every vertex are implicit
    equalities of a flat polytope and count towards every rank.
    """
    points = vset.points
    everything = (1 << len(points)) - 1
    tight = []
    for i, j, c in h.hyperplanes():
        mask = 0
        for k, p in enumerate(points):
            if (p[i - 1] if j == 0 else p[i - 1] - p[j - 1]) == c:
                mask |= 1 << k
        tight.append(((i, j), mask))
    facets = {mask for _, mask in tight if mask and mask != everything}

    faces = set(facets)
    work = list(facets)
    while work:
        face = work.pop()
        for facet in facets:
            meet = face & facet
            if meet and meet not in faces:
                faces.add(meet)
                work.append(meet)

    counts = [0] * h.d
    for face in faces:
        rank = _constraint_rank(h.d, (edge for edge, mask in tight if face & mask == face))
        counts[h.d - rank] += 1
    return tuple(counts)
