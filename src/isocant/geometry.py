"""Exact geometry of alcoved polytopes: halfspace systems, vertex enumeration, poles.

An alcoved polytope is cut out by bounds on single coordinates and on
coordinate differences, so every defining hyperplane has the form ``x_i = c``
or ``x_i - x_j = c``.  Adding a ground node 0 with ``x_0 = 0`` makes every
bound a difference bound on the nodes ``0..d``, and ``HRep`` lists them in
one table that every reader goes through; closing them under shortest paths
gives the tightest bounds (the Kleene star, the normal idempotent form).
Every edge of such a polytope runs along a cut direction ``+1_S`` for a node
set ``S``, so the vertex enumerator walks the edge graph from the maximum
point without any linear programming, trying the ``2^(d+1) - 2`` cuts at each
vertex and stepping each edge once: its cost is ``vertices * 2^(d+1)`` cut
checks.  Each closed bound is the attained maximum of ``x_i - x_j``, so the
closed table alone fixes the polytope, and central symmetry and the zonotope
identity are read from it without enumerating vertices.  Face recovery reads
each face's dimension from a per-pair table of vertex classes.  The walk, the
closed-table checks, face recovery, the unique-vertex check and the
vertex-set match of ``label_vertices`` are exact, on integers after
``tropical._scaled`` clears denominators.  ``TropMatrix``, ``HRep`` and
``VertexSet`` each keep that integer grid (``_grid``), scaled once on first
read or filled by the function that makes the record from ints it holds:
``hrep_from_matrix`` from the matrix's grid, the walk from its integer
points.  So one matrix taken through halfspaces, walk, faces, NI test,
decomposition and symmetry check is scaled once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

from ._record import Record
from .combinatorics import all_vertex_labels, check_label
from .matrices import PLACEMENTS, IsocantedSpec, Rational, _visualized, decompose, isocanted_vni
from .tropical import TropMatrix, _check_selection, _laplace_terms, _scaled

Point = tuple[Fraction, ...]

#: Cap on the vertex oracle's dimension; each vertex costs 2^(d+1) cut checks.
ORACLE_DIM_LIMIT = 8


class HRep(Record):
    """Halfspace description of an alcoved polytope.

    ``single[i-1] = (lo, hi)`` bounds ``x_i``; each ``(i, j, lo, hi)`` in
    ``diff`` bounds ``x_i - x_j`` for ``i < j``.  Bounds are exact rationals
    with ``lo <= hi``; every reader goes through :meth:`_bounds`.
    """

    d: int
    single: tuple[tuple[Fraction, Fraction], ...]
    diff: tuple[tuple[int, int, Fraction, Fraction], ...]

    def _bounds(self) -> tuple[tuple[int, int, Fraction, Fraction], ...]:
        """Every bound as ``(i, j, lo, hi)`` on ``x_i - x_j``, with ``j = 0`` the ground."""
        return tuple((i, 0, lo, hi) for i, (lo, hi) in enumerate(self.single, 1)) + self.diff

    @cached_property
    def _grid(self) -> tuple[tuple[tuple[int, int, int, int], ...], int]:
        """:meth:`_bounds` with ``lo, hi`` as ints over one denominator, and that denominator.

        ``hrep_from_matrix`` fills it from the matrix's grid; other systems
        scale their bounds on first read.
        """
        bounds = self._bounds()
        scaled, den = _scaled([(lo, hi) for *_, lo, hi in bounds])
        return tuple((i, j, lo, hi) for (i, j, _, _), (lo, hi) in zip(bounds, scaled)), den

    def _grounded(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """``(0, *point)``: the point on the nodes ``0..d``, after checking its length."""
        if len(point) != self.d:
            raise ValueError(f"point dimension {len(point)} != {self.d}")
        return (0, *point)

    def contains(self, point: Sequence[Fraction]) -> bool:
        x = self._grounded(point)
        return all(lo <= x[i] - x[j] <= hi for i, j, lo, hi in self._bounds())

    def hyperplanes(self) -> list[tuple[int, int, Fraction]]:
        """Defining hyperplanes as ``(i, j, c)`` meaning ``x_i - x_j = c``.

        ``j = 0`` denotes the ground node, i.e. the single bound ``x_i = c``.
        Coincident hyperplanes (degenerate equal bounds) are merged.
        """
        return sorted({(i, j, c) for i, j, lo, hi in self._bounds() for c in (lo, hi)})

    def tight_rank(self, point: Sequence[Fraction]) -> int:
        """Rank of the normals of the constraints active at ``point``; ``d`` at a vertex."""
        x = self._grounded(point)
        edges = [(i, j) for i, j, lo, hi in self._bounds() if x[i] - x[j] in (lo, hi)]
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
    ``a[i, j] <= x_i - x_j <= -a[j, i]``; inconsistent bounds are rejected,
    the single bounds checked first.  The bounds are every off-diagonal
    entry, so the matrix's integer grid is theirs too: the checks run on it,
    and it fills the system's ``_grid``.
    """
    if not a.is_finite():
        raise ValueError("matrix must have finite entries")
    n = a.n
    grid, den = a._grid
    if any(grid[i][i] for i in range(n)):
        raise ValueError("matrix must have zero diagonal")
    e = a.entries
    exact, scaled = [], []
    pairs = itertools.chain(((i, n) for i in range(1, n)), itertools.combinations(range(1, n), 2))
    for i, j in pairs:
        lo, hi = grid[i - 1][j - 1], -grid[j - 1][i - 1]
        if lo > hi:
            what = f"x_{i}" if j == n else f"x_{i} - x_{j}"
            raise ValueError(f"inconsistent bounds on {what}: {e[i - 1][j - 1]} > {-e[j - 1][i - 1]}")
        node = 0 if j == n else j
        exact.append((i, node, e[i - 1][j - 1], -e[j - 1][i - 1]))
        scaled.append((i, node, lo, hi))
    h = HRep(n - 1, tuple((lo, hi) for *_, lo, hi in exact[: n - 1]), tuple(exact[n - 1:]))
    # A cached property reads the instance dict first, so this fills ``h._grid``.
    vars(h)["_grid"] = tuple(scaled), den
    return h


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


class VertexSet(Record):
    """Exact vertex list, optionally labeled by proper subsets of ``[d+1]``."""

    d: int
    points: tuple[Point, ...]
    labels: tuple[tuple[frozenset[int], Point], ...] = ()

    @property
    def label_map(self) -> dict[frozenset[int], Point]:
        return dict(self.labels)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _grid(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The grounded points ``(0, *p)`` as ints over one denominator, and that denominator.

        The walk fills it over the bounds' denominator; other sets scale their
        points on first read.  Readers meet it with their other grid at the
        lcm of the two denominators (:func:`_over`).
        """
        return _scaled([(0, *p) for p in self.points])


def _over(rows: Sequence[Sequence[int]], den: int, common: int) -> Sequence[Sequence[int]]:
    """Integer ``rows`` over ``den`` as tuple rows over ``common``, a multiple of ``den``."""
    k = common // den
    return rows if k == 1 else [tuple([v * k for v in row]) for row in rows]


def _closed_bounds(h: HRep) -> tuple[list[list[int]], int]:
    """Tightest bounds ``x_i - x_j <= bound[i][j] / den`` on the nodes ``0..d`` (``x_0 = 0``).

    The bounds come from ``h._grid``, so a system is scaled at most once.
    Each pair starts from its own bound, or its path through the ground
    when it has none, and Floyd-Warshall closes them (the Kleene star).
    Each closed entry is then the attained maximum of ``x_i - x_j`` over the
    polytope.  Raises the oracle's errors: a dimension above
    ``ORACLE_DIM_LIMIT``, and a negative diagonal entry, which is a negative
    cycle: the system has no solution.
    """
    if h.d > ORACLE_DIM_LIMIT:
        raise ValueError(f"dimension {h.d} exceeds oracle limit {ORACLE_DIM_LIMIT}")
    bounds, den = h._grid
    nodes = range(h.d + 1)
    own = {(k, k): 0 for k in nodes}
    for i, j, lo, hi in bounds:
        for key, v in (((i, j), hi), ((j, i), -lo)):
            own[key] = min(own.get(key, v), v)
    bound = [[own[i, j] if (i, j) in own else own[i, 0] + own[0, j] for j in nodes]
             for i in nodes]
    for k in nodes:
        bound = [[min(b, row[k] + via) for b, via in zip(row, bound[k])] for row in bound]
    if any(bound[k][k] < 0 for k in nodes):
        raise ValueError("empty polytope: no feasible vertex found")
    return bound, den


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

    The bounds are scaled to integers once and closed (:func:`_closed_bounds`,
    which also raises the cap and empty-polytope errors).  The walk starts at
    the vertex where every ``x_i`` sits at its closed upper bound.  Every edge
    of an alcoved polytope runs along a cut direction ``+1_S`` for a proper
    nonempty node set ``S`` (ground included, points re-grounded to
    ``x_0 = 0``), so from each vertex the walk tries all ``2^(d+1) - 2``
    cuts.  A cut is an edge when the tight bounds not crossing it leave
    exactly the two components ``S`` and its complement, and no tight bound
    leaving ``S`` blocks the step; the step length is the least slack of the
    bounds leaving ``S``.  Each edge is stepped once: the vertex it reaches
    skips the reverse cut (the complement of ``S``).  Tightness is carried
    along the walk: a new vertex takes its tight pairs from the edge that
    found it, so only the start vertex compares all ``(d+1)^2`` pairs.  The
    cost is ``vertices * 2^(d+1)`` cut checks, with no linear programming.
    Points are sorted as integer tuples and then built with one ``Fraction``
    per distinct coordinate value; the sorted tuples, grounded and over the
    bounds' denominator, fill the result's ``_grid``.  The name keeps
    "oracle" from the exhaustive hyperplane-subset sweep this replaced, for
    compatibility.
    """
    bound, den = _closed_bounds(h)
    nodes = range(h.d + 1)
    full = (1 << (h.d + 1)) - 1
    start = tuple(bound[k][0] for k in nodes)
    # up[x][i]: the nodes j with x_i - x_j at its bound, so that i cannot rise without j.
    up = {start: [sum(1 << j for j in nodes if start[i] - start[j] == bound[i][j]) for i in nodes]}
    # back[x]: bit c set when cut c leads back along an edge already stepped into x.
    back = {start: 0}
    work = [start]
    while work:
        x = work.pop()
        ups, skip = up[x], back[x]
        tight = [ups[i] | sum(1 << j for j in nodes if ups[j] >> i & 1) for i in nodes]
        blocked = _subset_unions(ups)
        reach = _subset_unions(tight)
        for cut in range(1, full):
            if (skip >> cut & 1 or blocked[cut] & ~cut
                    or not _connected(cut, reach) or not _connected(full ^ cut, reach)):
                continue
            outs = [j for j in nodes if not cut >> j & 1]
            step = min(bound[i][j] - x[i] + x[j] for i in nodes if cut >> i & 1 for j in outs)
            lift = [step if cut >> k & 1 else 0 for k in nodes]
            y = tuple(x[k] + lift[k] - lift[0] for k in nodes)
            if y not in up:
                # Pairs on one side keep their state; a pair leaving the cut is tight
                # when its slack is the step, and one entering it cannot be (step > 0).
                up[y] = [
                    ups[i] & cut | sum(1 << j for j in outs if bound[i][j] - x[i] + x[j] == step)
                    if cut >> i & 1 else ups[i] & ~cut
                    for i in nodes
                ]
                back[y] = 0
                work.append(y)
            back[y] |= 1 << (full ^ cut)
    grid = tuple(sorted(up))
    value = {v: Fraction(v, den) for v in {v for p in grid for v in p}}
    vset = VertexSet(h.d, tuple(tuple(value[v] for v in p[1:]) for p in grid))
    vars(vset)["_grid"] = grid, den
    return vset


def _vertex_values(ell: Rational, a: Rational) -> tuple[tuple[Rational, Rational], ...]:
    return (a - a, a - ell), (-a, -ell)


def _vertex(label: frozenset[int], d: int, values: Sequence[tuple[Rational, Rational]]) -> tuple:
    """Vertex for ``label``: ``values[n in label]`` holds its labeled and unlabeled coordinate."""
    labeled, unlabeled = values[d + 1 in label]
    return tuple(labeled if k in label else unlabeled for k in range(1, d + 1))


def isocanted_vertex(spec: IsocantedSpec, w: Iterable[int]) -> Point:
    """Closed-form vertex of the visualized isocanted polytope for label ``w``.

    With the maximum at the origin: when the last index is absent, labeled
    coordinates are zero and the rest are ``cant - edge_length``; when it is
    present, labeled coordinates are ``-cant`` and the rest ``-edge_length``.
    """
    return _vertex(check_label(w, spec.d), spec.d, _vertex_values(spec.edge_length, spec.cant))


def isocanted_vertex_sni(spec: IsocantedSpec, w: Iterable[int]) -> Point:
    """Vertex of the origin-symmetric placement: the visualized vertex shifted."""
    half = spec.edge_length / 2
    return tuple(v + half for v in isocanted_vertex(spec, w))


def _placed_values(spec: IsocantedSpec, placement: str) -> list[tuple[Fraction, Fraction]]:
    """The ``_vertex`` values of ``spec``'s vertices in the named placement."""
    shift = {"vni": 0, "sni": spec.edge_length / 2}[placement]
    return [(x + shift, y + shift) for x, y in _vertex_values(spec.edge_length, spec.cant)]


def closed_form_vertices(spec: IsocantedSpec, placement: str = "vni") -> dict[frozenset[int], Point]:
    """Label-to-vertex map over all proper nonempty subsets of ``1..d+1``, in label order."""
    values = _placed_values(spec, placement)
    return {w: _vertex(w, spec.d, values) for w in all_vertex_labels(spec.d)}


def label_vertices(spec: IsocantedSpec, vset: VertexSet, placement: str = "vni") -> VertexSet:
    """Attach closed-form labels to oracle output, demanding exact agreement.

    Every closed-form coordinate is one of four values; they are scaled once,
    and each expected vertex is compared as a grounded integer tuple with
    ``vset._grid``, the two brought to a common denominator.
    """
    values = _placed_values(spec, placement)
    ints, den = _scaled(values)
    xs, xden = vset._grid
    common = lcm(den, xden)
    ints = _over(ints, den, common)
    labels = list(all_vertex_labels(spec.d))
    expected = {(0, *_vertex(w, spec.d, ints)) for w in labels}
    if len(vset) != len(labels) or set(_over(xs, xden, common)) != expected:
        raise ValueError("oracle vertices do not match the closed-form vertex map")
    return VertexSet(vset.d, vset.points, tuple((w, _vertex(w, spec.d, values)) for w in labels))


def _lone_vertex(grid: Sequence[Sequence[int | None]], label: Sequence[int], slot: int) -> bool:
    """The unique-vertex test on an int grid whose column ``slot`` holds the candidate.

    ``label`` and ``slot`` are 1-based.  For every row subset one larger than
    the label, the Laplace terms along the slot column must all coincide.
    """
    cols = sorted([*label, slot])
    order = len(cols)
    # Every row subset shares the columns, so one check stands for all.
    _check_selection(len(grid), range(1, order + 1), cols)
    idx = [j - 1 for j in cols]
    for rows in itertools.combinations(range(len(grid)), order):
        terms = _laplace_terms(grid, rows, idx, slot - 1)
        if terms.count(terms[0]) != order:
            return False
    return order >= 2


def unique_vertex_conditions(c: TropMatrix, w: Iterable[int], point: Sequence[Fraction]) -> bool:
    """Minor-multiplicity test that ``point`` is the lone vertex for label ``w``.

    ``point`` is a full coordinate vector of length ``n = c.n`` whose last
    entry must be zero.  The candidate column is substituted into a column
    slot outside ``w`` and, for every row subset one larger than ``w``, the
    Laplace terms along that column must all coincide.  That alone attains the
    minor maximum at least twice (membership in the span): the ``k = |w| + 1``
    equal terms are maximizing permutations with distinct rows in the slot
    (all ``k!`` attain ``-inf``), and an empty label has ``k = 1`` and fails.
    A label holding every index ``1..n`` leaves no slot and is an error, as
    is a label entry outside ``1..n``.
    The extended matrix is scaled to integers once, and the row-subset loop
    compares ``int`` terms from ``tropical._laplace_terms``.
    """
    label = sorted(set(w))
    n = c.n
    if len(point) != n or point[-1] != 0:
        raise ValueError("candidate point must have length n with last entry zero")
    slot = next((k for k in range(1, n + 1) if k not in label), None)
    if slot is None:
        raise ValueError("label must leave a column slot outside it")
    bad = next((j for j in label if not 1 <= j <= n), None)
    if bad is not None:
        raise ValueError(f"column index {bad} out of range")
    return _lone_vertex(_scaled(c.replace_column(slot, list(point)).entries)[0], label, slot)


def verify_unique_vertex(spec: IsocantedSpec, w: Iterable[int]) -> bool:
    """Check the closed-form vertex against the minor-multiplicity conditions, on ints.

    Edge and cant are scaled once, and the grid of ``isocanted_vni(spec)`` is
    built with ``isocanted_vertex(spec, w) + (0,)`` in its slot column.
    """
    label = check_label(w, spec.d)
    [[ell, a]], _ = _scaled([(spec.edge_length, spec.cant)])
    slot = next(k for k in range(1, spec.n + 1) if k not in label)
    vertex = _vertex(label, spec.d, _vertex_values(ell, a)) + (0,)
    rows = zip(_visualized([ell] * spec.d, a), vertex)
    return _lone_vertex([row[:slot - 1] + (v,) + row[slot:] for row, v in rows], label, slot)


def poles(spec: IsocantedSpec, placement: str = "vni") -> tuple[Point, Point]:
    """North and south poles: the polytope's maximum and minimum points."""
    mn, mx = polytope_extremes(PLACEMENTS[placement](spec))
    return mx, mn


def bounding_box(a: TropMatrix) -> HRep:
    """Halfspace system of the bounding box of an NI matrix's polytope."""
    return hrep_from_matrix(decompose(a).box)


def central_symmetry_check(a: TropMatrix) -> bool:
    """True when the polytope equals its negation, so its vertex set is closed under it.

    Each closed bound (:func:`_closed_bounds`) is the attained maximum of
    ``x_i - x_j`` over the polytope, and the negated polytope's closed bounds
    are their transpose, so the check is that the closed table is symmetric.
    No vertex is enumerated; the oracle's cap and empty-polytope errors hold.
    """
    bound, _ = _closed_bounds(hrep_from_matrix(a))
    return bound == [list(col) for col in zip(*bound)]


def _has_closed_table(a: TropMatrix, table: Sequence[Sequence[Rational]]) -> bool:
    """True when ``a``'s polytope has the closed bounds ``x_i - x_j <= table[i][j]`` (nodes ``0..d``)."""
    bound, den = _closed_bounds(hrep_from_matrix(a))
    return bound == [[v * den for v in row] for row in table]


def zonotope_check(spec: IsocantedSpec) -> bool:
    """Verify the polytope is the sum of a shrunken box and a diagonal segment.

    The box is ``prod [-(edge_length - cant), 0]`` and the segment runs from
    the origin to ``-cant * (1, ..., 1)``.  Their sum is the alcoved polytope
    ``x_i - x_j <= edge_length - cant``, ``x_i <= 0``, ``-x_i <= edge_length``,
    and that table is closed: each entry is the sum's support value in the
    direction ``e_i - e_j``, the box's plus the segment's.  An alcoved
    polytope is fixed by its closed table (:func:`_closed_bounds`), so the
    check is that the isocanted polytope's closed table is this one.  No
    vertex is enumerated; the oracle's cap and empty-polytope errors hold.
    """
    ell, a = spec.edge_length, spec.cant
    nodes = range(spec.d + 1)
    table = [[0 if i == j or j == 0 else ell if i == 0 else ell - a for j in nodes] for i in nodes]
    return _has_closed_table(isocanted_vni(spec), table)


def oracle_face_counts(h: HRep, vset: VertexSet) -> tuple[int, ...]:
    """Face counts by dimension, recovered from vertex-facet incidences.

    The grounded vertices (``vset._grid``) and the bounds (``h._grid``) are
    read on their integer grids, at the lcm of their denominators; nothing is
    scaled when the walk built ``vset`` from ``h``.  For each node pair
    ``j < i`` the vertices fall into classes by the value of ``x_i - x_j``,
    kept as int bitmasks; ``same[i][j][k]`` is the class of vertex ``k``.
    A bound's facet is the class at its ``lo`` or ``hi`` when that is neither
    empty nor every vertex.  Facet sets are intersected to closure (every
    proper face is an intersection of facets).
    A face of ``n <= 3`` vertices is a vertex, an edge or a triangle, of
    dimension ``n - 1``.  A larger face's affine hull is cut out by the
    difference equations constant on it, so its dimension is the number of
    classes of nodes with a constant difference over it, minus one; the
    classes are counted at its lowest vertex from the table.  A face of one
    vertex is not met with the facets again: each meet is itself or empty.
    """
    bounds, den = h._grid
    xs, xden = vset._grid
    bad = next((x for x in xs if len(x) != h.d + 1), None)
    if bad is not None:
        raise ValueError(f"point dimension {len(bad) - 1} != {h.d}")
    common = lcm(den, xden)
    xs, scale = _over(xs, xden, common), common // den
    everything = (1 << len(xs)) - 1
    classes, same = {}, []
    for i in range(h.d + 1):
        same.append([])
        for j in range(i):
            diffs = [x[i] - x[j] for x in xs]
            masks = classes[i, j] = dict.fromkeys(diffs, 0)
            for k, v in enumerate(diffs):
                masks[v] |= 1 << k
            same[i].append([masks[v] for v in diffs])
    facets = set()
    for i, j, lo, hi in bounds:
        pair, sign = (classes[i, j], scale) if i > j else (classes[j, i], -scale)
        facets.update(pair.get(sign * c, 0) for c in (lo, hi))
    facets -= {0, everything}

    faces = set(facets)
    work = [face for face in facets if face & (face - 1)]
    while work:
        face = work.pop()
        for facet in facets:
            meet = face & facet
            if meet and meet not in faces:
                faces.add(meet)
                if meet & (meet - 1):
                    work.append(meet)

    counts = [0] * h.d
    for face in faces:
        n = face.bit_count()
        if n <= 3:
            counts[n - 1] += 1
            continue
        # Each node with a constant difference to an earlier node joins its class.
        k = (face & -face).bit_length() - 1
        dim = h.d
        for row in same:
            for at in row:
                if face & at[k] == face:
                    dim -= 1
                    break
        counts[dim] += 1
    return tuple(counts)
