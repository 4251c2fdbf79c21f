"""Exact geometry of alcoved polytopes: halfspace systems, vertex enumeration, poles.

An alcoved polytope is cut out by bounds on single coordinates and on
coordinate differences, so every defining hyperplane has the form ``x_i = c``
or ``x_i - x_j = c``.  Adding a ground node 0 with ``x_0 = 0`` makes every
bound a difference bound on the nodes ``0..d``, and ``HRep`` lists them in
one table that every reader goes through; closing its dense integer form
(``_grid``) gives the tightest bounds (the Kleene star, the NI form).
Every edge of such a polytope runs along a cut direction ``+1_S`` for a node
set ``S``, and ``S`` is an up-set of the vertex's tight order (the tight part
of the closed table), so the vertex enumerator walks the edge graph from the
maximum point without any linear programming.  Three rules read a vertex's
edges off its tight order: a spanning tree, a complete bipartite order (every
vertex of an isocanted polytope whose label has 2 to ``d - 1`` elements) and
any other order (``_edge_cuts``).  The walk steps only the downward edges
under ``x_1 + ... + x_d``, which no edge leaves level, and counts the faces,
each at its highest vertex, from that vertex's edges (``_walk``).  Each closed
bound is the attained maximum of ``x_i - x_j``, so the closed table alone
fixes the polytope, and central symmetry and the zonotope identity are
read from it without enumerating vertices; a hand-built vertex set gets its
face counts by walking the table of its own extremes.
Each isocanted vertex's closed form, fixed by its label, is written once
(``_vertex_values``); the poles are two of them.  The walk and its face
counts, the closed-table checks, the unique-vertex check and the vertex-set
match of ``label_vertices`` are exact, on integers after
``tropical._scaled`` clears denominators; the walk's points come back
through ``tropical._unscaled``.  ``TropMatrix``, ``HRep`` and
``VertexSet`` each keep that integer grid (``_grid``), scaled once on first
read or filled by the function that makes the record from ints it holds:
``hrep_from_matrix`` relabels the matrix's grid, the walk keeps its integer
points (and, beside them, its face counts).  So one matrix taken through
halfspaces, walk, faces, NI test, decomposition and symmetry check is scaled
once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from ._record import Record, _require_at_most, _require_ints
from .combinatorics import _binomial_row, all_vertex_labels, check_label
from .matrices import (
    IsocantedSpec, Rational, _require_finite, _visualized, decompose, isocanted_vni,
)
from .tropical import (
    TropMatrix, _check_selection, _exact_rows, _laplace_terms, _scaled, _unscaled, as_rational,
)

Point = tuple[Fraction, ...]

#: Cap on the vertex oracle's dimension: a vertex that is neither simple nor two-layer
#: tries every union of its up-sets.
ORACLE_DIM_LIMIT = 8


def _ambient_dim(d: int) -> int:
    """``d`` once it is a non-negative int, the one dimension check of ``HRep`` and ``VertexSet``."""
    _require_ints((d,), "dimension must be an int")
    if d < 0:
        raise ValueError(f"dimension must be non-negative, got {d}")
    return d


class HRep(Record):
    """Halfspace description of an alcoved polytope.

    ``single[i-1] = (lo, hi)`` bounds ``x_i`` for ``i`` in ``1..d``; each
    ``(i, j, lo, hi)`` in ``diff`` bounds ``x_i - x_j`` for distinct ``i, j`` in
    ``1..d``.  Bounds are exact rationals, read through :meth:`_bounds`.  A hand-built
    pair with ``lo > hi`` gives the empty polytope; only ``hrep_from_matrix`` refuses one.
    """

    d: int
    single: tuple[tuple[Fraction, Fraction], ...]
    diff: tuple[tuple[int, int, Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        d = _ambient_dim(self.d)
        if len(self.single) != d:
            raise ValueError(f"dimension {d} needs {d} single bounds, got {len(self.single)}")
        for i, b in enumerate(self.single, 1):
            if not isinstance(b, (tuple, list)) or len(b) != 2:
                raise ValueError(f"single bound on x_{i} must be a (lo, hi) pair, got {b!r}")
        for b in self.diff:
            if not isinstance(b, (tuple, list)) or len(b) != 4:
                raise ValueError(f"difference bound must be (i, j, lo, hi), got {b!r}")
        # Every bound passes the exact-number gate at once; node indices stay ints.
        exact = _exact_rows((*self.single, *(b[2:] for b in self.diff)), {Fraction}, as_rational)
        object.__setattr__(self, "single", exact[:d])
        diff = tuple((i, j, *b) for (i, j, _, _), b in zip(self.diff, exact[d:]))
        object.__setattr__(self, "diff", diff)
        for i, j, _, _ in diff:
            _require_ints((i, j), "node indices must be ints")
            if i == j or not (0 < i <= d and 0 < j <= d):
                raise ValueError(f"bound on x_{i} - x_{j} needs two distinct nodes in 1..{d}")

    def _bounds(self) -> tuple[tuple[int, int, Fraction, Fraction], ...]:
        """Every bound as ``(i, j, lo, hi)`` on ``x_i - x_j``, with ``j = 0`` the ground."""
        return tuple((i, 0, lo, hi) for i, (lo, hi) in enumerate(self.single, 1)) + self.diff

    @cached_property
    def _grid(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Stated upper bounds ``x_i - x_j <= table[i][j] / den`` on the nodes ``0..d``, and ``den``.

        A pair bounded twice keeps the least bound, and an unbounded pair its
        path through the ground.  ``hrep_from_matrix`` fills it from the
        matrix's grid; other systems scale their bounds on first read.
        """
        bounds = self._bounds()
        scaled, den = _scaled([(lo, hi) for *_, lo, hi in bounds])
        nodes = range(self.d + 1)
        own = {(k, k): 0 for k in nodes}
        for (i, j, _, _), (lo, hi) in zip(bounds, scaled):
            for key, v in (((i, j), hi), ((j, i), -lo)):
                own[key] = min(own.get(key, v), v)
        return tuple([
            tuple([own[i, j] if (i, j) in own else own[i, 0] + own[0, j] for j in nodes]) for i in nodes
        ]), den

    def _grounded(self, point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """``(0, *point)`` on the nodes ``0..d``, after the length check and the exact-number gate."""
        if len(point) != self.d:
            raise ValueError(f"point dimension {len(point)} != {self.d}")
        return (0, *map(as_rational, point))

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
    number of connected components on the nodes ``0..d``, each kept as
    the bitmask of its nodes.
    """
    comp = [1 << k for k in range(d + 1)]
    for i, j in edges:
        if comp[i] != comp[j]:
            joined = comp[i] | comp[j]
            comp = [joined if m & joined else m for m in comp]
    return d + 1 - len(set(comp))


def hrep_from_matrix(a: TropMatrix) -> HRep:
    """Halfspace system of the alcoved polytope described by a finite matrix.

    Rows and columns give ``a[i, n] <= x_i <= -a[n, i]`` and
    ``a[i, j] <= x_i - x_j <= -a[j, i]``; inconsistent bounds are rejected,
    the single bounds checked first.  The bounds are every off-diagonal
    entry, so the matrix's integer grid is their table too: the checks run
    on it, and relabelled (``x_p - x_q <= -a[q, p]``) it fills ``h._grid``.
    """
    _require_finite(a)
    n = a.n
    grid, den = a._grid
    if any(grid[i][i] for i in range(n)):
        raise ValueError("matrix must have zero diagonal")
    e = a.entries
    bounds = []
    pairs = itertools.chain(((i, n) for i in range(1, n)), itertools.combinations(range(1, n), 2))
    for i, j in pairs:
        lo, hi = e[i - 1][j - 1], -e[j - 1][i - 1]
        if grid[i - 1][j - 1] + grid[j - 1][i - 1] > 0:
            what = f"x_{i}" if j == n else f"x_{i} - x_{j}"
            raise ValueError(f"inconsistent bounds on {what}: {lo} > {hi}")
        bounds.append((i, 0 if j == n else j, lo, hi))
    h = HRep(n - 1, tuple((lo, hi) for *_, lo, hi in bounds[: n - 1]), tuple(bounds[n - 1:]))
    # Node p is matrix index p - 1, and the ground node 0 is the last index.
    at = (n - 1, *range(n - 1))
    # A cached property reads the instance dict first, so this fills ``h._grid``.
    vars(h)["_grid"] = tuple([tuple([-grid[q][p] for q in at]) for p in at]), den
    return h


def auxiliary_matrix(a: TropMatrix) -> TropMatrix:
    """Column-normalized matrix with entries ``a[i,j] - a[n,j]`` and zero last row.

    Its columns are the generators of the polytope; a visualized NI matrix is
    its own auxiliary matrix.
    """
    _require_finite(a)
    n = a.n
    rows = [
        tuple(a.entries[i][j] - a.entries[n - 1][j] for j in range(n))
        for i in range(n)
    ]
    return TropMatrix(tuple(rows))


def polytope_extremes(a: TropMatrix) -> tuple[Point, Point]:
    """Coordinatewise minimum and maximum of the polytope of an NI matrix.

    The minimum is the last column of the auxiliary matrix, the maximum its
    diagonal, read off ``a`` itself for any finite matrix; only an NI matrix
    is sure to attain them.  The normal ``[[0, 0, -5], [-3, 0, -1], [0, 0, 0]]``
    gives -5 as the least ``x_1``, but its vertices reach only -1.
    """
    _require_finite(a)
    e = a.entries
    d = a.n - 1
    return tuple(e[i][d] - e[d][d] for i in range(d)), tuple(e[i][i] - e[d][i] for i in range(d))


class VertexSet(Record):
    """Exact vertex list, optionally labeled by proper subsets of ``[d+1]``; label points are points too."""

    d: int
    points: tuple[Point, ...]
    labels: tuple[tuple[frozenset[int], Point], ...] = ()

    def __post_init__(self) -> None:
        d = _ambient_dim(self.d)
        object.__setattr__(self, "points", _exact_rows(self.points, {Fraction}, as_rational))
        keys, pts = zip(*self.labels) if self.labels else ((), ())
        pts = _exact_rows(pts, {Fraction}, as_rational)
        object.__setattr__(self, "labels", tuple(zip(map(frozenset, keys), pts)))
        bad = next((p for p in itertools.chain(self.points, pts) if len(p) != d), None)
        if bad is not None:
            raise ValueError(f"point dimension {len(bad)} != {d}")

    @property
    def label_map(self) -> dict[frozenset[int], Point]:
        return dict(self.labels)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _grid(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The grounded points ``(0, *p)`` as ints over one denominator, and that denominator.

        The walk fills it over the bounds' denominator; other sets scale their
        points on first read.
        """
        return _scaled([(0, *p) for p in self.points])

    @cached_property
    def _faces(self) -> tuple[int, ...]:
        """Face counts by dimension ``0..d-1``, for a nonempty set.

        The walk fills them; another set walks the table of its own extremes,
        the maximum of each ``x_i - x_j`` over its points, and refuses when
        the walk's vertices are not exactly its points.
        """
        xs, _ = self._grid
        nodes = range(self.d + 1)
        grid, faces = _walk([[max(x[i] - x[j] for x in xs) for j in nodes] for i in nodes])
        if grid != tuple(sorted(xs)):
            raise ValueError("points are not the vertices of an alcoved polytope")
        return faces


def _closed_bounds(h: HRep) -> tuple[list[list[int]], int]:
    """Tightest bounds ``x_i - x_j <= bound[i][j] / den`` on the nodes ``0..d`` (``x_0 = 0``).

    Floyd-Warshall closes the system's table of stated bounds, ``h._grid``,
    so a system is scaled at most once (the Kleene star).  Each closed entry
    is then the attained maximum of ``x_i - x_j`` over the polytope.  Raises
    the oracle's errors: a dimension above ``ORACLE_DIM_LIMIT``, and a
    negative diagonal entry, which is a negative cycle: the system has no
    solution.
    """
    _require_at_most(h.d, ORACLE_DIM_LIMIT, "dimension", "oracle")
    bound, den = h._grid
    nodes = range(h.d + 1)
    for k in nodes:
        bound = [[min(b, row[k] + via) for b, via in zip(row, bound[k])] for row in bound]
    if any(bound[k][k] < 0 for k in nodes):
        raise ValueError("empty polytope: no feasible vertex found")
    return bound, den


def _connected(part: int, tight: Sequence[int]) -> bool:
    """True when the node set ``part`` is connected by the pairs of ``tight[i]``, the nodes tight with ``i``."""
    seen = todo = part & -part
    while todo:
        low = todo & -todo
        todo ^= low
        new = tight[low.bit_length() - 1] & part & ~seen
        seen |= new
        todo |= new
    return seen == part


def _cone_faces(edges: Sequence[int], ups: Sequence[int], counts: list[int]) -> None:
    """Add to ``counts[k]`` the ``k``-faces of a vertex's cone whose rays all go down.

    ``edges`` are the vertex's edge cuts, one ray each, and ``ups`` its
    tight order.  Each tight pair keeps the rays whose cut does not separate
    it, so the least face holding a set of rays drops exactly the rays of
    each separating set (``side[i] ^ side[j]``) that misses the set.  Faces
    grow from the vertex one downward ray at a time, in order of ray count,
    and each keeps the length of its longest chain from the vertex: its
    dimension.
    """
    side = [0] * len(ups)  # side[k]: the rays whose cut holds node k
    down, up = [], 0
    for r, cut in enumerate(edges):
        if cut & 1:
            down.append(r)
        else:
            up |= 1 << r
        k = 0
        while cut:
            if cut & 1:
                side[k] |= 1 << r
            cut >>= 1
            k += 1
    seps = set()
    for i, u in enumerate(ups):
        j = 0
        while u:
            if u & 1:
                seps.add(side[i] ^ side[j])
            u >>= 1
            j += 1
    seps.discard(0)
    rays = (1 << len(edges)) - 1
    dims = {0: 0}
    # A face only grows into larger ones, so its chain length is final when its size comes up.
    by_size: list[list[int]] = [[0]] + [[] for _ in edges]
    for faces in by_size:
        for face in faces:
            dim = dims[face] + 1
            for r in down:
                held = face | 1 << r
                if held == face:
                    continue
                least = rays
                for sep in seps:
                    if not sep & held:
                        least &= ~sep
                if least & up:
                    continue
                known = dims.get(least)
                if known is None:
                    by_size[least.bit_count()].append(least)
                    dims[least] = dim
                elif known < dim:
                    dims[least] = dim
    for dim in dims.values():
        counts[dim] += 1


def _two_layer(ups: Sequence[int], arcs: int) -> int:
    """The tops of a two-layer tight order with ``arcs`` tight arcs, or ``0`` for any other order.

    The tops are the nodes whose up-set is only themselves.  The order is
    two-layer when every other node, a bottom, has as its up-set itself and
    every top, and there are at least two of each: the order is complete
    bipartite, ``K_{a,b}`` with ``a`` bottoms, ``b`` tops and ``a·b`` arcs.
    Since each bottom holds every top, the arc count rules out any further
    arc, so a pair tight both ways never passes and a flat polytope has no
    two-layer vertex.
    """
    n = len(ups)
    tops = sum([u for u in ups if not u & u - 1])
    b = tops.bit_count()
    if b < 2 or n - b < 2 or arcs != b * (n - b) or any(u & tops not in (u, tops) for u in ups):
        return 0
    return tops


def _edge_cuts(ups: Sequence[int], tight: Sequence[int], arcs: int, tops: int) -> list[int]:
    """A vertex's edges, each as the cut ``S`` of its direction ``+1_S``, from its tight order.

    ``ups[i]`` holds ``i`` and the nodes ``j`` with ``x_i - x_j`` at its
    bound; ``tight[i]`` the nodes tight with ``i`` either way; ``arcs`` is
    the number of tight arcs, the pairs ``(i, j)`` with ``j != i`` in
    ``ups[i]``; ``tops`` is :func:`_two_layer`'s answer for the order.
    Each edge is an extreme ray of the vertex's order cone (Stanley, "Two
    poset polytopes", 1986), and three rules read them:

    - *Tree.*  A vertex needs tight arcs of rank ``d``, and a pair tight
      both ways spends two arcs on one unit of it, so a vertex with exactly
      ``d`` arcs is simple and its arcs form a spanning tree.  Each arc
      ``(i, j)`` gives one edge, the side of ``j`` once the arc is dropped.
      With the tree rooted at the ground, that side is the subtree
      ``below[k]`` under the arc from ``k`` to its parent ``p`` when ``k``
      is in ``ups[p]``, else its complement.
    - *Two-layer.*  When the order is complete bipartite (``tops`` is not 0),
      the cone's vertex figure is a free sum of two simplices and its
      ``d + 1`` edges are ``{t}`` for each top ``t`` and all nodes but
      ``l`` for each bottom ``l``, tops first.
    - *General.*  Any other vertex tries the distinct proper nonempty
      unions of its up-sets, the cuts no tight bound blocks, and keeps
      those whose two sides the tight pairs not crossing the cut leave
      connected (:func:`_connected`).
    """
    d = len(ups) - 1
    full = (1 << (d + 1)) - 1
    if arcs == d:
        # (node, parent) pairs in visiting order from the ground; the list grows as it is read.
        tree, reached = [(0, 0)], 1
        for k, _ in tree:
            new = tight[k] & ~reached
            reached |= new
            while new:
                low = new & -new
                new ^= low
                tree.append((low.bit_length() - 1, k))
        below = [1 << k for k in range(d + 1)]
        edges = []
        for k, p in reversed(tree[1:]):
            below[p] |= below[k]
            edges.append(below[k] if ups[p] >> k & 1 else full ^ below[k])
        return edges
    if tops:
        ones = [1 << k for k in range(d + 1)]
        return [one for one in ones if one & tops] + [full ^ one for one in ones if not one & tops]
    cuts = {0}
    for u in ups:
        cuts |= {c | u for c in cuts}
    return [cut for cut in cuts - {0, full} if _connected(cut, tight) and _connected(full ^ cut, tight)]


def _walk(bound: Sequence[Sequence[int]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The grounded integer vertices of a closed table, sorted, and its face counts by dimension.

    See :func:`enumerate_vertices_oracle` for the walk and :func:`_edge_cuts`
    for each vertex's edges; the walk counts each vertex's tight arcs once
    and passes the count on.  Each non-empty face has one highest vertex
    under ``c(x) = x_1 + ... + x_d``, its top, and is counted there while
    the walk has the vertex's edges at hand.  An edge along ``+1_S`` goes
    down exactly when ``S`` holds the ground.  At a simple vertex, one with
    ``dim P`` edges, every set of ``k`` downward edges spans a ``k``-face
    with that top, so the vertex adds to the h-vector entry of its downward
    edge count and ``f_k = sum_i C(i, k) h_i`` (Ziegler, *Lectures on
    Polytopes*, 8.3).  At a two-layer vertex with ``a`` bottoms the vertex
    figure is the free sum of two simplices, one on the bottom rays and one
    on the top rays (Stanley, "Two poset polytopes", 1986), so a set of
    rays spans a face, of dimension its size, unless it holds every ray of
    one layer.  A top's ray ``+1_{t}`` goes down only when ``t`` is the
    ground, and a bottom's ray unless the bottom is the ground.  With the
    ground a bottom, the downward rays are the other ``a - 1`` bottom rays,
    and every set of them spans a face, as at a simple vertex.  With the
    ground a top, they are the ``a`` bottom rays and the ground's, and only
    the two sets holding every bottom ray, of sizes ``a`` and ``a + 1``,
    span no face, so the vertex adds to the h-vector too and takes one face
    off each of those two dimensions.  Any other vertex counts its cone's
    downward faces (:func:`_cone_faces`).  ``dim P`` is the number of
    classes of nodes with a fixed difference, minus one, and ``f_{dim P}``,
    the polytope itself, is dropped.
    """
    d = len(bound) - 1
    nodes = range(d + 1)
    full = (1 << (d + 1)) - 1
    start = tuple(bound[k][0] for k in nodes)
    # A work entry (x, ups, tight) is a vertex still to expand: ups[i] holds the nodes j with
    # x_i - x_j at its bound, so i cannot rise without j; tight[i] the nodes tight with i either way.
    ups = [sum(1 << j for j in nodes if start[i] - start[j] == bound[i][j]) for i in nodes]
    seen = {start}
    # pairs[cut]: the pairs (i, j) with i in the cut and j outside it, filled on first use.
    pairs: dict[int, list[tuple[int, int]]] = {}
    dim_p = d - _constraint_rank(d, [(i, j) for i in nodes for j in range(i) if bound[i][j] + bound[j][i] == 0])
    hvec = [0] * (d + 1)
    counts = [0] * (d + 1)
    work = [(start, ups, [u | sum(1 << j for j in nodes if ups[j] >> i & 1) for i, u in enumerate(ups)])]
    while work:
        x, ups, tight = work.pop()
        arcs = sum([u.bit_count() for u in ups]) - d - 1
        tops = arcs != d and _two_layer(ups, arcs)  # d arcs form a tree, never a·b
        edges = _edge_cuts(ups, tight, arcs, tops)
        for cut in edges:
            if not cut & 1:
                continue
            rest = full ^ cut
            # A cut holding the ground goes down: the rest falls by the step, and x_0 stays 0.
            crossing = pairs.get(cut)
            if crossing is None:
                outs = [j for j in nodes if rest >> j & 1]
                crossing = pairs[cut] = [(i, j) for i in nodes if cut >> i & 1 for j in outs]
            slacks = [bound[i][j] - x[i] + x[j] for i, j in crossing]
            step = min(slacks)
            if step <= 0:  # every slack crossing a true edge is positive
                raise RuntimeError(f"cut {cut:#b} at {x} steps {step}: not an edge")
            y = tuple([v if cut >> k & 1 else v - step for k, v in enumerate(x)])
            if y not in seen:
                # Pairs on one side keep their state; a pair leaving the cut is tight
                # when its slack is the step, and one entering it cannot be (step > 0).
                up = [u & cut if cut >> k & 1 else u & rest for k, u in enumerate(ups)]
                both = [t & cut if cut >> k & 1 else t & rest for k, t in enumerate(tight)]
                for (i, j), s in zip(crossing, slacks):
                    if s == step:
                        up[i] |= 1 << j
                        both[i] |= 1 << j
                        both[j] |= 1 << i
                seen.add(y)
                work.append((y, up, both))
        if len(edges) == dim_p or tops:
            down = sum([cut & 1 for cut in edges])
            hvec[down] += 1
            if tops & 1:  # the two sets holding every bottom ray span no face
                counts[down - 1] -= 1
                counts[down] -= 1
        else:
            _cone_faces(edges, ups, counts)
    for i, n in enumerate(hvec):
        for k, c in enumerate(_binomial_row(i, i + 1)):
            counts[k] += c * n
    counts[dim_p] = 0
    return tuple(sorted(seen)), tuple(counts[:d])


def enumerate_vertices_oracle(h: HRep) -> VertexSet:
    """All vertices of the polytope, by walking its edge graph from the maximum point.

    The bounds are scaled to integers once and closed (:func:`_closed_bounds`,
    which also raises the cap and empty-polytope errors).  The walk starts at
    the vertex where every ``x_i`` sits at its closed upper bound.  Every edge
    of an alcoved polytope runs along a cut direction ``+1_S`` for a proper
    nonempty node set ``S`` (ground included, points re-grounded to
    ``x_0 = 0``).  Each vertex carries, until it is expanded, ``ups[i]``,
    the nodes ``j`` with ``x_i - x_j`` at its bound, which ``i`` cannot rise
    without, and ``tight[i]``, the nodes tight with ``i`` either way, and
    reads its edges off them (:func:`_edge_cuts`).  Every edge changes
    ``x_1 + ... + x_d``, so the start is the one top and every other vertex
    has an edge going up: the walk steps only the edges going down, those
    whose ``S`` holds the ground, and so steps each edge once.  The step
    length is the least slack of the bounds leaving ``S``, over its crossing
    pairs (kept per cut for the walk).  A new vertex takes ``ups`` and
    ``tight`` from the edge that found it: pairs on one side of the cut keep
    their state, and a crossing pair whose slack is the step becomes tight,
    so only the start vertex compares all ``(d+1)^2`` pairs.  Each vertex
    also counts the faces whose highest vertex it is (:func:`_walk`).
    Points are sorted as integer tuples and turned back into scalars by
    ``tropical._unscaled``; the sorted tuples, grounded and over the bounds'
    denominator, fill the result's ``_grid``, and the face counts its
    ``_faces``.  The name keeps "oracle" from the exhaustive
    hyperplane-subset sweep this replaced, for compatibility.
    """
    bound, den = _closed_bounds(h)
    grid, faces = _walk(bound)
    vset = VertexSet(h.d, tuple(p[1:] for p in _unscaled(grid, den)))
    vars(vset)["_grid"] = grid, den
    vars(vset)["_faces"] = faces
    return vset


def _vertex_values(ell: Rational, a: Rational, shift: Rational) -> tuple[tuple[Rational, Rational], ...]:
    """Isocanted vertex coordinates, ``values[n in label] = (labeled, unlabeled)``, moved by ``shift``.

    Unmoved, a label without ``n`` takes ``(0, cant - edge_length)``; one with
    ``n`` takes ``(-cant, -edge_length)``.
    """
    return (shift + a - a, shift + a - ell), (shift - a, shift - ell)


def _vertex(label: frozenset[int], d: int, values: Sequence[tuple[Rational, Rational]]) -> tuple:
    """Vertex for ``label``: ``values[n in label]`` holds its labeled and unlabeled coordinate."""
    labeled, unlabeled = values[d + 1 in label]
    return tuple(labeled if k in label else unlabeled for k in range(1, d + 1))


def _placed_values(spec: IsocantedSpec, placement: str) -> tuple[tuple[Rational, Rational], ...]:
    """The ``_vertex_values`` of the named placement: ``sni`` is ``vni`` moved by half an edge."""
    shift = {"vni": 0, "sni": spec.edge_length / 2}.get(placement)
    if shift is None:
        raise ValueError(f"unknown placement '{placement}'")
    return _vertex_values(spec.edge_length, spec.cant, shift)


def isocanted_vertex(spec: IsocantedSpec, w: Iterable[int]) -> Point:
    """Closed-form vertex of the visualized isocanted polytope for label ``w``."""
    return _vertex(check_label(w, spec.d), spec.d, _placed_values(spec, "vni"))


def isocanted_vertex_sni(spec: IsocantedSpec, w: Iterable[int]) -> Point:
    """Vertex of the origin-symmetric placement: the visualized vertex moved by half an edge."""
    return _vertex(check_label(w, spec.d), spec.d, _placed_values(spec, "sni"))


def closed_form_vertices(spec: IsocantedSpec, placement: str = "vni") -> dict[frozenset[int], Point]:
    """Label-to-vertex map over all proper nonempty subsets of ``1..d+1``, in label order."""
    values = _placed_values(spec, placement)
    return {w: _vertex(w, spec.d, values) for w in all_vertex_labels(spec.d)}


def label_vertices(spec: IsocantedSpec, vset: VertexSet, placement: str = "vni") -> VertexSet:
    """Attach closed-form labels to oracle output, demanding exact agreement.

    Every closed-form coordinate is one of four values, each a coordinate of
    some vertex, so when the sets agree ``vset._grid``'s denominator is a
    multiple of theirs.  The values are scaled once and brought onto that
    grid, each expected vertex is looked up once as a grounded integer
    tuple, and each label takes the point of ``vset`` it found.
    """
    ints, vden = _scaled(_placed_values(spec, placement))
    xs, den = vset._grid
    k, off = divmod(den, vden)
    ints = [(x * k, y * k) for x, y in ints]
    labels = list(all_vertex_labels(spec.d))
    index = {x: n for n, x in enumerate(xs)}
    at = [index.get((0, *_vertex(w, spec.d, ints))) for w in labels]
    if off or len(vset) != len(labels) or set(at) != set(range(len(xs))):
        raise ValueError("oracle vertices do not match the closed-form vertex map")
    return VertexSet(vset.d, vset.points, tuple((w, vset.points[n]) for w, n in zip(labels, at)))


def _lone_vertex(grid: Sequence[Sequence[int | None]], label: Sequence[int], slot: int) -> bool:
    """The unique-vertex test on an int grid whose column ``slot`` holds the candidate.

    ``label`` and ``slot`` are 1-based.  For every row subset one larger than
    the label, the Laplace terms along the slot column must all coincide.
    One assignment program over all rows and the label's columns yields the
    terms of every subset (``tropical._laplace_terms``).
    """
    cols = sorted([*label, slot])
    order = len(cols)
    # Every row subset shares the columns, so one check stands for all.
    _check_selection(len(grid), range(1, order + 1), cols)
    return order >= 2 and all(
        terms.count(terms[0]) == order
        for terms in _laplace_terms(grid, [j - 1 for j in cols], slot - 1)
    )


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
    The extended matrix is scaled to integers once, and one assignment
    program yields the ``int`` terms of every row subset
    (``tropical._laplace_terms``).
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
    vertex = _vertex(label, spec.d, _vertex_values(ell, a, 0)) + (0,)
    rows = zip(_visualized([ell] * spec.d, a), vertex)
    return _lone_vertex([row[:slot - 1] + (v,) + row[slot:] for row, v in rows], label, slot)


def poles(spec: IsocantedSpec, placement: str = "vni") -> tuple[Point, Point]:
    """North and south poles: the maximum and minimum points, labeled ``1..d`` and ``d+1``."""
    values = _placed_values(spec, placement)
    north, south = frozenset(range(1, spec.n)), frozenset({spec.n})
    return _vertex(north, spec.d, values), _vertex(south, spec.d, values)


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
    """Face counts by dimension, ``0..d-1``, of the polytope whose vertices are ``vset``.

    ``h`` gives only the dimension.  The walk counts each face at its
    highest vertex as it goes (:func:`_walk`) and keeps the counts with its
    vertex set; a hand-built set walks the table of its own extremes and
    must be exactly that walk's vertices (``VertexSet._faces``).  An empty
    set has no faces.
    """
    xs, _ = vset._grid
    if not xs:
        return (0,) * h.d
    if vset.d != h.d:
        raise ValueError(f"point dimension {vset.d} != {h.d}")
    return vset._faces
