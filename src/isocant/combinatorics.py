"""Abstract combinatorics of the isocanted polytope family.

For dimension ``d`` the combinatorial type is unique: vertices are the proper
nonempty subsets of ``{1, ..., d+1}``, edges join a subset to a one-element
extension, and every face is an interval ``[bottom, top]`` in the Boolean
lattice.  Counting intervals by dimension reproduces the closed-form face
counts, and the antipodal map (complementation) realizes central symmetry at
the lattice level.

Each face-count closed form has one row builder on ``_binomial_row``:
``_isocanted_row`` multiplies ``C(d+1, j)`` by the factor row
``2**(d+1-j) - 2`` (``_factor_row``, or ``_factor_step`` from ``d-1``), and
``_box_row`` and ``_cask_row`` write the box and polar-cask forms; the
recursion ``iso(d, j) = 2 * cask(d, j) + iso(d-1, j-1)`` ties the last two
rows together.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from math import factorial
from operator import mul
from typing import Iterable, Iterator

from ._record import Record, _is_int, _require_at_most, _require_ints

VertexLabel = frozenset[int]
FVector = tuple[int, ...]

#: Interval counts grow as 3**(d+1); keep exhaustive lattice walks small.
LATTICE_DIM_LIMIT = 8


def _check_dim(d: int, minimum: int = 2) -> None:
    if not _is_int(d) or d < minimum:
        raise ValueError(f"dimension must be an integer >= {minimum}")


def check_label(w: Iterable[int], d: int) -> VertexLabel:
    """Validate a vertex label: proper nonempty subset of ``1..d+1``, for ``d >= 2``."""
    _check_dim(d)
    label = frozenset(w)
    _require_ints(label, "label elements must be ints")
    if not label or not label < set(range(1, d + 2)):
        raise ValueError(f"label must be a proper nonempty subset of 1..{d + 1}")
    return label


def label_text(label: VertexLabel) -> str:
    """A label as its sorted elements separated by spaces, e.g. ``"1 3"``."""
    return " ".join(str(v) for v in sorted(label))


def _proper_subsets(items: list) -> Iterator[tuple]:
    """Proper nonempty sub-tuples of ``items``, by size, then lexicographically.

    On ``1..d+1`` this is the canonical label order.  Every labeled listing
    (vertex maps, the skeleton, meshes, CLI output) follows it, so this is the
    one place labels are enumerated.
    """
    for size in range(1, len(items)):
        yield from itertools.combinations(items, size)


def all_vertex_labels(d: int) -> Iterator[VertexLabel]:
    """Proper nonempty subsets of ``1..d+1`` in the canonical label order."""
    return map(frozenset, _proper_subsets(list(range(1, d + 2))))


def _label_masks(d: int) -> Iterator[int]:
    """Bitmasks of the vertex labels (see ``_subset_table``), in label order."""
    return map(sum, _proper_subsets([1 << k for k in range(d + 1)]))


def _subset_table(d: int) -> list[VertexLabel]:
    """Every subset of ``1..d+1`` as a frozenset, indexed by bitmask.

    Bit ``k-1`` of an index stands for the element ``k``, so ``table[b | t]``
    is the union of ``table[b]`` and ``table[t]``.  Builders take their labels
    from one table per call, ``2**(d+1)`` objects, instead of making one per
    face or edge; equal labels within one result are then the same object.
    """
    table = [frozenset()]
    for k in range(1, d + 2):
        single = frozenset((k,))
        table += [s | single for s in table]
    return table


def _binomial_row(n: int, length: int) -> list[int]:
    """``C(n, 0) .. C(n, length-1)`` for ``length >= 1``, each from the one before."""
    row = [1]
    for j in range(length - 1):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


def _factor_row(d: int) -> list[int]:
    """``2**(d+1-j) - 2`` for ``j = 0 .. d-1``: the closed form's two-power factor."""
    return [(2 << k) - 2 for k in range(d, 0, -1)]


def _factor_step(factors: list[int], d: int) -> list[int]:
    """The factor row of ``d`` from that of ``d-1``: entry ``j`` of ``d`` is entry ``j-1`` of ``d-1``."""
    return [(2 << d) - 2, *factors]


def _isocanted_row(factors: list[int], binomials: list[int]) -> FVector:
    """``f_0 .. f_{d-1}`` from the factor row of ``d`` and a row that starts ``C(d+1, 0) .. C(d+1, d-1)``.

    The one place the closed form ``(2**(d+1-j) - 2) * C(d+1, j)`` is
    multiplied out; entries of ``binomials`` past index ``d-1`` are not read.
    """
    return tuple(map(mul, factors, binomials))


def _box_row(d: int, length: int) -> FVector:
    """``2**(d-j) * C(d, j)`` for ``j < length``: the one place the box form is written."""
    return tuple([c << (d - j) for j, c in enumerate(_binomial_row(d, length))])


def _cask_row(d: int, length: int) -> FVector:
    """``(2**(d-j) - 1) * C(d, j)`` for ``j < length``: the one place the polar-cask form is written."""
    return tuple([((1 << (d - j)) - 1) * c for j, c in enumerate(_binomial_row(d, length))])


def isocanted_fvector(d: int, extended: bool = False) -> FVector:
    """Face counts ``f_0 .. f_{d-1}``, optionally extended with ``f_d = 1``."""
    _check_dim(d)
    counts = _isocanted_row(_factor_row(d), _binomial_row(d + 1, d))
    return counts + (1,) if extended else counts


def box_fvector(d: int, extended: bool = False) -> FVector:
    """Face counts of the d-box, ``2**(d-j) * C(d, j)`` by ``_box_row``, extended by the ``j = d`` term."""
    _check_dim(d, 1)
    return _box_row(d, d + 1 if extended else d)


def cask_fvector(d: int) -> FVector:
    """Face counts of a polar cask, ``(2**(d-j) - 1) * C(d, j)`` for ``j <= d-2``, by ``_cask_row``."""
    _check_dim(d)
    return _cask_row(d, d - 1)


def fvector_recursion_holds(d: int) -> bool:
    """Exact check of ``iso(d, j) = 2 * cask(d, j) + iso(d-1, j-1)`` for ``j < d``.

    ``iso(d-1, -1)`` is 0, and ``cask(d, d-1)`` reads the cask row one step past its range.
    """
    _check_dim(d, 3)
    prev = (0, *isocanted_fvector(d - 1))
    return isocanted_fvector(d) == tuple([2 * c + p for c, p in zip(_cask_row(d, d), prev)])


class FVectorTables(Record):
    """Rows 0..dmax of the triangular count tables.

    ``two_power[d][k] = 2**(d-k)`` and ``pascal[d][k] = C(d, k)``; their
    entrywise product ``box`` lists box face counts.  ``half`` carries half
    the isocanted counts, with the exact rational ``1/2`` at ``k = d`` so that
    doubling it reproduces the extended isocanted sequence.
    """

    two_power: tuple[tuple[int, ...], ...]
    pascal: tuple[tuple[int, ...], ...]
    box: tuple[tuple[int, ...], ...]
    half: tuple[tuple[Fraction, ...], ...]


def fvector_tables(dmax: int) -> FVectorTables:
    _require_ints((dmax,), "dmax must be an int")
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    rows = range(dmax + 1)
    two_power = tuple(tuple([1 << k for k in range(d, -1, -1)]) for d in rows)
    pascal = tuple(tuple(_binomial_row(d, d + 1)) for d in rows)
    box = tuple(_box_row(d, d + 1) for d in rows)
    halves = (_isocanted_row(_factor_row(d), _binomial_row(d + 1, d + 1)) for d in rows)
    half = tuple(tuple([Fraction(f // 2) for f in row]) + (Fraction(1, 2),) for row in halves)
    return FVectorTables(two_power, pascal, box, half)


class FaceInterval(Record):
    """A face, encoded as the interval ``[bottom, top]`` of its vertex labels.

    Both ends are stored as frozensets of ints of at least 1, with a nonempty
    bottom contained in the top.
    """

    __slots__ = ("bottom", "top")
    bottom: VertexLabel
    top: VertexLabel

    def __post_init__(self) -> None:
        bottom, top = frozenset(self.bottom), frozenset(self.top)
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "top", top)
        elements = bottom | top
        _require_ints(elements, "label elements must be ints")
        low = min(elements, default=1)
        if low < 1:
            raise ValueError(f"label elements must be at least 1, got {low}")
        if not bottom:
            raise ValueError("bottom must be nonempty")
        if not bottom <= top:
            raise ValueError("bottom must be contained in top")

    @property
    def dim(self) -> int:
        return len(self.top) - len(self.bottom)

    def vertices(self) -> Iterator[VertexLabel]:
        free = sorted(self.top - self.bottom)
        for size in range(len(free) + 1):
            for extra in itertools.combinations(free, size):
                yield self.bottom | frozenset(extra)

    def contains(self, other: "FaceInterval") -> bool:
        return self.bottom <= other.bottom and other.top <= self.top

    def covered_faces(self) -> Iterator["FaceInterval"]:
        """Faces of one dimension less contained in this face."""
        for t in self.top - self.bottom:
            yield FaceInterval(self.bottom | {t}, self.top)
            yield FaceInterval(self.bottom, self.top - {t})


def _faces(bottom: VertexLabel, tops: Iterable[VertexLabel]) -> list[FaceInterval]:
    """The faces ``[bottom, top]`` for each of ``tops``, made unchecked.

    ``bottom <= top`` holds by construction at every caller.  The faces skip
    ``FaceInterval``'s checks and are written through its slots' setters,
    each looked up once per run.
    """
    new, put_bottom, put_top = object.__new__, FaceInterval.bottom.__set__, FaceInterval.top.__set__
    faces = []
    for top in tops:
        face = new(FaceInterval)
        put_bottom(face, bottom)
        put_top(face, top)
        faces.append(face)
    return faces


def _face_groups(d: int, split: bool) -> list[list[list[FaceInterval]]]:
    """Every face built once and appended to its group's list for its dimension.

    A face is a bottom mask ``b`` with a set ``extra`` of the bits free in it;
    bottoms come in label order, and ``extra`` in ``itertools.combinations``
    order, by size.  Tops add fewer than all free bits, so they stay proper.
    Unsplit, the one group is the lattice.  Split, the groups are north,
    south and belt: the pole bit ``1 << d`` (the element ``d+1``) lies in
    neither end, in the bottom, or in the top only.  The pole is the last free
    bit, so a bottom without it walks the other free bits twice: for north,
    and for belt with the pole added to every top (one dimension up).  Each
    group keeps the lattice order.
    """
    _check_dim(d)
    _require_at_most(d, LATTICE_DIM_LIMIT, "dimension", "lattice")
    table = _subset_table(d)
    pole = 1 << d
    groups = [[[] for _ in range(d)] for _ in range(3 if split else 1)]

    def walk(faces: list[list[FaceInterval]], b: int, top: int, rest: list[int], sizes: int) -> None:
        bottom = table[b]
        for size in range(sizes):
            tops = [table[top | sum(extra)] for extra in itertools.combinations(rest, size)]
            faces[size] += _faces(bottom, tops)

    for b in _label_masks(d):
        free = [1 << k for k in range(d + 1) if not b >> k & 1]
        if not split:
            walk(groups[0], b, b, free, len(free))
        elif b & pole:
            walk(groups[1], b, b, free, len(free))
        else:
            north, _, belt = groups
            walk(north, b, b, free[:-1], len(free))
            walk(belt[1:], b, b | pole, free[:-1], len(free) - 1)
    return groups


def build_face_lattice(d: int) -> dict[int, tuple[FaceInterval, ...]]:
    """All faces grouped by dimension: intervals with nonempty bottom, proper top."""
    (by_dim,) = _face_groups(d, split=False)
    return {k: tuple(v) for k, v in enumerate(by_dim)}


def facet_intervals(d: int) -> tuple[FaceInterval, ...]:
    """Facets are exactly the intervals from a singleton to a co-singleton."""
    _check_dim(d)
    labels = range(1, d + 2)
    universe = frozenset(labels)
    runs = (_faces(frozenset({i}), [universe - {j} for j in labels if j != i]) for i in labels)
    return tuple(itertools.chain.from_iterable(runs))


class SkeletonGraph(Record):
    """Vertex-edge graph of the polytope: labels joined by one-element extension."""

    d: int
    nodes: tuple[VertexLabel, ...]
    edges: tuple[tuple[VertexLabel, VertexLabel], ...]

    @cached_property
    def _adjacency(self) -> dict[VertexLabel, list[VertexLabel]]:
        """Neighbour lists of every node, built once from ``edges``."""
        adj: dict[VertexLabel, list[VertexLabel]] = {w: [] for w in self.nodes}
        for w, v in self.edges:
            adj[w].append(v)
            adj[v].append(w)
        return adj

    def neighbors(self, w: VertexLabel) -> list[VertexLabel]:
        return list(self._adjacency[check_label(w, self.d)])


def skeleton(d: int) -> SkeletonGraph:
    _check_dim(d)
    table = _subset_table(d)
    masks = list(_label_masks(d))
    universe = set(range(1, d + 2))
    edges = []
    for m in masks:
        w = table[m]
        if len(w) < d:
            # Heads follow the iteration order of the set difference, which
            # is not ascending from d = 7 on; edge order is part of the result.
            for y in universe - w:
                edges.append((w, table[m | 1 << (y - 1)]))
    return SkeletonGraph(d, tuple(table[m] for m in masks), tuple(edges))


def valence(w: Iterable[int], d: int) -> int:
    """Vertex degree: ``d`` for lengths 1 and ``d``, otherwise ``d + 1``."""
    return d if len(check_label(w, d)) in (1, d) else d + 1


def distance(w1: Iterable[int], w2: Iterable[int], d: int) -> int:
    """Graph distance between two vertices: the symmetric difference size."""
    a = check_label(w1, d)
    b = check_label(w2, d)
    return len(a ^ b)


def diameter(d: int) -> int:
    """Closed-form skeleton diameter."""
    _check_dim(d)
    return d + 1


def bfs_distances(graph: SkeletonGraph, source: Iterable[int]) -> dict[VertexLabel, int]:
    source = check_label(source, graph.d)
    adj = graph._adjacency
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adj[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def bfs_diameter(d: int) -> int:
    """Skeleton diameter by breadth-first search, independent of the formula.

    Permuting ``1..d+1`` preserves the skeleton, so eccentricity depends only on
    ``|w|``: one search from ``{1..s}`` per size ``s``, ``d`` searches in all.
    """
    graph = skeleton(d)
    best = 0
    for size in range(1, d + 1):
        dist = bfs_distances(graph, range(1, size + 1))
        if len(dist) != len(graph.nodes):
            raise RuntimeError("skeleton graph is not connected")
        best = max(best, max(dist.values()))
    return best


def antipode(w: Iterable[int], d: int) -> VertexLabel:
    """Complement within ``1..d+1``; an involution reversing the face order."""
    label = check_label(w, d)
    return frozenset(range(1, d + 2)) - label


def antipode_interval(face: FaceInterval, d: int) -> FaceInterval:
    """Induced involution on faces: complement and swap the endpoints."""
    return FaceInterval(antipode(face.top, d), antipode(face.bottom, d))


def count_flags(d: int) -> int:
    """Stated flag-count closed form ``(d+1) * (d-1)! * (2**(d+1) - 4)``.

    This equals the number of maximal face chains only at d = 2, 3; the true
    count is ``2**(d-1) * (d+1)!``, recounted by ``count_flags_by_chains``.
    """
    _check_dim(d)
    return (d + 1) * factorial(d - 1) * (2 ** (d + 1) - 4)


def count_flags_by_chains(d: int) -> int:
    """Independent flag count: maximal chains of the face lattice, by symmetry.

    Chains below ``[B, T]`` depend only on ``(b, t) = (|B|, |T|)``, and
    ``c(b, t) = (t-b) (c(b+1, t) + c(b, t-1))``: an ``O(d**2)`` table, summed
    over the ``(d+1) d`` facets ``(1, d)``: no lattice is built, so no cap.
    """
    _check_dim(d)
    chains: dict[tuple[int, int], int] = {}
    for t in range(1, d + 1):
        for b in range(t, 0, -1):
            chains[b, t] = (t - b) * (chains[b + 1, t] + chains[b, t - 1]) if b < t else 1
    return (d + 1) * d * chains[1, d]


class CaskBeltPartition(Record):
    """Faces split into the two polar casks and the equatorial belt.

    North-cask faces use only labels omitting ``d+1``; south-cask faces only
    labels containing it; belt faces mix both kinds, which happens exactly
    when ``d+1`` separates top from bottom.  Each part holds its faces by
    dimension ``0..d-1``; the belt's dimension 0 is empty.
    """

    d: int
    north: tuple[tuple[FaceInterval, ...], ...]
    south: tuple[tuple[FaceInterval, ...], ...]
    belt: tuple[tuple[FaceInterval, ...], ...]

    def counts(self, part: str) -> tuple[int, ...]:
        return tuple(map(len, getattr(self, part)))


def casks_and_belt(d: int) -> CaskBeltPartition:
    return CaskBeltPartition(d, *(tuple(map(tuple, part)) for part in _face_groups(d, split=True)))


def fatness_f03(d: int = 4) -> tuple[Fraction, int]:
    """The two 4-polytope invariants: fatness and vertex-facet incidence count.

    Fatness is ``(f1 + f2 - 20) / (f0 + f3 - 10)``; the incidence count is
    recomputed from the facets as the total number of vertices over facets.
    """
    if d != 4:
        raise ValueError("fatness and f03 are defined here for dimension 4 only")
    _check_dim(d)  # 4.0 passes the test above
    f = isocanted_fvector(4)
    fatness = Fraction(f[1] + f[2] - 20, f[0] + f[3] - 10)
    f03 = sum(2 ** face.dim for face in facet_intervals(4))
    return fatness, f03
