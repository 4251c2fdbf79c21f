"""Abstract combinatorics of the isocanted polytope family.

For dimension ``d`` the combinatorial type is unique: vertices are the proper
nonempty subsets of ``{1, ..., d+1}``, edges join a subset to a one-element
extension, and every face is an interval ``[bottom, top]`` in the Boolean
lattice.  Counting intervals by dimension reproduces the closed-form face
counts, and the antipodal map (complementation) realizes central symmetry at
the lattice level.

The face-count sequence in dimension ``d`` is
``(2**(d+1-j) - 2) * C(d+1, j)`` for ``j < d``; boxes and polar casks carry
their own closed forms, tied together by the recursion
``iso(d, j) = 2 * cask(d, j) + iso(d-1, j-1)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Iterator

VertexLabel = frozenset[int]
FVector = tuple[int, ...]

#: Interval counts grow as 3**(d+1); keep exhaustive lattice walks small.
LATTICE_DIM_LIMIT = 8


def _check_dim(d: int, minimum: int = 2) -> None:
    if not isinstance(d, int) or d < minimum:
        raise ValueError(f"dimension must be an integer >= {minimum}")


def check_label(w: Iterable[int], d: int) -> VertexLabel:
    """Validate a vertex label: proper nonempty subset of ``1..d+1``."""
    label = frozenset(w)
    if not label or not label < set(range(1, d + 2)):
        raise ValueError(f"label must be a proper nonempty subset of 1..{d + 1}")
    return label


def label_text(label: VertexLabel) -> str:
    """A label as its sorted elements separated by spaces, e.g. ``"1 3"``."""
    return " ".join(str(v) for v in sorted(label))


def all_vertex_labels(d: int) -> Iterator[VertexLabel]:
    """Proper nonempty subsets of ``1..d+1`` in the canonical label order.

    Labels come by size, then lexicographically on their sorted elements.
    Every labeled listing (vertex maps, the skeleton, meshes, CLI output)
    follows this order, so this is the one place labels are enumerated.
    """
    universe = list(range(1, d + 2))
    for size in range(1, d + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


def isocanted_fvector(d: int, extended: bool = False) -> FVector:
    """Face counts ``f_0 .. f_{d-1}``, optionally extended with ``f_d = 1``."""
    _check_dim(d)
    counts = tuple((2 ** (d + 1 - j) - 2) * comb(d + 1, j) for j in range(d))
    return counts + (1,) if extended else counts


def box_fvector(d: int, extended: bool = False) -> FVector:
    """Face counts of the d-box: ``2**(d-j) * C(d, j)``."""
    _check_dim(d, 1)
    counts = tuple(2 ** (d - j) * comb(d, j) for j in range(d))
    return counts + (1,) if extended else counts


def cask_fvector(d: int) -> FVector:
    """Face counts of a polar cask: ``(2**(d-j) - 1) * C(d, j)`` for ``j <= d-2``."""
    _check_dim(d)
    return tuple((2 ** (d - j) - 1) * comb(d, j) for j in range(d - 1))


def fvector_recursion_holds(d: int) -> bool:
    """Exact check of ``iso(d, j) = 2 * cask(d, j) + iso(d-1, j-1)`` for ``j < d``.

    The ``j = 0`` case uses the convention that the lower-dimensional count at
    index -1 vanishes; the cask term at ``j = d-1`` evaluates the same closed
    form one step past the cask range.
    """
    _check_dim(d, 3)
    iso_d = isocanted_fvector(d)
    iso_prev = isocanted_fvector(d - 1)
    for j in range(d):
        cask_term = (2 ** (d - j) - 1) * comb(d, j)
        prev = iso_prev[j - 1] if j >= 1 else 0
        if iso_d[j] != 2 * cask_term + prev:
            return False
    return True


@dataclass(frozen=True)
class FVectorTables:
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
    if dmax < 0:
        raise ValueError("dmax must be non-negative")
    two_power = tuple(
        tuple(2 ** (d - k) for k in range(d + 1)) for d in range(dmax + 1)
    )
    pascal = tuple(
        tuple(comb(d, k) for k in range(d + 1)) for d in range(dmax + 1)
    )
    box = tuple(
        tuple(t * p for t, p in zip(two_power[d], pascal[d])) for d in range(dmax + 1)
    )
    half = tuple(
        tuple(
            Fraction((2 ** (d - k) - 1) * comb(d + 1, k)) if k < d else Fraction(1, 2)
            for k in range(d + 1)
        )
        for d in range(dmax + 1)
    )
    return FVectorTables(two_power, pascal, box, half)


@dataclass(frozen=True)
class FaceInterval:
    """A face, encoded as the interval ``[bottom, top]`` of its vertex labels."""

    bottom: VertexLabel
    top: VertexLabel

    def __post_init__(self) -> None:
        if not self.bottom <= self.top:
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


def build_face_lattice(d: int) -> dict[int, tuple[FaceInterval, ...]]:
    """All faces grouped by dimension: intervals with nonempty bottom, proper top."""
    _check_dim(d)
    if d > LATTICE_DIM_LIMIT:
        raise ValueError(f"dimension {d} exceeds lattice limit {LATTICE_DIM_LIMIT}")
    by_dim: dict[int, list[FaceInterval]] = {k: [] for k in range(d)}
    for bottom in all_vertex_labels(d):
        rest = [v for v in range(1, d + 2) if v not in bottom]
        for extra_size in range(d - len(bottom) + 1):
            for extra in itertools.combinations(rest, extra_size):
                by_dim[extra_size].append(FaceInterval(bottom, bottom | frozenset(extra)))
    return {k: tuple(v) for k, v in by_dim.items()}


def facet_intervals(d: int) -> tuple[FaceInterval, ...]:
    """Facets are exactly the intervals from a singleton to a co-singleton."""
    _check_dim(d)
    out = []
    for i in range(1, d + 2):
        for j in range(1, d + 2):
            if i != j:
                out.append(
                    FaceInterval(frozenset({i}), frozenset(range(1, d + 2)) - {j})
                )
    return tuple(out)


@dataclass(frozen=True)
class SkeletonGraph:
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
    nodes = tuple(all_vertex_labels(d))
    edges = []
    for w in nodes:
        if len(w) < d:
            for y in set(range(1, d + 2)) - w:
                edges.append((w, w | {y}))
    return SkeletonGraph(d, nodes, tuple(edges))


def valence(w: Iterable[int], d: int) -> int:
    """Vertex degree: ``d`` for lengths 1 and ``d``, otherwise ``d + 1``."""
    label = check_label(w, d)
    size = len(label)
    parents = size if size >= 2 else 0
    children = (d + 1 - size) if size <= d - 1 else 0
    return parents + children


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
    """Skeleton diameter by exhaustive breadth-first search, independent of the formula."""
    graph = skeleton(d)
    best = 0
    for node in graph.nodes:
        dist = bfs_distances(graph, node)
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
    universe = frozenset(range(1, d + 2))
    return FaceInterval(universe - face.top, universe - face.bottom)


def count_flags(d: int) -> int:
    """Stated flag-count closed form ``(d+1) * (d-1)! * (2**(d+1) - 4)``.

    This equals the number of maximal face chains only at d = 2, 3; the true
    count is ``2**(d-1) * (d+1)!``, recounted by ``count_flags_by_chains``.
    """
    _check_dim(d)
    return (d + 1) * factorial(d - 1) * (2 ** (d + 1) - 4)


def count_flags_by_chains(d: int) -> int:
    """Independent flag count: maximal chains of the face lattice via covering DP."""
    lattice = build_face_lattice(d)
    chains: dict[FaceInterval, int] = {face: 1 for face in lattice[0]}
    for k in range(1, d):
        for face in lattice[k]:
            chains[face] = sum(chains[g] for g in face.covered_faces())
    return sum(chains[face] for face in lattice[d - 1])


@dataclass(frozen=True)
class CaskBeltPartition:
    """Faces split into the two polar casks and the equatorial belt.

    North-cask faces use only labels omitting ``d+1``; south-cask faces only
    labels containing it; belt faces mix both kinds, which happens exactly
    when ``d+1`` separates top from bottom.
    """

    d: int
    north: dict[int, tuple[FaceInterval, ...]]
    south: dict[int, tuple[FaceInterval, ...]]
    belt: dict[int, tuple[FaceInterval, ...]]

    def counts(self, part: str) -> tuple[int, ...]:
        groups = getattr(self, part)
        top = max(groups) if groups else -1
        return tuple(len(groups.get(k, ())) for k in range(top + 1))


def casks_and_belt(d: int) -> CaskBeltPartition:
    lattice = build_face_lattice(d)
    pole_index = d + 1
    north: dict[int, list[FaceInterval]] = {}
    south: dict[int, list[FaceInterval]] = {}
    belt: dict[int, list[FaceInterval]] = {}
    for k, faces in lattice.items():
        for face in faces:
            if pole_index not in face.top:
                north.setdefault(k, []).append(face)
            elif pole_index in face.bottom:
                south.setdefault(k, []).append(face)
            else:
                belt.setdefault(k, []).append(face)
    return CaskBeltPartition(
        d,
        {k: tuple(v) for k, v in north.items()},
        {k: tuple(v) for k, v in south.items()},
        {k: tuple(v) for k, v in belt.items()},
    )


def fatness_f03(d: int = 4) -> tuple[Fraction, int]:
    """The two 4-polytope invariants: fatness and vertex-facet incidence count.

    Fatness is ``(f1 + f2 - 20) / (f0 + f3 - 10)``; the incidence count is
    recomputed from the lattice as the total number of vertices over facets.
    """
    if d != 4:
        raise ValueError("fatness and f03 are defined here for dimension 4 only")
    f = isocanted_fvector(4)
    fatness = Fraction(f[1] + f[2] - 20, f[0] + f[3] - 10)
    lattice = build_face_lattice(4)
    f03 = sum(2 ** face.dim for face in lattice[3])
    return fatness, f03
