"""Slow exact references that tests compare the library's fast paths against."""

import itertools
from fractions import Fraction
from math import lcm

from isocant.combinatorics import FaceInterval, bfs_distances, build_face_lattice, skeleton
from isocant.geometry import VertexSet
from isocant.tropical import TropMatrix, laplace_terms, trop_minor


def affine_dim(pts):
    """Affine dimension of a finite exact point set, by Gaussian elimination."""
    if len(pts) <= 1:
        return 0
    base = pts[0]
    d = len(base)
    basis: list[list[Fraction]] = []
    for p in pts[1:]:
        vec = [p[k] - base[k] for k in range(d)]
        for row in basis:
            # Eliminate against the pivot of each stored row.
            pivot = next(k for k in range(d) if row[k] != 0)
            if vec[pivot] != 0:
                factor = vec[pivot] / row[pivot]
                vec = [vec[k] - factor * row[k] for k in range(d)]
        if any(v != 0 for v in vec):
            basis.append(vec)
            if len(basis) == d:
                break
    return len(basis)


def face_vertex_sets(h, vset):
    """Proper faces as sets of vertex indices: facet sets closed under meets."""
    points = vset.points
    npts = len(points)
    everything = frozenset(range(npts))
    facet_sets = set()
    for i, j, c in h.hyperplanes():
        if j == 0:
            tight = frozenset(k for k in range(npts) if points[k][i - 1] == c)
        else:
            tight = frozenset(
                k for k in range(npts) if points[k][i - 1] - points[k][j - 1] == c
            )
        if tight and tight != everything:
            facet_sets.add(tight)
    faces = set(facet_sets)
    work = list(facet_sets)
    while work:
        face = work.pop()
        for facet in facet_sets:
            meet = face & facet
            if meet and meet not in faces:
                faces.add(meet)
                work.append(meet)
    return faces


def face_counts(h, vset):
    """Face counts by dimension, each dimension the affine rank of the face's vertices."""
    counts = [0] * h.d
    for face in face_vertex_sets(h, vset):
        counts[affine_dim([vset.points[k] for k in face])] += 1
    return tuple(counts)


def _find_with_offset(parent, offset, x):
    """Weighted union-find lookup: root of ``x`` and value(x) - value(root)."""
    root = x
    while parent[root] != root:
        root = parent[root]
    # Second pass: path-compress while accumulating offsets toward the root.
    chain = []
    node = x
    while parent[node] != node:
        chain.append(node)
        node = parent[node]
    run = 0
    for nd in reversed(chain):
        run += offset[nd]
        offset[nd] = run
        parent[nd] = root
    return root, (offset[x] if chain else 0)


def sweep_vertices(h):
    """All vertices of the polytope, by exhausting d-subsets of hyperplanes.

    Every subset whose constraint graph is a spanning tree is solved exactly;
    solutions are deduplicated and filtered by feasibility against the full
    system.  Every vertex arises this way because a vertex has ``d``
    independent active constraints.  This is the library's former vertex
    oracle, kept as the reference for the edge walk; it has no size cap.
    """
    d = h.d
    planes = h.hyperplanes()
    # Every lo/hi bound of the system is some plane's constant.
    scale = lcm(*(c.denominator for _, _, c in planes))
    iplanes = [(i, j, int(c * scale)) for i, j, c in planes]

    candidates: set[tuple[int, ...]] = set()
    for combo in itertools.combinations(iplanes, d):
        parent = list(range(d + 1))
        offset = [0] * (d + 1)
        ok = True
        for i, j, c in combo:
            ri, pi = _find_with_offset(parent, offset, i)
            rj, pj = _find_with_offset(parent, offset, j)
            if ri == rj:
                ok = False
                break
            # Attach ri below rj so that value(i) - value(j) = c holds.
            parent[ri] = rj
            offset[ri] = pj + c - pi
        if not ok:
            continue
        # d independent edges on d+1 nodes: a spanning tree, hence one solution.
        _, p0 = _find_with_offset(parent, offset, 0)
        point = tuple(
            _find_with_offset(parent, offset, k)[1] - p0 for k in range(1, d + 1)
        )
        candidates.add(point)

    isingle = [(int(lo * scale), int(hi * scale)) for lo, hi in h.single]
    idiff = [(i, j, int(lo * scale), int(hi * scale)) for i, j, lo, hi in h.diff]

    feasible: list[tuple[int, ...]] = []
    for p in candidates:
        good = True
        for i in range(d):
            lo, hi = isingle[i]
            if not lo <= p[i] <= hi:
                good = False
                break
        if good:
            for i, j, lo, hi in idiff:
                v = p[i - 1] - p[j - 1]
                if not lo <= v <= hi:
                    good = False
                    break
        if good:
            feasible.append(p)
    if not feasible:
        raise ValueError("empty polytope: no feasible vertex found")
    points = tuple(sorted(tuple(Fraction(v, scale) for v in p) for p in feasible))
    return VertexSet(d, points)


def naive_vertex_enumeration(h):
    """Independent oracle: Gaussian elimination over the rationals per subset."""
    planes = h.hyperplanes()
    d = h.d
    vertices = set()
    for combo in itertools.combinations(planes, d):
        rows = []
        rhs = []
        for i, j, c in combo:
            row = [Fraction(0)] * d
            row[i - 1] += 1
            if j != 0:
                row[j - 1] -= 1
            rows.append(row)
            rhs.append(c)
        # Forward elimination with partial pivoting by first nonzero entry.
        m = [row + [b] for row, b in zip(rows, rhs)]
        rank = 0
        for col in range(d):
            pivot = next((r for r in range(rank, d) if m[r][col] != 0), None)
            if pivot is None:
                continue
            m[rank], m[pivot] = m[pivot], m[rank]
            for r in range(d):
                if r != rank and m[r][col] != 0:
                    factor = m[r][col] / m[rank][col]
                    m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
            rank += 1
        if rank < d:
            continue
        solution = [Fraction(0)] * d
        for r in range(d):
            col = next(c for c in range(d) if m[r][c] != 0)
            solution[col] = m[r][d] / m[r][col]
        point = tuple(solution)
        if h.contains(point):
            vertices.add(point)
    return vertices


# The four hand-written entry tables that the box and isocanted constructors
# and ``decompose`` used before they were built from one visualized table.
# Each takes positive ``Fraction`` lengths (and shifts) already validated.


def box_vni_table(ls):
    """Visualized box matrix for the box ``prod_i [-ls[i], 0]``."""
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


def box_sni_table(ls):
    """Symmetric box matrix for the box ``prod_i [-ls[i]/2, ls[i]/2]``."""
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


def isocanted_vni_table(ell, a, n):
    """Visualized isocanted matrix of size ``n`` with edge ``ell`` and cant ``a``."""
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


def decompose_box_table(lengths, shifts):
    """Box part of ``decompose``: ``shifts`` has ``d + 1`` entries, the last zero."""
    n = len(shifts)
    d = n - 1
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
    return TropMatrix(tuple(rows))


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


def count_flags_by_chains(d: int) -> int:
    """Independent flag count: maximal chains of the face lattice via covering DP."""
    lattice = build_face_lattice(d)
    chains: dict[FaceInterval, int] = {face: 1 for face in lattice[0]}
    for k in range(1, d):
        for face in lattice[k]:
            chains[face] = sum(chains[g] for g in face.covered_faces())
    return sum(chains[face] for face in lattice[d - 1])


def unique_vertex_conditions(c, w, point):
    """Unique-vertex test with both passes: Laplace-term equality, then minor multiplicity."""
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
