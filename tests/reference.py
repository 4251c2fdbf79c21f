"""Slow exact references that tests compare the library's fast paths against."""

import itertools
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Sequence

from isocant import combinatorics
from isocant.combinatorics import (
    CaskBeltPartition,
    FaceInterval,
    SkeletonGraph,
    bfs_distances,
    build_face_lattice,
    count_flags,
    skeleton,
)
from isocant.conjectures import (
    DEFAULT_D_MAX,
    DEFAULT_D_MIN,
    ConjectureReport,
    stirling2,
)
from isocant.geometry import (
    VertexSet, _closed_bounds, enumerate_vertices_oracle, hrep_from_matrix, polytope_extremes,
)
from isocant.matrices import PLACEMENTS, Decomposition, PerturbationMatrix, isocanted_vni
from isocant.tropical import (
    NEG_INF, TropMatrix, _check_selection, conjugate_diag, laplace_terms, mat_mul, trop_minor,
)


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


def face_counts_by_facet_closure(h, vset):
    """Face counts by dimension, recovered from the vertex set alone by facet meets.

    The library's former face recovery, kept as the reference for the
    counts the walk takes at each face's highest vertex.

    The grounded vertices are read on their integer grid (``vset._grid``);
    ``h`` gives only the dimension.  For each node pair ``j < i`` the
    vertices fall into classes by the value of ``x_i - x_j``, kept as int
    bitmasks; ``same[i][j][k]`` is the class of vertex ``k``.  The classes
    at the minimum and the maximum of ``x_i - x_j`` are faces, and every
    facet is one of them, since every bound is on some ``x_i - x_j``.  Those
    short of every vertex are intersected to closure: every proper face is
    an intersection of facets, and a meet of faces is a face.
    A face of ``n <= 3`` vertices is a vertex, an edge or a triangle, of
    dimension ``n - 1``.  A larger face's affine hull is cut out by the
    difference equations constant on it, so its dimension is the number of
    classes of nodes with a constant difference over it, minus one; the
    classes are counted at its lowest vertex from the table.  Every vertex
    of a polytope with two or more is a face from the start, so a face of
    one or two vertices is not met with the facets again: each meet is
    itself, one of its vertices or empty.
    """
    xs, _ = vset._grid
    if xs and vset.d != h.d:
        raise ValueError(f"point dimension {vset.d} != {h.d}")
    everything = (1 << len(xs)) - 1
    facets, same = set(), []
    for i in range(h.d + 1):
        same.append([])
        for j in range(i):
            diffs = [x[i] - x[j] for x in xs]
            masks = dict.fromkeys(diffs, 0)
            for k, v in enumerate(diffs):
                masks[v] |= 1 << k
            same[i].append([masks[v] for v in diffs])
            if masks:
                facets.update((masks[min(masks)], masks[max(masks)]))
    facets.discard(everything)

    faces = set(facets)
    if len(xs) > 1:
        faces.update(1 << k for k in range(len(xs)))
    work = [face for face in facets if face.bit_count() > 2]
    while work:
        face = work.pop()
        for facet in facets:
            meet = face & facet
            if meet and meet not in faces:
                faces.add(meet)
                if meet.bit_count() > 2:
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


def _connected_by_neighbours(part: int, neighbours: Sequence[int]) -> bool:
    """True when the node set ``part`` is connected, node ``i``'s neighbours being ``neighbours[i]``.

    One search from the lowest node, a node at a time: no table over subsets.
    """
    frontier = part & -part
    left = part ^ frontier
    while frontier and left:
        low = frontier & -frontier
        frontier ^= low
        grown = neighbours[low.bit_length() - 1] & left
        left ^= grown
        frontier |= grown
    return not left


def tight_order(bound, x):
    """``ups`` and ``tight`` of the grounded vertex ``x`` of the closed table ``bound``, from scratch.

    ``ups[i]`` holds the nodes ``j`` with ``x_i - x_j`` at its bound (``i``
    among them), ``tight[i]`` the nodes tight with ``i`` either way.
    """
    nodes = range(len(x))
    ups = [sum([1 << j for j in nodes if x[i] - x[j] == bound[i][j]]) for i in nodes]
    return ups, [ups[i] | sum([1 << j for j in nodes if ups[j] >> i & 1]) for i in nodes]


def edge_cuts_by_up_set_unions(ups, tight):
    """A vertex's edge cuts by the filter the walk ran at every vertex before it read simple ones off their tight tree.

    Every distinct proper nonempty union of the up-sets is a cut that no
    tight bound blocks; it is an edge when the tight pairs not crossing it
    leave each of its two sides connected.
    """
    full = (1 << len(ups)) - 1
    cuts = {0}
    for u in ups:
        cuts |= {c | u for c in cuts}
    reach = _subset_unions(tight)
    return {cut for cut in cuts - {0, full} if _connected(cut, reach) and _connected(full ^ cut, reach)}


def two_layer_tops(ups):
    """The tops of a complete bipartite tight order, read off its definition; 0 for any other order.

    A top's up-set is only itself.  The order is two-layer when it has at
    least two tops and two other nodes, and each other node's up-set is
    exactly itself and every top; no arc is counted.
    """
    n = len(ups)
    tops = [k for k in range(n) if ups[k] == 1 << k]
    mask = sum(1 << k for k in tops)
    if len(tops) < 2 or n - len(tops) < 2:
        return 0
    return mask if all(ups[k] == 1 << k | mask for k in range(n) if k not in tops) else 0


def walk_by_cut_scan(h):
    """All vertices by the edge walk that tries every cut at every vertex.

    The library's former walk, kept as the reference for the up-set scan:
    each vertex rebuilds its tight order's transpose, and each of the
    ``2^(d+1) - 2`` cuts is tested for blocking tight bounds and for two
    connected sides; the step's slack is computed twice.  The result, its
    ``_grid`` and its errors are the library walk's.
    """
    bound, den = _closed_bounds(h)
    nodes = range(h.d + 1)
    full = (1 << (h.d + 1)) - 1
    start = tuple(bound[k][0] for k in nodes)
    up = {start: [sum(1 << j for j in nodes if start[i] - start[j] == bound[i][j]) for i in nodes]}
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
                up[y] = [
                    ups[i] & cut | sum(1 << j for j in outs if bound[i][j] - x[i] + x[j] == step)
                    if cut >> i & 1 else ups[i] & ~cut
                    for i in nodes
                ]
                back[y] = 0
                work.append(y)
            back[y] |= 1 << (full ^ cut)
    grid = tuple(sorted(up))
    vset = VertexSet(h.d, tuple(tuple(Fraction(v, den) for v in p[1:]) for p in grid))
    vars(vset)["_grid"] = grid, den
    return vset


def poles_by_extremes(spec, placement="vni"):
    """North and south poles read from the placed isocanted matrix.

    The library's former ``poles``, kept as the reference for the poles read
    from the vertex map: the coordinatewise maximum and minimum of an NI
    matrix's polytope come from its auxiliary matrix (``polytope_extremes``).
    """
    mn, mx = polytope_extremes(PLACEMENTS[placement](spec))
    return mx, mn


def central_symmetry_by_vertices(a):
    """True when the walk's vertex set is closed under negation.

    The library's former ``central_symmetry_check``, kept as the reference
    for the closed-bound test; it raises the walk's cap and empty-polytope
    errors.
    """
    pts = set(enumerate_vertices_oracle(hrep_from_matrix(a)).points)
    return all(tuple(-v for v in p) in pts for p in pts)


def zonotope_by_vertices(spec):
    """Verify the isocanted polytope is the sum of a shrunken box and a diagonal segment.

    The library's former ``zonotope_check``, kept as the reference for the
    closed-table test.  Candidates are all sums of a vertex of
    ``prod [-(edge_length - cant), 0]`` with an endpoint of the segment from
    the origin to ``-cant * (1, ..., 1)``.  Three exact checks establish
    equality of vertex sets: every candidate lies in the polytope, every
    walk vertex is a candidate, and the candidates with full active rank are
    exactly the walk vertices.
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


def constraint_rank_by_union_find(d, edges):
    """Rank of single/difference normals given as constraint-graph edges, by union-find.

    The library's former ``geometry._constraint_rank``, kept as the reference
    for its component bitmasks: each edge joining two components adds one
    to the rank.
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


def maximal_polytrope(rng, d):
    """A generic NI matrix of size ``d + 1``: zero diagonal, off-diagonal ``-1 - eps_ij``.

    The ``eps_ij`` are distinct seeded values below ``1/4``, so every
    triangle inequality ``a_ik + a_kj <= a_ij`` holds strictly: the matrix is
    NI and each of its ``d(d+1)`` difference bounds is a facet.  Generic
    ``eps`` make every vertex simple, which makes the polytope a maximal
    polytrope.
    """
    n = d + 1
    eps = iter(rng.sample(range(1, 10**6), n * (n - 1)))
    return TropMatrix.from_rows(
        [[0 if i == j else -1 - Fraction(next(eps), 4 * 10**6) for j in range(n)] for i in range(n)]
    )


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


# The label builders as they were before they shared one subset table: a new
# frozenset for every face's top and every edge's head.


def vertex_labels(d: int):
    """Proper nonempty subsets of ``1..d+1`` by size, then lexicographically."""
    for size in range(1, d + 1):
        for combo in itertools.combinations(range(1, d + 2), size):
            yield frozenset(combo)


def build_face_lattice_per_face(d: int) -> dict[int, tuple[FaceInterval, ...]]:
    """All faces grouped by dimension: intervals with nonempty bottom, proper top."""
    by_dim: dict[int, list[FaceInterval]] = {k: [] for k in range(d)}
    for bottom in vertex_labels(d):
        rest = [v for v in range(1, d + 2) if v not in bottom]
        for extra_size in range(d - len(bottom) + 1):
            for extra in itertools.combinations(rest, extra_size):
                by_dim[extra_size].append(FaceInterval(bottom, bottom | frozenset(extra)))
    return {k: tuple(v) for k, v in by_dim.items()}


def skeleton_per_edge(d: int) -> SkeletonGraph:
    nodes = tuple(vertex_labels(d))
    edges = []
    for w in nodes:
        if len(w) < d:
            for y in set(range(1, d + 2)) - w:
                edges.append((w, w | {y}))
    return SkeletonGraph(d, nodes, tuple(edges))


def casks_and_belt_per_face(d: int) -> CaskBeltPartition:
    pole = d + 1
    parts: dict[str, list[list[FaceInterval]]] = {
        name: [[] for _ in range(d)] for name in ("north", "south", "belt")
    }
    for k, faces in build_face_lattice_per_face(d).items():
        for face in faces:
            part = "north" if pole not in face.top else "south" if pole in face.bottom else "belt"
            parts[part][k].append(face)
    return CaskBeltPartition(d, *(tuple(map(tuple, part)) for part in parts.values()))


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
    slot = next((k for k in range(1, n + 1) if k not in label), None)
    if slot is None:
        raise ValueError("label must leave a column slot outside it")
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


def laplace_terms_by_permutations(a, rows, cols, expansion_col):
    """Laplace terms of a minor along one column, each complementary minor by all permutations."""
    others = [j for j in cols if j != expansion_col]
    terms = []
    for i in rows:
        rest = [r for r in rows if r != i]
        best = NEG_INF
        for perm in itertools.permutations(rest):
            vals = [a.entry(r, j) for r, j in zip(perm, others)] + [a.entry(i, expansion_col)]
            if all(v is not NEG_INF for v in vals) and (best is NEG_INF or sum(vals) > best):
                best = sum(vals)
        terms.append(best)
    return terms


def unique_vertex_conditions_by_permutations(c, w, point):
    """The one-pass unique-vertex test on ``Fraction`` terms, each minor by all permutations.

    Errors are those of the library's: the point, then the slot, then one
    selection check (column range, then permanent limit) when a row subset exists.
    """
    label = sorted(set(w))
    n = c.n
    if len(point) != n or point[-1] != 0:
        raise ValueError("candidate point must have length n with last entry zero")
    slot = next((k for k in range(1, n + 1) if k not in label), None)
    if slot is None:
        raise ValueError("label must leave a column slot outside it")
    extended = c.replace_column(slot, list(point))
    cols = sorted(set(label) | {slot})
    order = len(label) + 1
    if order <= n:
        for j in cols:
            if not 1 <= j <= n:
                raise ValueError(f"column index {j} out of range")
        if order > 10:
            raise ValueError(f"minor order {order} exceeds permanent limit 10")
    for rows in itertools.combinations(range(1, n + 1), order):
        terms = laplace_terms_by_permutations(extended, rows, cols, slot)
        if any(t != terms[0] for t in terms):
            return False
    return order >= 2



def assignments_by_permutations(grid, cols):
    """``{mask: (best, count)}`` for each row mask of at most ``len(cols)`` rows of an int grid.

    ``best`` is the largest sum over bijections from the mask's rows to
    ``cols[:m]`` (``None`` when each meets a ``None`` entry) and ``count`` how
    many attain it, by listing every bijection.
    """
    out = {}
    for m in range(min(len(cols), len(grid)) + 1):
        for rows in itertools.combinations(range(len(grid)), m):
            sums = []
            for perm in itertools.permutations(rows):
                vals = [grid[r][c] for r, c in zip(perm, cols)]
                if None not in vals:
                    sums.append(sum(vals))
            top = max(sums, default=None)
            out[sum(1 << r for r in rows)] = (top, sums.count(top))
    return out


def lone_vertex_by_subsets(grid, label, slot):
    """The unique-vertex test on an int grid, one row subset at a time.

    The loop the library ran before one assignment program served every
    subset: the same selection check, then for each row subset one larger
    than the label its Laplace terms along ``slot``, each complementary
    minor by all permutations, must coincide.
    """
    cols = sorted([*label, slot])
    order = len(cols)
    _check_selection(len(grid), range(1, order + 1), cols)
    others = [j - 1 for j in cols if j != slot]
    for rows in itertools.combinations(range(len(grid)), order):
        terms = []
        for r in rows:
            sums = []
            for perm in itertools.permutations([i for i in rows if i != r]):
                vals = [grid[i][j] for i, j in zip(perm, others)]
                if None not in vals:
                    sums.append(sum(vals))
            minor, v = max(sums, default=None), grid[r][slot - 1]
            terms.append(None if minor is None or v is None else v + minor)
        if terms.count(terms[0]) != order:
            return False
    return order >= 2

# The matrix-class predicates by their definitions, as the library ran them
# before the NI test became the triangle inequality on integers: NI through
# the tropical square.


def is_normal(a):
    if not a.is_finite():
        raise ValueError("matrix must have finite entries")
    for i in range(a.n):
        for j in range(a.n):
            v = a.entries[i][j]
            if i == j:
                if v != 0:
                    return False
            elif v > 0:
                return False
    return True


def is_ni(a):
    return is_normal(a) and mat_mul(a, a) == a


def is_vni(a):
    return is_ni(a) and all(v == 0 for v in a.row(a.n))


def is_sni(a):
    return is_ni(a) and all(
        a.entries[i][j] == a.entries[j][i] for i in range(a.n) for j in range(i + 1, a.n)
    )


# The decomposition as the library ran it before it moved onto the integer
# grid: the box conjugated entry by entry and the perturbation validated on
# Fraction comparisons.


def perturbation_error(rows):
    """The error text ``PerturbationMatrix`` gives for square ``rows``, or ``None``."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            v = Fraction(rows[i][j])
            if i == j or i == n - 1 or j == n - 1:
                if v != 0:
                    return "perturbation matrix needs zero diagonal, last row and column"
            elif v > 0:
                return "perturbation entries must be non-positive"
    return None


def decompose(a):
    """Split an NI matrix as ``box - perturbation`` on Fractions."""
    if not is_ni(a):
        raise ValueError("decomposition requires a normal idempotent matrix")
    *rows, last = a.entries
    shifts = [-v for v in last[:-1]] + [Fraction(0)]
    lengths = [-last[i] - row[-1] for i, row in enumerate(rows)]
    if any(v <= 0 for v in lengths):
        raise ValueError("degenerate bounding box: non-positive edge length")
    box = conjugate_diag(box_vni_table(lengths), shifts)
    perturbation = PerturbationMatrix.from_rows(
        [[b - v for b, v in zip(brow, arow)] for brow, arow in zip(box.entries, a.entries)]
    )
    return Decomposition(box, perturbation)


# The box and polar-cask closed forms, the recursion check and the count
# tables as the library wrote them before each face-count family had one row
# builder: every entry on its own, each binomial by ``math.comb``.  The
# isocanted form is ``fvector``, with the sweeps below.


def box_fvector(d: int, extended: bool = False) -> tuple[int, ...]:
    """``2**(d-j) * C(d, j)`` for ``j < d``, optionally extended with ``1``."""
    row = tuple(2 ** (d - j) * comb(d, j) for j in range(d))
    return row + (1,) if extended else row


def cask_fvector(d: int) -> tuple[int, ...]:
    """``(2**(d-j) - 1) * C(d, j)`` for ``j <= d-2``."""
    return tuple((2 ** (d - j) - 1) * comb(d, j) for j in range(d - 1))


def fvector_recursion_holds(d: int) -> bool:
    """``iso(d, j) = 2 * cask(d, j) + iso(d-1, j-1)`` entry by entry, ``iso(d-1, -1) = 0``."""
    iso_d, iso_prev = fvector(d), fvector(d - 1)
    return all(
        iso_d[j] == 2 * (2 ** (d - j) - 1) * comb(d, j) + (iso_prev[j - 1] if j else 0) for j in range(d)
    )


def fvector_tables(dmax: int) -> combinatorics.FVectorTables:
    """Rows ``0..dmax`` of ``2**(d-k)``, ``C(d, k)``, their product and the halved isocanted counts."""
    rows = range(dmax + 1)
    two_power = tuple(tuple(2 ** (d - k) for k in range(d + 1)) for d in rows)
    pascal = tuple(tuple(comb(d, k) for k in range(d + 1)) for d in rows)
    box = tuple(tuple(t * p for t, p in zip(two_power[d], pascal[d])) for d in rows)
    half = tuple(
        tuple(Fraction((2 ** (d - k) - 1) * comb(d + 1, k)) for k in range(d)) + (Fraction(1, 2),)
        for d in rows
    )
    return combinatorics.FVectorTables(two_power, pascal, box, half)


# The conjecture sweeps as they were before the one-pass sweep: each check
# walks its own range and rebuilds the face-count row at every dimension.
# They share no row builder or predicate with the library: rows come from
# ``math.comb``, and the two sequence predicates are the loops the library
# used before it compared through ``map``.


def fvector(d: int, extended: bool = False) -> tuple[int, ...]:
    """``(2**(d+1-j) - 2) * C(d+1, j)`` for ``j < d``, each binomial by ``math.comb``."""
    row = tuple((2 ** (d + 1 - j) - 2) * comb(d + 1, j) for j in range(d))
    return row + (1,) if extended else row


def is_log_concave(seq: Sequence[int]) -> bool:
    """``seq[k+1]**2 >= seq[k] * seq[k+2]`` for every interior index."""
    return all(b * b >= a * c for a, b, c in zip(seq, seq[1:], seq[2:]))


def is_unimodal(seq: Sequence[int]) -> bool:
    """Non-decreasing up to some peak, then non-increasing."""
    k = 0
    while k + 1 < len(seq) and seq[k] <= seq[k + 1]:
        k += 1
    while k + 1 < len(seq) and seq[k] >= seq[k + 1]:
        k += 1
    return k == len(seq) - 1


def short_cubical_h(f: Sequence[int], d: int) -> tuple[int, ...]:
    """The short cubical h-vector term by term: ``f_j 2^j C(d-1-j, m) (-1)^m`` into entry ``j + m``."""
    if len(f) != d:
        raise ValueError("need face counts f_0 .. f_{d-1}")
    out = [0] * d
    for j, fj in enumerate(f):
        for m in range(d - j):
            out[j + m] += fj * 2**j * comb(d - 1 - j, m) * (-1) ** m
    return tuple(out)


def long_cubical_h(f: Sequence[int], d: int) -> tuple[int, ...]:
    """The cubical h-vector from :func:`short_cubical_h`: ``h[0] = 2^(d-1)``, ``h[i+1] = h_sc[i] - h[i]``."""
    h = [2 ** (d - 1)]
    for i, hsc in enumerate(short_cubical_h(f, d)):
        h.append(hsc - h[i])
    return tuple(h)


def _sweep(
    name: str,
    d_min: int,
    d_max: int,
    per_d: Callable[[int], tuple[bool, dict]],
) -> ConjectureReport:
    if d_min > d_max:
        raise ValueError("empty dimension range")
    witnesses: list[dict] = []
    for d in range(d_min, d_max + 1):
        ok, witness = per_d(d)
        witnesses.append(witness)
        if not ok:
            return ConjectureReport(
                name, d_min, d_max, False, tuple(witnesses), dict(witness)
            )
    return ConjectureReport(name, d_min, d_max, True, tuple(witnesses), None)


def check_extremes(d_min: int = 0, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """``(d+1)d/2 <= 2**d - 1`` with equality exactly at d = 0, 1, 2."""
    if d_min < 0:
        raise ValueError("dimension must be non-negative")

    def per_d(d: int) -> tuple[bool, dict]:
        lhs = (d + 1) * d // 2
        rhs = 2**d - 1
        equal = lhs == rhs
        ok = lhs <= rhs and equal == (d in (0, 1, 2))
        return ok, {"d": d, "lhs": lhs, "rhs": rhs, "equal": equal}

    return _sweep("extremes", d_min, d_max, per_d)


def check_log_concave(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Log-concavity of the counts, plus the two factor sequences separately.

    The two-power factor ``2**(d-k) - 1`` satisfies the exact identity
    ``(t[k+1])^2 - t[k] t[k+2] = 2**(d-k-2) > 0`` and every binomial row is
    log-concave; the entrywise product inherits the property.
    """
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        seq = fvector(d)
        ok = is_log_concave(seq)
        factor_ok = all(
            (2 ** (d - k - 1) - 1) ** 2 - (2 ** (d - k) - 1) * (2 ** (d - k - 2) - 1) == 2 ** (d - k - 2)
            for k in range(d - 2)
        )
        pascal_ok = is_log_concave([comb(d + 1, k) for k in range(d)])
        ok = ok and factor_ok and pascal_ok
        return ok, {"d": d, "log_concave": ok, "factor_identity": factor_ok}

    return _sweep("log_concave", d_min, d_max, per_d)


def check_unimodal(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        seq = fvector(d)
        ok = is_unimodal(seq)
        return ok, {"d": d, "unimodal": ok}

    return _sweep("unimodal", d_min, d_max, per_d)


def check_argmax(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """The stated claim that the maximum count sits at index ``floor(d/3)``.

    The claim is false from d = 5 for d = 2 mod 3 (first at d = 5, where the
    peak is at index 2); the true location is ``floor((d+1)/3)``.

    Ties report the smaller index and are flagged; the pass condition is that
    the value at ``floor(d/3)`` equals the maximum.  The quotient test
    ``seq[k+1] >= seq[k]`` is cross-checked against the equivalent integer
    comparison ``2**(d-k-1) * (d - 3k - 1) >= d - 2k``, and the monotonicity
    switch is bracketed: the sequence provably rises below ``(d-2)/3``, falls
    above ``d/3``, and the rise-to-fall boundary meets the integer window in
    between.

    Witnesses record the true argmax; the sweep is falsifiable and a failing
    dimension surfaces as the counterexample.
    """
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        seq = fvector(d)
        target = d // 3
        peak = max(seq)
        argmax_first = seq.index(peak)
        tie = seq.count(peak) > 1
        equiv_ok = True
        rises = []
        for k in range(d - 1):
            rise = seq[k + 1] >= seq[k]
            lhs = 2 ** (d - k - 1) * (d - 3 * k - 1)
            rhs = d - 2 * k
            if rise != (lhs >= rhs):
                equiv_ok = False
            rises.append(rise)
        lo = Fraction(d - 2, 3)
        hi = Fraction(d, 3)
        bracket_ok = all(
            rises[k] for k in range(len(rises)) if k < lo
        ) and all(
            not rises[k] for k in range(len(rises)) if k > hi
        )
        last_rise = max((k for k, r in enumerate(rises) if r), default=-1)
        if last_rise >= 0:
            window = [k for k in range(d) if lo <= k <= hi]
            bracket_ok = bracket_ok and any(
                k in (last_rise, last_rise + 1) for k in window
            )
        ok = seq[target] == peak and equiv_ok and bracket_ok
        return ok, {
            "d": d,
            "argmax": argmax_first,
            "expected": target,
            "tie": tie,
            "bracket_ok": bracket_ok,
            "quotient_equivalence": equiv_ok,
        }

    return _sweep("argmax", d_min, d_max, per_d)


def check_barany(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Every count is at least the facet count ``(d+1)d``."""
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        seq = fvector(d)
        bound = (d + 1) * d
        ok = min(seq) >= bound and seq[-1] == bound
        return ok, {"d": d, "min": min(seq), "bound": bound}

    return _sweep("barany", d_min, d_max, per_d)


def check_3d(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """The extended counts sum to ``3**(d+1) - 2**(d+2) + 2``, above ``3**d``.

    The closed form also equals ``2 * S(d+2, 3) + 1`` with Stirling numbers of
    the second kind, checked via the standard recurrence.
    """
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        total = sum(fvector(d, extended=True))
        closed = 3 ** (d + 1) - 2 ** (d + 2) + 2
        stirling_form = 2 * stirling2(d + 2, 3) + 1
        ok = total == closed == stirling_form and total > 3**d
        return ok, {"d": d, "total": total, "closed_form": closed, "stirling_form": stirling_form}

    return _sweep("3d", d_min, d_max, per_d)


def check_flag(d_min: int = DEFAULT_D_MIN, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Flag count beats the box count ``2**d d!`` and equals a chain recount.

    The supporting inequality ``(2**(d-1) - 1)(d+1) > 2**(d-2) d`` (the
    per-vertex comparison behind the bound) is verified along the way.
    """
    _require_min(d_min)

    def per_d(d: int) -> tuple[bool, dict]:
        flags = count_flags(d)
        bound = 2**d * factorial(d)
        # Compare 4*lhs > 4*rhs to stay in integers at d = 2.
        support = (2 ** (d - 1) - 1) * (d + 1) * 4 > 2**d * d
        # The library's symmetric table, not the lattice walk above.
        chains = combinatorics.count_flags_by_chains(d)
        ok = flags > bound and support and chains == flags
        return ok, {
            "d": d,
            "flags": flags,
            "box_flags": bound,
            "chain_recount": chains,
            "chain_checked": True,
        }

    return _sweep("flag", d_min, d_max, per_d)


def cubical_g2(d_min: int = 4, d_max: int = DEFAULT_D_MAX) -> ConjectureReport:
    """Non-negativity of the second cubical g-entry over the sweep."""
    if d_min < 4:
        raise ValueError("the second cubical g-entry needs dimension >= 4")

    def per_d(d: int) -> tuple[bool, dict]:
        # h[1] and h[2] from the first two short cubical h-coefficients.
        f0, f1 = fvector(d)[:2]
        h1 = f0 - 2 ** (d - 1)
        h2 = 2 * f1 - (d - 1) * f0 - h1
        g2 = h2 - h1
        return g2 >= 0, {"d": d, "g2": g2}

    return _sweep("cubical_g2", d_min, d_max, per_d)


def _require_min(d_min: int) -> None:
    if d_min < 2:
        raise ValueError("dimension range must start at 2 or above")


CHECKS: dict[str, Callable[..., ConjectureReport]] = {
    "extremes": check_extremes,
    "log_concave": check_log_concave,
    "unimodal": check_unimodal,
    "argmax": check_argmax,
    "barany": check_barany,
    "3d": check_3d,
    "flag": check_flag,
    "cubical_g2": cubical_g2,
}


def run_all(
    names: Sequence[str] | None = None,
    d_min: int = DEFAULT_D_MIN,
    d_max: int = DEFAULT_D_MAX,
) -> list[ConjectureReport]:
    """Run the named checks (default: all) over one dimension range.

    The extremes check keeps the requested floor (it is defined from zero);
    the cubical g-entry check clamps its floor to 4, where it is defined.
    """
    selected = list(CHECKS) if names is None else list(names)
    reports = []
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check: {name!r}")
        reports.append(CHECKS[name](max(4, d_min) if name == "cubical_g2" else d_min, d_max))
    return reports
