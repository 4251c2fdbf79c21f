"""Slow exact references that tests compare the library's fast paths against."""

from fractions import Fraction


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
