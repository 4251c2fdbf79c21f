"""Matrix files, report payloads and mesh export.

JSON is the canonical interchange format.  Matrix entries are JSON integers,
exact fraction strings ``"p/q"`` or the sentinel ``"-inf"``; parsing is strict
(floats, ``+inf`` and zero denominators are rejected) and serialization round
trips bit-identically.  Mesh files are the one boundary where decimals appear:
vertex coordinates are rendered with a fixed number of significant digits
recorded in the file header.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .combinatorics import build_face_lattice, label_text
from .geometry import Point, closed_form_vertices
from .matrices import IsocantedSpec
from .tropical import NEG_INF, TropMatrix, TropScalar, _NegInf

_FRACTION_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")

#: Vertex color key by label length: generators blue, then yellow, magenta, green.
COLOR_BY_LENGTH = {
    1: (0, 0, 1),
    2: (1, 1, 0),
    3: (1, 0, 1),
    4: (0, 1, 0),
}
COLOR_NAMES = {1: "blue", 2: "yellow", 3: "magenta", 4: "green"}

DEFAULT_PRECISION = 12


class MatrixParseError(ValueError):
    """Raised when a matrix payload does not match the interchange schema."""


def scalar_to_json(value: TropScalar | Fraction) -> int | str:
    if isinstance(value, _NegInf):
        return "-inf"
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def scalar_from_json(value: object) -> TropScalar:
    if isinstance(value, bool):
        raise MatrixParseError(f"entry {value!r} is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if value == "-inf":
            return NEG_INF
        if value in ("inf", "+inf"):
            raise MatrixParseError("+inf entries are not supported")
        if not _FRACTION_RE.fullmatch(value):
            raise MatrixParseError(f"malformed rational {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise MatrixParseError(f"zero denominator in {value!r}") from exc
    raise MatrixParseError(f"entry {value!r} is not integer, 'p/q' or '-inf'")


def matrix_to_json(a: TropMatrix) -> dict:
    return {
        "size": a.n,
        "entries": [[scalar_to_json(v) for v in row] for row in a.entries],
    }


def matrix_from_json(obj: object) -> TropMatrix:
    if not isinstance(obj, dict):
        raise MatrixParseError("matrix payload must be a JSON object")
    size = obj.get("size")
    entries = obj.get("entries")
    if not isinstance(size, int) or isinstance(size, bool) or size < 2:
        raise MatrixParseError("'size' must be an integer >= 2")
    if not isinstance(entries, list) or len(entries) != size:
        raise MatrixParseError(f"'entries' must be a {size}x{size} array")
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != size:
            raise MatrixParseError(f"'entries' must be a {size}x{size} array")
        rows.append(tuple(scalar_from_json(v) for v in row))
    return TropMatrix(tuple(rows))


def write_matrix(path: str | Path, a: TropMatrix) -> None:
    Path(path).write_text(json.dumps(matrix_to_json(a), indent=2) + "\n", encoding="utf-8")


def read_matrix(path: str | Path) -> TropMatrix:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON: {exc}") from exc
    return matrix_from_json(payload)


def format_decimal(value: Fraction, precision: int = DEFAULT_PRECISION) -> str:
    """Render an exact rational as a decimal with fixed significant digits."""
    return format(float(value), f".{precision}g")


@dataclass(frozen=True)
class MeshExport:
    """Three-dimensional mesh of the isocanted polytope with colored vertices.

    Vertices are exact points ordered by (label length, label); faces are
    quadrilateral vertex cycles, consistently oriented outward.  Colors follow
    the label-length key and ``precision`` fixes the decimal rendering.
    """

    vertices: tuple[Point, ...]
    labels: tuple[frozenset[int], ...]
    faces: tuple[tuple[int, int, int, int], ...]
    colors: tuple[tuple[int, int, int], ...]
    precision: int = DEFAULT_PRECISION


def _cross(u: tuple[Fraction, ...], v: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def build_mesh(
    spec: IsocantedSpec, placement: str = "vni", precision: int = DEFAULT_PRECISION
) -> MeshExport:
    """Mesh of the three-dimensional isocanted polytope: 14 vertices, 12 quads."""
    if spec.d != 3:
        raise ValueError("mesh export is defined for dimension 3")
    vertex_map = closed_form_vertices(spec, placement)
    labels = tuple(vertex_map)
    index = {lab: k for k, lab in enumerate(labels)}
    vertices = tuple(vertex_map[lab] for lab in labels)
    centroid = tuple(
        sum(v[k] for v in vertices) / len(vertices) for k in range(3)
    )

    faces = []
    for face in build_face_lattice(3)[2]:
        low, high = sorted(face.top - face.bottom)
        cycle = [
            face.bottom,
            face.bottom | {low},
            face.top,
            face.bottom | {high},
        ]
        pts = [vertex_map[lab] for lab in cycle]
        normal = _cross(
            tuple(pts[1][k] - pts[0][k] for k in range(3)),
            tuple(pts[2][k] - pts[0][k] for k in range(3)),
        )
        face_centroid = tuple(sum(p[k] for p in pts) / 4 for k in range(3))
        outward = sum(normal[k] * (face_centroid[k] - centroid[k]) for k in range(3))
        if outward < 0:
            cycle.reverse()
        faces.append(tuple(index[lab] for lab in cycle))

    colors = tuple(COLOR_BY_LENGTH[len(lab)] for lab in labels)
    return MeshExport(vertices, labels, tuple(sorted(faces)), colors, precision)


def mesh_to_off(mesh: MeshExport) -> str:
    """COFF text: header, counts, colored vertex lines, quad face lines."""
    edge_count = sum(len(face) for face in mesh.faces) // 2
    lines = ["COFF", f"# precision {mesh.precision}"]
    lines.append(f"{len(mesh.vertices)} {len(mesh.faces)} {edge_count}")
    for point, color in zip(mesh.vertices, mesh.colors):
        coords = " ".join(format_decimal(c, mesh.precision) for c in point)
        r, g, b = color
        lines.append(f"{coords} {r} {g} {b} 1")
    for face in mesh.faces:
        lines.append("4 " + " ".join(str(i) for i in face))
    return "\n".join(lines) + "\n"


def mesh_to_obj(mesh: MeshExport) -> str:
    """OBJ text with 1-based faces; colors carried as per-vertex comments."""
    lines = [f"# precision {mesh.precision}"]
    key = ", ".join(f"length {k}: {name}" for k, name in COLOR_NAMES.items())
    lines.append(f"# vertex color key by label length: {key}")
    for point, label, color in zip(mesh.vertices, mesh.labels, mesh.colors):
        lines.append(f"# label {label_text(label)} color {COLOR_NAMES[len(label)]}")
        coords = " ".join(format_decimal(c, mesh.precision) for c in point)
        lines.append(f"v {coords}")
    for face in mesh.faces:
        lines.append("f " + " ".join(str(i + 1) for i in face))
    return "\n".join(lines) + "\n"


def parse_off(text: str) -> dict:
    """Re-parse a COFF export: counts, float vertices, colors, face cycles."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or lines[0].strip() not in ("OFF", "COFF"):
        raise ValueError("not an OFF/COFF file")
    counts = lines[1].split()
    nv, nf = int(counts[0]), int(counts[1])
    n_edges = int(counts[2]) if len(counts) > 2 else 0
    vertices = []
    colors = []
    for ln in lines[2 : 2 + nv]:
        parts = ln.split()
        vertices.append(tuple(float(p) for p in parts[:3]))
        colors.append(tuple(float(p) for p in parts[3:7]))
    faces = []
    for ln in lines[2 + nv : 2 + nv + nf]:
        parts = ln.split()
        arity = int(parts[0])
        faces.append(tuple(int(p) for p in parts[1 : 1 + arity]))
    return {
        "n_vertices": nv,
        "n_faces": nf,
        "n_edges": n_edges,
        "vertices": vertices,
        "colors": colors,
        "faces": faces,
    }


def write_mesh(path: str | Path, mesh: MeshExport, fmt: str) -> None:
    if fmt == "off":
        text = mesh_to_off(mesh)
    elif fmt == "obj":
        text = mesh_to_obj(mesh)
    else:
        raise ValueError(f"unknown mesh format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")
