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
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from ._record import Record, _is_int
from .combinatorics import facet_intervals, label_text
from .geometry import Point, closed_form_vertices
from .matrices import IsocantedSpec
from .tropical import NEG_INF, TropMatrix, TropScalar, _NegInf

_FRACTION_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

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


def parse_fraction(text: str) -> Fraction:
    """An exact rational written ``n`` or ``n/q`` in ASCII digits, ``n`` optionally negative."""
    match = _FRACTION_RE.fullmatch(text)
    if not match:
        raise MatrixParseError(f"malformed rational {text!r}")
    numerator, denominator = match.groups("1")
    try:
        return Fraction(int(numerator), int(denominator))
    except ZeroDivisionError as exc:
        raise MatrixParseError(f"zero denominator in {text!r}") from exc


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
        return parse_fraction(value)
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
    if not _is_int(size) or size < 2:
        raise MatrixParseError("'size' must be an integer >= 2")
    if not isinstance(entries, list) or len(entries) != size:
        raise MatrixParseError(f"'entries' must be a {size}x{size} array")
    # One scalar per distinct integer or string entry; the type test keeps
    # ``True`` from reading the scalar of the equal key ``1``.
    seen: dict[int | str, TropScalar] = {}

    def scalar(v: object) -> TropScalar:
        if type(v) is not int and type(v) is not str:
            return scalar_from_json(v)
        s = seen.get(v)
        if s is None:
            s = seen[v] = scalar_from_json(v)
        return s

    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != size:
            raise MatrixParseError(f"'entries' must be a {size}x{size} array")
        rows.append(tuple([scalar(v) for v in row]))
    return TropMatrix(tuple(rows))


def write_matrix(path: str | Path, a: TropMatrix) -> None:
    Path(path).write_text(json.dumps(matrix_to_json(a), indent=2) + "\n", encoding="utf-8")


def read_matrix(path: str | Path) -> TropMatrix:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MatrixParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MatrixParseError("invalid JSON: arrays or objects nested too deeply") from exc
    return matrix_from_json(payload)


def check_precision(precision: int) -> int:
    """Validate a count of significant digits: an ``int`` (not a ``bool``), at least 1."""
    if not _is_int(precision):
        raise ValueError(f"precision must be an integer, not {precision!r}")
    if precision < 1:
        raise ValueError("precision must be at least 1 significant digit")
    return precision


def format_decimal(value: Fraction, precision: int = DEFAULT_PRECISION) -> str:
    """Render an exact rational as a decimal with fixed significant digits."""
    return format(float(value), f".{check_precision(precision)}g")


class MeshExport(Record):
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

    def __post_init__(self) -> None:
        check_precision(self.precision)


def build_mesh(
    spec: IsocantedSpec, placement: str = "vni", precision: int = DEFAULT_PRECISION
) -> MeshExport:
    """Mesh of the three-dimensional isocanted polytope: 14 vertices, 12 quads.

    The facet ``[{i}, {1..4} - {m}]`` with free labels ``j < k`` is the cycle
    ``{i}, {i, j}, {i, j, k}, {i, k}``, reversed when ``(i, j, k, m)`` is an
    odd permutation.  No facet degenerates for ``0 < cant < edge_length``, a
    connected range, and ``sni`` is ``vni`` translated, so no orientation can
    flip as the spec moves; one spec fixes all 12, and the parity rule
    matches them there.
    """
    if spec.d != 3:
        raise ValueError("mesh export is defined for dimension 3")
    vertex_map = closed_form_vertices(spec, placement)
    labels = tuple(vertex_map)
    vertices = tuple(vertex_map.values())

    faces = []
    for face in facet_intervals(3):
        (i,), (m,) = face.bottom, {1, 2, 3, 4} - face.top
        j, k = sorted(face.top - face.bottom)
        cycle = [face.bottom, face.bottom | {j}, face.top, face.bottom | {k}]
        if sum(p > q for p, q in combinations((i, j, k, m), 2)) % 2:
            cycle.reverse()
        faces.append(tuple(map(labels.index, cycle)))

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


#: Mesh text writers by format name, for ``write_mesh`` and ``isocant export``.
MESH_FORMATS = {"off": mesh_to_off, "obj": mesh_to_obj}


def write_mesh(path: str | Path, mesh: MeshExport, fmt: str) -> None:
    if fmt not in MESH_FORMATS:
        raise ValueError(f"unknown mesh format {fmt!r}")
    Path(path).write_text(MESH_FORMATS[fmt](mesh), encoding="utf-8")
