"""Matrix JSON round trips, strict parsing, mesh construction and OFF/OBJ output."""

import json
from fractions import Fraction as F

import pytest

from isocant.geometry import hrep_from_matrix
from isocant.matrices import IsocantedSpec, isocanted_sni, isocanted_vni
from isocant.serialize import (
    COLOR_BY_LENGTH,
    MatrixParseError,
    build_mesh,
    format_decimal,
    matrix_from_json,
    matrix_to_json,
    mesh_to_obj,
    mesh_to_off,
    parse_off,
    read_matrix,
    scalar_from_json,
    scalar_to_json,
    write_matrix,
)
from isocant.tropical import NEG_INF, TropMatrix

import reference


def test_scalar_round_trip():
    for value in (F(0), F(-3), F(7, 2), F(-5, 12), NEG_INF):
        assert scalar_from_json(scalar_to_json(value)) == value or (
            value is NEG_INF and scalar_from_json(scalar_to_json(value)) is NEG_INF
        )
    assert scalar_to_json(F(4)) == 4
    assert scalar_to_json(F(-1, 2)) == "-1/2"


# Non-ASCII digits and a trailing newline would not round-trip byte-identically.
UNCANONICAL = ["-\u0663", "\u0663/\u0664", "3\n", "1/2\n"]


@pytest.mark.parametrize(
    "bad",
    ["1/0", "0.5", "1e3", "inf", "+inf", "--1", "1/-2", 2.5, None, True, [1], *UNCANONICAL],
)
def test_scalar_parse_rejects_garbage(bad):
    with pytest.raises(MatrixParseError):
        scalar_from_json(bad)


@pytest.mark.parametrize("bad", UNCANONICAL)
def test_classify_rejects_uncanonical_rational(tmp_path, capsys, bad):
    from isocant.cli import main

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"size": 2, "entries": [[0, bad], [0, 0]]}), encoding="utf-8")
    assert main(["classify", str(path)]) == 2
    assert "malformed rational" in capsys.readouterr().err


def test_matrix_round_trip_exact(tmp_path):
    a = isocanted_sni(IsocantedSpec(3, F(5, 2), F(3, 4)))
    payload = matrix_to_json(a)
    assert matrix_from_json(payload) == a
    path = tmp_path / "matrix.json"
    write_matrix(path, a)
    assert read_matrix(path) == a
    # Byte-identical re-serialization.
    write_matrix(tmp_path / "again.json", read_matrix(path))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_matrix_round_trip_with_neg_inf():
    a = TropMatrix.from_rows([[0, NEG_INF], [-1, 0]])
    payload = matrix_to_json(a)
    assert payload["entries"][0][1] == "-inf"
    assert matrix_from_json(payload) == a


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"size": 2},
        {"size": "2", "entries": [[0, 0], [0, 0]]},
        {"size": 1, "entries": [[0]]},
        {"size": 2, "entries": [[0, 0]]},
        {"size": 2, "entries": [[0, 0], [0, 0, 0]]},
        {"size": 2, "entries": [[0, 0], [0, "1/0"]]},
    ],
)
def test_matrix_from_json_rejects_bad_payloads(payload):
    with pytest.raises(MatrixParseError):
        matrix_from_json(payload)


def test_read_matrix_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MatrixParseError):
        read_matrix(path)


def test_format_decimal():
    assert format_decimal(F(-1)) == "-1"
    assert format_decimal(F(5, 2)) == "2.5"
    assert format_decimal(F(1, 3), 6) == "0.333333"


def _spec3():
    return IsocantedSpec(3, F(2), F(1))


def test_mesh_counts_and_colors():
    mesh = build_mesh(_spec3())
    assert len(mesh.vertices) == 14
    assert len(mesh.faces) == 12
    lengths = [len(lab) for lab in mesh.labels]
    assert lengths.count(1) == 4 and lengths.count(2) == 6 and lengths.count(3) == 4
    for lab, color in zip(mesh.labels, mesh.colors):
        assert color == COLOR_BY_LENGTH[len(lab)]
    with pytest.raises(ValueError):
        build_mesh(IsocantedSpec(2, F(2), F(1)))


def test_mesh_faces_are_planar_quads():
    mesh = build_mesh(_spec3())
    for face in mesh.faces:
        assert len(set(face)) == 4
        assert reference.affine_dim([mesh.vertices[i] for i in face]) == 2


def test_mesh_quads_match_lattice_two_faces():
    from isocant.combinatorics import build_face_lattice

    mesh = build_mesh(_spec3())
    label_sets = {
        frozenset(mesh.labels[i] for i in face) for face in mesh.faces
    }
    expected = {
        frozenset(face.vertices()) for face in build_face_lattice(3)[2]
    }
    assert label_sets == expected


def test_mesh_faces_oriented_outward():
    mesh = build_mesh(_spec3())
    center = tuple(
        sum(v[k] for v in mesh.vertices) / len(mesh.vertices) for k in range(3)
    )
    for face in mesh.faces:
        p = [mesh.vertices[i] for i in face]
        normal = (
            (p[1][1] - p[0][1]) * (p[2][2] - p[0][2]) - (p[1][2] - p[0][2]) * (p[2][1] - p[0][1]),
            (p[1][2] - p[0][2]) * (p[2][0] - p[0][0]) - (p[1][0] - p[0][0]) * (p[2][2] - p[0][2]),
            (p[1][0] - p[0][0]) * (p[2][1] - p[0][1]) - (p[1][1] - p[0][1]) * (p[2][0] - p[0][0]),
        )
        face_center = tuple(sum(q[k] for q in p) / 4 for k in range(3))
        assert sum(normal[k] * (face_center[k] - center[k]) for k in range(3)) > 0


def test_mesh_vertices_satisfy_halfspaces():
    spec = _spec3()
    for placement, matrix in (("vni", isocanted_vni(spec)), ("sni", isocanted_sni(spec))):
        mesh = build_mesh(spec, placement)
        h = hrep_from_matrix(matrix)
        for v in mesh.vertices:
            assert h.contains(v)


def test_off_round_trip():
    mesh = build_mesh(_spec3())
    text = mesh_to_off(mesh)
    assert text.startswith("COFF\n# precision 12\n")
    parsed = parse_off(text)
    assert parsed["n_vertices"] == 14
    assert parsed["n_faces"] == 12
    assert parsed["n_edges"] == 24
    assert len(parsed["vertices"]) == 14
    assert all(len(face) == 4 for face in parsed["faces"])
    assert set(parsed["faces"]) == set(mesh.faces)
    for k, (point, color) in enumerate(zip(parsed["vertices"], parsed["colors"])):
        assert point == tuple(float(c) for c in mesh.vertices[k])
        assert color[:3] == tuple(float(c) for c in mesh.colors[k])
        assert color[3] == 1.0


def test_off_byte_stable():
    a = mesh_to_off(build_mesh(_spec3()))
    b = mesh_to_off(build_mesh(_spec3()))
    assert a == b


def test_obj_output():
    mesh = build_mesh(_spec3(), "sni")
    text = mesh_to_obj(mesh)
    lines = text.splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 14
    assert sum(1 for ln in lines if ln.startswith("f ")) == 12
    assert any("color blue" in ln for ln in lines)
    assert any("color magenta" in ln for ln in lines)
    # OBJ faces are 1-based.
    for ln in lines:
        if ln.startswith("f "):
            idx = [int(tok) for tok in ln.split()[1:]]
            assert all(1 <= i <= 14 for i in idx)


def test_parse_off_rejects_other_files():
    with pytest.raises(ValueError):
        parse_off("PLY\n")
