"""End-to-end CLI behavior: subcommands, formats, exit codes, byte stability."""

import json
from fractions import Fraction as F

import pytest

from isocant.cli import main
from isocant.matrices import IsocantedSpec, isocanted_sni
from isocant.serialize import matrix_to_json, write_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fvector_table(capsys):
    code, out, _ = run_cli(capsys, "fvector", "--dim", "4", "--format", "table")
    assert code == 0
    assert out.strip() == "30 70 60 20"


def test_fvector_json_extended(capsys):
    code, out, _ = run_cli(capsys, "fvector", "--dim", "3", "--extended")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"d": 3, "f": [14, 24, 12, 1]}


def test_build_then_classify_round_trip(tmp_path, capsys):
    matrix_path = tmp_path / "iso.json"
    code, _, _ = run_cli(
        capsys,
        "build", "--dim", "3", "--ell", "2", "--a", "1/2",
        "--placement", "sni", "--output", str(matrix_path),
    )
    assert code == 0
    stored = json.loads(matrix_path.read_text())
    assert stored == matrix_to_json(isocanted_sni(IsocantedSpec(3, F(2), F(1, 2))))

    code, out, _ = run_cli(capsys, "classify", str(matrix_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["ni"] and payload["sni"] and not payload["vni"]
    assert payload["isocanted"] == "1/2"
    assert payload["decomposition"]["perturbation"][0][1] == "-1/2"


def test_classify_box_not_isocanted(tmp_path, capsys):
    from isocant.matrices import box_vni

    path = tmp_path / "box.json"
    write_matrix(path, box_vni([F(1), F(2)]))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["ni"] and payload["isocanted"] is None


def test_classify_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"size": 2, "entries": [[0, "1/0"], [0, 0]]}', encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "error:" in err


def test_classify_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fvector", "--dim", "not-an-int"])
    assert exc.value.code == 2


def test_vertices_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "vertices", "--dim", "2", "--ell", "2", "--a", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["placement"] == "vni"
    assert len(payload["vertices"]) == 6
    first = payload["vertices"][0]
    assert first["label"] == [1] and first["point"] == [0, -1]


def test_vertices_oracle_mode(tmp_path, capsys):
    path = tmp_path / "hex.json"
    code, _, _ = run_cli(
        capsys, "build", "--dim", "2", "--ell", "2", "--a", "1", "--output", str(path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "vertices", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["source"] == "oracle"
    assert len(payload["vertices"]) == 6
    # Canonical isocanted input: the oracle listing carries labels.
    labels = {tuple(v["label"]) for v in payload["vertices"]}
    assert (1,) in labels and (1, 2) in labels


def test_vertices_oracle_mode_unlabeled_for_box(tmp_path, capsys):
    from isocant.matrices import box_vni

    path = tmp_path / "box.json"
    write_matrix(path, box_vni([F(1), F(2)]))
    code, out, _ = run_cli(capsys, "vertices", str(path))
    assert code == 0
    payload = json.loads(out)
    assert all(v["label"] is None for v in payload["vertices"])
    assert len(payload["vertices"]) == 4


def test_classify_degenerate_ni_matrix(tmp_path, capsys):
    # The all-zeros matrix is NI but its polytope is the single point at the
    # origin: flags are reported, the decomposition slot stays null.
    path = tmp_path / "flat.json"
    path.write_text('{"size": 3, "entries": [[0,0,0],[0,0,0],[0,0,0]]}', encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["ni"] and payload["decomposition"] is None


def test_classify_neg_inf_entry_exit_code(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text('{"size": 2, "entries": [[0, "-inf"], [0, 0]]}', encoding="utf-8")
    code, _, err = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert "finite" in err


def test_vertices_table_format(capsys):
    code, out, _ = run_cli(
        capsys, "vertices", "--dim", "2", "--ell", "2", "--a", "1", "--format", "table"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "1\t0 -1"


def test_vertices_requires_spec_or_input(capsys):
    code, _, err = run_cli(capsys, "vertices")
    assert code == 2
    assert "error:" in err


def test_lattice_counts(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--dim", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == [14, 24, 12]
    assert len(payload["faces"]["2"]) == 12


def test_verify_passing_subset(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "barany,3d,unimodal", "--range", "2:30"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["name"] for r in reports] == ["barany", "3d", "unimodal"]
    assert all(r["status"] == "pass" for r in reports)


def test_verify_all_reports_known_failures(capsys):
    # The argmax and flag sweeps fail at d=5 and d=4 with witnesses; the
    # stated claims are false there, so the exit code is 1 by design.
    code, out, _ = run_cli(capsys, "verify", "all", "--range", "2:40")
    assert code == 1
    reports = {r["name"]: r for r in map(json.loads, out.strip().splitlines())}
    assert reports["argmax"]["status"] == "fail"
    assert reports["argmax"]["counterexample"]["d"] == 5
    assert reports["flag"]["status"] == "fail"
    assert reports["flag"]["counterexample"]["d"] == 4
    for name in ("extremes", "log_concave", "unimodal", "barany", "3d", "cubical_g2"):
        assert reports[name]["status"] == "pass"


def test_verify_table_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "barany", "--range", "2:10", "--format", "table")
    assert code == 0
    assert out.splitlines()[0] == "barany\t[2,10]\tPASS"


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense", "--range", "2:10")
    assert code == 2
    assert "error:" in err


def test_verify_bad_range_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--range", "5"])
    assert exc.value.code == 2


def test_export_off_and_obj(tmp_path, capsys):
    off_path = tmp_path / "shape.off"
    code, _, _ = run_cli(
        capsys,
        "export", "--dim", "3", "--ell", "2", "--a", "1",
        "--format", "off", "--output", str(off_path),
    )
    assert code == 0
    text = off_path.read_text()
    assert text.startswith("COFF\n")
    assert text.splitlines()[2] == "14 12 24"

    code, out, _ = run_cli(
        capsys, "export", "--dim", "3", "--ell", "2", "--a", "1", "--format", "obj"
    )
    assert code == 0
    assert out.count("\nf ") == 12


def test_export_wrong_dimension(capsys):
    code, _, err = run_cli(
        capsys, "export", "--dim", "4", "--ell", "2", "--a", "1"
    )
    assert code == 2
    assert "error:" in err


def test_outputs_byte_stable(capsys):
    _, out1, _ = run_cli(capsys, "fvector", "--dim", "6")
    _, out2, _ = run_cli(capsys, "fvector", "--dim", "6")
    assert out1 == out2
    _, v1, _ = run_cli(capsys, "vertices", "--dim", "3", "--ell", "5/2", "--a", "3/4")
    _, v2, _ = run_cli(capsys, "vertices", "--dim", "3", "--ell", "5/2", "--a", "3/4")
    assert v1 == v2


def test_export_precision_must_be_positive(capsys):
    # ".0g" would still print one digit under a "# precision 0" header.
    spec = ["export", "--dim", "3", "--ell", "5/2", "--a", "1/3", "--precision"]
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(spec + [bad])
        assert exc.value.code == 2
        assert "precision must be at least 1" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, *spec, "1")
    assert code == 0
    assert out.splitlines()[1] == "# precision 1"
