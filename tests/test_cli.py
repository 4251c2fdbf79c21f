"""End-to-end CLI behavior: subcommands, formats, exit codes, byte stability."""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from isocant import cli, conjectures, matrices
from isocant.cli import (
    BUILD_DIM_LIMIT,
    CLASSIFY_SIZE_LIMIT,
    FVECTOR_DIM_LIMIT,
    VERIFY_DIM_LIMIT,
    VERTICES_DIM_LIMIT,
    build_parser,
    main,
)
from isocant.matrices import IsocantedSpec, cube_vni, isocanted_sni
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


@pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a":', "}")])
@pytest.mark.parametrize("command", ["classify", "vertices"])
def test_deeply_nested_matrix_file_exit_code(tmp_path, capsys, command, opener, closer):
    # The JSON decoder recurses once per level and hits the recursion limit.
    path = tmp_path / "deep.json"
    path.write_text(opener * 10_000 + "0" + closer * 10_000, encoding="utf-8")
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1


def test_classify_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, code_if_written",
    [
        (["classify", str(Path(__file__).parent / "golden" / "nonni_d3.json")], 0),
        (["verify", "all", "--range", "2:12"], 1),
    ],
    ids=["classify", "verify"],
)
def test_unwritable_output_exit_code(tmp_path, capsys, argv, code_if_written):
    code, _, _ = run_cli(capsys, *argv, "--output", str(tmp_path / "out.txt"))
    assert code == code_if_written
    code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / "missing" / "out.txt"))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    assert not (tmp_path / "missing").exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fvector", "--dim", "not-an-int"])
    assert exc.value.code == 2


# Python's int() reads all but the first; integer options take the matrix
# files' grammar, ASCII digits with an optional minus sign.
NOT_ASCII_INTEGERS = ["x", "1_0", "+3", "\u0663", " 3 "]


@pytest.mark.parametrize("command, options", [
    ("fvector", []),
    ("vertices", ["--ell", "2", "--a", "1"]),
    ("build", ["--ell", "2", "--a", "1"]),
    ("lattice", []),
    ("export", ["--ell", "2", "--a", "1"]),
])
def test_non_integer_dim_gives_one_message(capsys, command, options):
    for text in NOT_ASCII_INTEGERS:
        with pytest.raises(SystemExit) as exc:
            main([command, *options, "--dim", text])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --dim: not an integer: {text!r}\n")


def test_non_integer_precision_gives_the_same_message(capsys):
    for text in NOT_ASCII_INTEGERS:
        with pytest.raises(SystemExit) as exc:
            main(["export", "--dim", "3", "--ell", "2", "--a", "1", "--precision", text])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --precision: not an integer: {text!r}\n")


@pytest.mark.parametrize("bad", ["\u0663/\u0664", "1e0", "0.5", " 1/2 ", "1/0"])
@pytest.mark.parametrize("option", ["--ell", "--a"])
def test_rational_options_use_the_matrix_file_grammar(capsys, option, bad):
    # Arabic-Indic digits, exponents, decimals and padding all parse as Fraction.
    argv = ["build", "--dim", "3", "--ell", "5/2", "--a", "1/3"]
    argv[argv.index(option) + 1] = bad
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["fvector", "--dim"], FVECTOR_DIM_LIMIT),
        (["vertices", "--ell", "2", "--a", "1", "--dim"], VERTICES_DIM_LIMIT),
        (["build", "--ell", "2", "--a", "1", "--dim"], BUILD_DIM_LIMIT),
    ],
)
def test_dimension_caps_fail_while_parsing(capsys, argv, limit):
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(limit + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"dimension {limit + 1} exceeds {argv[0]} limit {limit}" in captured.err
    assert captured.out == ""


def test_verify_range_cap_refuses_before_any_sweep(capsys, monkeypatch):
    # Without the cap, ``3d`` at d=14,001 ran for about a minute and then
    # failed on Python's limit for printing an int.
    def never(*args):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(conjectures, "run_all", never)
    for checks, bounds in (("3d", "14000:14001"), ("all", f"2:{VERIFY_DIM_LIMIT + 1}")):
        with pytest.raises(SystemExit) as exc:
            main(["verify", checks, "--range", bounds])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        hi = bounds.split(":")[1]
        assert f"argument --range: dimension {hi} exceeds verify limit {VERIFY_DIM_LIMIT}" in captured.err
    args = build_parser().parse_args(["verify", "--range", f"{VERIFY_DIM_LIMIT}:{VERIFY_DIM_LIMIT}"])
    assert args.range == (VERIFY_DIM_LIMIT, VERIFY_DIM_LIMIT)


def test_classify_size_cap_refuses_before_any_class_test(tmp_path, capsys, monkeypatch):
    # ``build --dim 400`` writes a matrix of size 401, which took seconds to
    # classify: its O(n^3) NI test can run four times.
    path = tmp_path / "cube.json"

    def classify(n):
        write_matrix(path, cube_vni(n - 1, 1))
        return run_cli(capsys, "classify", str(path))

    monkeypatch.setattr(cli, "CLASSIFY_SIZE_LIMIT", 3)
    assert classify(3)[0] == 0
    assert classify(4) == (2, "", "error: matrix size 4 exceeds classify limit 3\n")
    monkeypatch.undo()

    def never(a):
        raise AssertionError("a class test ran")

    monkeypatch.setattr(matrices, "is_normal", never)
    n = CLASSIFY_SIZE_LIMIT + 1
    assert classify(n) == (2, "", f"error: matrix size {n} exceeds classify limit {CLASSIFY_SIZE_LIMIT}\n")


@pytest.mark.parametrize("argv, text", [
    (["vertices", "FILE"], "dimension 9 exceeds oracle limit 8"),
    (["lattice", "--dim", "9"], "dimension 9 exceeds lattice limit 8"),
], ids=["oracle", "lattice"])
def test_library_caps_exit_2_through_the_cli(tmp_path, capsys, argv, text):
    path = tmp_path / "d9.json"
    assert run_cli(capsys, "build", "--dim", "9", "--ell", "2", "--a", "1", "--output", str(path))[0] == 0
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {text}\n")


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


def test_vertices_oracle_mode_labels_only_the_two_placements(tmp_path, capsys):
    # The last row names the only placement a decomposed isocanted matrix can
    # be; a translate that is neither placement gets no labels, in either format.
    from isocant.tropical import conjugate_diag

    spec = IsocantedSpec(3, F(5, 2), F(3, 4))
    vni = matrices.isocanted_vni(spec)
    cases = {
        "vni": vni,
        "sni": isocanted_sni(spec),
        "shifted": conjugate_diag(vni, [F(1, 3), F(1), F(1, 2), F(0)]),
        "half-sni": conjugate_diag(vni, [F(5, 4), F(5, 4), F(1, 2), F(0)]),
    }
    for name, a in cases.items():
        assert matrices.is_isocanted(a) == spec.cant and set(matrices.decompose(a).edge_lengths) == {F(5, 2)}
        path = tmp_path / f"{name}.json"
        write_matrix(path, a)
        code, out, _ = run_cli(capsys, "vertices", str(path))
        assert code == 0
        labels = [v["label"] for v in json.loads(out)["vertices"]]
        assert len(labels) == 14
        if name in ("vni", "sni"):
            assert None not in labels and len({tuple(w) for w in labels}) == 14, name
        else:
            assert labels == [None] * 14, name
            code, out, _ = run_cli(capsys, "vertices", str(path), "--format", "table")
            assert code == 0 and all(line.startswith("-\t") for line in out.splitlines()), name


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


def test_vertices_table_labels_are_distinct(capsys):
    # From d=11 on, labels written without separators would collide ({1, 2} and {12}).
    code, out, _ = run_cli(
        capsys, "vertices", "--dim", "11", "--ell", "2", "--a", "1", "--format", "table"
    )
    assert code == 0
    labels = [line.split("\t")[0] for line in out.splitlines()]
    assert len(labels) == len(set(labels)) == 2**12 - 2


def test_vertices_requires_spec_or_input(capsys):
    code, _, err = run_cli(capsys, "vertices")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "option", [["--dim", "2"], ["--ell", "5"], ["--a", "1"], ["--placement", "sni"]]
)
def test_vertices_refuses_input_file_with_spec(tmp_path, capsys, option):
    path = tmp_path / "m3.json"
    write_matrix(path, isocanted_sni(IsocantedSpec(3, F(2), F(1))))
    code, out, err = run_cli(capsys, "vertices", str(path), *option, "--format", "table")
    assert (code, out) == (2, "")
    assert err == "error: vertices takes an input file or --dim/--ell/--a, not both\n"


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


@pytest.mark.parametrize("bounds, text", [
    ("a:3", "range bounds must be integers"),
    ("2:3.5", "range bounds must be integers"),
    ("5:3", "range must satisfy LO <= HI"),
    ("\u0662:1_0", "range bounds must be integers"),
    ("1_0:12", "range bounds must be integers"),
])
def test_verify_range_refuses_bad_bounds_while_parsing(capsys, bounds, text):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--range", bounds])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.endswith(f"error: argument --range: {text}\n")
    assert captured.out == ""


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
