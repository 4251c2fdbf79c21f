"""CLI stdout and exit codes compared byte for byte with stored golden files.

Each case runs ``isocant`` in-process and compares its stdout with
``tests/golden/<name>.out``.  The golden files were written by this module
before the label, placement and face-recovery code was consolidated; after
an intended output change, rewrite them with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from isocant.cli import main

GOLDEN = Path(__file__).parent / "golden"


def _input(name: str) -> str:
    return str(GOLDEN / name)


#: name -> (expected exit code, argv)
CASES = {
    "fvector_d5": (0, ["fvector", "--dim", "5"]),
    "fvector_d4_extended_table": (0, ["fvector", "--dim", "4", "--extended", "--format", "table"]),
    "lattice_d3": (0, ["lattice", "--dim", "3"]),
    "lattice_d4_table": (0, ["lattice", "--dim", "4", "--format", "table"]),
    "vertices_vni_d3": (0, ["vertices", "--dim", "3", "--ell", "5/2", "--a", "1/3"]),
    "vertices_vni_d3_table": (
        0, ["vertices", "--dim", "3", "--ell", "5/2", "--a", "1/3", "--format", "table"]
    ),
    "vertices_sni_d4": (
        0, ["vertices", "--dim", "4", "--ell", "2", "--a", "1/2", "--placement", "sni"]
    ),
    "build_vni_d3": (0, ["build", "--dim", "3", "--ell", "5/2", "--a", "1/3"]),
    "build_sni_d4": (0, ["build", "--dim", "4", "--ell", "2", "--a", "1/2", "--placement", "sni"]),
    "export_off_vni": (0, ["export", "--dim", "3", "--ell", "5/2", "--a", "1/3"]),
    "export_obj_sni": (
        0, ["export", "--dim", "3", "--ell", "2", "--a", "1/2", "--placement", "sni", "--format", "obj"]
    ),
    "verify_all": (1, ["verify", "all"]),
    "verify_table": (1, ["verify", "argmax,flag,barany", "--range", "2:12", "--format", "table"]),
    "oracle_vertices_iso_sni_d3": (0, ["vertices", _input("iso_sni_d3.json")]),
    "oracle_vertices_iso_vni_d4_table": (0, ["vertices", _input("iso_vni_d4.json"), "--format", "table"]),
    "oracle_classify_iso_sni_d3": (0, ["classify", _input("iso_sni_d3.json")]),
    "oracle_vertices_nonni_d3": (0, ["vertices", _input("nonni_d3.json")]),
    "oracle_vertices_nonni_d3_table": (0, ["vertices", _input("nonni_d3.json"), "--format", "table"]),
    "oracle_classify_nonni_d3": (0, ["classify", _input("nonni_d3.json")]),
    "oracle_classify_nonni_d3_table": (0, ["classify", _input("nonni_d3.json"), "--format", "table"]),
    "oracle_vertices_flat_d2": (0, ["vertices", _input("flat_d2.json")]),
    "oracle_classify_flat_d2": (0, ["classify", _input("flat_d2.json")]),
    "vertices_missing_spec": (2, ["vertices"]),
    "export_wrong_dimension": (2, ["export", "--dim", "4", "--ell", "2", "--a", "1"]),
}


def run_case(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden_bytes(name):
    expected_code, argv = CASES[name]
    code, out = run_case(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    for name, (expected_code, argv) in CASES.items():
        code, out = run_case(argv)
        if code != expected_code:
            raise SystemExit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
