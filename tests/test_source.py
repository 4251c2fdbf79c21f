"""Rules on the package source that no behaviour test sees: stdlib only, floats only for meshes."""

import ast
import sys
from pathlib import Path

import isocant


def test_source_imports_only_the_stdlib_and_makes_floats_only_in_serialize():
    outside, floats = [], set()
    for path in sorted(Path(isocant.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                tops = []
            outside += [(path.name, top) for top in tops if top not in sys.stdlib_module_names]
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                floats.add(path.name)
    assert outside == []
    # Arithmetic stays exact; only mesh rendering and OFF parsing use floats.
    assert floats == {"serialize.py"}
