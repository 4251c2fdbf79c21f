"""Rules on the package source that no behaviour test sees: stdlib only, floats only for meshes, one int gate."""

import ast
import inspect
import sys
from pathlib import Path

import isocant
from isocant._record import _is_int


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


def _isinstance_of(node: ast.AST) -> str | None:
    """The type name in ``isinstance(x, name)`` or ``not isinstance(x, name)``, else ``None``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        node = node.operand
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"
            and len(node.args) == 2 and isinstance(node.args[1], ast.Name)):
        return node.args[1].id
    return None


def test_the_int_but_not_bool_test_is_written_only_in_the_record_gate():
    # Every int argument goes through ``_record._is_int`` (or ``_require_ints``),
    # so no other code pairs ``isinstance(x, bool)`` with ``isinstance(x, int)``.
    found = []
    for path in sorted(Path(isocant.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.BoolOp) and {"bool", "int"} <= {_isinstance_of(v) for v in node.values}:
                found.append((path.name, node.lineno))
    lines, start = inspect.getsourcelines(_is_int)
    assert [(name, start <= line < start + len(lines)) for name, line in found] == [("_record.py", True)]
