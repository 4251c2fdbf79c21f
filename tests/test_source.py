"""Rules on the package source that no behaviour test sees.

Stdlib only, floats only for meshes, one int gate, one cap refusal and one
argparse adapter.
"""

import ast
import inspect
import sys
from pathlib import Path

import isocant
from isocant._record import _is_int, _require_at_most
from isocant.cli import _arg


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


def _sites_inside(func, match) -> list[tuple[str, bool]]:
    """(file name, whether inside ``func``) for every node of the package source that ``match`` accepts."""
    lines, start = inspect.getsourcelines(func)
    return [
        (path.name, start <= node.lineno < start + len(lines))
        for path in sorted(Path(isocant.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if match(node)
    ]


def test_the_int_but_not_bool_test_is_written_only_in_the_record_gate():
    # Every int argument goes through ``_record._is_int`` (or ``_require_ints``),
    # so no other code pairs ``isinstance(x, bool)`` with ``isinstance(x, int)``.
    def pairs(node):
        return isinstance(node, ast.BoolOp) and {"bool", "int"} <= {_isinstance_of(v) for v in node.values}

    assert _sites_inside(_is_int, pairs) == [("_record.py", True)]


def test_the_cap_refusal_is_written_only_in_the_record_gate():
    # Every size cap calls ``_record._require_at_most``, so no other f-string
    # formats "... exceeds ... limit ...".
    def refusal(node):
        if not isinstance(node, ast.JoinedStr):
            return False
        text = "".join(v.value for v in node.values if isinstance(v, ast.Constant))
        return " exceeds " in text and " limit " in text

    assert _sites_inside(_require_at_most, refusal) == [("_record.py", True)]


def test_argument_type_error_is_raised_only_in_the_cli_adapter():
    # Argument parsers raise ``ValueError``; ``cli._arg`` alone speaks argparse's protocol.
    def raises(node):
        exc = getattr(node, "exc", None)
        exc = getattr(exc, "func", exc)
        name = getattr(exc, "attr", getattr(exc, "id", None))
        return isinstance(node, ast.Raise) and name == "ArgumentTypeError"

    assert _sites_inside(_arg, raises) == [("cli.py", True)]
