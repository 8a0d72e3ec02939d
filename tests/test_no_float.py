"""No float anywhere in the library: a scan of its source for the ways a
float gets in."""

import ast
import pathlib

import qsymx

SOURCES = sorted(pathlib.Path(qsymx.__file__).parent.glob("*.py"))


def _float_uses(tree):
    """(line, what) for each true division, float literal, call to float
    and other use of the name float, outside the rejection check of
    exactnum.as_fraction, which may name the type (not call it)."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "as_fraction":
            allowed.update(id(sub) for sub in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, "float literal %r" % (node.value,)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "call to float"))
        elif isinstance(node, ast.Name) and node.id == "float" and id(node) not in allowed:
            found.append((node.lineno, "the name float"))
    return found


def test_the_scan_sees_each_way_in():
    source = "a = 1 / 2\na /= 2\nb = 0.5\nc = float('1')\nd = float\n"
    lines = sorted(line for line, _ in _float_uses(ast.parse(source)))
    # the call to float is also a use of the name
    assert lines == [1, 2, 3, 4, 4, 5]
    allowed = "def as_fraction(v):\n    return isinstance(v, float)\n"
    assert _float_uses(ast.parse(allowed)) == []
    assert _float_uses(ast.parse("def as_fraction(v):\n    return float(v)\n")) != []


def test_library_source_has_no_float():
    assert {path.name for path in SOURCES} >= {"exactnum.py", "characters.py", "cli.py"}
    found = {
        path.name: uses
        for path in SOURCES
        if (uses := _float_uses(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}, found
