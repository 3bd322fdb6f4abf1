import ast
from pathlib import Path

import pytest

import solq

PACKAGE = sorted(Path(solq.__file__).parent.glob("*.py"))
SOURCES = PACKAGE + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_guard_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level private names (_x) that no code in the given modules reads.

    A function's or class's mentions of its own name and item stores such as
    `_x[0] = 1` are not reads.
    """
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        stored_into = {id(node.value) for node in ast.walk(tree)
                       if isinstance(node, (ast.Subscript, ast.Attribute))
                       and isinstance(node.ctx, ast.Store)}
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.append(own)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                defined += [node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)
                            and isinstance(node.ctx, ast.Store)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                      and node.id != own and id(node) not in stored_into):
                    read.add(node.id)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_guard_sees_an_unread_private_name():
    source = ("def _f(n):\n    return _f(n - 1)\n_X = [0]\n_X[0] = 1\n"
              "_Y = 2\n\n\ndef g():\n    return _h() + _Y\n\n\ndef _h():\n    return 1\n")
    assert unread_private_names([source]) == ["_f", "_X"]
    assert unread_private_names([source, "from a import _f, _X\nprint(_f, _X)\n"]) == []


def test_every_private_name_is_read():
    # a helper whose last caller is deleted must go with it
    assert unread_private_names([path.read_text() for path in PACKAGE]) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
