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


# entry points, read from outside the package by design
ENTRY_POINTS = {"cli.main"}
# read only by perfbench; they leave src/solq with the next benchmark change
HELD_FOR_PERFBENCH = {
    "_kernels.HAVE_NUMBA", "_kernels.decay_step", "couplings.correlation_panel",
    "dynamics.steady_state", "gpe.SolitonTracks.displacements",
}


def unread_public_names(modules: dict[str, str]) -> list[str]:
    """Public module-level names, and public methods and properties of
    module-level classes, that no code in the given modules (name -> source)
    reads, as module.name or module.Class.name.

    A module-level name counts as read when it is loaded by name, as an
    attribute, or imported from a module; a method only as an attribute.
    A function's or class's mentions of its own name are not reads.
    """
    defined, names_read, attrs_read = [], set(), set()
    for module, source in modules.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.append((f"{module}.{own}", own, False))
                if isinstance(stmt, ast.ClassDef):
                    defined += [(f"{module}.{own}.{item.name}", item.name, True)
                                for item in stmt.body
                                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                defined += [(f"{module}.{node.id}", node.id, False) for node in ast.walk(stmt)
                            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attrs_read.add(node.attr)
                elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                      and node.id != own):
                    names_read.add(node.id)
                elif isinstance(node, ast.ImportFrom):
                    names_read.update(alias.name for alias in node.names)
    return [qualified for qualified, name, method in defined
            if not name.startswith("_") and name not in attrs_read
            and (method or name not in names_read)]


def test_guard_sees_an_unread_public_name():
    source = ("def f(n):\n    return f(n - 1)\n\n\ndef g():\n    return C().m\n\n\n"
              "class C:\n    def m(self):\n        return self.n()\n\n"
              "    def n(self):\n        return m\n\n"
              "    @property\n    def p(self):\n        return 1\n\n\nX, Y = 1, 2\n")
    assert unread_public_names({"a": source}) == ["a.f", "a.g", "a.C.p", "a.X", "a.Y"]
    other = "from a import f, X\n\n\ndef h(a):\n    return f, a.g, a.p, Y\n"
    assert unread_public_names({"a": source, "b": other}) == ["b.h"]


def test_every_public_name_is_read_in_the_package():
    # a public name that only tests or the benchmark read is code the
    # program does not use; it moves to tests/ or goes
    modules = {path.stem: path.read_text() for path in PACKAGE}
    unread = set(unread_public_names(modules)) - ENTRY_POINTS
    assert unread == HELD_FOR_PERFBENCH


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
