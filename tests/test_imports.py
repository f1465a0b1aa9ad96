"""Every toolkit module but the package's `__init__` uses each name it imports,
and every module-level private name in the toolkit is read somewhere in it."""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "swig_toolkit"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}


def unused_imports(source: str) -> list:
    """The names `source` imports and never reads, in line order."""
    tree = ast.parse(source)
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((name for name in imported if name not in used), key=imported.get)


def test_the_check_finds_a_name_imported_and_never_read():
    source = ("import os\nimport os.path as osp\nfrom json import dumps, loads as read\n"
              "from .geometry import iou\n\n\ndef f(x: iou):\n    return read(osp.sep)\n")
    assert unused_imports(source) == ["os", "dumps"]


def test_the_toolkit_has_modules_to_check():
    assert {"cli.py", "dataset_io.py", "metrics.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict) -> list:
    """(file, name) per module-level private function, class or assignment in
    {file: source}, a `_x` but not a `__x__`, that no source reads."""
    trees = {file: ast.parse(source) for file, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):  # module._x
                read.add(node.attr)
    unread = []
    for file, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(file, name) for name in names if name.startswith("_")
                       and not (name.startswith("__") and name.endswith("__")) and name not in read]
    return unread


def test_the_check_finds_a_private_name_never_read():
    sources = {"a.py": ("_X = 1\n_Y: int = 2\n_P, _Q = 3, 4\n__version__ = '1'\n\n\n"
                        "def _f(_z):\n    return _X + _P\n\n\nclass _C:\n    pass\n"),
               "b.py": "from . import a\nfrom .a import _f\n\n_f(a._Q)\n"}
    assert unread_private_names(sources) == [("a.py", "_Y"), ("a.py", "_C")]


def test_a_helper_left_behind_is_found():
    left_behind = "\n\ndef _unused_reader(raw):\n    return _check(raw, dict, 'frame')\n"
    sources = dict(SOURCES, **{"dataset_io.py": SOURCES["dataset_io.py"] + left_behind})
    assert unread_private_names(sources) == [("dataset_io.py", "_unused_reader")]


def test_every_private_name_is_read():
    assert unread_private_names(SOURCES) == []
