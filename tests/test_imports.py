"""Every toolkit module but the package's `__init__` uses each name it imports,
every module-level private name in the toolkit is read somewhere in it, and
every toolkit name that the benchmark under perfbench/ uses exists."""

import ast
import importlib
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


# ---- the benchmark's view of the toolkit -------------------------------------

PERFBENCH = SOURCE.parent.parent / "perfbench"
# names the benchmark still wraps that are gone on purpose: their spans read 0 until spans
# move into the toolkit (`swig fuse` grounds every slot in one `fusion.ground` call)
GONE = {("swig_toolkit.cli", "assign_groundings")}


def is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def toolkit_names(source: str) -> set:
    """(module, name) per name `source` imports from the toolkit, per attribute
    it reads or sets on a toolkit module it imports, and per attribute it
    names by string in a `<tracer>.wrap(<module>, "<name>", ...)` call."""
    tree = ast.parse(source)
    names, modules = set(), {}  # modules: bound name -> toolkit module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "swig_toolkit":
            for alias in node.names:
                names.add((node.module, alias.name))
                if is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name) for alias in node.names
                           if alias.asname and alias.name.split(".")[0] == "swig_toolkit")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap"
              and len(node.args) > 1 and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            names.add((modules[node.args[0].id], node.args[1].value))
    return names


def test_the_finder_sees_imported_names_and_module_attributes():
    source = ("import json\nfrom swig_toolkit import cli, geometry\n"
              "from swig_toolkit.retrieval import obj_sim\nimport swig_toolkit.metrics as metrics\n\n\n"
              "def f(trace):\n    metrics.iou = trace.wrap(cli.write_output, json.dumps)\n"
              "    trace.wrap(cli, 'chain', 'chaining.chain')\n    trace.wrap(json, 'dumps', 'encode')\n"
              "    return geometry.nms\n")
    assert toolkit_names(source) == {
        ("swig_toolkit", "cli"), ("swig_toolkit", "geometry"), ("swig_toolkit.retrieval", "obj_sim"),
        ("swig_toolkit.metrics", "iou"), ("swig_toolkit.cli", "write_output"),
        ("swig_toolkit.cli", "chain"), ("swig_toolkit.geometry", "nms")}


def test_every_toolkit_name_the_benchmark_uses_resolves():
    used = set().union(*(toolkit_names(path.read_text(encoding="utf-8"))
                         for path in sorted(PERFBENCH.glob("*.py"))))
    assert {("swig_toolkit.metrics", "iou"), ("swig_toolkit.cli", "write_output"),
            ("swig_toolkit.cli", "_load_situations"),
            ("swig_toolkit.retrieval", "SituationPrediction")} <= used
    missing = {(module, name) for module, name in used if not hasattr(importlib.import_module(module), name)}
    assert sorted(f"{module}.{name}" for module, name in missing - GONE) == []
    assert missing >= GONE  # a name back in the toolkit leaves this list
