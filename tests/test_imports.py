"""Every toolkit module but the package's `__init__` uses each name it imports."""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "swig_toolkit"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")


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
