"""Structural rules over the package source, checked by parsing it."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "dyncov"


def _private_imports(path: Path) -> list[str]:
    """``from <dyncov module> import _name`` statements where _name is not a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            parts = node.module.split(".") if node.module else []
        elif node.module and node.module.split(".")[0] == "dyncov":
            parts = node.module.split(".")[1:]
        else:
            continue
        base = PKG.joinpath(*parts)
        for alias in node.names:
            if alias.name.startswith("_") and not (base / f"{alias.name}.py").exists():
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {node.module or '.'}")
    return found


def test_no_module_imports_a_private_name_of_another():
    found = [hit for path in sorted(PKG.glob("*.py")) for hit in _private_imports(path)]
    assert found == []


def test_rule_catches_private_names_but_not_private_modules(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from . import _streams\n"
        "from .thresholding import _shrink_offdiag, shrink\n"
        "from dyncov.forest import _grow_one\n"
        "import numpy as np\n"
    )
    assert [hit.split(" imports ")[1] for hit in _private_imports(src)] == [
        "_shrink_offdiag from thresholding",
        "_grow_one from dyncov.forest",
    ]


NODE_ARRAYS = {"feature", "threshold", "left", "right", "members", "roots", "j1", "oversized"}


def _node_array_reads(path: Path) -> list[str]:
    """``x.<name>`` attribute accesses where name is one of a forest's node arrays."""
    return [
        f"{path.name}:{node.lineno} reads .{node.attr}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in NODE_ARRAYS
    ]


def test_only_forest_module_reads_node_arrays():
    found = [
        hit
        for path in sorted(PKG.glob("*.py"))
        if path.name != "forest.py"
        for hit in _node_array_reads(path)
    ]
    assert found == []


def test_rule_catches_node_array_reads(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "def depth(forest, node):\n"
        "    n = forest.n_trees + forest.config.min_leaf\n"
        "    return forest.left[node], forest.j1.shape, len(forest.members)\n"
    )
    assert [hit.split(" reads ")[1] for hit in _node_array_reads(src)] == [
        ".left", ".j1", ".members"
    ]


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; ``from __future__`` imports are directives."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} imports unused {name}" for name, line in imported.items()
            if name not in used]


def test_no_module_imports_an_unused_name():
    # __init__.py is the package's re-export surface: it imports to export.
    found = [
        hit
        for path in sorted(PKG.glob("*.py"))
        if path.name != "__init__.py"
        for hit in _unused_imports(path)
    ]
    assert found == []


def test_rule_catches_unused_imports(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .thresholding import shrink, pd_correct as correct, ForestCV\n"
        "\n"
        "def f(x: ForestCV) -> float:\n"
        "    return np.sum(shrink(x, 0.1, None))\n"
    )
    assert [hit.split(" imports unused ")[1] for hit in _unused_imports(src)] == ["os", "correct"]
