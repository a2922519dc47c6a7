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
