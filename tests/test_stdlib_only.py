"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import usym

SOURCES = sorted(Path(usym.__file__).parent.glob("*.py"))


def imported_top_levels(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_stdlib_and_usym_imports():
    assert len(SOURCES) > 10
    outside = {
        f"{path.name}: {name}"
        for path in SOURCES
        for name in imported_top_levels(path)
        if name != "usym" and name not in sys.stdlib_module_names
    }
    assert not outside
