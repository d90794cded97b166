"""Every module under src/gkmslice and tests/ uses each name it imports.

No linter runs on this repository, so this parses each file with `ast`
and fails on an imported name that the module never refers to. A name
listed in `__all__` counts as used (the package re-exports it).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "gkmslice").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
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
    for node in ast.walk(tree):
        # quoted annotations and __all__ entries name things in strings
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.replace(".", " ").replace("[", " ").split())
    unused = [name for name in imported if name not in used]
    return sorted(f"{name} (line {imported[name]})" for name in unused)


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nx: 'c'\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
