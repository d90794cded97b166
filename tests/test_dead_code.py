"""Every function, class and method under src/gkmslice is named somewhere.

No linter runs on this repository, so this parses the package with `ast`
and fails on a top-level function or class, or a method, that nothing
refers to but its own definition. References are the names and
attributes in the Python files of src/, tests/ and perfbench/ (plus
string constants that are exactly an identifier, which is how
perfbench/tracer.py names what it wraps), and the code spans of
README.md. Words in docstrings and prose do not count. Dunder methods
are called by the language and are skipped.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gkmslice").glob("*.py"))
SOURCES = sorted(
    path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each top-level function or class and each method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((item.name, item.lineno))
    return [(name, line) for name, line in out if not name.startswith("__")]


def references(source: str) -> set[str]:
    """Identifiers a Python source refers to (not the ones it defines)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def markdown_references(text: str) -> set[str]:
    """Identifiers inside the code blocks and code spans of a Markdown file."""
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def unreferenced(package: dict[str, str], used: set[str]) -> list[str]:
    return sorted(
        f"{name} ({path}:{line})"
        for path, source in package.items()
        for name, line in definitions(source)
        if name not in used
    )


def test_detector_flags_an_unnamed_function():
    package = {"m.py": "def used():\n    '''unused appears in prose'''\n\n\ndef unused():\n    pass\n"}
    used = references("from m import used\nused()\n") | markdown_references("run `used` once")
    assert unreferenced(package, used) == ["unused (m.py:5)"]
    method = {"m.py": "class A:\n    def go(self):\n        pass\n\n    def __len__(self):\n        return 0\n"}
    assert unreferenced(method, {"A"}) == ["go (m.py:2)"]
    assert unreferenced(method, {"A", "go"}) == []


def test_every_definition_is_named_somewhere():
    used = set()
    for path in SOURCES:
        used |= references(path.read_text())
    used |= markdown_references((ROOT / "README.md").read_text())
    package = {path.name: path.read_text() for path in PACKAGE}
    assert unreferenced(package, used) == []
