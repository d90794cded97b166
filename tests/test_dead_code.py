"""Every function, class and method under src/gkmslice is named somewhere.

No linter runs on this repository, so this parses the package with `ast`
and fails on a top-level function or class, or a method, that nothing
refers to but its own definition. References are the names and
attributes in the Python files of src/, tests/ and perfbench/ (plus
string constants that are exactly an identifier, which is how
perfbench/tracer.py names what it wraps), and the language-tagged code
blocks and the inline code spans of README.md. Words in docstrings and
prose do not count, nor do those of an untagged block such as the
directory layout, even inside backticks there. A method counts
as named only through an attribute access, a README code span, the
attribute argument of `getattr`, `hasattr` or `setattr`, or the
attribute element of a `TARGETS` tuple (perfbench/tracer.py lists what
it wraps as (owner, attribute, ...)): a bare name (a local variable, or
an unrelated function) or any other string of the same spelling, such
as a dict key, does not reach it. Dunder methods are called by the
language and are skipped, and `CALLED_ELSEWHERE` lists the methods that
a library calls, with the reason.

A definition that only unit tests name fails too, unless `TEST_SURFACE`
lists it with the reason it stays. A definition is reached when
something in src/, perfbench/, tests/test_acceptance.py or the code
spans of README.md names it; a listed name that is reached, or no
longer named by the unit tests, fails as a stale entry. In the same
way a definition that only perfbench/ (and perhaps unit tests) names,
and so nothing in src/, tests/test_acceptance.py or README.md, fails
unless `BENCHMARK_ONLY` lists it with the reason.

It also fails on a field of a `@dataclass` that no Python source under
src/, tests/ or perfbench/ reads as an attribute: a field that is set
everywhere and read nowhere. A read of a command-line option
(`args.<name>`) does not count for a field of the same name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gkmslice").glob("*.py"))
SOURCES = sorted(
    path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)
# Sources whose references reach a definition: everything but the unit tests.
REACHING = [
    path
    for path in SOURCES
    if path.parent.name != "tests" or path.name == "test_acceptance.py"
]
BENCHMARK = [path for path in SOURCES if path.is_relative_to(ROOT / "perfbench")]

# Definitions that only unit tests name, keyed "module.qualname", with
# the reason each stays.
TEST_SURFACE = {
    "gkm.class_to_json": "writes the class files that the gkm-verify --classes-file tests read",
    "linalg.Subspace.reduce": "compared with the Fraction reference by the linalg property tests",
    "rootdata.mat_vec": "checks that the hand-typed _FIXED reflections permute the roots",
    "rootdata.weyl_elements": "checks the Weyl group orders of the hand-typed _FIXED tables",
}

# Definitions that only perfbench/ names besides unit tests, keyed
# "module.qualname", with the reason each stays. perfbench/ is the
# benchmark's frozen harness, so these go when the harness stops naming
# them, not before.
BENCHMARK_ONLY = {
    "arrangement.pair_ideal_slice": "the tracer wraps it; one pair ideal is a unit test reference",
    "cli.worker_count": "the diagonal workload reads the jd-series pool width through it",
    "curves.pair_diff_kernel": "the tracer wraps it; the curve relations call derivation_kernel",
    "linalg.restrict_to_columns": "the tracer wraps it; the windowed slice tests' reference",
    "linalg.span": "the tracer wraps it; the linalg tests' reference for a span",
    "linalg.sum_subspaces": "the tracer wraps it; the linalg tests check it",
    "rings.MultiPoly.derivative": "the tracer wraps it; the reference solve of derivation_kernel",
}

# Methods that nothing here names because a library calls them, keyed
# "module.qualname", with the reason.
CALLED_ELSEWHERE = {
    "cli.Parser.error": "argparse calls it on a usage error",
}


def qualified_definitions(source: str) -> list[tuple[str, int]]:
    """(qualname, line) of each top-level function or class and each method."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.append((f"{node.name}.{item.name}", item.lineno))
    return [(q, line) for q, line in out if not q.split(".")[-1].startswith("__")]


def reference_key(qual: str) -> str:
    """What a reference set holds when it names a definition: the name of
    a top-level function or class, "." + name for a method."""
    name = qual.split(".")[-1]
    return "." + name if "." in qual else name


# Calls whose second argument names an attribute.
ATTRIBUTE_CALLS = {"getattr", "hasattr", "setattr"}


def references(source: str) -> set[str]:
    """Identifiers a Python source refers to (not the ones it defines).

    An attribute adds its name and "." + name, which is what names a
    method. An identifier string adds the name, and also "." + name as
    the attribute argument of `getattr`, `hasattr` or `setattr` or as
    the second element of a tuple in a `TARGETS` list. A bare name or an
    import adds only the name.
    """
    tree = ast.parse(source)
    names = set()
    attribute_strings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names |= {node.attr, "." + node.attr}
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ATTRIBUTE_CALLS:
                attribute_strings += node.args[1:2]
        elif isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)):
            if any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
                attribute_strings += [
                    item.elts[1]
                    for item in node.value.elts
                    if isinstance(item, ast.Tuple) and len(item.elts) > 1
                ]
    for arg in attribute_strings:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            names.add("." + arg.value)
    return names


def is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def dataclass_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, line) of each annotated field of a top-level dataclass."""
    return [
        (node.name, item.target.id, item.lineno)
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def attribute_reads(source: str) -> set[str]:
    """Attribute names a Python source loads (obj.name read, not assigned).

    Reads of `args.<name>` are left out: `args` is the parsed command
    line, whose options share names with dataclass fields.
    """
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "args")
    }


def unread_fields(package: dict[str, str], reads: set[str]) -> list[str]:
    return sorted(
        f"{cls}.{name} ({path}:{line})"
        for path, source in package.items()
        for cls, name, line in dataclass_fields(source)
        if name not in reads
    )


def markdown_references(text: str) -> set[str]:
    """Identifiers inside the language-tagged code blocks and the inline
    code spans of a Markdown file; an untagged block is prose."""
    words = set()
    for tag, block, span in re.findall(r"```(\w*)\n(.*?)```|`([^`\n]+)`", text, flags=re.DOTALL):
        words.update(re.findall(r"[A-Za-z_]\w*", block if tag else span))
    return words | {"." + word for word in words}


def unreferenced(package: dict[str, str], used: set[str], exempt=()) -> list[str]:
    """Definitions that used does not name, but for the "module.qualname"
    keys in exempt; package is keyed by file name."""
    return sorted(
        f"{qual} ({path}:{line})"
        for path, source in package.items()
        for qual, line in qualified_definitions(source)
        if reference_key(qual) not in used and f"{Path(path).stem}.{qual}" not in exempt
    )


def unlisted(
    package: dict[str, str], reached: set[str], named: set[str], listing: dict[str, str], label: str
) -> list[str]:
    """Definitions that named names but reached does not, missing from
    listing, then stale listing entries; label is the listing's name.

    package is keyed by file name; a definition is "module.qualname".
    """
    only_named = named - reached
    found = {
        f"{Path(path).stem}.{qual}": line
        for path, source in package.items()
        for qual, line in qualified_definitions(source)
        if reference_key(qual) in only_named
    }
    missing = sorted(
        f"{key} (line {line}; list it in {label} or delete it)"
        for key, line in found.items()
        if key not in listing
    )
    stale = sorted(f"{key} (stale {label} entry)" for key in listing if key not in found)
    return missing + stale


def references_of(paths, readme: bool = False) -> set[str]:
    """The references of the Python files, with README.md's if asked."""
    used = markdown_references((ROOT / "README.md").read_text()) if readme else set()
    for path in paths:
        used |= references(path.read_text())
    return used


def test_detector_flags_an_unnamed_function():
    package = {"m.py": "def used():\n    '''unused appears in prose'''\n\n\ndef unused():\n    pass\n"}
    used = references("from m import used\nused()\n") | markdown_references("run `used` once")
    assert unreferenced(package, used) == ["unused (m.py:5)"]
    method = {"m.py": "class A:\n    def go(self):\n        pass\n\n    def __len__(self):\n        return 0\n"}
    assert unreferenced(method, {"A"}) == ["A.go (m.py:2)"]
    assert unreferenced(method, references("A().go()\n")) == []
    assert unreferenced(method, {"A"}, exempt={"m.A.go"}) == []


def test_detector_names_a_method_only_through_an_attribute():
    method = {"m.py": "class A:\n    def go(self):\n        pass\n"}
    # a local variable or an unrelated function of the same spelling
    bare = references("from m import A\ngo = 1\n\n\ndef go():\n    return A\n")
    assert unreferenced(method, bare) == ["A.go (m.py:2)"]
    for reaching in (
        references("getattr(A(), 'go')\n"),
        references("hasattr(A, 'go')\n"),
        references("TARGETS = [(A, 'go', 'a.go', None)]\n"),
        markdown_references("call `A.go`"),
    ):
        assert unreferenced(method, bare | reaching) == []
    # a top-level function is still named by a bare name
    assert unreferenced({"m.py": "def go():\n    pass\n"}, bare) == []


def test_detector_does_not_reach_a_method_through_a_dict_key():
    method = {"m.py": "class A:\n    def go(self):\n        pass\n"}
    keyed = references("record = {'go': 1}\nrecord['go'] = 2\nprint(record.get('go'))\n")
    assert unreferenced(method, keyed | {"A"}) == ["A.go (m.py:2)"]
    # the string still names a top-level function of that spelling
    assert unreferenced({"m.py": "def go():\n    pass\n"}, keyed) == []
    # only the attribute element of a TARGETS tuple names a method
    labels = references("TARGETS = [(A, 'stop', 'go', None)]\n")
    assert unreferenced(method, labels | {"A"}) == ["A.go (m.py:2)"]


def test_detector_does_not_reach_a_method_through_an_untagged_block():
    method = {"m.py": "class A:\n    def vector(self):\n        pass\n"}
    layout = markdown_references("```\nm.py  one pivot `vector` per row\n```\n")
    assert unreferenced(method, layout | {"A"}) == ["A.vector (m.py:2)"]
    for reaching in (
        markdown_references("```python\nA().vector()\n```\n"),
        markdown_references("```sh\npython -c 'A().vector()'\n```\n"),
        markdown_references("```\nlayout\n```\n\ncall `A.vector` once"),
    ):
        assert unreferenced(method, reaching | {"A"}) == []


def test_every_definition_is_named_somewhere():
    used = set()
    for path in SOURCES:
        used |= references(path.read_text())
    used |= markdown_references((ROOT / "README.md").read_text())
    package = {path.name: path.read_text() for path in PACKAGE}
    defined = {
        f"{Path(path).stem}.{qual}"
        for path, source in package.items()
        for qual, _ in qualified_definitions(source)
    }
    assert set(CALLED_ELSEWHERE) <= defined
    assert unreferenced(package, used, exempt=CALLED_ELSEWHERE) == []


def test_detector_flags_a_definition_only_unit_tests_name():
    package = {
        "m.py": "def shipped():\n    pass\n\n\ndef probe():\n    pass\n\n\n"
        "class A:\n    def listed(self):\n        pass\n"
    }
    reached = references("from m import shipped, A\nshipped()\nA()\n")
    tested = references("from m import probe, A\nprobe()\nA().listed()\nshipped()\n")
    assert unlisted(package, reached, tested, {"m.A.listed": "why"}, "TEST_SURFACE") == [
        "m.probe (line 5; list it in TEST_SURFACE or delete it)"
    ]
    surface = {"m.A.listed": "why", "m.probe": "why", "m.shipped": "why", "m.gone": "why"}
    assert unlisted(package, reached, tested, surface, "TEST_SURFACE") == [
        "m.gone (stale TEST_SURFACE entry)",
        "m.shipped (stale TEST_SURFACE entry)",
    ]


def test_detector_flags_a_definition_only_the_benchmark_names():
    package = {
        "m.py": "def shipped():\n    pass\n\n\ndef traced():\n    pass\n\n\n"
        "class A:\n    def wrapped(self):\n        pass\n"
    }
    # the library calls shipped; the harness wraps traced and A.wrapped,
    # which a unit test also calls
    library = references("from m import shipped, A\nshipped()\nA()\n")
    harness = references(
        "from m import A, shipped, traced\n"
        "TARGETS = [(m, 'traced', 'm.traced', None), (A, 'wrapped', 'm.A.wrapped', None)]\n"
    )
    unit = references("from m import A\nA().wrapped()\n")
    assert unlisted(package, library, harness, {"m.traced": "why"}, "BENCHMARK_ONLY") == [
        "m.A.wrapped (line 10; list it in BENCHMARK_ONLY or delete it)"
    ]
    listing = {"m.traced": "why", "m.A.wrapped": "why", "m.shipped": "why"}
    assert unlisted(package, library, harness, listing, "BENCHMARK_ONLY") == [
        "m.shipped (stale BENCHMARK_ONLY entry)"
    ]
    # the harness reaches A.wrapped, so the unit test that calls it needs
    # no TEST_SURFACE entry
    assert unlisted(package, library | harness, unit, {}, "TEST_SURFACE") == []
    # a library call does: the entry goes stale
    library |= references("A().wrapped()\nfrom m import traced\ntraced()\n")
    assert unlisted(package, library, harness, listing, "BENCHMARK_ONLY") == [
        "m.A.wrapped (stale BENCHMARK_ONLY entry)",
        "m.shipped (stale BENCHMARK_ONLY entry)",
        "m.traced (stale BENCHMARK_ONLY entry)",
    ]


def test_only_unit_tests_name_just_the_listed_surface():
    reached = references_of(REACHING, readme=True)
    tested = references_of(set(SOURCES) - set(REACHING))
    package = {path.name: path.read_text() for path in PACKAGE}
    assert unlisted(package, reached, tested, TEST_SURFACE, "TEST_SURFACE") == []


def test_only_the_benchmark_names_just_the_listed_entries():
    reached = references_of(set(REACHING) - set(BENCHMARK), readme=True)
    benchmark = references_of(BENCHMARK)
    package = {path.name: path.read_text() for path in PACKAGE}
    assert unlisted(package, reached, benchmark, BENCHMARK_ONLY, "BENCHMARK_ONLY") == []


def test_detector_flags_an_unread_dataclass_field():
    package = {
        "m.py": "from dataclasses import dataclass\n\n\n@dataclass(frozen=True)\n"
        "class P:\n    x: int\n    y: int\n\n\nclass Q:\n    z: int\n"
    }
    reads = attribute_reads("p = P(1, 2)\np.y = 3\nprint(p.x)\n")
    assert unread_fields(package, reads) == ["P.y (m.py:7)"]
    # an option of the same name on the parsed command line is not a read
    reads = attribute_reads("p = P(1, args.y)\nprint(p.x)\n")
    assert unread_fields(package, reads) == ["P.y (m.py:7)"]


def test_every_dataclass_field_is_read_somewhere():
    reads = set()
    for path in SOURCES:
        reads |= attribute_reads(path.read_text())
    package = {path.name: path.read_text() for path in PACKAGE}
    assert unread_fields(package, reads) == []
