"""Static checks on the library source: stdlib-only imports, no floating
point, no imported name left unused, no private name left unreferenced and
none reached from another module, and no public name or method that only
the tests reach."""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "thrallkit").glob("*.py"))
# what the program runs besides the package itself
RUNNERS = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_only(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {name}"
            )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    for node in ast.walk(_tree(path)):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), (
            f"{path.name}:{node.lineno} has a float literal"
        )
        is_float_call = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
        assert not is_float_call, f"{path.name}:{node.lineno} calls float("


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{path.name}:{line} {name}"
        for line, name in _imported_names(tree)
        if name not in used
    ]
    assert not unused, f"imported but never used: {unused}"


def _private_definitions(tree: ast.Module):
    """Module-level ``_name`` functions, classes and assignments (dunders excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield node.lineno, name


def test_no_orphaned_private_names():
    loaded = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    defined = [
        (path.name, line, name)
        for path in SOURCES
        for line, name in _private_definitions(_tree(path))
    ]
    assert len(defined) > 20
    orphans = [f"{file}:{line} {name}" for file, line, name in defined if name not in loaded]
    assert not orphans, f"private names never referenced in the package: {orphans}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_name_crosses_a_module(path):
    """No module imports another module's ``_name`` or reads it as
    ``module._name``: what a module shares, it makes public."""
    modules = {p.stem for p in SOURCES}
    crossing = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("thrallkit")):
            crossing += [(node.lineno, a.name) for a in node.names if _is_private(a.name)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and _is_private(node.attr):
                crossing.append((node.lineno, f"{node.value.id}.{node.attr}"))
    assert not crossing, f"{path.name} reaches into another module: {crossing}"


def test_every_public_jsonio_function_is_used_by_another_module():
    """The wire codecs are the formats the CLI speaks, so none may go unused."""
    jsonio = next(p for p in SOURCES if p.name == "jsonio.py")
    public = [
        node.name for node in _tree(jsonio).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    referenced = {
        node.attr if isinstance(node, ast.Attribute) else node.id
        for path in SOURCES if path != jsonio
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.Attribute, ast.Name))
    }
    assert len(public) > 5
    assert [name for name in public if name not in referenced] == []


def _reads(node: ast.AST):
    """Names read under ``node``: loaded identifiers, attribute names and the
    names a ``from`` import binds."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_public_name_is_reached_outside_the_tests():
    """Each public top-level function or class of the package is read by the
    package (its own module counts, its own definition does not), by
    ``scripts/`` or by ``perfbench/``; a helper only the tests use belongs in
    ``tests/``.  ``__init__`` only names the exports, so it reaches nothing."""
    reached = set()
    for path in SOURCES + RUNNERS:
        if path.name == "__init__.py":
            continue
        for node in _tree(path).body:
            own = getattr(node, "name", None)
            reached.update(name for name in _reads(node) if name != own)
    public = [
        (path.name, node.lineno, node.name)
        for path in SOURCES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(public) > 50
    unreached = [f"{file}:{line} {name}" for file, line, name in public if name not in reached]
    assert not unreached, f"public names that only the tests reach: {unreached}"


def test_every_public_method_is_reached_outside_the_tests():
    """Each public method or property of a package class is read by name in
    the package, ``scripts/`` or ``perfbench/``, somewhere other than its own
    definition; dunders are reached by Python itself.  Names are matched
    across classes, so this is a floor, not an exact call graph."""
    program = [p for p in SOURCES + RUNNERS if p.name != "__init__.py"]
    reads = Counter(name for path in program for name in _reads(_tree(path)))
    methods = [
        (path.name, node.lineno, f"{cls.name}.{node.name}", node)
        for path in SOURCES
        for cls in _tree(path).body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(methods) > 20
    unreached = [
        f"{file}:{line} {name}"
        for file, line, name, node in methods
        if reads[node.name] == Counter(_reads(node))[node.name]
    ]
    assert not unreached, f"public methods that only the tests reach: {unreached}"
