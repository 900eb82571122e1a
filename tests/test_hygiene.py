"""Checks on the library source: stdlib-only imports, no floating point, no
imported name left unused, no private name left unreferenced and none
reached from another module, no public name or method that only the tests
reach, no function or method that the program itself never enters, module
annotations that resolve, and no cache that no workload reads."""

import ast
import importlib
import json
import os
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path

import pytest

from golden import ROWS, resolve

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_annotations_resolve(path):
    """Every name a module-level annotation uses is defined in its module."""
    name = "thrallkit" if path.stem == "__init__" else f"thrallkit.{path.stem}"
    typing.get_type_hints(importlib.import_module(name))


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
    definition.  Names are matched across classes and operators are not
    names, so this is a floor, not an exact call graph: the runtime rule
    below enters each method, dunders included."""
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


# The program's own entry points: every CLI run of the golden table, and the
# scripts with the arguments CI gives them.
PROGRAM_ARGV = [argv for argv, _, _ in ROWS]
SCRIPT_ARGV = [
    ["rank_survey.py"],
    ["invariants_demo.py"],
    ["thrall_tables.py", "--max-k", "4", "--d", "2"],
]
# what only the benchmark calls: it times these directly
PERFBENCH_ONLY = {
    "free_lie.lie_bracket", "free_lie.lie_coordinates", "group_algebra.operator_rank",
    "tensors.Tensor.entries",
}

# Runs in a fresh interpreter, so no cache that an earlier test filled can
# hide a call, and prints the code objects it entered under the package.
_TRACE = """
import contextlib, io, json, runpy, sys
package, argvs, scripts = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
entered = set()
def record(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)
sys.setprofile(record)
import thrallkit.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in argvs:
        try:
            thrallkit.cli.main(argv)
        except SystemExit:
            pass
    for argv in scripts:
        sys.argv = argv
        try:
            runpy.run_path(argv[0], run_name="__main__")
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(
    [code.co_filename, code.co_firstlineno] for code in entered
    if code.co_filename.startswith(package)
)))
"""


def _program_functions():
    """``module.name`` or ``module.Class.name`` of every module-level function
    and every method or property of a module-level class, keyed by the file
    and the first line of its code object (its first decorator, if any)."""
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in _tree(path).body:
            if isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.", sub) for sub in node.body]
            else:
                members = [("", node)]
            for prefix, sub in members:
                if isinstance(sub, ast.FunctionDef):
                    line = min([sub.lineno] + [dec.lineno for dec in sub.decorator_list])
                    yield (str(path.resolve()), line), f"{path.stem}.{prefix}{sub.name}"


def test_every_function_runs_under_the_program():
    """Each function and method of the package, dunders included, is entered
    when the program runs: every row of the golden table and the three
    scripts.  Operators and names shared across classes are invisible to the
    static rules above; a trace is not.  Only what the benchmark alone calls
    is exempt, and it must be read in ``perfbench/``."""
    argvs = [resolve(argv) for argv in PROGRAM_ARGV]
    scripts = [[str(ROOT / "scripts" / argv[0]), *argv[1:]] for argv in SCRIPT_ARGV]
    package = SOURCES[0].parent.resolve()
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE, str(package), json.dumps(argvs), json.dumps(scripts)],
        capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(package.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(code) for code in json.loads(proc.stdout)}
    functions = dict(_program_functions())
    assert len(functions) > 150
    unentered = {name for key, name in functions.items() if key not in entered}
    assert not unentered - PERFBENCH_ONLY, (
        f"functions that only the tests run: {sorted(unentered - PERFBENCH_ONLY)}"
    )
    assert not PERFBENCH_ONLY - unentered, (
        f"the program runs these after all: {sorted(PERFBENCH_ONLY - unentered)}"
    )
    perfbench = {
        name for path in RUNNERS if path.parent.name == "perfbench" for name in _reads(_tree(path))
    }
    unread = sorted(name for name in PERFBENCH_ONLY if name.rsplit(".", 1)[1] not in perfbench)
    assert not unread, f"perfbench no longer reads these: {unread}"


# Every process-lifetime cache in the package, with the benchmark traffic that
# reads it: hits over three passes of the workload's deck after its warm-up
# (seed 7), inside the timed calls unless the warm-up is named.  A table that
# no workload reads is recomputed instead.
CACHES = {
    "free_lie.bracket_expansion": "signature-warm: 83 timed hits (free_lie.bracket_hit_ratio)",
    "free_lie._horner_weights": "signature-warm: 44 timed hits",
    "free_lie._partition_count": "algebra-warm: 216 timed hits",
    "free_lie._lyndon_table": "signature-warm: 402 timed hits, each row holding its met bracketing",
    "group_algebra._projector_stack": "algebra-warm: 216 timed hits",
    "group_algebra._projector_family": "algebra-warm: 33 timed hits",
    "group_algebra._intersection_projector": "algebra-warm: 15 timed hits",
    "invariants._path_invariants": "algebra-warm: 24 timed hits",
    "symfun._character_table": "algebra-warm: 108 timed hits",
    "tensors.weight_patterns": "signature-warm: 18 timed hits",
    "words._lyndon_words": "algebra-warm: 38 hits in the warm-up (setup_s)",
    "words.partitions": "algebra-warm: 18 timed hits",
}


def _is_cache(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", "")
    return name in ("cache", "lru_cache")


def test_every_cache_names_the_workload_that_reads_it():
    """The cached functions of the package are exactly ``CACHES``, and each
    entry names a workload of ``BENCHMARK.json``."""
    found = {
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and any(map(_is_cache, node.decorator_list))
    }
    assert not found - set(CACHES), f"caches no workload is named for: {sorted(found - set(CACHES))}"
    assert not set(CACHES) - found, f"listed caches that are gone: {sorted(set(CACHES) - found)}"
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    unnamed = [name for name, reads in CACHES.items() if not any(w in reads for w in workloads)]
    assert not unnamed, f"caches whose entry names no workload: {unnamed}"
