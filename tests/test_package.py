"""Package hygiene: public names resolve and are used, and no module carries a dead import."""

import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import frontks

PACKAGE_DIR = pathlib.Path(frontks.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(frontks.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"frontks.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _is_all_assignment(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is used by being exported
        if _is_all_assignment(node):
            used.update(ast.literal_eval(node.value))
    return used


# __init__ is left out: its imports are the package's public names
@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text())
    assert sorted(_imported_names(tree) - _used_names(tree)) == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_the_only_runtime_dependency(path):
    # an installed test extra such as mpmath would hide a stray import from a plain import test
    tree = ast.parse(path.read_text())
    roots = {a.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    roots |= {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    assert sorted(roots - sys.stdlib_module_names - {"numpy"}) == []


def _program_references() -> set[str]:
    """Names the program reads, by name, attribute or string (perfbench patches by
    string), across src/, scripts/ and perfbench/; definitions, imports and
    __all__ entries are not references."""
    refs = set()
    for path in [p for d in ("src", "scripts", "perfbench") for p in (REPO / d).rglob("*.py")]:
        tree = ast.parse(path.read_text())
        skipped = {id(n) for node in tree.body if _is_all_assignment(node) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in skipped:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


def test_every_public_name_has_a_caller():
    refs = _program_references()
    dead = [
        f"{name}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(f"frontks.{name}"), "__all__", [])
        if n not in refs
    ]
    assert dead == []
