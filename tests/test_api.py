"""The package exports only what it uses or what names a paper object.

Every name that omegapower/__init__.py imports from a submodule must have a
caller in another module of the package (not counting __init__), or in
perfbench/*.py, or an entry in PAPER_OBJECTS naming the object of the paper
it stands for.  Code that only the tests need lives in tests/."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "omegapower"

# exported names with no caller that stand for an object of the paper
PAPER_OBJECTS = {
    "is_suitable": "the suitable triples (t, S, j) that the classification map F takes",
    "ts_replay": "an accepting run of the coded transition system, as guessed bits",
    "t_lasso": "membership in T of the omega-word u v^omega, given by its parts",
}

# package metadata, not API
METADATA = {"__version__"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exports():
    """{exported name: (defining module, name there)} from __init__."""
    out = {}
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = (node.module, alias.name)
    return out


def package_uses():
    """(module, name) pairs that some module other than __init__ reads,
    either as a name imported from that module or as module.name."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        names[local] = (node.module, alias.name)
                    else:
                        modules[local] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in names:
                used.add(names[node.id])
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                used.add((modules[node.value.id], node.attr))
    return used


def perfbench_uses(modules):
    """Names perfbench reads: pkg.name and pkg.module.name attribute chains,
    and "module.name" strings naming the functions it traces."""
    top, qualified = set(), set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("pkg", "omegapower"):
                    top.add(node.attr)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                inner = node.value
                if isinstance(inner.value, ast.Name) and inner.value.id in ("pkg", "omegapower"):
                    qualified.add((inner.attr, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                mod, dot, name = node.value.partition(".")
                if dot and mod in modules and name.isidentifier():
                    qualified.add((mod, name))
    return top, qualified


def uncalled_exports():
    exported = exports()
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    used = package_uses()
    top, qualified = perfbench_uses(modules)
    return {
        name
        for name, origin in exported.items()
        if origin not in used and origin not in qualified and name not in top
    }


def test_every_export_has_a_caller_or_names_a_paper_object():
    missing = uncalled_exports() - set(PAPER_OBJECTS) - METADATA
    assert not missing, f"exported but used only by tests: {sorted(missing)}"


def test_paper_object_entries_are_needed():
    # an entry stays only while its name is exported and has no caller
    exported = exports()
    uncalled = uncalled_exports()
    for name, paper_object in PAPER_OBJECTS.items():
        assert paper_object, name
        assert name in exported, f"{name} is not exported"
        assert name in uncalled, f"{name} has a caller; drop its entry"

