"""Every public top-level name in src/towerforms/ is reached by the program.

A top-level def or class whose name has no leading underscore must be
referenced (as a name, an attribute or an import alias) by another
top-level statement of src/towerforms/ or scripts/, be imported by the
package's __init__.py, or be wrapped by the per-layer tracer in perfbench/.
Names reached only from the tests belong in the tests.  The allow-list is
empty: a new public name needs a caller.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "towerforms"
TRACER = ROOT / "perfbench" / "tracer.py"

ALLOWED = frozenset()


def _references(node):
    """The identifiers a statement names: Name ids, Attribute attrs and the
    names and aliases of its imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
            if sub.asname:
                out.add(sub.asname)
    return out


def _statements():
    """(module name, top-level statement) for every program file."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            yield path.stem, stmt


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(mod, path.split(".")[0]) for mod, path, _, _ in tracer.TRACED}


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for stmt in tree.body
            if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}


def unreached_names():
    """'module.name' for each public top-level def/class that nothing in
    the program reaches, sorted."""
    stmts = list(_statements())
    refs = [_references(stmt) for _, stmt in stmts]
    traced, exported = _traced(), _exported()
    out = []
    for k, (mod, stmt) in enumerate(stmts):
        if mod == "__init__" or not isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name.startswith("_") or f"{mod}.{name}" in ALLOWED:
            continue
        if name in exported or (mod, name) in traced:
            continue
        if not any(name in r for j, r in enumerate(refs) if j != k):
            out.append(f"{mod}.{name}")
    return sorted(out)


def test_every_public_name_is_reached():
    # the walk must cover the modules the tracer names, or an empty file
    # list would pass
    assert {mod for mod, _ in _traced()} <= {mod for mod, _ in _statements()}
    assert unreached_names() == []
