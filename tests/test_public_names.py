"""Every public top-level name in src/towerforms/ is reached by the program.

A top-level def or class whose name has no leading underscore must be
reached by another top-level statement of src/towerforms/ or scripts/, or
be wrapped by the per-layer tracer in perfbench/.  A statement reaches
module.name only in one of these ways:

* as an attribute of a module alias, ``fl.residue`` after
  ``from . import fields as fl`` (or ``from towerforms import fields``);
* by ``from .module import name`` (or ``from towerforms.module import``),
  which covers the package's exports in __init__.py;
* as a bare name inside the defining module itself.

An attribute of any other object reaches nothing: ``ctx.residue(a)`` is
not a use of ``fields.residue``.  Names reached only from the tests belong
in the tests.  The allow-list is empty: a new public name needs a caller.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "towerforms"
TRACER = ROOT / "perfbench" / "tracer.py"

ALLOWED = frozenset()


def _imported_module(node):
    """The package module a `from ... import` statement imports from, ''
    for the package itself, or None when it imports from elsewhere."""
    if node.level == 1:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if node.level == 0 and head == "towerforms" else None


def _reached(mod, tree):
    """(statement, the set of (module, name) it reaches) for every
    top-level statement of module mod."""
    aliases = {}  # local name -> package module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _imported_module(node) == "":
            aliases.update((a.asname or a.name, a.name) for a in node.names)
    out = []
    for stmt in tree.body:
        uses = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                uses.add((mod, node.id))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in aliases:
                uses.add((aliases[node.value.id], node.attr))
            elif isinstance(node, ast.ImportFrom) and _imported_module(node):
                uses.update((_imported_module(node), a.name)
                            for a in node.names)
        out.append((stmt, uses))
    return out


def _sources():
    """{module name: source text} for every program file."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return {path.stem: path.read_text() for path in files}


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(mod, path.split(".")[0]) for mod, path, _, _ in tracer.TRACED}


def unreached_names(sources, traced):
    """'module.name' for each public top-level def/class of the sources
    ({module: text}) that no other statement reaches and traced (a set of
    (module, name)) does not hold, sorted."""
    files = {mod: _reached(mod, ast.parse(text))
             for mod, text in sources.items()}
    out = []
    for mod, stmts in files.items():
        for stmt, _ in stmts:
            if mod == "__init__" or not isinstance(
                    stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            key = (mod, stmt.name)
            if stmt.name.startswith("_") or f"{mod}.{stmt.name}" in ALLOWED \
                    or key in traced:
                continue
            if not any(key in uses for other in files.values()
                       for s, uses in other if s is not stmt):
                out.append(f"{mod}.{stmt.name}")
    return sorted(out)


def test_every_public_name_is_reached():
    sources = _sources()
    # the walk must cover the modules the tracer names, or an empty file
    # list would pass
    assert {mod for mod, _ in _traced()} <= set(sources)
    assert unreached_names(sources, _traced()) == []


def test_a_same_named_attribute_reaches_nothing():
    defining = "def residue(tower, a):\n    return a\n"
    other = ("def use(ctx, a):\n"
             "    return ctx.residue(a)\n")
    assert unreached_names({"fields": defining, "valuation": other},
                           set()) == ["fields.residue", "valuation.use"]
    # the same call through a module alias, an import or the tracer reaches
    # it
    for caller in ("from . import fields as fl\n"
                   "def use(a):\n    return fl.residue(None, a)\n",
                   "from towerforms.fields import residue\n"
                   "def use(a):\n    return residue(None, a)\n"):
        assert unreached_names({"fields": defining, "valuation": caller},
                               {("valuation", "use")}) == []
    assert unreached_names({"fields": defining},
                           {("fields", "residue")}) == []
