"""No dead code at module level: every function and class defined at the top
of a module of the package is used somewhere in the package outside its own
definition, is exported by ``__init__.py``, or is ``cli.main``, the
``stallings`` console entry point.  And every export has a caller: a module
of the package, a demo or a perfbench module uses it outside its own
definition, unless it is in ``KEPT``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stallings"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the paper's vocabulary that nothing calls, exported for users
KEPT = ("bouquet", "find_morphism", "free_subgroup_graph", "fulfills", "is_connected",
        "is_regular", "admissible_primes", "serialize_presentation")


def _names(node: ast.AST) -> set:
    """The names that bare names and attributes under ``node`` refer to."""
    return {n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name))}


def _exported(init: ast.Module) -> set:
    return {alias.name for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_module_level_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) > 5
    exported = _exported(trees["__init__.py"])
    # the names each top-level statement uses, so that a reference from
    # inside a definition to itself does not count
    statements = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    unused = [f"{module}:{definition.name}"
              for module, tree in trees.items() for definition in tree.body
              if isinstance(definition, DEFINITIONS)
              and definition.name not in exported
              and (module, definition.name) != ("cli.py", "main")
              and not any(definition.name in names
                          for node, names in statements if node is not definition)]
    assert unused == []


def test_every_export_has_a_caller():
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").rglob("*.py"))]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    init = trees.pop(PACKAGE / "__init__.py")
    assert len(trees) > 15
    statements = [(node, _names(node)) for tree in trees.values() for node in tree.body]
    uncalled = {name for name in _exported(init)
                if not any(name in names for node, names in statements
                           if not (isinstance(node, DEFINITIONS) and node.name == name))}
    assert uncalled == set(KEPT)
