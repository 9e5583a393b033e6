"""No dead code at module level: every function and class defined at the top
of a module of the package is used somewhere in the package outside its own
definition, is exported by ``__init__.py``, or is ``cli.main``, the
``stallings`` console entry point."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stallings"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set:
    """The names that bare names and attributes under ``node`` refer to."""
    return {n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name))}


def test_every_module_level_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert len(trees) > 5
    exported = {alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
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
