"""No dead code at module level: every function and class defined at the top
of a module of the package is used somewhere in the package outside its own
definition, is exported by ``__init__.py``, or is ``cli.main``, the
``stallings`` console entry point.

Every export has a caller, unless it is in ``KEPT``: a module of the
package, a demo or a perfbench module imports it by name from the package,
or reads it as an attribute of the package or of one of its modules, or
its own module reads its name outside its definition.  A method of the
same name (``sg.trace``) or a variable in another module does not count.  And every public method
or property of a class of the package is read as an attribute in the
package, a demo or a perfbench module outside its own definition, unless it
is in ``KEPT_METHODS``."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stallings"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# the paper's vocabulary that nothing calls, exported for users; ``trace``,
# ``free_basis`` and ``find_morphism`` are the membership, basis and
# inclusion tests for infinite-index subgroups of free groups (Kapovich and
# Myasnikov, Stallings foldings and subgroups of free groups, 2002)
KEPT = ("find_morphism", "free_basis", "free_subgroup_graph", "fulfills",
        "serialize_presentation", "trace")
# argparse's hook on ``cli._Parser``, and isomorphism across presentations
# over one alphabet, which ``conjugate`` refuses
KEPT_METHODS = ("error", "isomorphic_based_to", "isomorphic_unbased_to")


def _names(node: ast.AST) -> set:
    """The names that bare names and attributes under ``node`` refer to."""
    return {n.attr if isinstance(n, ast.Attribute) else n.id
            for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name))}


def _exported(init: ast.Module) -> dict:
    """Each export, and the module it comes from."""
    return {alias.name: node.module for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _reads(node: ast.AST) -> Counter:
    """How often each attribute name is read under ``node``."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


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


def _callers(path: Path, tree: ast.Module, modules: set) -> set:
    """The names the module at ``path`` imports from the package (relatively,
    if it is a package module) or reads as attributes of the package or of
    one of its ``modules``."""
    names = set()
    relative = path.parent == PACKAGE
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 if relative else (node.module or "").split(".")[0] == "stallings"):
            names |= {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names.add(node.attr)
    return names


def _sources() -> dict:
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
             *sorted((ROOT / "perfbench").rglob("*.py"))]
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def test_every_export_has_a_caller():
    trees = _sources()
    init = trees.pop(PACKAGE / "__init__.py")
    assert len(trees) > 15
    home = _exported(init)
    modules = {"stallings", "st", *(path.stem for path in PACKAGE.glob("*.py"))}
    called = set().union(*(_callers(path, tree, modules) for path, tree in trees.items()))
    for name, module in home.items():
        own = trees[PACKAGE / f"{module}.py"].body
        if any(name in {n.id for n in ast.walk(node)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
               for node in own if not (isinstance(node, DEFINITIONS) and node.name == name)):
            called.add(name)
    assert set(home) - called == set(KEPT)


def test_every_public_method_has_a_caller():
    trees = _sources()
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    methods = [method for path, tree in trees.items() if path.parent == PACKAGE
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for method in cls.body
               if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")]
    assert len(methods) > 20
    uncalled = {method.name for method in methods
                if reads[method.name] == _reads(method)[method.name]}
    assert uncalled == set(KEPT_METHODS)
