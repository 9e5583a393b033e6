"""The entries whose callers are pinned by an AST scan of the package and the
demos.

``SubgroupGraph._canonical`` checks only the relators, so only tables that
are canonical by construction may enter through it: the low-index search's
classes and the intersection's orbit.  Untrusted tables (graph files, the
CLI, ``subgroup_from_graph``) keep the constructor, which checks them all.
``XGraph._of`` checks nothing, so only edges that are distinct, sorted and in
range by construction enter through it: a coset table's, and what ``core``
and ``canonicalize`` renumber; ``fold``, ``wedge_of_words`` and
``parse_graph`` keep the constructor.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [*(ROOT / "src" / "stallings").glob("*.py"), *(ROOT / "demos").glob("*.py")]


def _name(node: ast.AST):
    """The name a bare name or an attribute refers to, else None."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _nodes():
    """Every AST node of the sources, with the path of its file."""
    assert len(SOURCES) > 10
    return [(path.relative_to(ROOT).as_posix(), node) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))]


def test_canonical_entry_has_two_callers():
    nodes = _nodes()
    calls = sorted(name for name, node in nodes
                   if isinstance(node, ast.Call) and _name(node.func) == "_canonical")
    # every reference is one of these calls, so no alias can call it elsewhere
    mentions = sorted(name for name, node in nodes if _name(node) == "_canonical")
    assert calls == mentions == ["src/stallings/enumerator.py", "src/stallings/products.py"]


def test_unchecked_graph_entry_has_three_callers():
    nodes = _nodes()
    calls = sorted(name for name, node in nodes
                   if isinstance(node, ast.Call) and _name(node.func) == "_of")
    mentions = sorted(name for name, node in nodes if _name(node) == "_of")
    assert calls == mentions == ["src/stallings/subgroup.py", "src/stallings/xgraph.py",
                                 "src/stallings/xgraph.py"]


def test_one_module_keys_layout_columns():
    """``_canonical`` keys the ``_Layout`` columns by signed letter, so no
    other package module reads an attribute named ``keys``."""
    readers = {name for name, node in _nodes()
               if isinstance(node, ast.Attribute) and node.attr == "keys"
               and name.startswith("src/")}
    assert readers == {"src/stallings/subgroup.py"}
