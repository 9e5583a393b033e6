"""Answers depend on arguments alone: no module of the package reads the
process environment, so a budget or option has one source, its argument."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stallings"
READERS = {"environ", "environb", "getenv"}


def _reads_environment(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr in READERS and isinstance(node.value, ast.Name)
                and node.value.id == "os")
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in READERS for a in node.names)
    return False


def test_package_does_not_read_the_environment():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if _reads_environment(node)]
    assert found == []
