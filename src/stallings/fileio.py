"""Text file formats for presentations and based graphs, plus DOT export.

Presentation files:
    gens: a b
    rel: a a
    rel: b b b
Graph files:
    vertices: 3
    base: 0
    edge: 0 a 1
Lines starting with '#' are comments.  ``graph_text`` and ``dot_text``
write a graph given by its generator names, vertex count, base and edges
(by origin, then letter); the CLI hands them coset tables, which are
canonical.  ``serialize_graph`` renumbers a folded graph whose base reaches
every vertex in BFS order from the base, so canonical files round-trip byte
for byte; it writes any other graph as it stands, as ``export_dot`` does.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Iterable, Sequence

from .errors import ParseError
from .words import Alphabet, Presentation
from .xgraph import BasedXGraph, XGraph, canonicalize, is_folded


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_presentation(text: str) -> Presentation:
    alphabet = None
    relators = []
    for lineno, line in _content_lines(text):
        if line.startswith("gens:"):
            if alphabet is not None:
                raise ParseError("duplicate gens line", lineno)
            names = line[len("gens:"):].split()
            if not names:
                raise ParseError("empty generator list", lineno)
            try:
                alphabet = Alphabet(names)
            except ValueError as e:
                raise ParseError(str(e), lineno) from None
        elif line.startswith("rel:"):
            if alphabet is None:
                raise ParseError("rel before gens", lineno)
            try:
                relators.append(alphabet.parse_word(line[len("rel:"):].strip()))
            except ValueError as e:
                raise ParseError(str(e), lineno) from None
        else:
            raise ParseError(f"unrecognized line: {line!r}", lineno)
    if alphabet is None:
        raise ParseError("missing gens line")
    try:
        return Presentation(alphabet, relators)
    except ValueError as e:
        raise ParseError(str(e)) from None


def serialize_presentation(p: Presentation) -> str:
    lines = ["gens: " + " ".join(p.alphabet.names)]
    lines += ["rel: " + p.alphabet.format_word(r) for r in p.relators]
    return "\n".join(lines) + "\n"


def _parse_int(text: str, message: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{message}: {text.strip()!r}", lineno) from None


def parse_graph(text: str, alphabet: Alphabet) -> BasedXGraph:
    vertices = None
    base = None
    edges = []
    index = alphabet._index
    for lineno, line in _content_lines(text):
        if line.startswith("edge:"):
            parts = line[len("edge:"):].split()
            if len(parts) != 3:
                raise ParseError("edge needs origin, letter, terminus", lineno)
            origin, name, terminus = parts
            try:
                u, v = int(origin), int(terminus)
            except ValueError:  # raise for the first bad id
                _parse_int(origin, "bad vertex id", lineno)
                _parse_int(terminus, "bad vertex id", lineno)
            li = index.get(name)
            if li is None:
                raise ParseError(f"unknown generator: {name!r}", lineno)
            edges.append((u, li, v))
        elif line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError("duplicate vertices line", lineno)
            vertices = _parse_int(line[len("vertices:"):], "bad vertex count", lineno)
        elif line.startswith("base:"):
            if base is not None:
                raise ParseError("duplicate base line", lineno)
            base = _parse_int(line[len("base:"):], "bad base vertex", lineno)
        else:
            raise ParseError(f"unrecognized line: {line!r}", lineno)
    if vertices is None:
        raise ParseError("missing vertices line")
    if base is None:
        raise ParseError("missing base line")
    try:
        return BasedXGraph(XGraph(alphabet, vertices, edges), base)
    except ValueError as e:
        raise ParseError(str(e)) from None


def graph_text(names: Sequence[str], n: int, base: int, edges: Iterable[tuple]) -> str:
    """A graph file with the edges ``(origin, letter index, terminus)`` in the given order."""
    lines = [f"vertices: {n}", f"base: {base}"]
    lines += [f"edge: {u} {names[li]} {v}" for (u, li, v) in edges]
    return "\n".join(lines) + "\n"


def dot_text(names: Sequence[str], n: int, base: int, edges: Iterable[tuple]) -> str:
    """Graphviz output; edges carry generator names, the base is a double circle."""
    lines = ["digraph subgroup_graph {"]
    lines += [f'  {v} [shape={"doublecircle" if v == base else "circle"}];' for v in range(n)]
    lines += [f'  {u} -> {v} [label="{names[li]}"];' for (u, li, v) in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_graph(g: BasedXGraph) -> str:
    with suppress(ValueError):  # raised where the base does not reach every vertex
        canonical, _ = canonicalize(g)
        if canonical is not g and is_folded(g.graph):  # a canonical graph is folded
            g = canonical
    return graph_text(g.alphabet.names, g.vertex_count, g.base, g.graph.edges)


def export_dot(g: BasedXGraph) -> str:
    """Graphviz output of the graph as it stands."""
    return dot_text(g.alphabet.names, g.vertex_count, g.base, g.graph.edges)
