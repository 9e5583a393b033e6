"""Text file formats for presentations and based graphs, plus DOT export.

Presentation files:
    gens: a b
    rel: a a
    rel: b b b
Graph files:
    vertices: 3
    base: 0
    edge: 0 a 1
Lines starting with '#' are comments.  ``parse_graph`` and the CLI's loader
``_subgroup_text``, which fills table columns from the edge lines in any order,
fail alike: line faults in file order, no vertices then no base line, a negative
count, the least out-of-range edge, no vertex, the base out of range, then not
X-regular, not connected, a failed relator.  ``graph_text`` and ``dot_text`` write
a graph given by its generator names, vertex count, base and edges (by origin,
then letter); the CLI hands them coset tables, which are canonical.
``serialize_graph`` renumbers a folded graph whose base reaches every vertex in
BFS order from the base, so canonical files round-trip byte for byte; it writes
any other graph as it stands, as ``export_dot`` does.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Iterable, Sequence

from .errors import ParseError
from .subgroup import SubgroupGraph
from .words import Alphabet, Presentation
from .xgraph import BasedXGraph, XGraph, canonicalize, is_folded


def parse_presentation(text: str) -> Presentation:
    alphabet = None
    relators = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
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
        elif line:
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


def _graph_lines(text: str, alphabet: Alphabet) -> tuple:
    """The vertex count, the base and per letter the edge lines' origins and termini."""
    vertices = base = None
    index = alphabet._index
    origins, termini = [[] for _ in index], [[] for _ in index]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw if raw.startswith("edge:") and "#" not in raw else raw.split("#", 1)[0].strip()
        if line.startswith("edge:"):
            parts = line[len("edge:"):].split()
            if len(parts) != 3:
                raise ParseError("edge needs origin, letter, terminus", lineno)
            origin, name, terminus = parts
            try:
                u, li, v = int(origin), index[name], int(terminus)
            except (ValueError, KeyError):  # raise for the first bad id, else the letter
                _parse_int(origin, "bad vertex id", lineno)
                _parse_int(terminus, "bad vertex id", lineno)
                raise ParseError(f"unknown generator: {name!r}", lineno) from None
            origins[li].append(u)
            termini[li].append(v)
        elif line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError("duplicate vertices line", lineno)
            vertices = _parse_int(line[len("vertices:"):], "bad vertex count", lineno)
        elif line.startswith("base:"):
            if base is not None:
                raise ParseError("duplicate base line", lineno)
            base = _parse_int(line[len("base:"):], "bad base vertex", lineno)
        elif line:
            raise ParseError(f"unrecognized line: {line!r}", lineno)
    if vertices is None:
        raise ParseError("missing vertices line")
    if base is None:
        raise ParseError("missing base line")
    return vertices, base, origins, termini


def _based_graph(alphabet: Alphabet, vertices: int, base: int, origins, termini) -> BasedXGraph:
    edges = [(u, li, v) for li, (us, vs) in enumerate(zip(origins, termini))
             for u, v in zip(us, vs)]
    try:
        return BasedXGraph(XGraph(alphabet, vertices, edges), base)
    except ValueError as e:
        raise ParseError(str(e)) from None


def parse_graph(text: str, alphabet: Alphabet) -> BasedXGraph:
    return _based_graph(alphabet, *_graph_lines(text, alphabet))


def _subgroup_text(text: str, presentation: Presentation) -> SubgroupGraph:
    """``subgroup_from_graph(parse_graph(text, alphabet), presentation)``, errors
    included, from forward columns that the edge lines fill without a graph."""
    n, base, origins, termini = lines = _graph_lines(text, presentation.alphabet)
    if not (0 <= base < n and all(0 <= min(ends, default=0) and max(ends, default=0) < n
                                  for ends in origins + termini)):
        _based_graph(presentation.alphabet, *lines)  # raises the count, edge or base error
    # each letter needs n distinct edges, counted before n cells are allocated
    if any(len(us) != n and len(set(zip(us, vs))) != n for us, vs in zip(origins, termini)):
        raise ValueError("graph is not X-regular")
    forward = [[-1] * n for _ in origins]  # a -1 left by a twice-used origin fails the table
    for column, us, vs in zip(forward, origins, termini):
        for u, v in zip(us, vs):
            column[u] = v
    return SubgroupGraph(presentation, forward, base)


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
