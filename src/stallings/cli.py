"""Command-line surface.

``main`` loads the ``-p`` presentation, then each subgroup graph file a
handler takes, in order.  Answers go to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 computed negative answer, 2 usage or parse
error, 3 budget exceeded or a ``MemoryError`` that reaches Python.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import fileio
from .errors import (
    CosetLimitExceeded,
    FulfillmentFailed,
    GluingInvalid,
    ParseError,
    SearchBudgetExceeded,
    StallingsError,
)
from .words import Presentation, Word
from .subgroup import (
    DEFAULT_MAX_COSETS,
    SubgroupGraph,
    coset_enumerate,
)
from .products import ProductGraph, coset_meet, intersect, is_malnormal
from .enumerator import EnumerationTask, enumerate_graphs, hall_search
from . import families

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _load_presentation(path: str) -> Presentation:
    return fileio.parse_presentation(Path(path).read_text())


def _load_subgroup(path: str, pres: Presentation) -> SubgroupGraph:
    return fileio._subgroup_text(Path(path).read_text(), pres)


def _emit(args, sg: SubgroupGraph, *head: str) -> None:
    """Write the DOT file if ``--dot`` was given, then print the ``head``
    lines and the graph file, so a DOT file that cannot be written leaves
    stdout empty.  Both files come from the coset table: it is canonical,
    so no ``XGraph`` is built."""
    graph = (sg.presentation.alphabet.names, sg.index(), sg.base)
    if getattr(args, "dot", None):
        Path(args.dot).write_text(fileio.dot_text(*graph, sg.edges()))
    for line in head:
        print(line)
    print(fileio.graph_text(*graph, sg.edges()), end="")


def _answer(flag: bool, yes: str, no: str) -> int:
    print(yes if flag else no)
    return EXIT_OK if flag else EXIT_NEGATIVE


def _fmt(pres: Presentation, w: Word) -> str:
    return pres.alphabet.format_word(w)


def cmd_build(args, pres):
    gens = [pres.word(t) for t in args.generators]
    sg = coset_enumerate(pres, gens, max_cosets=args.max_cosets)
    _emit(args, sg)
    return EXIT_OK


def cmd_verify(args, pres):
    text = Path(args.path).read_text()  # an undecodable file is a usage error too
    try:
        sg = fileio._subgroup_text(text, pres)
    except ParseError:  # a malformed file is a usage error
        raise
    except (ValueError, FulfillmentFailed) as e:
        print(f"invalid: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    print(f"valid subgroup graph of index {sg.index()}")
    return EXIT_OK


def cmd_index(args, pres, sg):
    print(sg.index())
    return EXIT_OK


def cmd_cosets(args, pres, sg):
    for v, rep in enumerate(sg.coset_reps):
        print(f"{v}\t{_fmt(pres, rep)}")
    return EXIT_OK


def cmd_membership(args, pres, sg):
    return _answer(sg.contains(pres.word(args.word)), "member", "not a member")


def cmd_basis(args, pres, sg):
    for w in sg.free_basis():
        print(_fmt(pres, w))
    return EXIT_OK


def cmd_conjugate(args, pres, sg1, sg2):
    g = sg1.conjugate(sg2)
    if g is None:
        print("not conjugate")
        return EXIT_NEGATIVE
    print(_fmt(pres, g))
    return EXIT_OK


def cmd_normal(args, pres, sg):
    return _answer(sg.is_normal(), "normal", "not normal")


def cmd_normalizer(args, pres, sg):
    reps, nsg = sg.normalizer()
    _emit(args, nsg, "coset representatives over the subgroup:",
          *(f"  {_fmt(pres, rep)}" for rep in reps), f"normalizer index: {nsg.index()}")
    return EXIT_OK


def cmd_intersect(args, pres, sg1, sg2):
    _emit(args, intersect(sg1, sg2))
    return EXIT_OK


def cmd_coset_meet(args, pres, sg1, sg2):
    word = coset_meet(ProductGraph(sg1, sg2), args.vertex1, args.vertex2)
    if word is None:
        print("empty intersection")
        return EXIT_NEGATIVE
    print(_fmt(pres, word))
    return EXIT_OK


def cmd_malnormal(args, pres, sg):
    return _answer(is_malnormal(sg, args.order), "malnormal", "not malnormal")


def cmd_hall(args, pres):
    witness = hall_search(pres, args.order, args.d)
    if witness is None:
        print("no Hall subgroup of that order")
        return EXIT_NEGATIVE
    _emit(args, witness)
    return EXIT_OK


def cmd_enumerate(args, pres):
    task = EnumerationTask(pres, args.n, mode=args.mode)
    found = enumerate_graphs(task)
    print(f"{len(found)} {args.mode} classes with {args.n} vertices")
    for i, sg in enumerate(found):
        print(f"# class {i}")
        _emit(args, sg)
    return EXIT_OK


# The options each gamma family needs; argparse cannot tie them to a choice.
GLUING_OPTIONS = "left_pres left_graph left_word right_pres right_graph right_word pairs"
GAMMA_OPTIONS = {"type1": "letter p", "artin": "p", "type2": "a k b l pairs",
                 "glued": GLUING_OPTIONS, "amalgam": GLUING_OPTIONS}


def cmd_gamma(args, pres):
    missing = [name for name in GAMMA_OPTIONS[args.family].split()
               if getattr(args, name) is None]
    if missing:
        raise ParseError(f"gamma {args.family} needs --{missing[0].replace('_', '-')}")
    if args.family == "type1":
        cert = families.build_type1(pres, pres.alphabet.index(args.letter), args.p)
    elif args.family == "artin":
        li = pres.alphabet.index(args.letter) if args.letter is not None else 0
        cert = families.build_parallel_circles(pres, args.p, li)
    elif args.family == "type2":
        cert = families.build_type2(
            pres,
            pres.alphabet.index(args.a), args.k,
            pres.alphabet.index(args.b), args.l,
            args.pairs,
        )
    else:  # glued or amalgam; the factors carry their own presentations
        left_pres = _load_presentation(args.left_pres)
        right_pres = _load_presentation(args.right_pres)
        spec = families.GluingSpec(
            _load_subgroup(args.left_graph, left_pres),
            left_pres.word(args.left_word),
            _load_subgroup(args.right_graph, right_pres),
            right_pres.word(args.right_word),
            args.pairs,
        )
        pairs = []
        for ident in (args.identify or []) if args.family == "amalgam" else []:
            if "=" not in ident:
                raise ParseError(f"bad identification (want d=psi): {ident!r}")
            d_text, psi_text = ident.split("=", 1)
            pairs.append((left_pres.word(d_text), right_pres.word(psi_text)))
        cert = families.build_glued(spec, pairs)
    _emit(args, cert.graph, f"vertices: {cert.vertex_count}",
          f"word: {cert.graph.presentation.alphabet.format_word(cert.word)}",
          f"prime: {'yes' if families.is_prime(cert.vertex_count) else 'no'}")
    return EXIT_OK


def cmd_certify(args, pres, sg):
    cert = families.certify(sg, pres.word(args.word))
    if args.prime is not None and cert.vertex_count != args.prime:
        print(f"vertex count {cert.vertex_count} != {args.prime}", file=sys.stderr)
        return EXIT_NEGATIVE
    print(f"certificate ok: {cert.vertex_count} vertices, orbit {list(cert.orbit)}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises usage errors for ``main``, so only ``--help`` exits."""

    def error(self, message):
        raise ParseError(message)


@functools.cache  # parse_args fills a fresh namespace each call, so main shares one parser
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stallings",
        description="Subgroup graphs of finitely presented groups",
    )
    parser.add_argument("-p", "--presentation", required=True,
                        help="presentation file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, *positionals):
        p = sub.add_parser(name, help=help)  # main passes fn a subgroup per graphfile*
        p.set_defaults(fn=fn, graphs=[x for x in positionals if x.startswith("graphfile")])
        for positional in positionals:
            p.add_argument(positional)
        return p

    p = add("build", cmd_build, "coset-enumerate a subgroup")
    p.add_argument("-g", "--generator", dest="generators", action="append",
                   default=[], help="subgroup generator word (repeatable)")
    p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_MAX_COSETS)
    p.add_argument("--dot")

    p = add("verify", cmd_verify, "check a graph file is a subgroup graph")
    p.add_argument("path", metavar="graphfile")  # cmd_verify loads it: invalid exits 1
    add("index", cmd_index, "index of the subgroup", "graphfile")
    add("cosets", cmd_cosets, "coset representatives", "graphfile")
    add("membership", cmd_membership, "test membership of a word", "graphfile", "word")
    add("basis", cmd_basis, "free basis of the loop language", "graphfile")
    add("conjugate", cmd_conjugate, "conjugacy of two subgroups", "graphfile1", "graphfile2")
    add("normal", cmd_normal, "normality test", "graphfile")

    p = add("normalizer", cmd_normalizer, "normalizer of the subgroup", "graphfile")
    p.add_argument("--dot")

    p = add("intersect", cmd_intersect, "intersection of two subgroups",
            "graphfile1", "graphfile2")
    p.add_argument("--dot")

    p = add("coset-meet", cmd_coset_meet, "intersection of two cosets", "graphfile1", "graphfile2")
    p.add_argument("vertex1", type=int)
    p.add_argument("vertex2", type=int)

    p = add("malnormal", cmd_malnormal, "malnormality in a finite group", "graphfile")
    p.add_argument("--order", type=int, required=True, help="group order")

    p = add("hall", cmd_hall, "search for a Hall subgroup")
    p.add_argument("--order", type=int, required=True, help="group order")
    p.add_argument("--d", type=int, required=True, help="subgroup order")
    p.add_argument("--dot")

    p = add("enumerate", cmd_enumerate, "enumerate fulfilling graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("based", "unbased"), default="based")

    p = add("gamma", cmd_gamma, "build a certificate graph family member")
    p.add_argument("family", choices=("type1", "artin", "type2", "glued", "amalgam"))
    p.add_argument("--letter", help="circle letter (type1/artin)")
    p.add_argument("--p", type=int, help="circle length (type1/artin)")
    p.add_argument("--a", help="first circle letter (type2)")
    p.add_argument("--k", type=int, help="first circle length (type2)")
    p.add_argument("--b", help="second circle letter (type2)")
    p.add_argument("--l", type=int, help="second circle length (type2)")
    p.add_argument("--pairs", type=int, help="number of circle/copy pairs")
    p.add_argument("--left-pres")
    p.add_argument("--left-graph")
    p.add_argument("--left-word")
    p.add_argument("--right-pres")
    p.add_argument("--right-graph")
    p.add_argument("--right-word")
    p.add_argument("--identify", action="append",
                   help="amalgam identification d=psi(d) (repeatable)")
    p.add_argument("--dot")

    p = add("certify", cmd_certify, "verify the sweep property of a graph", "graphfile")
    p.add_argument("--word", required=True)
    p.add_argument("--prime", type=_positive_int)

    return parser


# A failure exits with the code of the first row it matches.  Memory is a
# budget, as much as a search's node count is.
EXIT_CODES = (
    ((ParseError, OSError), EXIT_USAGE),
    ((CosetLimitExceeded, SearchBudgetExceeded, MemoryError), EXIT_BUDGET),
    ((FulfillmentFailed, GluingInvalid), EXIT_NEGATIVE),
    ((StallingsError, ValueError), EXIT_USAGE),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        pres = _load_presentation(args.presentation)
        return args.fn(args, pres, *[_load_subgroup(getattr(args, name), pres)
                                     for name in args.graphs])
    except SystemExit:  # --help
        return EXIT_OK
    except tuple(t for types, _ in EXIT_CODES for t in types) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return next(code for types, code in EXIT_CODES if isinstance(e, types))


if __name__ == "__main__":
    sys.exit(main())
