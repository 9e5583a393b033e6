"""certify-io: certificate families, free folding, file I/O and the CLI.

Each pass builds prime-vertex certificates near 2003 vertices
(``build_type1``, ``build_parallel_circles``, ``build_type2``,
``build_glued``, ``extend_with_loops``), checks coprimality certificates,
folds ten random 2000-letter words through ``fold``, ``core`` and
``canonicalize``, round-trips graphs through ``serialize_graph`` and
``parse_graph``, and calls ``cli.main`` in-process on files written during
set-up.  The primes, words and CLI arguments are seeded.

Checks: vertex counts are the requested primes and the certificate word's
powers sweep every vertex, traced through the returned table; folded graphs
are re-verified as folded cores reading every word; round trips are
byte-identical; CLI exit codes and output match the API's answers.
"""

from __future__ import annotations

import contextlib
import io
import random
from math import gcd

import stallings as st
from stallings import cli

import groups
import oracles
from harness import Job
from workloads.common import Subgroup, check_equal, random_word

FULL = {"primes": (1931, 2081), "folds": (10, 2000), "basis_prime": 211,
        "coprime_m": (3, 8), "coprime_jobs": 2}
TINY = {"primes": (89, 131), "folds": (3, 60), "basis_prime": 11,
        "coprime_m": (2, 4), "coprime_jobs": 1}


def build(seed: int, tiny: bool, work_dir) -> list[Job]:
    rng = random.Random(seed)
    size = TINY if tiny else FULL
    primes = [p for p in range(*size["primes"]) if oracles.is_prime(p)]
    f2, f3, braid, psl = groups.free(2), groups.free(3), groups.braid3(), groups.modular()
    pres = {s.name: s.presentation() for s in (f2, f3, braid, psl)}
    p1, p2, p3 = (rng.choice(primes) for _ in range(3))
    jobs = [
        _build_job("type1", st.build_type1, (pres["F2"], 0, p1), f2.relators, p1),
        _build_job("type1", st.build_type1, (pres["F3"], rng.randrange(3), p2),
                   f3.relators, p2),
        _build_job("parallel_circles", st.build_parallel_circles,
                   (pres["Braid3"], p3), braid.relators, p3),
    ]
    # chains of (2- and 3-circles) and of (Z3 and Z5 copies) with prime size
    lo, hi = size["primes"]
    c = rng.choice([c for c in range(1, hi) if lo <= 3 * c + 1 < hi
                    and oracles.is_prime(3 * c + 1)])
    jobs.append(_build_job("type2", st.build_type2, (pres["PSL2Z"], 0, 2, 1, 3, c),
                           psl.relators, 3 * c + 1))
    type2 = st.build_type2(pres["PSL2Z"], 0, 2, 1, 3, c).graph
    z3, z5 = groups.cyclic("x", 3), groups.cyclic("y", 5)
    factors = [st.coset_enumerate(z.presentation(), []) for z in (z3, z5)]
    c = rng.choice([c for c in range(1, hi) if lo <= 6 * c + 1 < hi
                    and oracles.is_prime(6 * c + 1)])
    spec = st.GluingSpec(factors[0], st.Word([1]), factors[1], st.Word([1]), c)
    jobs.append(_build_job("glued", st.build_glued, (spec,), ((1, 1, 1), (2,) * 5),
                           6 * c + 1))

    p = rng.choice(primes)
    cert = st.build_type1(pres["F2"], 0, p)
    commutator = (1, 3, -1, -3)  # [a, z] over the alphabet a, b, z
    jobs.append(_build_job("extend_with_loops", st.extend_with_loops,
                           (cert, ["z"], [st.Word(commutator)]), (commutator,), p))
    for _ in range(size["coprime_jobs"]):
        m = rng.randint(*size["coprime_m"])
        other = st.coset_enumerate(pres["F2"], st.build_type1(pres["F2"], 0, m).graph.free_basis())
        jobs.append(_coprime_job(cert, other, m))

    count, length = size["folds"]
    jobs.append(_fold_job(pres["F2"].alphabet,
                          [random_word(rng, 2, length) for _ in range(count)]))
    jobs += [_round_trip_job(cert.graph, pres["F2"]), _round_trip_job(type2, pres["PSL2Z"])]
    jobs += _cli_jobs(rng, work_dir, size, pres, {"F2": f2, "PSL2Z": psl}, cert, type2)
    rng.shuffle(jobs)
    return jobs


def _build_job(name, builder, args, relators, vertices: int) -> Job:
    """A certificate builder; the expected vertex count comes from the
    arguments, never from the package."""
    def run(t):
        cert = t.call("families.build", builder, *args)
        t.count("families.build.vertices", cert.vertex_count)
        return cert

    def check(cert):
        p = vertices
        if not oracles.is_prime(p) or (cert.vertex_count, cert.graph.index()) != (p, p):
            return f"{name}: {cert.vertex_count} vertices, graph of index {cert.graph.index()}, expected prime {p}"
        table = cert.graph.coset_table().permutations
        err = oracles.check_table(table, relators)
        if err:
            return f"{name}: {err}"
        inverses = oracles.table_inverses(table)
        v, seen = 0, set()
        for _ in range(p):
            seen.add(v)
            v = oracles.trace(table, inverses, v, cert.word.letters)
        if v != 0 or len(seen) != p:
            return f"{name}: the word's powers do not sweep the {p} vertices"
        return None

    return Job(f"build {name}", run, check)


def _coprime_job(cert, other, m: int) -> Job:
    if gcd(m, cert.vertex_count) != 1:
        raise ValueError(f"m = {m} is not coprime to {cert.vertex_count}")

    def run(t):
        ok = t.call("families.verify_coprime_certificate",
                    st.verify_coprime_certificate, cert, other, m)
        t.count("families.verify_coprime_certificate.pairs", m * cert.vertex_count)
        return ok

    return Job("verify_coprime_certificate", run,
               lambda ok: check_equal("coprime certificate", ok, True))


def _fold_job(alphabet, words) -> Job:
    words = [st.Word(w) for w in words]
    reduced = [oracles.free_reduce(w.letters) for w in words]

    def run(t):
        gens = []
        for w in words:
            gens.append(t.call("words.free_reduce", st.free_reduce, w))
            t.count("words.free_reduce.letters", len(w))
        wedge = t.call("xgraph.wedge_of_words", st.wedge_of_words, alphabet, gens)
        folded, quotient = t.call("xgraph.fold", st.fold, wedge.graph)
        t.count("xgraph.fold.edges", len(wedge.graph.edges))
        cored = t.call("xgraph.core", st.core, st.BasedXGraph(folded, quotient(wedge.base)))
        canonical, _ = t.call("xgraph.canonicalize", st.canonicalize, cored)
        t.count("xgraph.canonicalize.vertices", canonical.vertex_count)
        return canonical

    def check(g):
        return oracles.check_folded_core(g.graph.edges, g.vertex_count, g.base, reduced)

    return Job("free folding", run, check)


def _round_trip_job(sg, pres) -> Job:
    def run(t):
        text = t.call("fileio.serialize_graph", st.serialize_graph, sg.graph)
        t.count("fileio.serialize_graph.bytes", len(text))
        parsed = t.call("fileio.parse_graph", st.parse_graph, text, pres.alphabet)
        t.count("fileio.parse_graph.bytes", len(text))
        back = t.call("subgroup.subgroup_from_graph", st.subgroup_from_graph, parsed, pres)
        t.count("subgroup.subgroup_from_graph.vertices", back.index())
        again = t.call("fileio.serialize_graph", st.serialize_graph, back.graph)
        t.count("fileio.serialize_graph.bytes", len(again))
        return text, again, back.index()

    def check(result):
        text, again, index = result
        if text != again:
            return "serialize -> parse -> serialize is not byte-identical"
        return check_equal("parsed index", index, sg.index())

    return Job("round trip", run, check)


def _cli_jobs(rng, work_dir, size, pres, specs, cert, type2) -> list[Job]:
    """CLI calls on files written here; expected answers come from the API
    objects and from tracing the tables."""
    work_dir.mkdir(parents=True, exist_ok=True)
    small = st.build_type1(pres["F2"], 0, size["basis_prime"]).graph

    def write(name, text):
        path = work_dir / name
        path.write_text(text)
        return str(path)

    f2_file = write("f2.pres", specs["F2"].presentation_file())
    psl_file = write("psl.pres", specs["PSL2Z"].presentation_file())
    cert_file = write("cert.graph", st.serialize_graph(cert.graph.graph))
    type2_file = write("type2.graph", st.serialize_graph(type2.graph))
    small_file = write("small.graph", st.serialize_graph(small.graph))

    p = cert.vertex_count
    table = cert.graph.coset_table().permutations
    orbit, v = [], 0
    for _ in range(p):
        orbit.append(v)
        v = table[0][v]
    basis = "".join(specs["F2"].text(w.letters) + "\n" for w in small.free_basis())
    jobs = [
        _cli_job(["-p", f2_file, "verify", cert_file], 0,
                 f"valid subgroup graph of index {p}\n"),
        _cli_job(["-p", f2_file, "index", cert_file], 0, f"{p}\n"),
        _cli_job(["-p", f2_file, "certify", cert_file, "--word", "a", "--prime", str(p)],
                 0, f"certificate ok: {p} vertices, orbit {orbit}\n"),
        _cli_job(["-p", f2_file, "basis", small_file], 0, basis),
    ]
    t2 = Subgroup(type2)
    w = random_word(rng, 2, rng.randint(20, 60))
    rep = type2.coset_reps[t2.end(w)].letters
    member = w + tuple(-lt for lt in reversed(rep))
    for word in (w, member):
        inside = t2.contains(word)
        jobs.append(_cli_job(["-p", psl_file, "membership", type2_file,
                              specs["PSL2Z"].text(word)],
                             0 if inside else 1, "member\n" if inside else "not a member\n"))
    return jobs


def _cli_job(argv, code: int, stdout: str) -> Job:
    def run(t):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = t.call("cli.main", cli.main, argv)
        if got not in (0, 1):
            t.count("cli.main.unexpected_exit")
        return got, out.getvalue(), err.getvalue()

    def check(result):
        got, out, err = result
        if (got, out) != (code, stdout):
            return f"stallings {' '.join(argv[2:4])}: exit {got}, stdout {out[:80]!r}, stderr {err[:200]!r}"
        return None

    return Job(f"cli {argv[2]}", run, check)
