"""Seeded inputs, operations and output oracles for the four workloads.

Every input is derived from the workload name and the input seed only, and
is written to files that the program reads; library-call operations load
those files through ``rpt.graph.load_graph_text`` during set-up.

An operation is one call of ``rpt.cli.main(argv)`` or of one public library
function.  Its observable output is its exit code and its stdout text.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# Digests are recorded for this many input seeds; ``--seed`` folds onto them.
# Tune a change on seed 1; seed 2 is held back to confirm a claim.
SHIPPED_SEEDS = 16

QUARTER = Fraction(1, 4)
FULLPAIR_C = Fraction(1, 2)
FULLPAIR_EPS = Fraction(1, 8)

# Valid certificates on which `rpt check` fails at the parent commit.  They
# stay in the workload and count as failed operations until the defect is
# fixed; their expected outcome is the correct verdict, not today's.
KNOWN_DEFECTS = {
    "check:key_lemma_result:pair": (
        "rpt check exits 1 with \"name 'is_tight_to' is not defined\" "
        "(the name is used in rpt/cli.py but never imported)"
    ),
}

COUNT_CASES = [  # (patterns, n, p)
    (("K3",), 500, Fraction(1, 2)),
    (("P4", "C4"), 100, Fraction(1, 2)),
    (("K4",), 120, Fraction(1, 2)),
    (("C5",), 70, Fraction(1, 2)),
    (("P5",), 60, Fraction(1, 2)),
    (("P4",), 150, Fraction(1, 5)),
    (("C5",), 100, Fraction(1, 5)),
]
NAMED_PATTERNS = ["K1", "K2", "K3", "K4", "K5", "P2", "P3", "P4", "P5", "C4", "C5"]

# (name, n, p) random graphs and (name, m, n, N) hard instances; each is run
# through `theorem` with one pattern and `keylemma --transcript` with another
# so that every pattern meets both commands.
PIPELINE_RANDOM = [("g80_p10", 80, Fraction(1, 10)), ("g120_p50", 120, Fraction(1, 2)),
                   ("g80_p90", 80, Fraction(9, 10))]
PIPELINE_HARD = [("hard40_120", 40, 120, 1), ("hard80_160", 80, 160, 2)]
THEOREM_PATTERNS = ["K2", "K3", "P4", "C5", "K2"]
KEYLEMMA_PATTERNS = ["P4", "C5", "K2", "K3", "P4"]
PIPELINE_D = 2
EXTRACT_OPS = [("density", "g120_p50"), ("restricted", "hard80_160"), ("peel", "hard40_120"),
               ("peel", "g80_p90")]
FULLPAIR_SIDES = [(14, 15, "full"), (15, 17, "empty"), (16, 17, "full"), (17, 15, "empty")]

CONSTANTS_CASES = [  # (h, eps, eta, theta)
    (2, "1/4", "1/4", "1/4"),
    (3, "1/4", "1/4", "1/4"),
    (3, "1/8", "1/4", "1/4"),
    (2, "1/100", "1/4", "1/4"),
    # two more cases keep each h=3 ledger near a third of the pass
    (2, "1/4", "1/4", "1/8"),
    (3, "1/5", "1/4", "1/4"),
]


@dataclass
class Op:
    """One timed operation: either `rpt` argv or a library call that
    returns the text it would print."""

    op_id: str
    argv: list[str] | None = None
    call: Callable[[], str] | None = None
    # (certificate kind, graph path, pattern) when stdout is a certificate
    cert: tuple[str, str, str | None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    # Output oracles run once on the gate pass: op_id -> check(stdout) -> problem
    oracles: dict[str, Callable[[str], str | None]] = field(default_factory=dict)
    # Oracles independent of any operation's output: () -> list of problems
    self_checks: list[Callable[[], list[str]]] = field(default_factory=list)
    # For check ops: op_id -> expected exit code from the library verifier
    verdicts: dict[str, int] = field(default_factory=dict)


def input_seed(seed: int) -> int:
    return seed % SHIPPED_SEEDS


def _rng(workload: str, seed: int, name: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{name}")


def _write_graph(path: str, n: int, edges) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        fh.writelines(f"{u} {v}\n" for u, v in sorted(edges))
    return path


def _gnp_edges(rng: random.Random, n: int, p: Fraction):
    cut = float(p)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < cut]


class Builder:
    """Writes one workload's inputs under ``workdir`` using the ``rpt``
    package passed in (the set-up may re-import it)."""

    def __init__(self, rpt, workload: str, seed: int, workdir: str):
        self.rpt = rpt
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def rng(self, name: str) -> random.Random:
        return _rng(self.workload, self.seed, name)

    def gnp(self, name: str, n: int, p: Fraction) -> str:
        return _write_graph(self.path(name + ".el"), n, _gnp_edges(self.rng(name), n, p))

    def load(self, path: str):
        with open(path, encoding="utf-8") as fh:
            return self.rpt.graph.load_graph_text(fh.read())

    def run_cli(self, argv: list[str]) -> str:
        code, out, err = run_cli_captured(self.rpt, argv)
        if code != 0:
            raise RuntimeError(f"set-up command rpt {' '.join(argv)} exited {code}: {err.strip()}")
        return out


def run_cli_captured(rpt, argv: list[str]) -> tuple[int, str, str]:
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rpt.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- count


def build_count(b: Builder) -> Workload:
    rpt = b.rpt
    w = Workload([])
    for patterns, n, p in COUNT_CASES:
        path = b.gnp(f"count_n{n}_p{p.numerator}-{p.denominator}", n, p)
        for pat in patterns:
            w.ops.append(Op(f"count:{pat}:n{n}:p{p}",
                            ["count", "--graph", path, "--pattern", pat, "--json"]))
    small = [(b.gnp(f"oracle_n{n}_{k}", n, Fraction(1, 2)), n)
             for k, n in enumerate((9, 10, 11, 12))]

    def count_vs_naive() -> list[str]:
        problems = []
        for path, n in small:
            g = b.load(path)
            for pat in NAMED_PATTERNS:
                if pat[1:] == "5" and n > 10:
                    continue  # bounds the oracle's cost: 5-vertex patterns on n <= 10 only
                code, out, _ = run_cli_captured(rpt, ["count", "--graph", path, "--pattern", pat,
                                                      "--json"])
                want = rpt.adversarial.naive_count(g, rpt.graph.named_pattern(pat))
                if code != 0 or json.loads(out)["value"] != str(want):
                    problems.append(f"count {pat} on n={n}: rpt gave {out.strip()!r}, "
                                    f"naive_count {want}")
        return problems

    w.self_checks.append(count_vs_naive)
    return w


# ---------------------------------------------------------------- pipeline


@dataclass
class PipelineInputs:
    graphs: dict[str, str]  # name -> edge-list path
    pair_graphs: list[tuple[str, int, int, str]]  # (path, mask a, mask b, polarity)


def _planted_pair(rng: random.Random, na: int, nb: int, polarity: str):
    """Sides A, B that are just (1/2, 1/8)-full (or -empty): B splits into
    B_hi, joined to all of A, and B_lo, with no edge to A (the reverse for
    "empty"), and B_lo is as large as fullness allows.  Insides are random;
    two isolated and two universal outsiders follow.  A move of one vertex
    can then break the pair, which the check workload's mutants rely on."""
    kb = -(-nb // 2)
    lo = kb - -(-kb // 8)  # fewest B_hi vertices in a kb-subset keep density >= 1/8
    # B_lo sits at the end of B so that the exact check's cost is the same for every seed
    b_lo = set(range(na + nb - lo, na + nb))
    joined = (lambda v: v not in b_lo) if polarity == "full" else (lambda v: v in b_lo)
    edges = [(u, v) for u in range(na + nb) for v in range(u + 1, na + nb)
             if ((u < na) == (v < na) and rng.random() < 0.5) or (u < na <= v and joined(v))]
    n = na + nb + 4
    for u in (na + nb + 2, na + nb + 3):
        edges += [(v, u) for v in range(u)]
    a = (1 << na) - 1
    return n, edges, a, ((1 << (na + nb)) - 1) ^ a


def build_pipeline_inputs(b: Builder) -> PipelineInputs:
    graphs = {name: b.gnp(name, n, p) for name, n, p in PIPELINE_RANDOM}
    for name, m, n, big_n in PIPELINE_HARD:
        path = b.path(name + ".el")
        b.run_cli(["counterexample", "--m", str(m), "--n", str(n), "--big-n", str(big_n),
                   "--seed", str(b.seed), "--out", path, "--json"])
        graphs[name] = path
    pairs = []
    for na, nb, polarity in FULLPAIR_SIDES:
        n, edges, a, bm = _planted_pair(b.rng(f"pair{na}_{nb}"), na, nb, polarity)
        path = _write_graph(b.path(f"pair{na}_{nb}.el"), n, edges)
        pairs.append((path, a, bm, polarity))
    return PipelineInputs(graphs, pairs)


def pipeline_ops(b: Builder, inputs: PipelineInputs) -> list[Op]:
    rpt = b.rpt
    ops = []
    d = str(PIPELINE_D)
    for k, (name, path) in enumerate(inputs.graphs.items()):
        thm, kl = THEOREM_PATTERNS[k], KEYLEMMA_PATTERNS[k]
        ops.append(Op(f"theorem:{name}:{thm}",
                      ["theorem", "--graph", path, "--pattern", thm, "--d", d, "--json"],
                      cert=("removal_result", path, thm)))
        ops.append(Op(f"keylemma:{name}:{kl}",
                      ["keylemma", "--graph", path, "--pattern", kl, "--d", d, "--transcript",
                       "--json"],
                      cert=("key_lemma_result", path, kl)))
    for op, name in EXTRACT_OPS:
        path = inputs.graphs[name]
        ops.append(Op(f"extract:{op}:{name}",
                      ["extract", "--graph", path, "--pattern", "K2", "--op", op, "--json"],
                      cert=("peel_chain", path, "K2") if op == "peel" else None))
    for name, m, n, big_n in PIPELINE_HARD:
        ops.append(Op(f"counterexample:{name}",
                      ["counterexample", "--m", str(m), "--n", str(n), "--big-n", str(big_n),
                       "--seed", str(b.seed), "--json"]))
    params = rpt.fullpair.FullPairParams(FULLPAIR_C, FULLPAIR_EPS, min_frac=Fraction(1, 8))
    for path, a, bm, polarity in inputs.pair_graphs:
        g = b.load(path)

        def call(g=g, a=a, bm=bm, polarity=polarity) -> str:
            cert = rpt.fullpair.find_full_pair(g, a, bm, params, polarity=polarity)
            return rpt.serialize.dumps(rpt.serialize.full_pair_to_json(cert)) + "\n"

        name = os.path.basename(path)[:-3]
        ops.append(Op(f"find_full_pair:{name}:{polarity}", call=call,
                      cert=("full_pair", path, None)))
    return ops


def _key_params(rpt, pattern: str, n: int, obj: dict):
    """The KeyParams `rpt keylemma` builds in practical mode."""
    return rpt.keypartition.KeyParams.practical(
        rpt.graph.named_pattern(pattern), Fraction(obj["eps"]), eta=Fraction(obj["eta"]),
        theta=Fraction(obj["theta"]), delta_prime=Fraction(1, max(8, n)))


def _key_result(rpt, obj: dict, params):
    ids = rpt.graph.mask_from_ids
    pairs = tuple((ids(a), ids(b)) for a, b in zip(obj["A"], obj["B"]))
    return rpt.keypartition.KeyLemmaResult(ids(obj["S"]), pairs, tuple(ids(c) for c in obj["C"]),
                                           params, int(obj["d"]))


def peel_chain_ok(rpt, g, obj: dict) -> bool:
    """Definition-direct check of an exported peel chain."""
    data = rpt.serialize.peel_chain_from_json(obj)
    union = data["leftover"]
    for peel in data["peels"]:
        if not peel or peel & union or not rpt.predicates.is_restricted(g, peel, data["eps"]):
            return False
        union |= peel
    return (union == g.full_mask
            and data["leftover"].bit_count() <= data["eta"] * g.n
            and data["phi_bound"] == rpt.extraction.phi(data["delta"], data["eta"])
            and len(data["peels"]) <= data["phi_bound"])


def library_verdict(rpt, kind: str, g, obj: dict, pattern: str | None = None) -> bool:
    """Does the library (not `rpt check`) accept this certificate?"""
    s = rpt.serialize
    try:
        if kind == "removal_result":
            s.removal_result_from_json(obj).verify(g)
            return True
        if kind == "key_lemma_result":
            res = _key_result(rpt, obj, _key_params(rpt, pattern, g.n, obj))
            rpt.keypartition.verify_key_result(g, rpt.graph.named_pattern(pattern), res)
            return True
        if kind == "peel_chain":
            return peel_chain_ok(rpt, g, obj)
        if kind == "path_partition":
            return rpt.assembly.verify_path_partition(g, s.path_partition_from_json(obj)).ok
        if kind == "restricted_partition":
            return rpt.assembly.verify_restricted_partition(
                g, s.restricted_partition_from_json(obj))[0]
        if kind == "full_pair":
            return rpt.predicates.is_full_pair(g, s.full_pair_from_json(obj), method="exact").ok
        if kind == "blowup":
            return rpt.predicates.verify_blowup(g, s.blowup_from_json(obj)).ok
        if kind == "blowup_found":
            cert = s.blowup_from_json(obj["certificate"])
            if not rpt.predicates.verify_blowup(g, cert).ok:
                return False
            count = rpt.graph.count_embeddings_into_parts(g, cert.pattern, cert.parts)
            return str(count) == obj["copy_count"] and count >= Fraction(obj["copy_bound"])
    except (AssertionError, ValueError):
        return False
    raise ValueError(f"no library verifier for {kind!r}")


def build_pipeline(b: Builder) -> Workload:
    rpt = b.rpt
    inputs = build_pipeline_inputs(b)
    w = Workload(pipeline_ops(b, inputs))
    for op in w.ops:
        if op.cert is not None:
            def oracle(out: str, cert=op.cert) -> str | None:
                kind, path, pattern = cert
                obj = json.loads(out)
                if obj.get("kind") != kind:
                    return f"output kind {obj.get('kind')!r}, expected {kind!r}"
                if not library_verdict(rpt, kind, b.load(path), obj, pattern):
                    return f"the library verifier rejects the produced {kind}"
                return None
        elif op.op_id.startswith("extract:restricted"):
            def oracle(out: str, path=op.argv[op.argv.index("--graph") + 1]) -> str | None:
                obj = json.loads(out)
                mask = rpt.graph.mask_from_ids(obj["vertices"])
                ok = rpt.predicates.is_restricted(b.load(path), mask, Fraction(obj["eps"]))
                return None if ok and mask.bit_count() == obj["size"] else "set is not restricted"
        elif op.op_id.startswith("counterexample:"):
            def oracle(out: str) -> str | None:
                return None if json.loads(out)["ok"] else "hard instance failed its verification"
        else:
            continue
        w.oracles[op.op_id] = oracle
    return w


# ---------------------------------------------------------------- check


def _set_fields(kind: str, obj: dict) -> list[list[int]]:
    """The vertex lists of a certificate, as references into ``obj``."""
    if kind == "removal_result":
        return [obj["removed"], *obj["parts"]]
    if kind == "key_lemma_result":
        return [obj["S"], *obj["A"], *obj["B"], *obj["C"]]
    if kind == "peel_chain":
        return [obj["leftover"], *obj["peels"]]
    if kind == "path_partition":
        return list(obj["blocks"])
    if kind == "restricted_partition":
        return list(obj["parts"])
    if kind == "full_pair":
        return [obj["a"], obj["b"]]
    if kind == "blowup":
        return list(obj["parts"])
    if kind == "blowup_found":
        return list(obj["certificate"]["parts"])
    raise ValueError(kind)


def make_mutant(rpt, rng: random.Random, kind: str, g, obj: dict, pattern: str | None,
                max_tries: int = 200) -> dict:
    """A copy of ``obj`` with one vertex moved that the library verifier
    rejects: between two of its sets, from outside them into one, or, when
    no such move is rejected, out of its set."""
    sets = _set_fields(kind, obj)
    outside = sorted(set(range(g.n)).difference(*sets))
    moves = [(si, v, di) for si, src in enumerate(sets) for v in src
             for di in range(len(sets)) if di != si]
    moves += [(None, v, di) for v in outside for di in range(len(sets))]
    drops = [(si, v, None) for si, src in enumerate(sets) for v in src]
    rng.shuffle(moves)
    rng.shuffle(drops)
    if kind in ("full_pair", "blowup", "blowup_found"):
        # Moving inside these sets rarely breaks them; outsiders do.  A fixed
        # order keeps the cost of refuting the mutant the same for every seed.
        moves.sort(key=lambda m: (m[0] is not None, m[1], m[2]))
    for si, v, di in moves[:max_tries] + drops[:max_tries]:
        mutant = json.loads(json.dumps(obj))
        msets = _set_fields(kind, mutant)
        if si is not None:
            msets[si].remove(v)
            if not msets[si]:
                continue
        if di is not None:
            msets[di].append(v)
            msets[di].sort()
        if not library_verdict(rpt, kind, g, mutant, pattern):
            return mutant
    raise RuntimeError(f"no rejected one-vertex move found for a {kind} certificate")


def _crafted_blowup(rpt, rng: random.Random, h: int):
    """A t = h-1 working partition whose leftover vertex sees every D_i
    (D_i cliques, completely joined), plus isolated outsiders in C_1:
    run_key_lemma must finish with a verified h-part blowup."""
    sizes = [rng.randint(10, 13) for _ in range(h - 1)]
    n_out = rng.randint(3, 5)
    blocks, start = [], 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    apex = start
    core = [v for blk in blocks for v in blk]
    edges = [(u, v) for i, u in enumerate(core) for v in core[i + 1:]]
    edges += [(u, apex) for u in core]
    n = apex + 1 + n_out
    g = rpt.graph.Graph.from_edges(n, edges)
    pat = rpt.graph.named_pattern(f"K{h}")
    params = rpt.keypartition.KeyParams.practical(pat, QUARTER)
    ids = rpt.graph.mask_from_ids
    outsiders = ids(range(apex + 1, n))
    start_p = rpt.keypartition.MNTPartition((), (), (outsiders,), tuple(ids(b) for b in blocks),
                                            1 << apex, params, 0)
    found = rpt.keypartition.run_key_lemma(g, pat, params, 0, start=start_p)
    if not isinstance(found, rpt.keypartition.BlowupFound):
        raise RuntimeError("crafted working partition did not end in a blowup")
    return g, found


def _crafted_path_partition(rpt, rng: random.Random):
    """W_0 sparse (degree <= 4), W_1 a near-clique of 12, W_2 one vertex
    joined to W_1 only: a valid (2, 1/4)-path-partition."""
    n0 = rng.randint(36, 44)
    edges, deg = [], [0] * n0
    for u in range(n0):
        for v in range(u + 1, n0):
            if deg[u] < 4 and deg[v] < 4 and rng.random() < 0.1:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
    w1 = list(range(n0, n0 + 12))
    missing = {tuple(sorted(rng.sample(w1, 2)))}
    edges += [(u, v) for i, u in enumerate(w1) for v in w1[i + 1:] if (u, v) not in missing]
    apex = n0 + 12
    edges += [(u, apex) for u in w1]
    ids = rpt.graph.mask_from_ids
    g = rpt.graph.Graph.from_edges(apex + 1, edges)
    pp = rpt.assembly.PathPartition((ids(range(n0)), ids(w1), 1 << apex), QUARTER)
    return g, pp


def _crafted_pair_key_result(rpt, rng: random.Random):
    """A valid key-lemma result with one (A, B) pair: A independent, B at
    most 2 neighbours per vertex into A, C a clique, one removed vertex."""
    na, nb, nc = rng.randint(24, 30), rng.randint(2, 5), rng.randint(8, 12)
    a = list(range(na))
    bs = list(range(na, na + nb))
    c = list(range(na + nb, na + nb + nc))
    removed = na + nb + nc
    edges = [(u, v) for i, u in enumerate(bs) for v in bs[i + 1:] if rng.random() < 0.5]
    for v in bs:
        edges += [(u, v) for u in rng.sample(a, 2)]
    edges += [(u, v) for i, u in enumerate(c) for v in c[i + 1:]]
    edges += [(u, v) for u in a + bs for v in c if rng.random() < 0.3]
    edges += [(u, removed) for u in range(removed) if rng.random() < 0.5]
    g = rpt.graph.Graph.from_edges(removed + 1, edges)
    k2 = rpt.graph.named_pattern("K2")
    params = rpt.keypartition.KeyParams.practical(k2, QUARTER, delta_prime=Fraction(1, 8))
    ids = rpt.graph.mask_from_ids
    res = rpt.keypartition.KeyLemmaResult(1 << removed, ((ids(a), ids(bs)),), (ids(c),), params, 1)
    rpt.keypartition.verify_key_result(g, k2, res)  # raises if the construction is wrong
    return g, rpt.serialize.key_result_to_json(res)


def check_ok_line(rpt, kind: str) -> str:
    """What `rpt check --json` prints for a valid certificate."""
    return rpt.serialize.dumps({"kind": "check_result", "certificate": kind, "ok": True,
                                "detail": ""}) + "\n"


def build_check(b: Builder) -> Workload:
    rpt = b.rpt
    s = rpt.serialize
    inputs = build_pipeline_inputs(b)
    w = Workload([])
    certs = []  # (name, kind, graph path, obj, pattern)

    # Certificates produced by the pipeline's own commands.
    for op in pipeline_ops(b, inputs):
        if op.cert is not None:
            kind, path, pattern = op.cert
            obj = json.loads(op.call() if op.call is not None else b.run_cli(op.argv))
            certs.append((op.op_id.split(":", 1)[1].replace(":", "-"), kind, path, obj, pattern))

    # Certificates from library producers and seeded constructions.
    for name in ("g120_p50", "hard40_120"):
        g = b.load(inputs.graphs[name])
        part = rpt.assembly.base_partition(g, rpt.assembly.PathPartition.trivial(g, QUARTER),
                                           QUARTER)
        certs.append((f"base-{name}", "restricted_partition", inputs.graphs[name],
                      s.restricted_partition_to_json(part), None))
    g, pp = _crafted_path_partition(rpt, b.rng("path_partition"))
    path = _write_graph(b.path("path_partition.el"), g.n, g.edges())
    certs.append(("crafted", "path_partition", path, s.path_partition_to_json(pp), None))
    for h in (2, 3):
        g, found = _crafted_blowup(rpt, b.rng(f"blowup{h}"), h)
        path = _write_graph(b.path(f"blowup{h}.el"), g.n, g.edges())
        certs.append((f"K{h}", "blowup", path, s.blowup_to_json(found.certificate), None))
        certs.append((f"K{h}", "blowup_found", path, s.blowup_found_to_json(found), None))

    rng = b.rng("mutants")
    for name, kind, path, obj, pattern in certs:
        g = b.load(path)
        for label, cert, verdict in (
            ("valid", obj, 0),
            ("mutant", make_mutant(rpt, rng, kind, g, obj, pattern), 2),
        ):
            cert_path = b.path(f"{kind}-{name}-{label}.json")
            with open(cert_path, "w", encoding="utf-8") as fh:
                json.dump(cert, fh, sort_keys=True)
            op_id = f"check:{kind}:{name}:{label}"
            w.ops.append(Op(op_id, ["check", "--graph", path, "--cert", cert_path, "--json"]))
            w.verdicts[op_id] = verdict

            def self_check(kind=kind, path=path, cert=cert, pattern=pattern, verdict=verdict,
                           op_id=op_id) -> list[str]:
                ok = library_verdict(rpt, kind, b.load(path), cert, pattern)
                return [] if ok == (verdict == 0) else [f"{op_id}: library verdict {ok}"]

            w.self_checks.append(self_check)

    g, obj = _crafted_pair_key_result(rpt, b.rng("pair_key_result"))
    path = _write_graph(b.path("pair_key_result.el"), g.n, g.edges())
    cert_path = b.path("key_lemma_result-pair.json")
    with open(cert_path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    op_id = "check:key_lemma_result:pair"
    w.ops.append(Op(op_id, ["check", "--graph", path, "--cert", cert_path, "--json"]))
    w.verdicts[op_id] = 0
    w.self_checks.append(
        lambda: [] if library_verdict(rpt, "key_lemma_result", b.load(path), obj, "K2")
        else [f"{op_id}: verify_key_result rejects the pair certificate"])
    return w


# ---------------------------------------------------------------- constants


def _log2_exact(x: Fraction) -> float:
    """log2 of a positive rational of any size, to double precision."""
    def lg(k: int) -> float:
        shift = max(0, k.bit_length() - 60)
        return math.log2(k >> shift) + shift
    return lg(x.numerator) - lg(x.denominator)


def build_constants(b: Builder) -> Workload:
    rpt = b.rpt
    w = Workload([])
    for h, eps, eta, theta in CONSTANTS_CASES:
        op_id = f"constants:h{h}:eps{eps}:eta{eta}:theta{theta}"
        w.ops.append(Op(op_id, ["constants", "--h", str(h), "--eps", eps, "--eta", eta,
                                "--theta", theta, "--json"]))

        def oracle(out: str) -> str | None:
            """Every entry with an exact value must agree with its log2."""
            for name, entry in json.loads(out)["entries"].items():
                if entry["exact"] is None:
                    continue
                want = _log2_exact(Fraction(entry["exact"]))
                got = float(entry["log2"])
                if abs(want - got) > 1e-9 * max(1.0, abs(want)):
                    return f"entry {name}: log2 {got} but exact value has log2 {want}"
            return None

        w.oracles[op_id] = oracle
    return w


BUILDERS = {
    "count": build_count,
    "pipeline": build_pipeline,
    "check": build_check,
    "constants": build_constants,
}
