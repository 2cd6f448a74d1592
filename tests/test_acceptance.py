"""Acceptance suite: one test per criterion, one [PASS]/[FAIL] line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  All
tolerances are pinned here; every expected value is either computed by an
independent oracle inside the test or is a closed form checked exactly
with rationals.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

import mpmath
import pytest

from conftest import all_small_patterns, random_graph, random_pattern
from rpt.adversarial import (
    HardInstanceSpec,
    core_has_large_weak_subset,
    exact_n_restricted,
    generate_hard_graph,
    min_removal_oracle,
    naive_count,
)
from rpt.assembly import run_main_theorem
from rpt.cli import main as cli_main
from rpt.embedding import (
    EmbeddingParams,
    TightPairWitness,
    blowup_copy_bound,
    tight_pair_copy_threshold,
    validate_witness,
    witness_or_count,
)
from rpt.extraction import (
    ExtractionBudget,
    extract_restricted_exact,
    find_low_or_high_density_subset,
    peel_chain,
)
from rpt.graph import (
    Graph,
    Pattern,
    complement,
    count_embeddings_into_parts,
    count_induced_copies,
    degree_range,
    edge_density,
    mask_from_ids,
    named_pattern,
    to_edge_list,
)
from rpt.keypartition import (
    BlowupFound,
    KeyLemmaResult,
    KeyParams,
    MNTPartition,
    advance_or_finish,
    run_key_lemma,
    verify_key_result,
    verify_mnt_partition,
)
from rpt.ledger import build_ledger, gamma, phi, shrink_fraction
from rpt.predicates import (
    BlowupCertificate,
    is_restricted,
    is_tight_to,
    verify_blowup,
)

K2 = named_pattern("K2")
K3 = named_pattern("K3")
QUARTER = Fraction(1, 4)


def report(num: int, description: str, violations: list):
    status = "PASS" if not violations else "FAIL"
    print(f"\ncriterion {num:2d} [{status}] {description}")
    assert not violations, f"criterion {num}: {violations[:5]}"


def test_c01_counting_oracle_equivalence(small_patterns):
    """count_induced_copies == naive_count on the full small grid, plus
    closed forms; runtime under 60 s."""
    start = time.monotonic()
    violations = []
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        g = random_graph(n, rng.uniform(0.1, 0.9), seed)
        for pat in small_patterns:
            if count_induced_copies(g, pat) != naive_count(g, pat):
                violations.append((seed, pat.graph.edges()))
    for seed in range(40):
        g = random_graph(7, 0.5, 1000 + seed)
        if count_induced_copies(g, K2) != 2 * g.edge_count():
            violations.append(("K2 closed form", seed))
    for n in range(3, 8):
        if count_induced_copies(Graph.complete(n), K3) != n * (n - 1) * (n - 2):
            violations.append(("K3 closed form", n))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        violations.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(1, f"counting oracle equivalence ({elapsed:.1f}s)", violations)


def test_c02_dichotomy_soundness():
    """500 seeded instances: every witness re-verifies, every count arm
    equals the exact embedding count and meets its certified bound."""
    violations = []
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        h = rng.choice([2, 3])
        sizes = [rng.randint(1, 12) for _ in range(h)]
        n = sum(sizes)
        g = random_graph(n, rng.uniform(0.1, 0.9), seed)
        masks, at = [], 0
        for s in sizes:
            masks.append(mask_from_ids(range(at, at + s)))
            at += s
        pat = random_pattern(h, seed + 1)
        params = EmbeddingParams(
            tuple(Fraction(rng.randint(1, 3), 4) for _ in range(h - 1)),
            tuple(Fraction(rng.randint(1, 3), 4) for _ in range(h - 1)),
        )
        res = witness_or_count(g, pat, masks, params)
        try:
            if isinstance(res, TightPairWitness):
                validate_witness(g, pat, masks, params, res)
            else:
                if res.count != count_embeddings_into_parts(g, pat, masks):
                    violations.append((seed, "count mismatch"))
                if res.count < res.bound:
                    violations.append((seed, "bound failed"))
        except AssertionError as exc:
            violations.append((seed, str(exc)))
    report(2, "dichotomy soundness on 500 seeded instances", violations)


def test_c03_blowup_copy_lower_bound():
    """200 seeded verified (eps^h, eps)-blowups meet the copy bound."""
    violations = []
    for seed in range(200):
        rng = random.Random(20_000 + seed)
        h = rng.choice([2, 3])
        eps = rng.choice([Fraction(1, 4), Fraction(1, 8)])
        sizes = [rng.randint(1, 10 if h == 2 else 6) for _ in range(h)]
        pat = random_pattern(h, seed + 5)
        offs, masks, n = [], [], 0
        for s in sizes:
            offs.append(n)
            masks.append(mask_from_ids(range(n, n + s)))
            n += s
        edges = []
        for i in range(h):
            for j in range(i + 1, h):
                if pat.label_edge(i + 1, j + 1):
                    edges += [
                        (u, v)
                        for u in range(offs[i], offs[i] + sizes[i])
                        for v in range(offs[j], offs[j] + sizes[j])
                    ]
        g = Graph.from_edges(n, edges)
        cert = BlowupCertificate(tuple(masks), eps**h, eps, pat.prefix(h))
        if not verify_blowup(g, cert).ok:
            violations.append((seed, "construction failed to verify"))
            continue
        count = count_embeddings_into_parts(g, pat, cert.parts)
        if count < blowup_copy_bound(h, eps, sizes):
            violations.append((seed, "copy bound failed"))
    report(3, "copy lower bound on 200 verified blowups", violations)


def test_c04_extraction_postconditions():
    """100-graph corpus (n <= 80): density claims exact; flagged runs meet
    eta^s |G|; exact-size extraction lands on ceil(delta |G|), restricted."""
    violations = []
    for seed in range(100):
        rng = random.Random(30_000 + seed)
        n = rng.randint(2, 80)
        g = random_graph(n, rng.uniform(0.05, 0.95), seed)
        pat = named_pattern(rng.choice(["K2", "K3"]))
        if n < pat.size:
            pat = K2
        budget = ExtractionBudget(QUARTER, QUARTER, 7)
        res = find_low_or_high_density_subset(g, pat, budget)
        dens = edge_density(g, res.vertices)
        if res.side == "low" and dens > QUARTER:
            violations.append((seed, "low density claim"))
        if res.side == "high" and dens < 1 - QUARTER:
            violations.append((seed, "high density claim"))
        floor = shrink_fraction(pat.size, QUARTER) ** 7 * n
        if res.guaranteed and res.vertices.bit_count() < floor:
            violations.append((seed, "size guarantee"))
        delta = Fraction(2, max(16, n))
        eps = Fraction(1, 2)
        try:
            t = extract_restricted_exact(g, K2, eps, delta)
        except Exception as exc:
            violations.append((seed, f"extract failed: {exc}"))
            continue
        want = (delta * n).__ceil__()
        if t.bit_count() != want:
            violations.append((seed, "size not exact"))
        if not is_restricted(g, t, eps):
            violations.append((seed, "not restricted"))
        if n >= 2 and (n - t.bit_count()) * 2 < n:
            violations.append((seed, "removed more than half"))
    report(4, "extraction postconditions on the 100-graph corpus", violations)


def test_c05_peel_chains():
    """Chain invariants on a seeded corpus plus the phi spot values."""
    violations = []
    if phi(Fraction(1, 2), QUARTER) != 2:
        violations.append("phi(1/2,1/4) != 2")
    if phi(Fraction(1, 10), Fraction(1, 2)) != 7:
        violations.append("phi(1/10,1/2) != 7")
    for seed in range(60):
        rng = random.Random(40_000 + seed)
        n = rng.randint(1, 30)
        g = random_graph(n, rng.uniform(0.1, 0.9), seed)
        eta = Fraction(rng.randint(1, 3), 4)
        delta = Fraction(1, max(2, n))
        pc = peel_chain(g, K2, Fraction(1, 2), eta, delta)
        union = pc.leftover
        for peel in pc.peels:
            if not peel or peel & union:
                violations.append((seed, "overlap/empty peel"))
            union |= peel
            if not is_restricted(g, peel, Fraction(1, 2)):
                violations.append((seed, "peel not restricted"))
        if union != g.full_mask:
            violations.append((seed, "peels not exhaustive"))
        if pc.leftover.bit_count() > eta * n:
            violations.append((seed, "leftover too large"))
        if pc.length > phi(delta, eta):
            violations.append((seed, "chain longer than phi"))
    report(5, "peel chain invariants and phi spot values", violations)


def test_c06_hard_instance_reproduction():
    """The counterexample family at desk scale, fully re-verified."""
    violations = []
    for n in (20, 40):
        spec = HardInstanceSpec(1, 20, n, Fraction(1, 20), K2, seed=7)
        inst = generate_hard_graph(spec)
        g = inst.graph
        if count_induced_copies(g, K2) > 2 * 20 * n:
            violations.append((n, "ind bound"))
        from rpt.graph import induced_subgraph

        f, _ = induced_subgraph(g, inst.core)
        has, _ = core_has_large_weak_subset(f, Fraction(6, 20), 20)
        if has:
            violations.append((n, "core has a weak subset"))
        size = g.n
        eps = spec.eps
        gmax = degree_range(g, g.full_mask)[1]
        cmax = degree_range(complement(g), g.full_mask)[1]
        if not (gmax > eps * size and cmax > eps * size):
            violations.append((n, "whole graph unexpectedly restricted"))
    spec = HardInstanceSpec(2, 10, 12, Fraction(1, 20), K2, seed=3, allow_small_core=True)
    inst = generate_hard_graph(spec)
    ok, _ = exact_n_restricted(inst.graph, 2, spec.eps, budget=12)
    if ok:
        violations.append(("relaxed", "exhaustively (2,eps)-restricted"))
    report(6, "hard-instance reproduction at desk scale", violations)


def _key_corpus():
    """50 instances: random graphs, hard instances, crafted blowup starts."""
    corpus = []
    for seed in range(40):
        rng = random.Random(50_000 + seed)
        n = rng.randint(6, 26)
        g = random_graph(n, rng.uniform(0.15, 0.85), seed)
        params = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, max(8, n)))
        corpus.append((g, K2, params, rng.randint(1, 4), None))
    for seed in (7, 8, 9, 11):
        spec = HardInstanceSpec(1, 20, 40, Fraction(1, 20), K2, seed=seed)
        g = generate_hard_graph(spec).graph
        params = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, 8))
        corpus.append((g, K2, params, 20, None))
    for seed in range(3):
        rng = random.Random(60_000 + seed)
        n = rng.randint(9, 15)
        g = random_graph(n, rng.uniform(0.3, 0.7), seed + 1)
        params = KeyParams.practical(K3, QUARTER, delta_prime=Fraction(1, n))
        corpus.append((g, K3, params, 2, None))
    for seed in range(3):
        # crafted t=1 state whose leftover has full adjacency into D_1
        rng = random.Random(70_000 + seed)
        core = rng.randint(8, 12)
        edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
        edges += [(i, core) for i in range(core)]
        g = Graph.from_edges(core + 1, edges)
        params = KeyParams.practical(K2, QUARTER)
        start = MNTPartition(
            (), (), (), (mask_from_ids(range(core)),), 1 << core, params, 0
        )
        corpus.append((g, K2, params, 0, start))
    return corpus


def test_c07_key_lemma_structural_soundness():
    """50-instance corpus: every intermediate partition verifies, final
    outputs satisfy every clause, blowups come exactly verified."""
    violations = []
    corpus = _key_corpus()
    assert len(corpus) == 50
    for idx, (g, pat, params, d, start) in enumerate(corpus):
        h = pat.size
        try:
            # drive the iteration manually so every intermediate state is
            # independently re-verified here, not only inside the runner
            p = start if start is not None else MNTPartition.trivial(g, params, d)
            steps = 0
            outcome = None
            while True:
                rep = verify_mnt_partition(g, pat, p)
                if not rep.ok:
                    violations.append((idx, f"intermediate clause {rep.clause}"))
                    break
                result, _rec = advance_or_finish(g, pat, p)
                steps += 1
                if isinstance(result, KeyLemmaResult):
                    outcome = result
                    break
                p = result
                if p.t == h:
                    outcome = "blowup"
                    break
                if steps > h:
                    violations.append((idx, "did not terminate within h steps"))
                    break
            if outcome == "blowup":
                cert = BlowupCertificate(
                    p.d_sets, params.eps_schedule[h], params.xi, pat.prefix(h)
                )
                chk = verify_blowup(g, cert)
                if not chk.ok or not chk.exact:
                    violations.append((idx, "blowup certificate not exactly verified"))
            elif isinstance(outcome, KeyLemmaResult):
                if outcome.removed.bit_count() > d:
                    violations.append((idx, "removal exceeds budget"))
                if len(outcome.pairs) > comb(h, 2):
                    violations.append((idx, "pair count"))
                if not params.part_bound_holds(len(outcome.singles)):
                    violations.append((idx, "single count"))
                verify_key_result(g, pat, outcome)
                for a, b in outcome.pairs:
                    if b.bit_count() > params.eta * a.bit_count():
                        violations.append((idx, "pair size clause"))
                    if not is_tight_to(g, a, b, params.theta, "tight").ok:
                        violations.append((idx, "pair tightness clause"))
        except Exception as exc:
            violations.append((idx, f"{type(exc).__name__}: {exc}"))
    report(7, "working-partition soundness on the 50-instance corpus", violations)


def test_c08_pipeline_vs_oracle():
    """100 graphs on <= 9 vertices: the pipeline never beats the exact
    minimum removal, its partitions verify, and restrictedness is
    complement-closed per the oracle."""
    violations = []
    for seed in range(100):
        rng = random.Random(80_000 + seed)
        n = rng.randint(2, 9)
        g = random_graph(n, rng.uniform(0.1, 0.9), seed)
        key = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, max(8, n)))
        d = rng.choice([1, 2, n])
        try:
            res = run_main_theorem(g, K2, QUARTER, d, key)
            res.verify(g)
        except Exception as exc:
            violations.append((seed, f"pipeline failed: {exc}"))
            continue
        n_parts = max(len(res.partition.parts), 1)
        best, _, _ = min_removal_oracle(g, n_parts, QUARTER)
        if res.removed.bit_count() < best:
            violations.append((seed, "beat the optimal removal"))
        if seed % 10 == 0:
            for parts in (1, 2):
                lhs, _ = exact_n_restricted(g, parts, QUARTER)
                rhs, _ = exact_n_restricted(complement(g), parts, QUARTER)
                if lhs != rhs:
                    violations.append((seed, "complement duality"))
    report(8, "pipeline vs exhaustive oracle on 100 small graphs", violations)


def test_c09_constants_ledger():
    """Closed-form spot checks, each recomputed independently: exact
    rational equality, or <= 1e-12 relative error on the log scale."""
    violations = []
    if tight_pair_copy_threshold(2, Fraction(1, 2)) != Fraction(1, 128):
        violations.append("kappa(2,1/2)")
    direct = Fraction(1, (4 * 2) ** 2) * Fraction(1, 2) ** comb(2, 2)
    if direct != Fraction(1, 128):
        violations.append("kappa independent recomputation")
    gv = gamma(Fraction(1, 2), Fraction(1, 8))
    if gv.exact != Fraction(1, 2**49):
        violations.append("gamma(1/2,1/8) exact")
    if abs(gv.log2 + 49) > 1e-12:
        violations.append("gamma(1/2,1/8) log2")
    led = build_ledger(3, QUARTER, QUARTER, Fraction(1, 3))
    if led.get("xi").exact != Fraction(1, 12):
        violations.append("xi = theta/4")
    # N recomputation, practical (exact rationals)
    params = KeyParams.practical(K2, QUARTER)
    n_exact = comb(2, 2) + (2 - 1) * phi(params.delta_prime, params.eta_prime)
    if not (params.part_bound_holds(n_exact) and not params.part_bound_holds(n_exact + 1)):
        violations.append("N practical recomputation")
    # N recomputation, exact schedule (log scale)
    led2 = build_ledger(2, QUARTER, QUARTER, QUARTER)
    dp, ep = led2.get("delta_prime"), led2.get("eta_prime")
    phi_log2 = mpmath.log(-ep.log2 * mpmath.log(2), 2) - dp.log2
    n_log2 = phi_log2  # h - 1 = 1
    rel = abs(led2.get("N").log2 - n_log2) / abs(n_log2)
    if rel > 1e-12:
        violations.append(f"N log-scale relative error {mpmath.nstr(rel, 3)}")
    report(9, "constants ledger spot checks", violations)


def test_c10_cli_determinism(tmp_path, capsys):
    """Every subcommand (counterexample with a fixed seed) emits
    byte-identical JSON."""
    g_path = tmp_path / "g.el"
    g_path.write_text(to_edge_list(Graph.cycle(5)))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(
        '{"kind":"restricted_partition","parts":[[0,1],[2,3],[4]],"eps":"1/4","N":3}'
    )
    commands = [
        ["count", "--graph", str(g_path), "--pattern", "P3", "--json"],
        ["check", "--graph", str(g_path), "--cert", str(cert_path), "--json"],
        ["extract", "--graph", str(g_path), "--pattern", "K2", "--op", "density",
         "--eps", "1/4", "--json"],
        ["keylemma", "--graph", str(g_path), "--pattern", "K2", "--d", "1", "--json"],
        ["theorem", "--graph", str(g_path), "--pattern", "K2", "--eps", "1/4",
         "--d", "2", "--json"],
        ["counterexample", "--m", "20", "--n", "22", "--big-n", "1", "--eps",
         "1/20", "--seed", "5", "--json"],
        ["constants", "--h", "2", "--eps", "1/4", "--eta", "1/4", "--theta",
         "1/4", "--json"],
        ["oracle", "--op", "min-removal", "--graph", str(g_path), "--n-parts",
         "2", "--eps", "0", "--json"],
    ]
    violations = []
    for argv in commands:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        if code1 != code2 or out1 != out2 or not out1:
            violations.append(argv[0])
    report(10, "CLI determinism across repeated runs", violations)
