import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peeling_graphs, random_graph, random_pattern
import rpt.adversarial
from rpt.adversarial import (
    _block_can_become_restricted,
    _draw_subset,
    _sampled_core_ok,
    _weak_edge_bounds,
    HardInstanceSpec,
    OracleBudgetError,
    check_partition_against_hard_instance,
    core_has_large_weak_subset,
    exact_n_restricted,
    generate_hard_graph,
    min_removal_oracle,
    naive_count,
    verify_hard_graph,
)
from rpt.graph import (
    Graph,
    complement,
    count_induced_copies,
    induced_subgraph,
    iter_bits,
    mask_from_ids,
    named_pattern,
)
from rpt.predicates import is_restricted, is_weakly_restricted

K2 = named_pattern("K2")
EPS20 = Fraction(1, 20)


class TestNaiveCount:
    def test_k2_is_twice_edges(self):
        g = random_graph(7, 0.5, 1)
        assert naive_count(g, K2) == 2 * g.edge_count()

    def test_k3_in_k4(self):
        assert naive_count(Graph.complete(4), named_pattern("K3")) == 24

    def test_budget(self):
        with pytest.raises(OracleBudgetError):
            naive_count(Graph.empty(60), named_pattern("K5"), budget=10**6)

    @given(st.integers(0, 500))
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_fast_counter(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 8), rng.uniform(0.1, 0.9), seed)
        pat = random_pattern(rng.randint(1, 4), seed + 1)
        assert naive_count(g, pat) == count_induced_copies(g, pat)


class TestExactNRestricted:
    def test_k4_one_part_eps0(self):
        ok, parts = exact_n_restricted(Graph.complete(4), 1, Fraction(0))
        assert ok and parts == [0b1111]

    def test_c5_two_parts_eps0_fails(self):
        ok, parts = exact_n_restricted(Graph.cycle(5), 2, Fraction(0))
        assert not ok and parts is None

    def test_enough_parts_always_works(self):
        g = random_graph(6, 0.5, 3)
        ok, parts = exact_n_restricted(g, 6, Fraction(0))
        assert ok and len(parts) <= 6

    def test_budget_guard(self):
        with pytest.raises(OracleBudgetError):
            exact_n_restricted(Graph.empty(13), 2, Fraction(0))

    @given(st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_witness_partitions_verify(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(1, 8), rng.uniform(0.2, 0.8), seed)
        eps = Fraction(rng.randint(0, 2), 4)
        ok, parts = exact_n_restricted(g, rng.randint(1, 3), eps)
        if ok:
            union = 0
            for p in parts:
                assert p and not p & union
                union |= p
                assert is_restricted(g, p, eps)
            assert union == g.full_mask


class TestMinRemoval:
    def test_already_restricted(self):
        assert min_removal_oracle(Graph.complete(5), 1, Fraction(0))[0] == 0

    def test_c5_needs_one(self):
        size, removed, parts = min_removal_oracle(Graph.cycle(5), 2, Fraction(0))
        assert size == 1 and removed.bit_count() == 1 and len(parts) <= 2

    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_n_and_eps(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng.randint(2, 7), rng.uniform(0.2, 0.8), seed)
        a = min_removal_oracle(g, 1, Fraction(0))[0]
        b = min_removal_oracle(g, 2, Fraction(0))[0]
        c = min_removal_oracle(g, 1, Fraction(1, 4))[0]
        assert b <= a and c <= a


class TestHardInstances:
    def test_domain_validation(self):
        with pytest.raises(ValueError):
            HardInstanceSpec(1, 10, 20, EPS20, K2, 0)  # m < 20 N^2
        with pytest.raises(ValueError):
            HardInstanceSpec(1, 20, 20, Fraction(1, 18), K2, 0)  # eps boundary
        HardInstanceSpec(1, 10, 20, EPS20, K2, 0, allow_small_core=True)

    def test_generate_m20_n20(self):
        spec = HardInstanceSpec(1, 20, 20, EPS20, K2, seed=7)
        inst = generate_hard_graph(spec)
        assert inst.graph.n == 20
        assert inst.core_exactly_verified
        # N=1, so the only subset of size >= m is the core itself
        f, _ = induced_subgraph(inst.graph, inst.core)
        has, _ = core_has_large_weak_subset(f, 6 * EPS20, 20)
        assert not has

    def test_generate_m20_n40_shape(self):
        spec = HardInstanceSpec(1, 20, 40, EPS20, K2, seed=7)
        inst = generate_hard_graph(spec)
        g = inst.graph
        added = [v for v in range(20, 40)]
        for v in added:
            assert g.adj[v].bit_count() == 20
            for u in added:
                if u != v:
                    assert not g.has_edge(u, v)

    def test_copy_count_bound(self):
        for n in (20, 40):
            spec = HardInstanceSpec(1, 20, n, EPS20, K2, seed=7)
            inst = generate_hard_graph(spec)
            count = count_induced_copies(inst.graph, K2)
            assert count <= 2 * 20 * n

    def test_verify_hard_graph_report(self):
        spec = HardInstanceSpec(1, 20, 40, EPS20, K2, seed=7)
        inst = generate_hard_graph(spec)
        report = verify_hard_graph(inst, count_induced_copies)
        assert report["ok"], report

    def test_relaxed_build_fails_n_restricted_exhaustively(self):
        spec = HardInstanceSpec(
            2, 10, 12, EPS20, K2, seed=3, allow_small_core=True
        )
        inst = generate_hard_graph(spec)
        ok, _ = exact_n_restricted(inst.graph, 2, EPS20, budget=12)
        assert not ok

    def test_partition_proof_path_checker(self):
        spec = HardInstanceSpec(1, 20, 40, EPS20, K2, seed=7)
        inst = generate_hard_graph(spec)
        # the whole vertex set as one part triggers the degree analysis
        problems = check_partition_against_hard_instance(
            inst.graph, inst.core, spec, [inst.graph.full_mask]
        )
        assert not problems

    def test_mutated_core_detected(self):
        # replacing the graph with an edgeless one creates a large
        # restricted core subset, which clause (ii) must catch
        spec = HardInstanceSpec(1, 20, 20, EPS20, K2, seed=7)
        inst = generate_hard_graph(spec)
        from rpt.adversarial import HardInstance

        mutated = HardInstance(Graph.empty(20), inst.core, spec, 1, True)
        report = verify_hard_graph(mutated, count_induced_copies)
        assert not report["ok"]

    def test_second_claim_arithmetic(self):
        # kappa = 1/2, h = 2, N = 1: from n >= 20/kappa * h * N^2 = 80
        # onward, h*m*n^(h-1) <= kappa * n^2
        kappa, h, big_n = Fraction(1, 2), 2, 1
        threshold = 20 * h * big_n**2 / kappa
        assert threshold == 80
        m = 20 * big_n**2
        for n in (80, 100, 200):
            assert h * m * n ** (h - 1) <= kappa * n**2
        assert h * m * 79 ** (h - 1) > kappa * 79**2


# _block_can_become_restricted as it was before it read graph.degree_range,
# kept verbatim (bar its name) as an oracle.
def block_can_become_restricted_loop(g: Graph, block: int, eps: Fraction, n_total: int) -> bool:
    """Necessary condition for a partial block to extend to a restricted one.

    Degrees only grow as vertices join a block and the final size is at
    most n_total, so a side is dead once some current degree on it
    exceeds eps * n_total.
    """
    size = block.bit_count()
    if size <= 1:
        return True
    cap = eps * n_total
    graph_alive = True
    comp_alive = True
    for v in iter_bits(block):
        d = (g.adj[v] & block).bit_count()
        if d > cap:
            graph_alive = False
        if size - 1 - d > cap:
            comp_alive = False
        if not (graph_alive or comp_alive):
            return False
    return True


@given(peeling_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_block_can_become_restricted_matches_loop(g, data):
    block = data.draw(st.integers(0, g.full_mask))
    n_total = data.draw(st.integers(max(block.bit_count(), 1), g.n + 5))
    # eps n_total is an integer in the second strategy
    eps = data.draw(st.one_of(
        st.fractions(0, Fraction(1, 2), max_denominator=24),
        st.builds(lambda j: Fraction(j, n_total), st.integers(0, n_total)),
    ))
    assert _block_can_become_restricted(g, block, eps, n_total) == (
        block_can_become_restricted_loop(g, block, eps, n_total))


def check_partition_loop(g: Graph, core: int, spec: HardInstanceSpec, parts: list[int]) -> list[str]:
    # check_partition_against_hard_instance with each largest degree in G[p]
    # and in its complement counted vertex by vertex
    problems = []
    m, big_n, eps = spec.core_size, spec.restriction_budget, spec.eps
    min_core = Fraction(m, big_n)
    if len(parts) > big_n:
        problems.append(f"partition uses {len(parts)} > N = {big_n} parts")
    if not any((p & core).bit_count() >= min_core for p in parts):
        problems.append("pigeonhole failed: no part meets the core in m/N vertices")
    gc = complement(g)
    for idx, p in enumerate(parts):
        if (p & core).bit_count() >= min_core and p & ~core:
            size = p.bit_count()
            gmax = max((g.adj[v] & p).bit_count() for v in iter_bits(p))
            cmax = max((gc.adj[v] & p).bit_count() for v in iter_bits(p))
            if not gmax > eps * size:
                problems.append(f"part {idx}: graph-side degree bound not exceeded")
            if not cmax > eps * size:
                problems.append(f"part {idx}: complement-side degree bound not exceeded")
            if is_restricted(g, p, eps):
                problems.append(f"part {idx}: unexpectedly eps-restricted")
    return problems


@given(peeling_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_check_partition_matches_degree_loops(g, data):
    core = data.draw(st.integers(0, g.full_mask))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    parts = [p for p in (mask_from_ids(v for v in range(g.n) if labels[v] == i)
                         for i in range(3)) if p]
    m = max(core.bit_count(), 1)
    big_n = data.draw(st.integers(1, 3))
    # eps |p| is an integer for some part sizes in the second strategy
    eps = data.draw(st.one_of(
        st.fractions(Fraction(1, 100), Fraction(1, 19), max_denominator=100),
        st.builds(lambda j: Fraction(1, j), st.integers(19, 40)),
    ))
    spec = HardInstanceSpec(big_n, m, max(g.n, m), eps, K2, seed=0, allow_small_core=True)
    assert check_partition_against_hard_instance(g, core, spec, parts) == (
        check_partition_loop(g, core, spec, parts))


# generate_hard_graph's sampled acceptance as it was before it drew its
# subsets inline, kept verbatim as an oracle; ``tried`` is added so that a
# test can tell a rejection at the first sample from a later one.
def sampled_acceptance_loop(f: Graph, eps: Fraction, min_size: int, m: int,
                            rng: random.Random) -> tuple[bool, int]:
    tried = 0
    ok = True
    for _ in range(2000):
        tried += 1
        k = rng.randint(min_size, m)
        mask = mask_from_ids(rng.sample(range(m), k))
        if is_weakly_restricted(f, mask, 6 * eps):
            ok = False
            break
    return ok, tried


def _agree_with_loop(f: Graph, eps: Fraction, min_size: int, seed: int) -> tuple[bool, int]:
    """Run the oracle and ``_sampled_core_ok`` from the same seed; both give the
    same verdict and leave the generator in the same state."""
    old_rng, new_rng = random.Random(seed), random.Random(seed)
    ok, tried = sampled_acceptance_loop(f, eps, min_size, f.n, old_rng)
    assert _sampled_core_ok(f, 6 * eps, min_size, new_rng) == ok
    assert new_rng.getstate() == old_rng.getstate()
    return ok, tried


class TestSampledAcceptance:
    # 81 = 21 + 3*20 and 82 sit at the edge of the inline rule
    @pytest.mark.parametrize("m", [1, 21, 22, 36, 80, 81, 82, 200, 320])
    def test_draw_is_random_sample(self, m):
        # pins the inline draw to the stdlib: a Random.sample that drew
        # otherwise would fail here rather than change the hard instances
        f = random_graph(m, 0.5, m)
        for seed in (0, 1, 2):
            for k in range(m + 1):
                mine, theirs = random.Random(seed * 1000 + k), random.Random(seed * 1000 + k)
                sampled = []
                mine.sample = lambda pop, kk, s=mine.sample: sampled.append(kk) or s(pop, kk)
                mask, edges = _draw_subset(mine, f, k)
                assert mask == mask_from_ids(theirs.sample(range(m), k)), (m, k, seed)
                assert mine.getstate() == theirs.getstate(), (m, k, seed)
                assert edges == f.edges_inside(mask)
                # the inline draw runs exactly where the pool branch is sure
                assert bool(sampled) == (not (m <= 21 or (k > 5 and m <= 21 + 3 * k))), (m, k)


    @pytest.mark.parametrize("core, min_size, seed, outcome", [
        (Graph.empty(40), 20, 1, "first"),
        (Graph.complete(30), 1, 2, "first"),
        (random_graph(20, 0.6, 0), 10, 100, "later"),
        (random_graph(20, 0.55, 1), 5, 101, "later"),
        (random_graph(40, 0.5, 3), 20, 4, "accept"),
        (random_graph(20, 0.5, 5), 20, 6, "accept"),
    ])
    def test_each_outcome_matches_the_loop(self, core, min_size, seed, outcome):
        ok, tried = _agree_with_loop(core, EPS20, min_size, seed)
        assert outcome == ("accept" if ok else "first" if tried == 1 else "later")

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_the_loop(self, data):
        m = data.draw(st.integers(20, 120))
        eps = data.draw(st.sampled_from([EPS20, Fraction(1, 19), Fraction(1, 30), Fraction(1, 100)]))
        kind = data.draw(st.sampled_from(["gnp", "near-threshold", "empty", "complete"]))
        if kind == "gnp":
            f = random_graph(m, data.draw(st.floats(0.05, 0.95)), data.draw(st.integers(0, 10**6)))
        elif kind == "near-threshold":
            edge = float(1 - 6 * eps)
            f = random_graph(m, data.draw(st.floats(edge - 0.1, edge + 0.02)),
                             data.draw(st.integers(0, 10**6)))
        else:
            f = Graph.empty(m) if kind == "empty" else Graph.complete(m)
        # min_size = ceil(m/N) is what generate_hard_graph passes
        min_size = data.draw(st.one_of(st.integers(1, m),
                                       st.builds(lambda n: -(-m // n), st.integers(1, 4))))
        _agree_with_loop(f, eps, min_size, data.draw(st.integers(0, 2**32)))

    @pytest.mark.parametrize("k", range(0, 40))
    def test_edge_bounds_decide_as_the_density(self, k):
        # 6 eps C(k, 2) is an integer for some k at each eps here
        pairs = k * (k - 1) // 2
        for eps6 in (Fraction(3, 10), Fraction(6, 19), Fraction(1, 5), Fraction(6, 100)):
            lo, hi = _weak_edge_bounds(k, eps6)
            for e in range(pairs + 1):
                d = Fraction(e, pairs) if pairs else Fraction(0)
                assert (e <= lo or e >= hi) == (d <= eps6 or d >= 1 - eps6), (k, eps6, e)


@pytest.mark.parametrize("m, n, big_n, seed", [
    (80, 160, 2, 1), (80, 160, 2, 2), (80, 160, 2, 3), (80, 160, 2, 4),
    (320, 320, 4, 1),  # k < 100 takes the rng.sample fallback
])
def test_hard_graph_matches_the_loop(monkeypatch, m, n, big_n, seed):
    spec = HardInstanceSpec(big_n, m, n, EPS20, K2, seed)
    new = generate_hard_graph(spec)
    monkeypatch.setattr(
        rpt.adversarial, "_sampled_core_ok",
        lambda f, eps6, min_size, rng: sampled_acceptance_loop(f, eps6 / 6, min_size, f.n, rng)[0])
    old = generate_hard_graph(spec)
    assert (new.graph, new.core, new.resamples, new.core_exactly_verified) == (
        old.graph, old.core, old.resamples, old.core_exactly_verified)
    assert not new.core_exactly_verified
