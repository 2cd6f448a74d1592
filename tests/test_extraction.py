import itertools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import peeling_graphs, random_graph, wide_graphs
from rpt import assembly, extraction
from rpt.assembly import PathPartition, base_partition
from rpt.extraction import (
    DensitySubsetResult,
    ExtractionBudget,
    ExtractionInfeasible,
    PeelChain,
    extract_restricted_exact,
    find_low_or_high_density_subset,
    greedy_restricted_chunk,
    peel_chain,
    trim_to_size,
    verify_peel_chain,
)
from rpt.extraction import (
    _assert_merge_arithmetic,
    _greedy_best_effort,
    _meets_size_floor,
    _search,
)
from rpt.graph import (
    Graph,
    Pattern,
    complement,
    edge_density,
    induced_subgraph,
    iter_bits,
    lift,
    mask_from_ids,
    named_pattern,
    with_at_least,
)
from rpt.ledger import (
    build_ledger,
    depth_for,
    phi,
    phi_lower_bound,
    shrink_fraction,
    tight_pair_copy_threshold,
)
from rpt.predicates import is_restricted
from rpt.values import LogValue, ceil_frac, floor_frac

QUARTER = Fraction(1, 4)


class TestPhi:
    @pytest.mark.parametrize(
        "delta,eta,expected",
        [
            (Fraction(1, 2), Fraction(1, 4), 2),
            (Fraction(1, 2), Fraction(1, 2), 1),
            (Fraction(1, 10), Fraction(1, 2), 7),
        ],
    )
    def test_spot_values(self, delta, eta, expected):
        assert phi(delta, eta) == expected

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            phi(Fraction(0), Fraction(1, 2))
        with pytest.raises(ValueError):
            phi(Fraction(1, 2), Fraction(1))

    @given(st.integers(1, 20), st.integers(1, 20))
    @settings(max_examples=80)
    def test_definition_holds(self, a, b):
        delta, eta = Fraction(a, 21), Fraction(b, 21)
        p = phi(delta, eta)
        assert (1 - delta) ** p <= eta
        assert p == 1 or (1 - delta) ** (p - 1) > eta

    def test_corrected_log_bound(self):
        # phi(delta, eta) <= ceil(log(1/eta) / delta) + 1 style sanity:
        # the documented closed-form bound needs log(1/eta), not log(eta)
        import math

        delta, eta = Fraction(1, 10), Fraction(1, 2)
        assert phi(delta, eta) <= math.log(1 / eta) / float(delta) + 1


    def test_matches_iteration_on_a_grid(self):
        def by_iteration(delta, eta):
            p, power = 1, 1 - delta
            while power > eta:
                p += 1
                power *= 1 - delta
            return p

        for delta in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 10), Fraction(1, 97),
                      Fraction(3, 1000)):
            for eta in (Fraction(1, 2), Fraction(1, 7), Fraction(1, 1000), Fraction(1, 61440)):
                assert phi(delta, eta) == by_iteration(delta, eta), (delta, eta)
        assert phi(Fraction(1, 120), Fraction(1, 61440)) == 1318

    def test_delta_far_below_the_working_precision(self):
        # ceil(ln 2 / -ln(1 - 10^-30)); (1 - delta)^phi has about 10^32 bits
        import time

        start = time.perf_counter()
        assert phi(Fraction(1, 10**30), Fraction(1, 2)) == 693147180559945309417232121458
        assert time.perf_counter() - start < 1.0

    def test_lower_bound_is_sound_and_within_a_factor_of_two(self):
        # phi_lower_bound is what the ledger and n_bound_holds use once
        # delta and eta are known only on the log scale
        for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10), Fraction(3, 1000)):
            for eta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 1000), Fraction(1, 61440)):
                exact = phi(delta, eta)
                for d, e in ((delta, eta), (LogValue.of(delta), LogValue.of(eta))):
                    lower = mpmath.power(2, phi_lower_bound(d, e).log2)
                    assert exact / 2 - 1 <= lower <= exact, (delta, eta)


class TestDepth:
    def test_quarter(self):
        # (3/2)^s >= 16 first at s = 7
        assert depth_for(QUARTER) == 7

    def test_matches_iteration_down_to_tiny_eps(self):
        def by_iteration(eps):
            s, power = 1, Fraction(3, 2)
            while power < 1 / eps**2:
                s += 1
                power *= Fraction(3, 2)
            return s

        for k in (1, 2, 3, 10, 57, 128, 250):
            for eps in (Fraction(1, 2**k), Fraction(2, 3 * 2**k), Fraction(1, 2**k + 1)):
                assert depth_for(eps) == by_iteration(eps), eps
        assert depth_for(Fraction(2, 3)) == 2  # (3/2)^2 = 9/4 = eps^-2: equality counts

    def test_rejects_bad_domain(self):
        for eps in (Fraction(0), Fraction(1), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                depth_for(eps)

    def test_log_branch_matches_exact(self):
        # a LogValue without an exact value takes the log-scale quotient
        for k in (1, 2, 3, 5, 10, 57, 128, 250):
            for eps in (Fraction(1, 2**k + 1), Fraction(3, 7 * 2**k), Fraction(5, 3**k + 7)):
                bare = LogValue(LogValue.of(eps).log2)
                assert bare.exact is None
                assert depth_for(bare) == depth_for(eps) == depth_for(LogValue.of(eps)), eps
        # on an exact power of 2/3 the quotient is an integer that rounding
        # may push up by one; the log branch never undershoots
        for k in range(1, 60):
            eps = Fraction(2, 3) ** k
            assert depth_for(LogValue(LogValue.of(eps).log2)) - depth_for(eps) in (0, 1), k

    def test_shrink_fraction_formula(self):
        h = 3
        val = shrink_fraction(h, QUARTER)
        assert val == Fraction(1, 2) * Fraction(1, 36) * (QUARTER / 4) ** 2
        # a budget shrinks at the smaller of its two density targets
        budget = ExtractionBudget.practical(QUARTER, Fraction(1, 2), 3, h=h)
        assert budget.eta == val


class TestTrim:
    def test_noop(self):
        g = Graph.cycle(5)
        assert trim_to_size(g, g.full_mask, 5, "low") == g.full_mask

    def test_low_side_never_raises_density(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        before = edge_density(g, g.full_mask)
        out = trim_to_size(g, g.full_mask, 4, "low")
        assert out.bit_count() == 4
        assert edge_density(g, out) <= before

    def test_rejects_growth(self):
        g = Graph.empty(3)
        with pytest.raises(ValueError):
            trim_to_size(g, 0b011, 3, "low")

    def test_clique_plus_isolated_low_trim(self):
        g = Graph.from_edges(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        before = edge_density(g, g.full_mask)
        out = trim_to_size(g, g.full_mask, 4, "low")
        assert out.bit_count() == 4
        assert edge_density(g, out) <= before

    @given(st.integers(0, 2000))
    @settings(max_examples=500, deadline=None)
    def test_density_monotone_both_sides(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        g = random_graph(n, rng.uniform(0.1, 0.9), seed)
        k = rng.randint(1, n)
        before = edge_density(g, g.full_mask)
        low = trim_to_size(g, g.full_mask, k, "low")
        high = trim_to_size(g, g.full_mask, k, "high")
        assert low.bit_count() == k and high.bit_count() == k
        if k >= 2:
            assert edge_density(g, low) <= before
            assert edge_density(g, high) >= before


    def test_rejects_negative_size(self):
        g = Graph.cycle(5)
        for side in ("low", "high"):
            with pytest.raises(ValueError, match="down to -1"):
                trim_to_size(g, g.full_mask, -1, side)

    def test_rejects_mask_beyond_graph(self):
        g = Graph.cycle(5)
        for mask in (1 << 5, g.full_mask | 1 << 9, -1):
            with pytest.raises(ValueError, match="vertex set out of range"):
                trim_to_size(g, mask, 1, "low")


# The rescanning loops that the bucket-queue peeling replaced, kept
# verbatim as oracles: each deletion rescans every degree, and the shrink
# recomputes the density as a Fraction.
def trim_to_size_rescan(g: Graph, s: int, k: int, side: str) -> int:
    """Exact-size subset whose density moved only the promised way.

    side="low": delete maximum-degree vertices (density never increases);
    side="high": delete minimum-degree vertices (never decreases).
    Ties go to the lowest vertex id.
    """
    size = s.bit_count()
    if k > size:
        raise ValueError(f"cannot trim {size} vertices down to {k}")
    if side not in ("low", "high"):
        raise ValueError("side must be 'low' or 'high'")
    before = edge_density(g, s)
    current = s
    while current.bit_count() > k:
        best_v, best_d = None, None
        for v in iter_bits(current):
            d = (g.adj[v] & current).bit_count()
            if best_d is None or (d > best_d if side == "low" else d < best_d):
                best_v, best_d = v, d
        current &= ~(1 << best_v)
    after = edge_density(g, current)
    if current.bit_count() >= 2:
        if side == "low" and after > before:
            raise AssertionError("low-side trim increased density")
        if side == "high" and after < before:
            raise AssertionError("high-side trim decreased density")
    return current


def greedy_shrink_rescan(g: Graph, target: Fraction) -> int:
    """Delete maximum-degree vertices until the density drops to target."""
    cur = g.full_mask
    while cur and edge_density(g, cur) > target:
        worst, worst_d = None, -1
        for v in iter_bits(cur):
            d = (g.adj[v] & cur).bit_count()
            if d > worst_d:
                worst, worst_d = v, d
        cur &= ~(1 << worst)
    return cur


TARGETS = st.one_of(
    st.fractions(0, 1, max_denominator=60),
    st.sampled_from([Fraction(0), Fraction(1, 10**6), Fraction(1), Fraction(3, 2), Fraction(7)]),
)


class TestPeelingMatchesRescan:
    @given(peeling_graphs(), TARGETS)
    @settings(max_examples=400, deadline=None)
    def test_shrink_to_density(self, g, target):
        assert extraction._greedy_shrink_to_density(g, target) == greedy_shrink_rescan(g, target)

    @given(peeling_graphs(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_trim_both_sides(self, g, data):
        s = data.draw(st.integers(0, g.full_mask))
        k = data.draw(st.integers(0, s.bit_count()))
        for side in ("low", "high"):
            assert trim_to_size(g, s, k, side) == trim_to_size_rescan(g, s, k, side)

    def test_ties_go_to_the_lowest_id(self):
        # every vertex of C6 ties, so both sides delete in id order
        g = Graph.cycle(6)
        assert trim_to_size(g, g.full_mask, 4, "low") == 0b111010
        assert trim_to_size(g, g.full_mask, 4, "high") == 0b111100
        assert extraction._greedy_shrink_to_density(Graph.complete(6), Fraction(0)) == 0b100000


# find_low_or_high_density_subset as it was when it built the greedy
# candidates even when the search's answer was all of G, kept verbatim
# (bar its name) as the oracle for skipping them there.
def find_low_or_high_density_subset_always_greedy(
    g: Graph, pat: Pattern, budget: ExtractionBudget
) -> DensitySubsetResult:
    """Subset with density <= eps1 or >= 1-eps2, never empty.

    Returns the larger of the recursive search's answer and the cheap
    greedy candidates (the recursion certifies its own size only through
    the guarantee machinery; a plain greedy clique or independent set is
    sometimes bigger and equally valid).  The guarantee flag is set only
    when every recursion step confirmed its preconditions AND the final
    size meets eta^depth * |G|.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    found = _search(g, pat, budget.eps1, budget.eps2, budget.depth)
    alt_mask, alt_side = _greedy_best_effort(g, budget.eps1, budget.eps2)
    if found is None:
        mask, side, flag = alt_mask, alt_side, False
    else:
        mask, side, flag = found
        if alt_mask.bit_count() > mask.bit_count():
            mask, side = alt_mask, alt_side
    dens = edge_density(g, mask)
    if side == "low" and dens > budget.eps1:
        raise AssertionError("low-side result misses its density claim")
    if side == "high" and dens < 1 - budget.eps2:
        raise AssertionError("high-side result misses its density claim")
    guaranteed = flag and _meets_size_floor(mask.bit_count(), budget, g.n)
    return DensitySubsetResult(mask, side, guaranteed)


class TestDensitySubset:
    def test_edgeless_immediate(self):
        g = Graph.empty(9)
        budget = ExtractionBudget.practical(QUARTER, QUARTER, 3)
        res = find_low_or_high_density_subset(g, named_pattern("K2"), budget)
        assert res.vertices == g.full_mask and res.side == "low" and res.guaranteed

    def test_complete_immediate(self):
        g = Graph.complete(9)
        budget = ExtractionBudget.practical(QUARTER, QUARTER, 3)
        res = find_low_or_high_density_subset(g, named_pattern("K2"), budget)
        assert res.vertices == g.full_mask and res.side == "high" and res.guaranteed

    @given(st.integers(0, 300))
    @settings(max_examples=100, deadline=None)
    def test_postconditions_on_random_corpus(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 60)
        g = random_graph(n, rng.uniform(0.05, 0.95), seed)
        pat = named_pattern(rng.choice(["K2", "K3"]))
        if g.n < pat.size:
            return
        budget = ExtractionBudget.practical(QUARTER, QUARTER, 7, h=pat.size)
        res = find_low_or_high_density_subset(g, pat, budget)
        dens = edge_density(g, res.vertices)
        assert res.vertices.bit_count() >= 1
        if res.side == "low":
            assert dens <= QUARTER
        else:
            assert dens >= 1 - QUARTER
        if res.guaranteed:
            assert res.vertices.bit_count() >= budget.eta**budget.depth * g.n

    def test_dense_witness_complement_flip(self):
        # patterns with a non-edge can return dense witnesses; the search
        # must then work in the complement and unflip the result.  On a
        # complete tripartite graph the recursion lands on a color class.
        from rpt.embedding import TightPairResult, find_tight_pair
        from rpt.extraction import _search

        edges = []
        parts = [range(0, 4), range(4, 8), range(8, 12)]
        for i in range(3):
            for j in range(i + 1, 3):
                edges += [(u, v) for u in parts[i] for v in parts[j]]
        g = Graph.from_edges(12, edges)
        p3 = named_pattern("P3")
        found = find_tight_pair(g, p3, Fraction(1, 16))
        assert isinstance(found, TightPairResult) and found.mode == "dense"
        mask, side, flag = _search(g, p3, QUARTER, QUARTER, 5)
        assert side == "low" and flag
        assert edge_density(g, mask) <= QUARTER
        # the public wrapper may return something even larger; either way
        # the density claim must hold
        budget = ExtractionBudget.practical(QUARTER, QUARTER, 5, h=3)
        res = find_low_or_high_density_subset(g, p3, budget)
        assert res.vertices.bit_count() >= mask.bit_count()
        dens = edge_density(g, res.vertices)
        assert (res.side == "low" and dens <= QUARTER) or (
            res.side == "high" and dens >= 1 - QUARTER
        )
        assert res.guaranteed

    @pytest.mark.parametrize(
        "n,p,seed,pattern,expected",
        [
            # find_tight_pair reports many copies at the top level
            (18, 0.6, 0, "K2", (32537, "high")),
            # the recursion gives up below the top level (k = 0)
            (None, None, 14, "P3", (4086, "high")),
        ],
    )
    def test_fallback_built_once_per_graph(self, monkeypatch, n, p, seed, pattern, expected):
        if n is None:
            rng = random.Random(seed)
            n, p = rng.randint(6, 40), rng.uniform(0.05, 0.95)
        g = random_graph(n, p, seed)
        pat = named_pattern(pattern)
        calls = []
        build = extraction._greedy_best_effort

        def counted(graph, eps1, eps2):
            calls.append((graph, eps1, eps2))
            return build(graph, eps1, eps2)

        monkeypatch.setattr(extraction, "_greedy_best_effort", counted)
        budget = ExtractionBudget.practical(QUARTER, QUARTER, 7, h=pat.size)
        res = find_low_or_high_density_subset(g, pat, budget)
        assert (res.vertices, res.side, res.guaranteed) == (*expected, False)
        assert calls and len(set(calls)) == len(calls)

    def test_greedy_skipped_when_the_search_covers_the_graph(self, monkeypatch):
        calls = []
        build = extraction._greedy_best_effort

        def counted(graph, eps1, eps2):
            calls.append(graph)
            return build(graph, eps1, eps2)

        monkeypatch.setattr(extraction, "_greedy_best_effort", counted)
        budget = ExtractionBudget.practical(QUARTER, QUARTER, 3)
        for g in (Graph.empty(9), Graph.complete(9), Graph.cycle(12)):
            res = find_low_or_high_density_subset(g, named_pattern("K2"), budget)
            assert res.vertices == g.full_mask
        assert calls == []
        g = random_graph(20, 0.5, 0)
        assert find_low_or_high_density_subset(g, named_pattern("K2"), budget) == (
            find_low_or_high_density_subset_always_greedy(g, named_pattern("K2"), budget)
        )
        assert calls

    @given(
        st.one_of(peeling_graphs(), wide_graphs()),
        st.sampled_from(["K2", "K3", "P3"]),
        st.sampled_from([Fraction(1, 32), Fraction(1, 8), QUARTER]),
        st.sampled_from([Fraction(1, 32), Fraction(1, 8), QUARTER]),
        st.integers(1, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_always_greedy(self, g, pattern, eps1, eps2, depth):
        assume(g.n > 0)
        pat = named_pattern(pattern)
        budget = ExtractionBudget.practical(eps1, eps2, depth, h=pat.size)
        assert find_low_or_high_density_subset(g, pat, budget) == (
            find_low_or_high_density_subset_always_greedy(g, pat, budget)
        )

    def test_merge_arithmetic_checks_the_union_density(self):
        # the merged piece's density is checked by the arithmetic's last
        # clause alone: K_{2,2} across two empty sides meets the side and
        # crossing caps at eps = 2, but its density 4/6 exceeds eps1 = 1/2
        g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        _assert_merge_arithmetic(g, 0b0011, 0b1100, Fraction(2, 3), Fraction(2))
        with pytest.raises(AssertionError, match="merge arithmetic failed"):
            _assert_merge_arithmetic(g, 0b0011, 0b1100, Fraction(1, 2), Fraction(2))

    def test_exact_schedule_budget_fields(self):
        b = ExtractionBudget.exact_schedule(2, QUARTER, QUARTER)
        assert b.depth == 7
        assert b.eta == shrink_fraction(2, QUARTER)
        # the constants ledger's section-2 entries are these same values
        led = build_ledger(2, QUARTER, QUARTER, QUARTER)
        assert led.get("density_shrink").exact == b.eta
        assert led.get("density_depth").exact == b.depth == depth_for(QUARTER)
        assert led.get("tight_copy_threshold").exact == tight_pair_copy_threshold(2, QUARTER)


class TestExtractExact:
    def test_singleton_graph(self):
        g = Graph.complete(1)
        out = extract_restricted_exact(g, named_pattern("K2"), QUARTER, Fraction(1, 4))
        assert out == 0b1

    def test_edgeless_any_delta(self):
        g = Graph.empty(10)
        out = extract_restricted_exact(g, named_pattern("K2"), QUARTER, Fraction(1, 5))
        assert out.bit_count() == 2
        assert is_restricted(g, out, QUARTER)

    def test_infeasible_raises_clear_error(self):
        g = random_graph(24, 0.5, 3)
        with pytest.raises(ExtractionInfeasible):
            extract_restricted_exact(g, named_pattern("K2"), Fraction(1, 8), Fraction(1, 4))

    @given(st.integers(0, 400))
    @settings(max_examples=100, deadline=None)
    def test_postconditions_on_corpus(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        g = random_graph(n, rng.uniform(0.05, 0.95), seed)
        delta = Fraction(1, max(8, n))
        eps = Fraction(1, 2)
        try:
            out = extract_restricted_exact(g, named_pattern("K2"), eps, delta)
        except ExtractionInfeasible:
            pytest.fail("corpus parameters should always be feasible")
        expect = (delta * n).__ceil__()
        assert out.bit_count() == expect
        assert is_restricted(g, out, eps)
        if n >= 2:
            assert (n - out.bit_count()) * 2 >= n


# The grower that greedy_restricted_chunk ran before it kept chunk degrees
# as bit-planes, kept verbatim as an oracle.
def greedy_restricted_chunk_rescan(g: Graph, pool: int, eps: Fraction) -> int:
    chunk = 0
    for v in iter_bits(pool):
        cand = chunk | (1 << v)
        if is_restricted(g, cand, eps):
            chunk = cand
    return chunk


CHUNK_EPS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 20), QUARTER, Fraction(1), 0, 1, 2]),
    st.fractions(0, 1, max_denominator=20),
)


class TestGreedyRestrictedChunk:
    @given(peeling_graphs(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_nonempty_pool_keeps_its_lowest_id(self, g, data):
        # a singleton is restricted, so the chunk is never empty
        assume(g.n > 0)
        pool = data.draw(st.integers(1, g.full_mask))
        eps = data.draw(st.fractions(0, 1, max_denominator=20))
        chunk = greedy_restricted_chunk(g, pool, eps)
        assert chunk & ~pool == 0
        assert chunk & pool & -pool
        assert is_restricted(g, chunk, eps)

    @given(st.one_of(peeling_graphs(), wide_graphs()), CHUNK_EPS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_rescan(self, g, eps, data):
        pool = data.draw(st.one_of(st.integers(0, g.full_mask), st.just(g.full_mask)))
        assert greedy_restricted_chunk(g, pool, eps) == greedy_restricted_chunk_rescan(g, pool, eps)

    # on 70 vertices eps = 1/71 restricts exactly the sets eps = 0 does, and
    # keeps the part bound floor(2400/eps^2) finite
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("eps", [Fraction(1, 71), Fraction(1, 20), QUARTER])
    def test_base_partition_split_matches_rescan(self, monkeypatch, seed, eps):
        # G(70, 1/2) is not eps-restricted here, so base_partition splits the
        # one block of the trivial path partition into greedy chunks
        g = random_graph(70, 0.5, seed)
        pp = PathPartition.trivial(g, Fraction(0))
        split = base_partition(g, pp, eps)
        assert len(split.parts) > 1
        monkeypatch.setattr(assembly, "greedy_restricted_chunk", greedy_restricted_chunk_rescan)
        assert base_partition(g, pp, eps) == split

    def test_rejects_vertices_beyond_the_graph(self):
        with pytest.raises(ValueError, match="vertex set out of range"):
            greedy_restricted_chunk(Graph.path(3), 0b1100, QUARTER)


class TestPeelChain:
    def test_loop_guard_tiny_graph(self):
        g = Graph.complete(1)
        pc = peel_chain(g, named_pattern("K2"), QUARTER, Fraction(9, 10), Fraction(1, 2))
        assert pc.length == 0 or pc.leftover.bit_count() <= Fraction(9, 10) * g.n

    def test_empty_graph_zero_peels(self):
        # the only way the loop guard fires immediately: |V| <= eta |V|
        # forces |V| = 0, leaving T = V(G) with no peels
        g = Graph.empty(0)
        pc = peel_chain(g, named_pattern("K2"), QUARTER, Fraction(9, 10), Fraction(1, 2))
        assert pc.length == 0 and pc.leftover == g.full_mask == 0

    def test_eta_domain_rejected(self):
        with pytest.raises(ValueError):
            peel_chain(Graph.empty(3), named_pattern("K2"), QUARTER, Fraction(1), Fraction(1, 2))

    # random_graph(20, 0.5, 6) is the input below: its first greedy chunk
    # has 4 vertices against an extractor target of ceil(20 / 4) = 5, so
    # peel_chain still calls the extractor there
    def test_extractor_value_error_propagates(self, monkeypatch):
        # only ExtractionInfeasible means "no candidate"; a broken
        # precondition inside the extractor must surface
        calls = []

        def broken(*args):
            calls.append(args)
            raise ValueError("precondition bug")

        monkeypatch.setattr(extraction, "extract_restricted_exact", broken)
        with pytest.raises(ValueError, match="precondition bug"):
            peel_chain(random_graph(20, 0.5, 6), named_pattern("K2"), QUARTER, QUARTER, QUARTER)
        assert len(calls) == 1

    def test_infeasible_extraction_leaves_the_greedy_chunk(self, monkeypatch):
        g = random_graph(20, 0.5, 6)
        pat = named_pattern("K2")
        calls = []

        def infeasible(*args):
            calls.append(args)
            raise ExtractionInfeasible("too small")

        monkeypatch.setattr(extraction, "extract_restricted_exact", infeasible)
        pc = peel_chain(g, pat, QUARTER, QUARTER, QUARTER)
        assert pc.peels[0] == greedy_restricted_chunk(g, g.full_mask, QUARTER)
        assert calls

    def test_a_leftover_over_eta_is_refused(self, monkeypatch):
        # a loop that stops before peeling anything leaves all of G over, more
        # than eta |G|; the chain's own verifier refuses it
        monkeypatch.setattr(extraction, "floor_frac", lambda x, k=1: k)
        with pytest.raises(AssertionError, match=r"^leftover exceeds eta \|G\|$"):
            peel_chain(random_graph(12, 0.5, 1), named_pattern("K2"), QUARTER, QUARTER, QUARTER)

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1, 4)])
    def test_nonpositive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            peel_chain(Graph.complete(5), named_pattern("K2"), eps, QUARTER, QUARTER)

    def test_clique_peels_whole(self):
        g = Graph.complete(20)
        pc = peel_chain(g, named_pattern("K2"), Fraction(1, 2), QUARTER, QUARTER)
        assert pc.length == 1
        assert pc.leftover == 0
        assert pc.guaranteed

    @given(st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_chain_invariants(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 24)
        g = random_graph(n, rng.uniform(0.1, 0.9), seed)
        eta = Fraction(rng.randint(1, 3), 4)
        delta = Fraction(1, max(2, n))
        pc = peel_chain(g, named_pattern("K2"), Fraction(1, 2), eta, delta)
        union = pc.leftover
        for peel in pc.peels:
            assert peel
            assert peel & union == 0
            union |= peel
            assert is_restricted(g, peel, Fraction(1, 2))
        assert union == g.full_mask
        assert pc.leftover.bit_count() <= eta * n
        assert pc.phi_bound == phi(delta, eta)
        if pc.guaranteed:
            assert pc.length <= pc.phi_bound


# peel_chain as it was when it called the extractor whenever the greedy
# chunk left part of U, kept verbatim (bar its name) as the oracle for the
# guard that calls it only while the chunk is below the extractor's size.
def peel_chain_always_extract(
    g: Graph,
    pat: Pattern,
    eps: Fraction,
    eta: Fraction,
    delta: Fraction,
) -> PeelChain:
    """Repeatedly peel eps-restricted sets of fractional size >= delta until
    at most an eta fraction of the vertices remains.

    Each peel is the larger of a greedy restricted chunk and the pipeline
    extractor's set.  When neither reaches the delta fraction the chain is
    flagged: its length may then exceed phi(delta, eta).
    """
    if not (0 < eta < 1 and 0 < delta < 1):
        raise ValueError("eta and delta must lie in (0,1)")
    u = g.full_mask
    total = g.n
    peels: list[int] = []
    guaranteed = True
    while u.bit_count() > eta * total:
        need = ceil_frac(delta * u.bit_count())
        peel = greedy_restricted_chunk(g, u, eps)
        if peel.bit_count() < u.bit_count():
            sub, ids = induced_subgraph(g, u)
            try:
                local = extract_restricted_exact(
                    sub, pat, eps, min(delta, Fraction(1, 4))
                )
                candidate = lift(ids, local)
                if candidate.bit_count() > peel.bit_count():
                    peel = candidate
            except ExtractionInfeasible:
                pass
        if peel.bit_count() < need:
            guaranteed = False
        peels.append(peel)
        u &= ~peel
    chain = PeelChain(tuple(peels), u, eps, eta, delta, phi(delta, eta), guaranteed)
    v = verify_peel_chain(g, chain)
    if not v.ok:
        raise AssertionError(v.detail)
    return chain


def extractor_wins(g: Graph, pc: PeelChain) -> int:
    """How many peels of the chain are not the greedy chunk of what was
    left before them, that is, came from the extractor."""
    wins, u = 0, g.full_mask
    for peel in pc.peels:
        wins += peel != greedy_restricted_chunk(g, u, pc.eps)
        u &= ~peel
    return wins


# G(12, 0.3) with seed 3: at eps = eta = delta = 1/4 the extractor's set
# beats the greedy chunk
EXTRACTOR_WINS = random_graph(12, 0.3, 3)
PEEL_DELTAS = st.sampled_from([None, Fraction(1, 8), QUARTER, Fraction(1, 2)])  # None: 1/n
PEEL_ETAS = st.sampled_from([QUARTER, Fraction(1, 2), Fraction(3, 4)])
PEEL_EPS = st.sampled_from([Fraction(1, 8), QUARTER, Fraction(1, 2)])
PEEL_PATTERNS = st.sampled_from(["K2", "K3"])


class TestPeelChainGuard:
    """peel_chain skips the extractor once the greedy chunk has the
    extractor's exact size; it must peel exactly as the unconditional call
    did."""

    def check(self, g, pattern, eps, eta, delta):
        pat = named_pattern(pattern)
        delta = delta if delta is not None else Fraction(1, max(2, g.n))
        pc = peel_chain(g, pat, eps, eta, delta)
        assert pc == peel_chain_always_extract(g, pat, eps, eta, delta)
        return pc

    @given(peeling_graphs(), PEEL_PATTERNS, PEEL_EPS, PEEL_ETAS, PEEL_DELTAS)
    @example(EXTRACTOR_WINS, "K2", QUARTER, QUARTER, QUARTER)
    @settings(max_examples=300, deadline=None)
    def test_matches_always_extract(self, g, pattern, eps, eta, delta):
        self.check(g, pattern, eps, eta, delta)

    @given(wide_graphs(), PEEL_PATTERNS, PEEL_EPS, PEEL_ETAS, PEEL_DELTAS)
    @settings(max_examples=60, deadline=None)
    def test_matches_always_extract_wide(self, g, pattern, eps, eta, delta):
        self.check(g, pattern, eps, eta, delta)

    def test_example_is_won_by_the_extractor(self):
        pc = self.check(EXTRACTOR_WINS, "K2", QUARTER, QUARTER, QUARTER)
        assert extractor_wins(EXTRACTOR_WINS, pc) >= 1

    def test_extractor_wins_on_sparse_graphs(self):
        # on G(n, 0.3) the greedy chunks often fall short of the
        # extractor's size; count the peels the extractor won
        wins = 0
        for n, seed, delta in itertools.product(
            (12, 16, 20), range(6), (Fraction(1, 8), QUARTER, Fraction(1, 2))
        ):
            g = random_graph(n, 0.3, seed)
            wins += extractor_wins(g, self.check(g, "K2", QUARTER, QUARTER, delta))
        assert wins >= 5

    @given(peeling_graphs(), PEEL_PATTERNS, PEEL_EPS, st.sampled_from([None, Fraction(1, 8), QUARTER]))
    @settings(max_examples=150, deadline=None)
    def test_extractor_returns_exactly_its_target(self, g, pattern, eps, delta):
        # the guard's premise: the extractor's set has exactly
        # ceil(delta |G|) vertices whenever it does not raise
        assume(g.n > 0)
        delta = delta if delta is not None else Fraction(1, max(4, g.n))
        try:
            t = extract_restricted_exact(g, named_pattern(pattern), eps, delta)
        except ExtractionInfeasible:
            return
        assert t.bit_count() == ceil_frac(delta * g.n)


class NodeBudget(int):
    """A node budget that notes when a search spends it.  The oracle below
    tests ``nodes >= budget``; Python tries the reflected __le__ of an int
    subclass on the right first, so every test passes through here."""

    spent = False

    def __le__(self, nodes):
        reached = int(self) <= nodes
        self.spent = self.spent or reached
        return reached


# The branch and bound that _independent_set ran before its clique-cover
# bound and floor, and the best-effort pick that called it without a floor,
# kept verbatim (bar their names) as oracles.
_INDEPENDENT_SET_NODES = NodeBudget(extraction._INDEPENDENT_SET_NODES)
_greedy_independent = extraction._greedy_independent
_greedy_shrink_to_density = extraction._greedy_shrink_to_density


def independent_set_plain(g: Graph) -> int:
    """Branch-and-bound maximum independent set, seeded by the greedy one.

    Deterministic; gives up (returning the best found so far) once the
    node budget is spent, so worst-case inputs degrade to the greedy
    answer instead of stalling.  Beyond desk scale the greedy answer is
    returned outright: per-node pivot scans on wide bitsets dominate and
    exactness there buys nothing.
    """
    best = _greedy_independent(g)
    if g.n > 64:
        return best
    nodes = 0

    def bnb(cand: int, cur: int, cur_size: int):
        nonlocal best, nodes
        if nodes >= _INDEPENDENT_SET_NODES:
            return
        nodes += 1
        if cur_size + cand.bit_count() <= best.bit_count():
            return
        if not cand:
            if cur_size > best.bit_count():
                best = cur
            return
        # branch on the highest-degree candidate (within cand)
        pivot, pivot_d = -1, -1
        for v in iter_bits(cand):
            d = (g.adj[v] & cand).bit_count()
            if d > pivot_d:
                pivot, pivot_d = v, d
        bit = 1 << pivot
        bnb(cand & ~bit & ~g.adj[pivot], cur | bit, cur_size + 1)
        bnb(cand & ~bit, cur, cur_size)

    bnb(g.full_mask, 0, 0)
    return best


def greedy_best_effort_plain(g: Graph, eps1: Fraction, eps2: Fraction) -> tuple[int, str]:
    """Largest qualifying set among four cheap candidates: degree-deletion
    toward either density target, a greedy independent set (density 0),
    and a greedy clique (density 1).  Always succeeds: a singleton has
    density 0."""
    gc = complement(g)
    candidates = [
        (_greedy_shrink_to_density(g, eps1), "low"),
        (_greedy_shrink_to_density(gc, eps2), "high"),
        (independent_set_plain(g), "low"),
        (independent_set_plain(gc), "high"),
    ]
    best, best_side = 0, "low"
    for mask, side in candidates:
        if not mask:
            continue
        dens = edge_density(g, mask)
        if side == "low" and dens > eps1:
            continue
        if side == "high" and dens < 1 - eps2:
            continue
        if mask.bit_count() > best.bit_count():
            best, best_side = mask, side
    if not best:
        best = 1  # vertex 0: density 0 qualifies on the low side
        best_side = "low"
    return best, best_side


# _independent_set as it was before it picked its pivot with max(), kept
# verbatim (bar its name) as the oracle of that pivot.
def independent_set_pivot_loop(g: Graph, floor: int = 0) -> int:
    best = _greedy_independent(g)
    if g.n > 64:
        return best
    adj = g.adj
    incumbent = max(best.bit_count(), floor)
    nodes = 0

    def bnb(cand: int, cur: int, cur_size: int):
        nonlocal best, incumbent, nodes
        if nodes >= _INDEPENDENT_SET_NODES:
            return
        nodes += 1
        room = incumbent - cur_size
        cover, rest = 0, cand
        while rest and cover <= room:
            cover += 1
            clique = rest
            while clique:
                low = clique & -clique
                rest ^= low
                clique &= adj[low.bit_length() - 1]
        if cover <= room:
            return
        if not cand:
            best, incumbent = cur, cur_size
            return
        # branch on the highest-degree candidate (within cand)
        pivot, pivot_d = -1, -1
        for v in iter_bits(cand):
            d = (adj[v] & cand).bit_count()
            if d > pivot_d:
                pivot, pivot_d = v, d
        bit = 1 << pivot
        bnb(cand & ~bit & ~adj[pivot], cur | bit, cur_size + 1)
        bnb(cand & ~bit, cur, cur_size)

    bnb(g.full_mask, 0, 0)
    return best


@given(peeling_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_independent_set_matches_the_pivot_loop(g, data):
    # the same node order, so the same set even when the node budget runs out
    floor = data.draw(st.integers(0, g.n + 1))
    assert extraction._independent_set(g, floor) == independent_set_pivot_loop(g, floor)
    assert extraction._independent_set(complement(g), floor) == independent_set_pivot_loop(
        complement(g), floor
    )


def finished_plain(g: Graph) -> int | None:
    """The oracle's independent set of g, or None if it spent its budget
    (long cycles and sparse circulants on 40 vertices do)."""
    _INDEPENDENT_SET_NODES.spent = False
    best = independent_set_plain(g)
    return None if _INDEPENDENT_SET_NODES.spent else best


def is_independent(g: Graph, s: int) -> bool:
    return all(not g.adj[v] & s for v in iter_bits(s))


BEST_EFFORT_EPS = st.fractions(Fraction(1, 20), Fraction(19, 20), max_denominator=20)


class TestIndependentSetMatchesPlainSearch:
    @given(st.one_of(peeling_graphs(), wide_graphs()))
    @settings(max_examples=300, deadline=None)
    def test_same_set_at_floor_zero(self, g):
        want = finished_plain(g)
        assume(want is not None)
        assert extraction._independent_set(g) == want
        assert extraction._independent_set(g, 0) == want

    @given(peeling_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_floor(self, g, data):
        want = finished_plain(g)
        assume(want is not None)
        alpha = want.bit_count()
        floor = data.draw(st.integers(0, g.n + 1))
        if data.draw(st.booleans()):
            floor = max(alpha - data.draw(st.integers(0, 1)), 0)
        got = extraction._independent_set(g, floor)
        assert is_independent(g, got)
        if alpha > floor:
            assert got == want
        else:
            assert got.bit_count() <= floor

    def test_floor_just_below_alpha(self):
        # the min-degree greedy set here is {0, 3}, and alpha = 3 by {1, 3, 4}
        g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3), (2, 4)])
        assert extraction._greedy_independent(g) == 0b01001
        assert finished_plain(g) == 0b11010
        assert extraction._independent_set(g, 2) == 0b11010
        assert extraction._independent_set(g, 3).bit_count() <= 3
        for eps in (Fraction(1, 20), QUARTER):
            assert extraction._greedy_best_effort(g, eps, eps) == greedy_best_effort_plain(
                g, eps, eps
            )
        # a relabelled C6: the shrink keeps {4, 5}, the greedy set is {0, 1},
        # and only the search finds alpha = 3, one above the shrink's size
        c6 = Graph.from_edges(6, [(0, 2), (0, 4), (1, 3), (1, 5), (2, 5), (3, 4)])
        eps1, eps2 = Fraction(1, 5), Fraction(3, 20)
        assert extraction._greedy_shrink_to_density(c6, eps1) == 0b110000
        assert extraction._greedy_best_effort(c6, eps1, eps2) == (0b101001, "low")
        assert greedy_best_effort_plain(c6, eps1, eps2) == (0b101001, "low")

    @given(st.one_of(peeling_graphs(), wide_graphs()), BEST_EFFORT_EPS, BEST_EFFORT_EPS)
    @settings(max_examples=200, deadline=None)
    def test_best_effort_matches(self, g, eps1, eps2):
        assume(g.n > 0)
        assume(finished_plain(g) is not None and finished_plain(complement(g)) is not None)
        assert extraction._greedy_best_effort(g, eps1, eps2) == greedy_best_effort_plain(
            g, eps1, eps2
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("pattern", ["K2", "K3", "P4"])
    def test_density_subset_matches_with_the_plain_fallback(self, monkeypatch, seed, pattern):
        rng = random.Random(seed)
        g = random_graph(rng.randint(10, 40), rng.uniform(0.1, 0.9), seed)
        pat = named_pattern(pattern)
        budget = ExtractionBudget.practical(QUARTER, QUARTER, 5, h=pat.size)
        res = find_low_or_high_density_subset(g, pat, budget)
        monkeypatch.setattr(extraction, "_greedy_best_effort", greedy_best_effort_plain)
        assert find_low_or_high_density_subset(g, pat, budget) == res


def low_crossing_core_fraction(g: Graph, a: int, b: int, eps: Fraction, k: int) -> int:
    # the core loop of _search before it compared integers
    a0 = 0
    for v in iter_bits(a):
        if (g.adj[v] & b).bit_count() <= Fraction(1, 2) * eps * k:
            a0 |= 1 << v
    return a0


def test_search_keeps_the_fraction_core(monkeypatch):
    # _search's one with_at_least call keeps the same vertices of A as the
    # Fraction comparison, and its k is the least integer above eps |B1| / 2
    # (few vertices of A ever sit at that bound, so the sets alone would not
    # show a k one too high); eps is min(eps1, eps2) of the level making the call
    levels, calls = [], []
    search, count = extraction._search, extraction.with_at_least

    def tracked_search(g, pat, eps1, eps2, depth):
        levels.append(min(eps1, eps2))
        try:
            return search(g, pat, eps1, eps2, depth)
        finally:
            levels.pop()

    def spy(g, a, b, k):
        calls.append((g, a, b, k, levels[-1], count(g, a, b, k)))
        return calls[-1][-1]

    monkeypatch.setattr(extraction, "_search", tracked_search)
    monkeypatch.setattr(extraction, "with_at_least", spy)
    p4 = named_pattern("P4")
    for seed in range(6):
        g = random_graph(40, (0.3, 0.5, 0.7)[seed % 3], seed)
        find_low_or_high_density_subset(g, p4, ExtractionBudget.practical(QUARTER, QUARTER, 5, h=4))
    assert calls
    for work, a, b, k, eps, kept in calls:
        assert k - 1 <= eps * b.bit_count() / 2 < k
        assert a & ~kept == low_crossing_core_fraction(work, a, b, eps, b.bit_count())


@given(peeling_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_low_crossing_core_matches_fraction_comparison(g, data):
    a = data.draw(st.integers(0, g.full_mask))
    b = data.draw(st.integers(0, g.full_mask)) & ~a
    k = data.draw(st.integers(0, 40))
    # eps k / 2 is often an integer here: eps = 2j / k
    eps = data.draw(st.one_of(
        st.fractions(0, 1, max_denominator=24),
        st.builds(lambda j: Fraction(2 * j, max(k, 1)), st.integers(0, max(k, 1) // 2)),
    ))
    # the core as _search computes it
    core = a & ~with_at_least(g, a, b, floor_frac(eps * k / 2) + 1)
    assert core == low_crossing_core_fraction(g, a, b, eps, k)
