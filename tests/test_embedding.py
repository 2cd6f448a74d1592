import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_fraction_ops, random_graph, random_pattern
from rpt import embedding
from rpt.embedding import (
    CopyCount,
    EmbeddingParams,
    ManyCopiesResult,
    TightPairResult,
    TightPairWitness,
    blowup_copy_bound,
    blowup_copy_bound_check,
    find_tight_pair,
    tight_pair_copy_threshold,
    validate_witness,
    witness_or_count,
)
from rpt.graph import (
    Graph,
    Pattern,
    count_embeddings_into_parts,
    mask_from_ids,
    mask_to_ids,
    named_pattern,
)
from rpt.predicates import BlowupCertificate, verify_blowup

HALF = Fraction(1, 2)


def split_parts(n: int, h: int, seed: int | None = None):
    ids = list(range(n))
    if seed is not None:
        random.Random(seed).shuffle(ids)
    size = n // h
    return [mask_from_ids(ids[t * size : (t + 1) * size]) for t in range(h)]


class TestCountingDichotomy:
    def test_complete_bipartite_counts(self):
        g = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        params = EmbeddingParams.uniform(2, HALF, HALF)
        res = witness_or_count(g, named_pattern("K2"), [0b000111, 0b111000], params)
        assert isinstance(res, CopyCount)
        assert res.count == 9
        assert res.count >= res.bound

    def test_edgeless_yields_sparse_witness(self):
        g = Graph.empty(6)
        params = EmbeddingParams.uniform(2, HALF, HALF)
        w = witness_or_count(g, named_pattern("K2"), [0b000111, 0b111000], params)
        assert isinstance(w, TightPairWitness) and w.mode == "sparse"
        assert (w.i, w.j) == (1, 2)
        assert w.a == 0b000111 and w.b == 0b111000

    def test_rejects_bad_inputs(self):
        params = EmbeddingParams.uniform(2, HALF, HALF)
        with pytest.raises(ValueError):
            witness_or_count(Graph.empty(4), named_pattern("K2"), [0b0011], params)
        with pytest.raises(ValueError):
            witness_or_count(
                Graph.empty(4), named_pattern("K2"), [0b0011, 0b0110], params
            )
        with pytest.raises(ValueError):
            witness_or_count(Graph.empty(4), named_pattern("K2"), [0b0011, 0], params)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(i=2, j=1), "witness labels out of order"),
            (dict(b=0b000011), "witness sets leak outside their parts"),
            (dict(a=0b000001), "witness a-side below threshold"),
            (dict(b=0b001000), "witness b-side below threshold"),
            (dict(mode="dense"), "witness mode contradicts the pattern edge"),
        ],
    )
    def test_validate_witness_refuses_each_clause(self, change, message):
        # on the edgeless graph (D_1, D_2) is a sparse witness for K2, with
        # thresholds |A| >= 3 and |B| >= 3/2; each change breaks one clause
        g, pat = Graph.empty(6), named_pattern("K2")
        parts = [0b000111, 0b111000]
        params = EmbeddingParams.uniform(2, HALF, HALF)
        w = TightPairWitness(i=1, j=2, a=0b000111, b=0b111000, mode="sparse")
        validate_witness(g, pat, parts, params, w)
        with pytest.raises(AssertionError, match=message):
            validate_witness(g, pat, parts, params, replace(w, **change))

    @given(st.integers(0, 10_000))
    @settings(max_examples=500, deadline=None)
    def test_dichotomy_soundness(self, seed):
        """Acceptance-grade property: every witness re-verifies, every
        count equals the exact embedding count and meets the bound."""
        rng = random.Random(seed)
        h = rng.choice([2, 3])
        part_sizes = [rng.randint(1, 12) for _ in range(h)]
        n = sum(part_sizes)
        g = random_graph(n, rng.uniform(0.1, 0.9), seed)
        masks, start = [], 0
        for size in part_sizes:
            masks.append(mask_from_ids(range(start, start + size)))
            start += size
        pat = random_pattern(h, seed + 13)
        params = EmbeddingParams(
            tuple(Fraction(rng.randint(1, 3), 4) for _ in range(h - 1)),
            tuple(Fraction(rng.randint(1, 3), 4) for _ in range(h - 1)),
        )
        res = witness_or_count(g, pat, masks, params)
        if isinstance(res, TightPairWitness):
            validate_witness(g, pat, masks, params, res)
        else:
            assert res.count == count_embeddings_into_parts(g, pat, masks)
            assert res.count >= res.bound


class TestFindTightPair:
    def test_kappa_spot_value(self):
        assert tight_pair_copy_threshold(2, HALF) == Fraction(1, 128)

    def test_edgeless_sparse_witness(self):
        res = find_tight_pair(Graph.empty(10), named_pattern("K2"), HALF)
        assert isinstance(res, TightPairResult)
        assert res.mode == "sparse"
        floor = Fraction(1, (2 * 2) ** 2) * HALF ** (2 - 1) * 10  # (2h)^-2 eps^(h-1) |G|
        assert res.a.bit_count() >= floor and res.b.bit_count() >= floor

    def test_complete_graph_hits_count_arm(self):
        # ind(K10) far exceeds kappa |G|^2, so the tight-pair promise is
        # void and the dichotomy reports the copy count instead.
        res = find_tight_pair(Graph.complete(10), named_pattern("K2"), HALF)
        assert isinstance(res, ManyCopiesResult)
        assert res.exceeds and res.count > res.threshold

    def test_rejects_small_graphs(self):
        with pytest.raises(ValueError):
            find_tight_pair(Graph.empty(2), named_pattern("K3"), HALF)

    @given(st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_shuffled_variant_still_sound(self, seed):
        # find_tight_pair's dichotomy on a shuffled split of the vertices
        g = random_graph(12, 0.5, seed)
        pat = named_pattern("K3")
        parts = split_parts(g.n, 3, seed)
        params = EmbeddingParams.uniform(3, Fraction(1, 4), HALF)
        res = witness_or_count(g, pat, parts, params)
        if isinstance(res, TightPairWitness):
            assert res.a & res.b == 0
            validate_witness(g, pat, parts, params, res)
        else:
            assert res.count >= res.bound


class TestBlowupCopyBound:
    def test_k1_vacuous(self):
        g = Graph.empty(5)
        eps = Fraction(1, 4)
        cert = BlowupCertificate((0b01111,), eps**1, eps, named_pattern("K1"))
        assert blowup_copy_bound_check(g, named_pattern("K1"), cert)

    def test_k2_complete_bipartite(self):
        g = Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])
        eps = Fraction(1, 4)
        cert = BlowupCertificate(
            (0b00001111, 0b11110000), eps**2, eps, named_pattern("K2")
        )
        assert blowup_copy_bound_check(g, named_pattern("K2"), cert)

    def test_unverified_certificate_rejected(self):
        g = Graph.empty(8)
        eps = Fraction(1, 4)
        cert = BlowupCertificate(
            (0b00001111, 0b11110000), eps**2, eps, named_pattern("K2")
        )
        with pytest.raises(ValueError):
            blowup_copy_bound_check(g, named_pattern("K2"), cert)

    def test_exponent_forms(self):
        # (1-eps)^(h-1) * eps^C(h,2) * prod sizes
        assert blowup_copy_bound(2, Fraction(1, 4), [4, 4]) == 3
        assert blowup_copy_bound(3, Fraction(1, 4), [5, 6, 7]) == Fraction(945, 512)

    @given(st.integers(0, 2000))
    @settings(max_examples=200, deadline=None)
    def test_verified_blowups_meet_the_bound(self, seed):
        """Randomized verified blowups always satisfy the copy lower bound."""
        rng = random.Random(seed)
        h = rng.choice([2, 3])
        eps = rng.choice([Fraction(1, 4), Fraction(1, 8)])
        sizes = [rng.randint(1, 10 if h == 2 else 6) for _ in range(h)]
        pat = random_pattern(h, seed + 3)
        # build a graph that joins parts completely along pattern edges
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
        assert verify_blowup(g, cert).ok
        assert blowup_copy_bound_check(g, pat, cert)


# The peeling recursion as it compared each count with a Fraction threshold,
# kept verbatim (bar its name) as the oracle for witness_or_count.
def witness_search_fraction(
    g: Graph, pat: Pattern, parts: list[int], params: EmbeddingParams, m: int
) -> TightPairWitness | None:
    """Run the peeling recursion on labels 1..m; None means the bound is certified."""
    if m <= 1:
        return None
    eps = params.eps_seq[m - 2]
    delta = params.delta_seq[m - 2]
    d_last = parts[m - 1]
    n_last = d_last.bit_count()
    surviving = d_last
    for i in range(1, m):
        di = parts[i - 1]
        ni = di.bit_count()
        edge = pat.label_edge(i, m)
        threshold = eps * ni
        p_i = 0
        for u in mask_to_ids(d_last):
            correct = (g.adj[u] & di).bit_count()
            if not edge:
                correct = ni - correct
            if correct < threshold:
                p_i |= 1 << u
        if p_i.bit_count() * (m - 1) > delta * n_last:
            return TightPairWitness(
                i=i, j=m, a=di, b=p_i, mode="sparse" if edge else "dense"
            )
        surviving &= ~p_i
    if surviving.bit_count() < (1 - delta) * n_last:
        raise AssertionError("too many last-part vertices dropped as incorrect")
    for u in mask_to_ids(surviving):
        shrunk = []
        for i in range(1, m):
            di = parts[i - 1]
            sub = g.adj[u] & di if pat.label_edge(i, m) else di & ~g.adj[u]
            if sub.bit_count() < eps * di.bit_count():
                raise AssertionError("a surviving vertex sees too little of a part")
            shrunk.append(sub)
        deep = witness_search_fraction(g, pat, shrunk, params, m - 1)
        if deep is not None:
            return deep
    return None


def outcome(call):
    """A call's result, or the message of the AssertionError it raised."""
    try:
        return call()
    except AssertionError as exc:
        return ("AssertionError", str(exc))


ORACLE_PATTERNS = ["K2", "K3", "P4", "C5"]


def oracle_eps(size: int):
    """Parameters in (0, 1), often with eps |D| an integer for parts of this size."""
    return st.one_of(
        st.fractions(Fraction(1, 24), Fraction(23, 24), max_denominator=24),
        st.builds(lambda j: Fraction(j, size), st.integers(1, size - 1)),
    )


class TestWitnessSearchMatchesFractionComparison:
    @given(st.sampled_from(ORACLE_PATTERNS), st.integers(0, 10**6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_witness_or_count(self, name, seed, data):
        pat = named_pattern(name)
        h = pat.size
        size = data.draw(st.integers(2, 12 if h <= 3 else 6))
        g = random_graph(h * size, data.draw(st.floats(0.0, 1.0)), seed)
        parts = split_parts(g.n, h, data.draw(st.one_of(st.none(), st.integers(0, 99))))
        params = EmbeddingParams(
            tuple(data.draw(oracle_eps(size)) for _ in range(h - 1)),
            tuple(data.draw(oracle_eps(size)) for _ in range(h - 1)),
        )
        got = outcome(lambda: witness_or_count(g, pat, parts, params))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embedding, "_witness_search", witness_search_fraction)
            want = outcome(lambda: witness_or_count(g, pat, parts, params))
        assert got == want

    @given(st.sampled_from(ORACLE_PATTERNS), st.integers(0, 10**6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_find_tight_pair(self, name, seed, data):
        pat = named_pattern(name)
        h = pat.size
        n = data.draw(st.integers(h, 8 * h if h <= 3 else 30))
        g = random_graph(n, data.draw(st.floats(0.0, 1.0)), seed)
        eps = data.draw(oracle_eps(max(n // h, 2)))
        got = outcome(lambda: find_tight_pair(g, pat, eps))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(embedding, "_witness_search", witness_search_fraction)
            want = outcome(lambda: find_tight_pair(g, pat, eps))
        assert got == want
        if isinstance(got, TightPairResult):
            # the size promise of find_tight_pair's docstring, for every n >= h
            floor = Fraction(1, (2 * h) ** 2) * eps ** (h - 1) * n
            assert got.a.bit_count() >= floor and got.b.bit_count() >= floor

    def test_fraction_work_does_not_grow_with_the_parts(self):
        # one threshold per part, not one Fraction comparison per vertex
        def ops(size):
            g = Graph.from_edges(
                2 * size, [(u, v) for u in range(size) for v in range(size, 2 * size)]
            )
            parts = split_parts(g.n, 2)
            params = EmbeddingParams.uniform(2, Fraction(1, 3), HALF)
            with count_fraction_ops() as calls:
                assert embedding._witness_search(g, named_pattern("K2"), parts, params, 2) is None
            return calls[0]

        assert ops(3) == ops(40)
