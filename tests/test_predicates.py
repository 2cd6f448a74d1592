import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_fraction_ops, peeling_graphs, random_graph, wide_graphs
from rpt.graph import (
    Graph,
    Pattern,
    complement,
    edge_density,
    mask_from_ids,
    mask_to_ids,
    named_pattern,
    peel_order,
)
from rpt.predicates import (
    TIGHTNESS_MODES,
    BlowupCertificate,
    CheckPreconditionError,
    Verdict,
    FullPairCertificate,
    extract_restricted_from_weak,
    is_full_pair,
    is_restricted,
    is_tight_to,
    is_weakly_restricted,
    min_subpair_sizes,
    verify_blowup,
)

HALF = Fraction(1, 2)


class TestTightness:
    def test_empty_b_is_vacuously_tight(self):
        g = Graph.empty(4)
        for mode in ("sparse", "dense", "tight"):
            assert is_tight_to(g, 0b0011, 0, HALF, mode).ok

    def test_complete_bipartite_modes(self):
        g = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        a, b = 0b000111, 0b111000
        assert not is_tight_to(g, a, b, HALF, "sparse").ok
        assert is_tight_to(g, a, b, HALF, "dense").ok
        assert is_tight_to(g, a, b, HALF, "tight").ok

    def test_empty_a_rejected(self):
        with pytest.raises(CheckPreconditionError):
            is_tight_to(Graph.empty(3), 0, 0b011, HALF, "sparse")

    def test_overlap_rejected(self):
        with pytest.raises(CheckPreconditionError):
            is_tight_to(Graph.empty(3), 0b011, 0b010, HALF, "sparse")

    def test_strictness_at_the_boundary(self):
        # one vertex with exactly eps*|A| neighbors violates the strict bound
        g = Graph.from_edges(3, [(0, 2)])
        a, b = 0b011, 0b100
        assert not is_tight_to(g, a, b, HALF, "sparse").ok
        assert is_tight_to(g, a, b, Fraction(51, 100), "sparse").ok

    @given(st.integers(0, 200))
    @settings(max_examples=40)
    def test_sparse_monotone_in_eps(self, seed):
        g = random_graph(8, 0.4, seed)
        a, b = 0b00001111, 0b11110000
        for num in range(1, 8):
            eps = Fraction(num, 8)
            if is_tight_to(g, a, b, eps, "sparse").ok:
                assert is_tight_to(g, a, b, eps + Fraction(1, 8), "sparse").ok

    @given(st.integers(0, 200))
    @settings(max_examples=40)
    def test_full_in_graph_is_empty_in_complement(self, seed):
        g = random_graph(8, 0.5, seed)
        cert_f = FullPairCertificate(0b00001111, 0b11110000, HALF, Fraction(1, 4), "full")
        cert_e = FullPairCertificate(0b00001111, 0b11110000, HALF, Fraction(1, 4), "empty")
        assert is_full_pair(g, cert_f).ok == is_full_pair(complement(g), cert_e).ok

    @given(st.integers(0, 300))
    @settings(max_examples=60)
    def test_matches_direct_degree_scan(self, seed):
        g = random_graph(9, 0.5, seed)
        a, b = 0b000011111, 0b111100000
        eps = Fraction(1, 3)
        res = is_tight_to(g, a, b, eps, "tight")
        na = a.bit_count()
        sparse = all((g.adj[v] & a).bit_count() < eps * na for v in mask_to_ids(b))
        dense = all(
            na - (g.adj[v] & a).bit_count() < eps * na for v in mask_to_ids(b)
        )
        assert res.ok == (sparse or dense)
        if not res.ok:
            assert res.witness is not None

    @given(st.integers(0, 10**6), st.integers(2, 16), st.data())
    @settings(max_examples=300, deadline=None)
    def test_witness_matches_tightness_check(self, seed, n, data):
        g = random_graph(n, data.draw(st.floats(0.0, 1.0)), seed)
        a = data.draw(st.integers(1, g.full_mask))
        b = data.draw(st.integers(0, g.full_mask)) & ~a
        eps = data.draw(st.fractions(Fraction(1, 20), 1, max_denominator=20))
        for mode in ("sparse", "dense", "tight"):
            old = tightness_check(g, a, b, eps, mode)
            res = is_tight_to(g, a, b, eps, mode)
            assert (res.ok, res.witness) == (old.ok, old.witness), mode


# The result type and loop that is_tight_to had before it returned a
# Verdict, kept verbatim as the oracle for its witness.
@dataclass(frozen=True)
class TightnessCheck:
    ok: bool
    satisfied: str | None  # "sparse" or "dense" when ok under mode="tight"
    sparse_violator: int | None
    dense_violator: int | None

    @property
    def witness(self) -> int | None:
        """A vertex violating both bounds if one exists, else any violator."""
        if self.sparse_violator is not None and self.sparse_violator == self.dense_violator:
            return self.sparse_violator
        if self.sparse_violator is not None:
            return self.sparse_violator
        return self.dense_violator


def tightness_check(g: Graph, a: int, b: int, eps: Fraction, mode: str) -> TightnessCheck:
    """Is B eps-sparse / eps-dense / eps-tight to A (strict bounds)?"""
    na = a.bit_count()
    threshold = eps * na
    sparse_bad = dense_bad = None
    both_bad = None
    for v in mask_to_ids(b):
        nbrs = (g.adj[v] & a).bit_count()
        viol_sparse = not nbrs < threshold
        viol_dense = not (na - nbrs) < threshold
        if viol_sparse and sparse_bad is None:
            sparse_bad = v
        if viol_dense and dense_bad is None:
            dense_bad = v
        if viol_sparse and viol_dense and both_bad is None:
            both_bad = v
    sparse_ok = sparse_bad is None
    dense_ok = dense_bad is None
    if mode == "sparse":
        return TightnessCheck(sparse_ok, "sparse" if sparse_ok else None, sparse_bad, None)
    if mode == "dense":
        return TightnessCheck(dense_ok, "dense" if dense_ok else None, None, dense_bad)
    ok = sparse_ok or dense_ok
    satisfied = "sparse" if sparse_ok else ("dense" if dense_ok else None)
    if ok:
        return TightnessCheck(True, satisfied, None, None)
    if both_bad is not None:
        return TightnessCheck(False, None, both_bad, both_bad)
    return TightnessCheck(False, None, sparse_bad, dense_bad)


class TestRestricted:
    def test_independent_set_always_restricted(self):
        g = Graph.from_edges(5, [(0, 1)])
        assert is_restricted(g, 0b11100, Fraction(0))

    def test_c5_spot_value(self):
        c5 = Graph.cycle(5)
        assert not is_restricted(c5, c5.full_mask, Fraction(3, 10))
        assert is_restricted(c5, c5.full_mask, Fraction(2, 5))

    def test_clique_restricted_via_complement(self):
        g = Graph.complete(4)
        assert is_restricted(g, g.full_mask, HALF)

    def test_small_sets(self):
        g = Graph.complete(3)
        assert is_restricted(g, 0, Fraction(0))
        assert is_restricted(g, 0b1, Fraction(0))

    @given(st.integers(0, 200), st.integers(1, 8))
    @settings(max_examples=60)
    def test_monotone_in_eps(self, seed, num):
        g = random_graph(8, 0.5, seed)
        s = g.full_mask
        eps = Fraction(num, 8)
        if is_restricted(g, s, eps):
            assert is_restricted(g, s, eps + Fraction(1, 8))

    @given(st.integers(0, 200))
    @settings(max_examples=60)
    def test_complement_duality(self, seed):
        g = random_graph(8, 0.5, seed)
        s = 0b01111110
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            assert is_restricted(g, s, eps) == is_restricted(complement(g), s, eps)


# is_restricted as it was before it read graph.degree_range, kept verbatim
# (bar its name) as an oracle.
def is_restricted_loop(g: Graph, s: int, eps: Fraction) -> bool:
    """Max degree at most eps*|S| in G[S] or in its complement."""
    size = s.bit_count()
    if size <= 1:
        return True
    degs = [(g.adj[v] & s).bit_count() for v in mask_to_ids(s)]
    threshold = eps * size
    return max(degs) <= threshold or size - 1 - min(degs) <= threshold


@given(st.one_of(peeling_graphs(), wide_graphs()), st.data())
@settings(max_examples=200, deadline=None)
def test_is_restricted_matches_loop(g, data):
    s = data.draw(st.integers(0, g.full_mask))
    size = max(s.bit_count(), 1)
    # eps |S| is an integer in the second strategy
    eps = data.draw(st.one_of(
        st.fractions(0, 1, max_denominator=24),
        st.builds(lambda j: Fraction(j, size), st.integers(0, size)),
    ))
    assert is_restricted(g, s, eps) == is_restricted_loop(g, s, eps)


class TestWeaklyRestricted:
    def test_c5_boundary(self):
        c5 = Graph.cycle(5)
        assert is_weakly_restricted(c5, c5.full_mask, HALF)
        assert not is_weakly_restricted(c5, c5.full_mask, Fraction(2, 5))

    @given(st.integers(0, 200))
    @settings(max_examples=60)
    def test_half_eps_restricted_implies_weak(self, seed):
        g = random_graph(8, 0.5, seed)
        s = g.full_mask
        eps = Fraction(1, 2)
        if is_restricted(g, s, eps / 2):
            assert is_weakly_restricted(g, s, eps)


class TestExtractFromWeak:
    def test_singleton(self):
        g = Graph.complete(1)
        assert extract_restricted_from_weak(g, 0b1, HALF) == 0b1

    def test_independent_input(self):
        g = Graph.empty(7)
        out = extract_restricted_from_weak(g, g.full_mask, Fraction(1, 4))
        assert out.bit_count() == 4  # ceil(7/2)

    def test_star_input(self):
        # a star is weakly restricted but not restricted; greedy removes the hub
        g = Graph.from_edges(11, [(0, i) for i in range(1, 11)])
        eps = Fraction(3, 4)
        out = extract_restricted_from_weak(g, g.full_mask, eps)
        assert out.bit_count() == 6
        assert is_restricted(g, out, eps)

    def test_postcondition_catches_a_wrong_peeling(self, monkeypatch):
        # deleting minimum-degree vertices keeps the hub of a 21-vertex star,
        # and hub plus 10 leaves is not 2/5-restricted; the recheck refuses it
        import rpt.predicates

        g = Graph.from_edges(21, [(0, i) for i in range(1, 21)])
        flipped = {"low": "high", "high": "low"}
        monkeypatch.setattr(rpt.predicates, "peel_order",
                            lambda g, s, side: peel_order(g, s, flipped[side]))
        with pytest.raises(AssertionError, match="greedy extraction missed its postcondition"):
            extract_restricted_from_weak(g, g.full_mask, Fraction(2, 5))

    def test_precondition_enforced(self):
        c5 = Graph.cycle(5)
        with pytest.raises(CheckPreconditionError):
            extract_restricted_from_weak(c5, c5.full_mask, Fraction(1, 4))

    @given(st.integers(0, 1000))
    @settings(max_examples=200, deadline=None)
    def test_output_always_passes(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        p = rng.choice([0.05, 0.1, 0.9, 0.95])
        g = random_graph(n, p, seed)
        eps = Fraction(rng.randint(1, 3), 4)
        s = g.full_mask
        if not is_weakly_restricted(g, s, eps / 4):
            return
        out = extract_restricted_from_weak(g, s, eps)
        assert out.bit_count() == (n + 1) // 2
        assert is_restricted(g, out, eps)
        # degree bound verified directly on every output vertex
        side_g = g if edge_density(g, s) <= eps / 4 else complement(g)
        k = out.bit_count()
        if all((side_g.adj[v] & out).bit_count() <= eps * k for v in mask_to_ids(out)):
            pass  # the greedy side met the bound itself
        else:
            assert is_restricted(g, out, eps)

    @given(st.integers(1, 40), st.floats(0.0, 0.3), st.integers(0, 10**6),
           st.sampled_from(["low", "high"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_rescan(self, n, p, seed, polarity, data):
        # G(n, p) for the sparse polarity, its complement for the dense one
        g = random_graph(n, p, seed)
        if polarity == "high":
            g = complement(g)
        s = data.draw(st.integers(1, g.full_mask))
        dens = edge_density(g, s)
        sparse_side = dens if polarity == "low" else 1 - dens
        eps = max(4 * sparse_side, data.draw(st.sampled_from([Fraction(1, 40), Fraction(1, 2)])))
        assert extract_restricted_from_weak(g, s, eps) == extract_from_weak_rescan(g, s, eps)

    @given(st.integers(1, 40), st.floats(0.7, 1.0), st.integers(0, 10**6),
           st.sampled_from([Fraction(1, 40), Fraction(1, 2)]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_dense_side_matches_the_complement(self, n, p, seed, eps, data):
        # a dense S: peeling G on its "high" side deletes what peeling the
        # complement on its "low" side does
        g = random_graph(n, p, seed)
        s = data.draw(st.integers(1, g.full_mask))
        eps = max(4 * (1 - edge_density(g, s)), eps)
        assert extract_restricted_from_weak(g, s, eps) == extract_from_weak_complement(g, s, eps)


# extract_restricted_from_weak as it ran before it peeled G on its "high"
# side for a dense S: it built the complement and peeled that on its "low"
# side.  Kept verbatim as an oracle.
def extract_from_weak_complement(g: Graph, s: int, eps: Fraction) -> int:
    size = s.bit_count()
    if size == 0:
        raise CheckPreconditionError("cannot extract from an empty set")
    quarter = eps / 4
    dens = edge_density(g, s)
    if dens <= quarter:
        work = g
    elif dens >= 1 - quarter:
        work = complement(g)
    else:
        raise CheckPreconditionError(
            f"set is not weakly {quarter}-restricted (density {dens})"
        )
    current = s
    for v, _ in itertools.islice(peel_order(work, s, "low"), size // 2):
        current ^= 1 << v
    if not is_restricted(g, current, eps):
        raise AssertionError("greedy extraction missed its postcondition")
    return current


# The rescanning loop that extract_restricted_from_weak ran before it took
# its deletion order from graph.peel_order, kept verbatim as an oracle.
def extract_from_weak_rescan(g: Graph, s: int, eps: Fraction) -> int:
    size = s.bit_count()
    if size == 0:
        raise CheckPreconditionError("cannot extract from an empty set")
    quarter = eps / 4
    dens = edge_density(g, s)
    if dens <= quarter:
        work = g
    elif dens >= 1 - quarter:
        work = complement(g)
    else:
        raise CheckPreconditionError(
            f"set is not weakly {quarter}-restricted (density {dens})"
        )
    target = (size + 1) // 2
    current = s
    while current.bit_count() > target:
        worst, worst_deg = None, -1
        for v in mask_to_ids(current):
            d = (work.adj[v] & current).bit_count()
            if d > worst_deg:
                worst, worst_deg = v, d
        current &= ~(1 << worst)
    if not is_restricted(g, current, eps):
        raise AssertionError("greedy extraction missed its postcondition")
    return current


def brute_force_full(g: Graph, cert: FullPairCertificate) -> bool:
    """Unreduced all-subpairs enumeration, straight from the definition."""
    work = g if cert.polarity == "full" else complement(g)
    a_ids, b_ids = mask_to_ids(cert.a), mask_to_ids(cert.b)
    na, nb = len(a_ids), len(b_ids)
    for ka in range(1, na + 1):
        if ka < cert.c * na:
            continue
        for kb in range(1, nb + 1):
            if kb < cert.c * nb:
                continue
            for a1 in itertools.combinations(a_ids, ka):
                am = mask_from_ids(a1)
                for b1 in itertools.combinations(b_ids, kb):
                    bm = mask_from_ids(b1)
                    if work.edges_between(am, bm) < cert.eps * ka * kb:
                        return False
    return True


def flat_violating_subpair(work: Graph, a: int, b: int, ka: int, kb: int, eps: Fraction):
    """The flat enumeration the branch and bound replaced: every combination
    of the side with fewer of them, in lexicographic order, with the other
    side resolved by a partial sort.  Kept as the oracle for the first
    violating subpair."""
    a_ids = mask_to_ids(a)
    b_ids = mask_to_ids(b)

    def search(outer_ids, inner_ids, outer_k, inner_k, rows):
        for combo in itertools.combinations(outer_ids, outer_k):
            combo_mask = 0
            for v in combo:
                combo_mask |= 1 << v
            counts = sorted((rows[u] & combo_mask).bit_count() for u in inner_ids)
            worst = counts[:inner_k]
            if sum(worst) < eps * outer_k * inner_k:
                scored = sorted(inner_ids, key=lambda u: ((rows[u] & combo_mask).bit_count(), u))
                inner_mask = 0
                for u in scored[:inner_k]:
                    inner_mask |= 1 << u
                return combo_mask, inner_mask
        return None

    if comb(len(b_ids), kb) <= comb(len(a_ids), ka):
        rows = {u: work.adj[u] for u in a_ids}
        found = search(b_ids, a_ids, kb, ka, rows)
        if found is None:
            return None
        b1, a1 = found
        return a1, b1
    rows = {u: work.adj[u] for u in b_ids}
    return search(a_ids, b_ids, ka, kb, rows)


C_GRID = (Fraction(1, 3), HALF, Fraction(2, 3))
EPS_GRID = (Fraction(1, 8), Fraction(1, 4), HALF)


def random_pair_case(seed: int, na: int, nb: int):
    """A seeded graph with a random split of its vertices into sides of
    sizes na and nb, and a certificate drawn from the c/eps grid."""
    rng = random.Random(seed)
    g = random_graph(na + nb, rng.uniform(0.2, 0.9), seed)
    ids = list(range(na + nb))
    rng.shuffle(ids)
    cert = FullPairCertificate(
        mask_from_ids(sorted(ids[:na])),
        mask_from_ids(sorted(ids[na:])),
        rng.choice(C_GRID),
        rng.choice(EPS_GRID),
        rng.choice(["full", "empty"]),
    )
    return g, cert


def flat_verdict(g: Graph, cert: FullPairCertificate):
    work = g if cert.polarity == "full" else complement(g)
    ka, kb = min_subpair_sizes(cert)
    bad = flat_violating_subpair(work, cert.a, cert.b, ka, kb, cert.eps)
    if bad is None:
        return True, None, ""
    return False, bad, f"violating subpair a={mask_to_ids(bad[0])} b={mask_to_ids(bad[1])}"


class TestFullPair:
    def test_matches_flat_enumeration(self):
        # same verdict and the same (lexicographically first) witness
        outcomes = set()
        for seed in range(320):
            rng = random.Random(10_000 + seed)
            g, cert = random_pair_case(seed, rng.randint(4, 17), rng.randint(4, 17))
            res = is_full_pair(g, cert)
            expected = flat_verdict(g, cert)
            assert (res.ok, res.witness, res.detail) == expected, seed
            outcomes.add((cert.polarity, res.ok))
        assert len(outcomes) == 4

    def test_small_pairs_match_definition(self):
        # every side-size pair with |A| + |B| <= 10, against the definition
        outcomes = set()
        for na in range(1, 10):
            for nb in range(1, 11 - na):
                for seed in range(3):
                    g, cert = random_pair_case(100 * na + 10 * nb + seed, na, nb)
                    res = is_full_pair(g, cert)
                    assert (res.ok, res.witness, res.detail) == flat_verdict(g, cert)
                    assert res.ok == brute_force_full(g, cert), (na, nb, seed)
                    outcomes.add(res.ok)
        assert outcomes == {True, False}

    def test_exact_budget_boundary(self):
        from rpt.predicates import EnumerationBudgetError

        g = random_graph(18, 0.5, 3)
        a = mask_from_ids(range(8))
        b = mask_from_ids(range(8, 18))
        cert = FullPairCertificate(a, b, HALF, Fraction(1, 4), "full")
        budget = min(comb(8, 4), comb(10, 5))
        assert budget == 70
        assert is_full_pair(g, cert, budget=budget).exact
        with pytest.raises(EnumerationBudgetError):
            is_full_pair(g, cert, budget=budget - 1)

    def test_complete_bipartite_is_full(self):
        g = Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])
        cert = FullPairCertificate(0b00001111, 0b11110000, HALF, Fraction(1, 4), "full")
        assert is_full_pair(g, cert).ok

    def test_empty_bipartite_fails_with_witness(self):
        g = Graph.empty(8)
        cert = FullPairCertificate(0b00001111, 0b11110000, HALF, Fraction(1, 4), "full")
        res = is_full_pair(g, cert)
        assert not res.ok
        ka, kb = min_subpair_sizes(cert)
        assert res.witness[0].bit_count() == ka
        assert res.witness[1].bit_count() == kb
        # and the same pair is exactly empty
        cert_e = FullPairCertificate(0b00001111, 0b11110000, HALF, Fraction(1, 4), "empty")
        assert is_full_pair(g, cert_e).ok

    def test_verdict_has_no_truth_value(self):
        # a failed verdict is a non-empty tuple; it must not read as true
        g = Graph.empty(8)
        for polarity in ("full", "empty"):
            cert = FullPairCertificate(0b00001111, 0b11110000, HALF, Fraction(1, 4), polarity)
            with pytest.raises(TypeError):
                bool(is_full_pair(g, cert))

    @given(st.integers(0, 120))
    @settings(max_examples=25, deadline=None)
    def test_reduced_check_equals_brute_force(self, seed):
        rng = random.Random(seed)
        g = random_graph(8, rng.uniform(0.3, 0.9), seed)
        cert = FullPairCertificate(
            0b00001111, 0b11110000, HALF, Fraction(1, 4), rng.choice(["full", "empty"])
        )
        assert is_full_pair(g, cert).ok == brute_force_full(g, cert)

    def test_reduced_check_equals_brute_force_ten_by_ten(self):
        rng = random.Random(42)
        g = random_graph(20, 0.55, 42)
        a = mask_from_ids(range(10))
        b = mask_from_ids(range(10, 20))
        cert = FullPairCertificate(a, b, HALF, Fraction(1, 4), "full")
        assert is_full_pair(g, cert).ok == brute_force_full(g, cert)

    def test_exact_is_the_only_method(self):
        g = Graph.empty(8)
        cert = FullPairCertificate(0b00001111, 0b11110000, HALF, Fraction(1, 4), "full")
        with pytest.raises(ValueError, match="unknown method 'sampled'"):
            is_full_pair(g, cert, method="sampled")

    def test_exact_budget_enforced(self):
        from rpt.predicates import EnumerationBudgetError

        g = random_graph(40, 0.5, 0)
        a = mask_from_ids(range(20))
        b = mask_from_ids(range(20, 40))
        cert = FullPairCertificate(a, b, HALF, Fraction(1, 4), "full")
        with pytest.raises(EnumerationBudgetError):
            is_full_pair(g, cert, budget=1000)

    def test_scaling_property(self):
        # exact-verified full pair stays full at (c/c', eps) on large subpairs
        rng = random.Random(5)
        g = random_graph(12, 0.85, 5)
        a, b = mask_from_ids(range(6)), mask_from_ids(range(6, 12))
        c, eps = Fraction(1, 3), Fraction(1, 5)
        if not is_full_pair(g, FullPairCertificate(a, b, c, eps, "full")).ok:
            pytest.skip("random instance not full at the base parameters")
        c_prime = Fraction(2, 3)
        for a1 in itertools.combinations(range(6), 4):
            for b1 in itertools.combinations(range(6, 12), 4):
                sub = FullPairCertificate(
                    mask_from_ids(a1), mask_from_ids(b1), c / c_prime, eps, "full"
                )
                assert is_full_pair(g, sub).ok

    def test_monotonicity_in_c_and_eps(self):
        g = random_graph(10, 0.8, 9)
        a, b = mask_from_ids(range(5)), mask_from_ids(range(5, 10))
        base = FullPairCertificate(a, b, Fraction(1, 2), Fraction(1, 5), "full")
        if not is_full_pair(g, base).ok:
            pytest.skip("base certificate does not hold")
        assert is_full_pair(g, FullPairCertificate(a, b, Fraction(3, 5), Fraction(1, 5), "full")).ok
        assert is_full_pair(g, FullPairCertificate(a, b, Fraction(1, 2), Fraction(1, 6), "full")).ok


class TestBlowup:
    def test_single_part_vacuous(self):
        g = Graph.empty(4)
        cert = BlowupCertificate((0b0011,), HALF, Fraction(1, 4), named_pattern("K1"))
        assert verify_blowup(g, cert).ok

    def test_k2_complete_join(self):
        g = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        cert = BlowupCertificate(
            (0b000111, 0b111000), HALF, Fraction(1, 4), named_pattern("K2")
        )
        assert verify_blowup(g, cert).ok

    def test_mutation_is_caught(self):
        edges = [(u, v) for u in range(3) for v in range(3, 6)]
        edges.remove((0, 3))
        edges.remove((0, 4))
        edges.remove((0, 5))
        g = Graph.from_edges(6, edges)
        cert = BlowupCertificate(
            (0b000111, 0b111000), Fraction(1, 3), Fraction(1, 4), named_pattern("K2")
        )
        res = verify_blowup(g, cert)
        assert not res.ok and res.witness == (1, 2)


# is_tight_to as it compared each count with the Fraction eps |A|, kept
# verbatim (bar its name) as the oracle for its verdicts and witnesses.
def is_tight_to_fraction(g: Graph, a: int, b: int, eps: Fraction, mode: str) -> Verdict:
    """Is B eps-sparse / eps-dense / eps-tight to A (strict bounds)?

    A failed verdict's witness is a vertex of B that breaks the mode's
    bound; under "tight", one that breaks both bounds if there is one,
    else the first that breaks the sparse bound.
    """
    if mode not in TIGHTNESS_MODES:
        raise ValueError(f"unknown tightness mode {mode!r}")
    if not a:
        raise CheckPreconditionError("tightness target A must be nonempty")
    if a & b:
        raise CheckPreconditionError("A and B must be disjoint")
    na = a.bit_count()
    threshold = eps * na
    sparse_bad = dense_bad = both_bad = None
    for v in mask_to_ids(b):
        nbrs = (g.adj[v] & a).bit_count()
        viol_sparse = not nbrs < threshold
        viol_dense = not (na - nbrs) < threshold
        if viol_sparse and sparse_bad is None:
            sparse_bad = v
        if viol_dense and dense_bad is None:
            dense_bad = v
        if viol_sparse and viol_dense and both_bad is None:
            both_bad = v
    if mode == "sparse":
        bad = sparse_bad
    elif mode == "dense":
        bad = dense_bad
    elif sparse_bad is None or dense_bad is None:
        bad = None
    else:
        bad = sparse_bad if both_bad is None else both_bad
    if bad is None:
        return Verdict(True)
    return Verdict(False, detail=f"vertex {bad} of B breaks the {mode} bound", witness=bad)


class TestTightnessMatchesFractionComparison:
    @given(st.integers(0, 10**6), st.integers(2, 24), st.data())
    @settings(max_examples=400, deadline=None)
    def test_same_verdicts_and_witnesses(self, seed, n, data):
        g = random_graph(n, data.draw(st.floats(0.0, 1.0)), seed)
        a = data.draw(st.integers(1, g.full_mask))
        b = data.draw(st.integers(0, g.full_mask)) & ~a
        na = a.bit_count()
        # eps |A| is an integer in the second strategy
        eps = data.draw(st.one_of(
            st.fractions(0, 1, max_denominator=24),
            st.builds(lambda j: Fraction(j, na), st.integers(0, na)),
        ))
        for mode in TIGHTNESS_MODES:
            assert is_tight_to(g, a, b, eps, mode) == is_tight_to_fraction(g, a, b, eps, mode)

    def test_boundary_count_equal_to_eps_a(self):
        # each vertex of B has exactly eps |A| = 2 neighbours and 2
        # non-neighbours in A, which breaks both strict bounds
        g = Graph.from_edges(6, [(4, 0), (4, 1), (5, 2), (5, 3)])
        a, b = 0b001111, 0b110000
        for mode in TIGHTNESS_MODES:
            got = is_tight_to(g, a, b, HALF, mode)
            assert got == is_tight_to_fraction(g, a, b, HALF, mode)
        assert not is_tight_to(g, a, b, HALF, "sparse").ok
        assert not is_tight_to(g, a, b, HALF, "dense").ok

    def test_fraction_work_does_not_grow_with_b(self):
        # one threshold per call, not one Fraction comparison per vertex
        def ops(size):
            g = Graph.from_edges(
                2 * size, [(u, v) for u in range(size) for v in range(size, 2 * size)]
            )
            a, b = (1 << size) - 1, ((1 << size) - 1) << size
            with count_fraction_ops() as calls:
                assert is_tight_to(g, a, b, Fraction(1, 3), "tight").ok
            return calls[0]

        assert ops(3) == ops(40)
