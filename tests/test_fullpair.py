import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from rpt.fullpair import (
    FullPairParams,
    FullPairGuaranteeViolation,
    FullPairSearchError,
    find_full_pair,
    gamma,
)
from rpt.graph import Graph, mask_from_ids, mask_to_ids, with_at_least
from rpt.predicates import CheckPreconditionError, FullPairCertificate, is_full_pair
from rpt.values import LogValue, UndecidableAtScale, ceil_frac

EIGHTH = Fraction(1, 8)


class TestGamma:
    def test_domain_boundaries(self):
        with pytest.raises(ValueError):
            gamma(Fraction(12), EIGHTH)  # c >= 1
        gamma(Fraction(12, 13), EIGHTH)  # fine
        with pytest.raises(ValueError):
            gamma(Fraction(1, 2), Fraction(1, 4))  # eps must be < 1/4

    def test_exact_value_half_eighth(self):
        gv = gamma(Fraction(1, 2), EIGHTH)
        assert gv.exact == Fraction(1, 2**49)
        assert abs(gv.log2 + 49) < 1e-15

    def test_log_value_three_quarters(self):
        gv = gamma(Fraction(3, 4), EIGHTH)
        assert gv.exact == Fraction(1, 2**33)
        assert abs(gv.log2 + 33) < 1e-15

    def test_non_integral_exponent_is_log_only(self):
        gv = gamma(Fraction(5, 7), EIGHTH)
        assert gv.exact is None
        expect = mpmath.mpf(-1) + Fraction(84, 5) * mpmath.log(Fraction(1, 4), 2)
        assert abs(gv.log2 - expect) < 1e-12

    def test_codomain(self):
        for c in (Fraction(1, 2), Fraction(9, 10)):
            gv = gamma(c, Fraction(1, 5))
            assert mpmath.power(2, gv.log2) < mpmath.mpf(1) / 3


    def test_log_scale_c_matches_fraction_c(self):
        for c in (Fraction(1, 2), Fraction(3, 4), Fraction(5, 7), Fraction(1, 768)):
            for eps in (EIGHTH, Fraction(1, 16)):
                assert gamma(LogValue.of(c), eps) == gamma(c, eps)

    def test_saturates_on_tower_overflow(self):
        tiny = LogValue(-(mpmath.mpf(2) ** 47))
        sat = LogValue(mpmath.mpf(-5), saturated=True)
        for c in (tiny, sat):
            gv = gamma(c, EIGHTH)
            assert gv.saturated and gv.exact is None and gv.log2 < -(2**45)
        assert not gamma(LogValue(mpmath.mpf(-40)), EIGHTH).saturated


class TestSizeFloor:
    def test_exact_gamma(self):
        params = FullPairParams(Fraction(1, 2), EIGHTH)  # gamma = 2^-49
        assert params.size_floor(10) == 1
        assert params.size_floor(2**49 + 1) == 2

    def test_min_frac_override(self):
        params = FullPairParams(Fraction(1, 2), EIGHTH, min_frac=Fraction(1, 3))
        assert params.size_floor(10) == 4

    def test_log_only_gamma(self):
        params = FullPairParams(Fraction(5, 7), EIGHTH)  # gamma ~ 2^-34.6, log only
        assert params.size_floor(2**20) == 1
        with pytest.raises(UndecidableAtScale):
            params.size_floor(2**40)


class TestFindFullPair:
    def test_complete_bipartite_certifies_itself(self):
        g = Graph.from_edges(8, [(u, v) for u in range(4) for v in range(4, 8)])
        cert = find_full_pair(
            g, 0b00001111, 0b11110000, FullPairParams(Fraction(1, 2), EIGHTH)
        )
        assert cert.a == 0b00001111 and cert.b == 0b11110000
        assert is_full_pair(g, cert).ok

    def test_two_halves_instance(self):
        # two complete-bipartite halves with no crossing edges: density 1/2,
        # one half certifies
        edges = [(u, v) for u in range(2) for v in range(4, 6)]
        edges += [(u, v) for u in range(2, 4) for v in range(6, 8)]
        g = Graph.from_edges(8, edges)
        params = FullPairParams(Fraction(1, 2), EIGHTH, min_frac=Fraction(1, 2))
        cert = find_full_pair(g, 0b00001111, 0b11110000, params)
        assert is_full_pair(g, cert).ok
        assert cert.a.bit_count() >= 2 and cert.b.bit_count() >= 2

    def test_empty_polarity(self):
        g = Graph.empty(8)
        params = FullPairParams(Fraction(1, 2), EIGHTH)
        cert = find_full_pair(g, 0b00001111, 0b11110000, params, polarity="empty")
        assert cert.polarity == "empty"
        assert is_full_pair(g, cert).ok

    def test_precondition_rejects_sparse_pairs(self):
        g = Graph.from_edges(8, [(0, 4)])
        with pytest.raises(CheckPreconditionError):
            find_full_pair(g, 0b00001111, 0b11110000, FullPairParams(Fraction(1, 2), EIGHTH))

    def test_overly_aggressive_floor_diagnosed(self):
        # two dense halves, no crossing edges: the pair meets the density
        # precondition yet is not full at c = 1/2, so demanding full-size
        # output (min_frac = 1) must end in the hard diagnostic
        edges = [(u, v) for u in range(2) for v in range(4, 6)]
        edges += [(u, v) for u in range(2, 4) for v in range(6, 8)]
        g = Graph.from_edges(8, edges)
        params = FullPairParams(Fraction(1, 2), Fraction(6, 25), min_frac=Fraction(1))
        with pytest.raises(FullPairGuaranteeViolation):
            find_full_pair(g, 0b00001111, 0b11110000, params)

    def test_an_exhausted_work_budget_is_reported(self, monkeypatch):
        # the same pair with no work budget: every size of the exhaustive
        # phase is skipped, so the search cannot claim no subpair exists
        import rpt.fullpair

        monkeypatch.setattr(rpt.fullpair, "_WORK_BUDGET", 0)
        edges = [(u, v) for u in range(2) for v in range(4, 6)]
        edges += [(u, v) for u in range(2, 4) for v in range(6, 8)]
        g = Graph.from_edges(8, edges)
        params = FullPairParams(Fraction(1, 2), Fraction(6, 25), min_frac=Fraction(1))
        with pytest.raises(FullPairSearchError, match="^work budget 0 exhausted"):
            find_full_pair(g, 0b00001111, 0b11110000, params)

    @given(st.integers(0, 3000))
    @settings(max_examples=200, deadline=None)
    def test_dense_random_pairs_certify(self, seed):
        """Returned certificates re-verify; sizes respect the floor."""
        rng = random.Random(seed)
        na = rng.randint(2, 12)
        nb = rng.randint(2, 12)
        g = random_graph(na + nb, rng.uniform(0.55, 0.95), seed)
        a = mask_from_ids(range(na))
        b = mask_from_ids(range(na, na + nb))
        params = FullPairParams(Fraction(1, 2), EIGHTH, min_frac=Fraction(1, 8))
        if g.edges_between(a, b) < 2 * params.eps * na * nb:
            return
        cert = find_full_pair(g, a, b, params)
        assert is_full_pair(g, cert).ok
        assert cert.a.bit_count() >= max(1, -((-na) // 8))
        assert cert.b.bit_count() >= max(1, -((-nb) // 8))
        assert cert.a & ~a == 0 and cert.b & ~b == 0


def well_connected_fraction(g: Graph, s: int, t: int, eps: Fraction) -> int:
    # one Phase 1.5 loop of find_full_pair before it compared integers
    keep = 0
    for v in mask_to_ids(s):
        if (g.adj[v] & t).bit_count() >= (1 - eps) * t.bit_count():
            keep |= 1 << v
    return keep


@given(st.integers(0, 10**6), st.integers(2, 30), st.data())
@settings(max_examples=300, deadline=None)
def test_well_connected_matches_fraction_comparison(seed, n, data):
    g = random_graph(n, data.draw(st.floats(0.0, 1.0)), seed)
    s = data.draw(st.integers(0, g.full_mask))
    t = data.draw(st.integers(0, g.full_mask)) & ~s
    k = max(t.bit_count(), 1)
    # (1 - eps)|T| is an integer in the second strategy
    eps = data.draw(st.one_of(
        st.fractions(0, Fraction(1, 4), max_denominator=30),
        st.builds(lambda j: Fraction(j, k), st.integers(0, k // 4)),
    ))
    # the Phase 1.5 call of find_full_pair
    keep = with_at_least(g, s, t, ceil_frac((1 - eps) * t.bit_count()))
    assert keep == well_connected_fraction(g, s, t, eps)
