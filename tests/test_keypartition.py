import random
from dataclasses import replace
from fractions import Fraction
from math import comb, prod
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_pattern
import rpt.keypartition
import rpt.ledger
import rpt.predicates
from rpt.adversarial import HardInstanceSpec, generate_hard_graph
from rpt.graph import Graph, Pattern, complement, mask_from_ids, mask_to_ids, named_pattern
from rpt.keypartition import (
    BlowupFound,
    KeyCertificate,
    KeyLemmaResult,
    KeyParams,
    MNTPartition,
    StepFailure,
    advance_or_finish,
    run_key_lemma,
    verify_blowup_found,
    verify_key_result,
    verify_mnt_partition,
)
from rpt.ledger import blowup_copy_bound, build_ledger, gamma, phi
from rpt.predicates import EnumerationBudgetError, Verdict, is_restricted, is_tight_to

QUARTER = Fraction(1, 4)
K2 = named_pattern("K2")
K3 = named_pattern("K3")


class TestLedger:
    def test_xi_is_theta_over_four(self):
        led = build_ledger(2, QUARTER, QUARTER, QUARTER)
        assert led.get("xi").exact == Fraction(1, 16)

    def test_eps_h_spot_value(self):
        led = build_ledger(2, QUARTER, QUARTER, QUARTER)
        assert led.get("eps[2]").exact == Fraction(1, 256)

    def test_first_lambda_matches_direct_gamma(self):
        led = build_ledger(2, QUARTER, QUARTER, QUARTER)
        # lambda[1,0] = gamma(eps_2 / 3, xi) with Gamma[1,1] = 1
        direct = gamma(Fraction(1, 768), Fraction(1, 16))
        assert abs(led.get("lambda[1,0]").log2 - direct.log2) < 1e-10
        assert led.get("lambda[1,0]").exact == direct.exact

    def test_n_consistency_with_independent_phi(self):
        # rebuild N from the ledger's own delta'/eta' logs and compare
        led = build_ledger(2, QUARTER, QUARTER, QUARTER)
        dp, ep = led.get("delta_prime"), led.get("eta_prime")
        phi_log2 = mpmath.log(-ep.log2 * mpmath.log(2), 2) - dp.log2
        n_log2 = mpmath.log(2 - 1, 2) + phi_log2  # (h-1) * phi dominates
        assert abs(led.get("N").log2 - n_log2) / abs(n_log2) < 1e-12

    def test_section2_kappa_spot(self):
        # the (h=2, eps=1/2) closed form lives outside the ledger's open
        # (0,1/2) domain; check the generator directly and the ledger at
        # an in-domain point
        from rpt.ledger import tight_pair_copy_threshold

        assert tight_pair_copy_threshold(2, Fraction(1, 2)) == Fraction(1, 128)
        led = build_ledger(2, QUARTER, QUARTER, QUARTER)
        assert led.get("tight_copy_threshold").exact == Fraction(1, 256)

    def test_saturation_flag_deep_rows(self):
        led = build_ledger(4, QUARTER, QUARTER, QUARTER)
        assert led.get("kappa").saturated
        assert led.get("kappa").log2 < 0

    def test_level_constants(self):
        led = build_ledger(2, QUARTER, QUARTER, QUARTER)
        assert led.get("path_length").exact == 16
        assert led.get("level_eta").exact == Fraction(1, 4)
        assert led.get("level_eps").exact == Fraction(1, 4 * 2**32)


class TestKeyParams:
    def test_practical_coherence_validated(self):
        with pytest.raises(ValueError):
            KeyParams.practical(K2, QUARTER, eta_prime=Fraction(1, 2))
        with pytest.raises(ValueError):
            KeyParams.practical(K2, QUARTER, lam=Fraction(1, 2))
        # eta' outside (0, 1) is named before the cap, which 1 and 2 also break
        for eta_prime in ("0", "-1/2", "1", "2"):
            with pytest.raises(ValueError, match=r"^eta_prime must lie in \(0, 1\)$"):
                KeyParams.practical(K2, QUARTER, eta_prime=Fraction(eta_prime))

    def test_eps_prime_is_schedule_tail(self):
        p = KeyParams.practical(K2, QUARTER)
        assert p.eps_prime() == min(
            p.eps_schedule[t + 1] * p.lam**t for t in range(2)
        )

    def test_phi_is_decided_once_per_pair(self, monkeypatch):
        # phi is cached: every bound of every instance with the same
        # (delta', eta'), a new equal instance too, shares one least_power
        # call, and a copy with a new eta' makes one more
        calls = []
        least_power = rpt.ledger.least_power
        monkeypatch.setattr(rpt.ledger, "least_power",
                            lambda q, x: calls.append((q, x)) or least_power(q, x))
        phi.cache_clear()
        params = KeyParams.practical(K3, QUARTER)
        cert = KeyCertificate(0, (), (), (), 2, 3, QUARTER, QUARTER, QUARTER,
                              Fraction(1, 8), Fraction(1, 1000))
        objs = [params, cert, KeyParams.practical(K3, QUARTER),
                replace(params, eta_prime=params.eta_prime / 2),
                params, cert]
        for obj in objs:
            want = phi(obj.delta_prime, obj.eta_prime)
            for _ in range(3):
                assert obj.phi_bound() == want
                assert obj.part_bound() == comb(obj.h, 2) + (obj.h - 1) * want
                assert obj.n_bound_holds(want, 1) and not obj.n_bound_holds(want + 1, 1)
                assert obj.part_bound_holds(comb(obj.h, 2) + (obj.h - 1) * want)
                assert not obj.part_bound_holds(comb(obj.h, 2) + 1 + (obj.h - 1) * want)
        pairs = [(1 - obj.delta_prime, obj.eta_prime) for obj in objs]
        assert len(set(pairs)) == 3
        assert calls == list(dict.fromkeys(pairs))


def prop16_graph(seed=7, n=40):
    spec = HardInstanceSpec(1, 20, n, Fraction(1, 20), K2, seed=seed)
    return generate_hard_graph(spec).graph


class TestVerifyMNT:
    def test_trivial_partition_verifies(self):
        g = random_graph(10, 0.5, 1)
        params = KeyParams.practical(K2, QUARTER)
        p = MNTPartition.trivial(g, params, 3)
        assert verify_mnt_partition(g, K2, p).ok

    def test_overlap_detected(self):
        g = Graph.empty(6)
        params = KeyParams.practical(K2, QUARTER)
        p = MNTPartition((0b000011,), (0b000110,), (), (), 0b111000, params, 0)
        rep = verify_mnt_partition(g, K2, p)
        assert not rep.ok and rep.clause == "disjoint-union"

    def test_b_size_mutation_detected(self):
        # valid-looking rows, then move one vertex from A_1 to B_1
        g = Graph.empty(8)
        params = KeyParams.practical(K2, QUARTER)
        base = MNTPartition(
            (mask_from_ids(range(0, 4)),), (0,), (mask_from_ids(range(4, 8)),), (), 0, params, 0
        )
        # m=1 needs t >= 2: expect the counts clause instead for this shape
        rep = verify_mnt_partition(g, K2, base)
        assert not rep.ok and rep.clause == "counts"

    def test_counts_and_leftover_clauses(self):
        g = Graph.empty(12)
        params = KeyParams.practical(K2, QUARTER)
        # a (0, n, 1)-partition: one blowup part and singles
        d1 = mask_from_ids(range(6))
        c1 = mask_from_ids(range(6, 12))
        p = MNTPartition((), (), (c1,), (d1,), 0, params, 0)
        assert verify_mnt_partition(g, K2, p).ok
        # moving leftover mass in breaks the 2/eta bound
        p_bad = MNTPartition((), (), (), (d1,), c1, params, 0)
        rep = verify_mnt_partition(g, K2, p_bad)
        assert not rep.ok and rep.clause.startswith("d-threshold")

    def test_d_restricted_clause(self):
        g = Graph.cycle(12)
        params = KeyParams.practical(K2, QUARTER)
        d1 = mask_from_ids(range(12))
        p = MNTPartition((), (), (), (d1,), 0, params, 0)
        rep = verify_mnt_partition(g, K2, p)
        assert not rep.ok and rep.clause == "d-restricted:1"


class TestAdvanceOrFinish:
    def test_t0_finish_when_budget_dominates(self):
        g = random_graph(9, 0.5, 3)
        params = KeyParams.practical(K2, QUARTER)
        p = MNTPartition.trivial(g, params, 9)
        outcome, rec = advance_or_finish(g, K2, p)
        assert isinstance(outcome, KeyLemmaResult)
        assert rec.finished and rec.correct_set == g.full_mask
        assert outcome.removed == g.full_mask
        assert outcome.pairs == () and outcome.singles == ()

    def test_advance_assembles_verified_partition(self):
        g = prop16_graph()
        params = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, 8))
        p = MNTPartition.trivial(g, params, 5)
        outcome, rec = advance_or_finish(g, K2, p)
        assert isinstance(outcome, MNTPartition)
        assert outcome.t == 1
        assert not rec.finished
        assert verify_mnt_partition(g, K2, outcome).ok

    def test_finished_result_goes_through_the_verifier(self, monkeypatch):
        # a result handed to a direct caller is checked in full, not clause by clause
        monkeypatch.setattr(rpt.keypartition, "verify_key_certificate",
                            lambda g, c: Verdict(False, detail="refuted for the test"))
        g = random_graph(9, 0.5, 3)
        p = MNTPartition.trivial(g, KeyParams.practical(K2, QUARTER), 9)
        with pytest.raises(AssertionError, match="refuted for the test"):
            advance_or_finish(g, K2, p)

    def test_rejects_t_equal_h(self):
        g = Graph.empty(4)
        params = KeyParams.practical(K2, QUARTER)
        p = MNTPartition((), (), (), (0b0011, 0b1100), 0, params, 0)
        with pytest.raises(ValueError):
            advance_or_finish(g, K2, p)


def crafted_blowup_start(params):
    """t=1 state whose leftover vertex has full adjacency into D_1:
    advancing it must reach t = h = 2."""
    # D_1 = clique of 10, u = vertex 10 adjacent to all of D_1, C_1 absorbs the rest
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    edges += [(i, 10) for i in range(10)]
    g = Graph.from_edges(11, edges)
    d1 = mask_from_ids(range(10))
    p = MNTPartition((), (), (), (d1,), 1 << 10, params, 0)
    return g, p


def crafted_k3_start(params):
    """t=2 state for K3: D_1, D_2 completely joined cliques, leftover
    vertex adjacent to everything."""
    d1 = list(range(0, 10))
    d2 = list(range(10, 20))
    u = 20
    edges = [(i, j) for i in d1 for j in d1 if i < j]
    edges += [(i, j) for i in d2 for j in d2 if i < j]
    edges += [(i, j) for i in d1 for j in d2]
    edges += [(i, u) for i in d1 + d2]
    g = Graph.from_edges(21, edges)
    p = MNTPartition((), (), (), (mask_from_ids(d1), mask_from_ids(d2)), 1 << u, params, 0)
    return g, p


def _without(g: Graph, *pairs) -> Graph:
    """g with the edges of ``pairs`` removed."""
    drop = {frozenset(e) for e in pairs}
    return Graph.from_edges(g.n, [e for e in g.edges() if frozenset(e) not in drop])


def _ids(*vs) -> int:
    return mask_from_ids(vs)


D1, D2 = mask_from_ids(range(10)), mask_from_ids(range(10, 20))


# One mutant of a crafted start per refutation of verify_mnt_partition:
# (start, graph edit, state edit, clause, detail).  The K2 start is K11 with
# D_1 = 0..9 and leftover {10}; the K3 start is K21 with D_1 = 0..9,
# D_2 = 10..19 and leftover {20}.  Every state is disjoint and covers V(G)
# unless that is the clause refuted.
MNT_MUTANTS = {
    "b-row-missing": ("K2", (), dict(a_sets=(_ids(9),), d_sets=(D1 & ~_ids(9),)),
                      "shape", "one B per A required"),
    "three-parts": ("K2", (), dict(d_sets=(_ids(0, 1, 2), _ids(3, 4, 5), _ids(6, 7, 8, 9))),
                    "shape", "more blowup parts than pattern labels"),
    "overlap": ("K2", (), dict(leftover=_ids(0, 10)), "disjoint-union", "sets overlap"),
    "uncovered": ("K2", (), dict(leftover=0), "disjoint-union", "sets do not cover V(G)"),
    "pair-at-t1": ("K2", (), dict(a_sets=(_ids(9),), b_sets=(0,), d_sets=(D1 & ~_ids(9),)),
                   "counts", "m=1 exceeds C(t,2)=0"),
    "single-at-t0": ("K2", (), dict(c_sets=(D1,), d_sets=()),
                     "counts", "n=1 exceeds t*phi(delta',eta')"),
    "empty-a": ("K3", (), dict(a_sets=(0,), b_sets=(0,)), "a-nonempty:1", ""),
    "path-a": ("K3", ((0, 2),), dict(a_sets=(_ids(0, 1, 2),), b_sets=(0,),
                                     d_sets=(D1 & ~_ids(0, 1, 2), D2)),
               "a-restricted:1", ""),
    "empty-c": ("K3", (), dict(c_sets=(0,)), "c-nonempty:1", ""),
    "path-c": ("K3", ((0, 2),), dict(c_sets=(_ids(0, 1, 2),), d_sets=(D1 & ~_ids(0, 1, 2), D2)),
               "c-restricted:1", ""),
    "large-b": ("K3", (), dict(a_sets=(_ids(0),), b_sets=(_ids(1),), d_sets=(D1 & ~_ids(0, 1), D2)),
                "b-size:1", ""),
    "half-joined-b": ("K3", ((4, 0), (4, 1)),
                      dict(a_sets=(_ids(0, 1, 2, 3),), b_sets=(_ids(4),),
                           d_sets=(D1 & ~_ids(0, 1, 2, 3, 4), D2)),
                      "b-tight:1", ""),
    "unjoined-parts": ("K3", tuple((u, v) for u in range(10) for v in range(10, 20)), {},
                       "blowup:(1, 2)", ""),
    "large-d": ("K2", (), dict(d_budget=100), "d-threshold:1", "Lambda*d bound"),
    "large-leftover": ("K2", (), dict(d_sets=(D1 & ~_ids(9),), leftover=_ids(9, 10)),
                       "d-threshold:1", "2/eta * |L| bound"),
    "broken-clique": ("K2", ((0, 1),), {}, "d-restricted:1", ""),
}


@pytest.mark.parametrize("mutant", MNT_MUTANTS)
def test_each_refutation_is_reached_by_a_mutant_of_a_crafted_start(mutant):
    name, removed, edits, clause, detail = MNT_MUTANTS[mutant]
    pat, crafted = {"K2": (K2, crafted_blowup_start), "K3": (K3, crafted_k3_start)}[name]
    g, start = crafted(KeyParams.practical(pat, QUARTER))
    assert verify_mnt_partition(g, pat, start).ok
    rep = verify_mnt_partition(_without(g, *removed), pat, replace(start, **edits))
    assert (rep.ok, rep.clause, rep.detail) == (False, clause, detail)


def _fail(message):
    def raise_it(*args, **kwargs):
        raise RuntimeError(message)

    return raise_it


class TestStepFailures:
    """Each StepFailure of advance_or_finish, with its callee made to fail:
    a full step from the trivial start of prop16_graph (t = 0), and the
    chain step of the crafted K2 start (t = 1)."""

    @staticmethod
    def _prop16(delta_prime=Fraction(1, 8)):
        g = prop16_graph()
        params = KeyParams.practical(K2, QUARTER, delta_prime=delta_prime)
        return g, MNTPartition.trivial(g, params, 5)

    def test_core_extraction(self, monkeypatch):
        from rpt.extraction import ExtractionInfeasible

        def infeasible(*args):
            raise ExtractionInfeasible("refused for the test")

        monkeypatch.setattr(rpt.keypartition, "extract_restricted_exact", infeasible)
        g, p = self._prop16()
        with pytest.raises(StepFailure, match="^core extraction failed at t=0: refused for"):
            advance_or_finish(g, K2, p)

    def test_chain_step(self, monkeypatch):
        monkeypatch.setattr(rpt.keypartition, "find_full_pair", _fail("refused for the test"))
        g, start = crafted_blowup_start(KeyParams.practical(K2, QUARTER))
        with pytest.raises(StepFailure, match="^chain step 1 at t=1 failed: refused for"):
            advance_or_finish(g, K2, start)

    def test_peeling(self, monkeypatch):
        monkeypatch.setattr(rpt.keypartition, "peel_chain", _fail("refused for the test"))
        g, p = self._prop16()
        with pytest.raises(StepFailure, match="^peeling failed at t=0: refused for the test"):
            advance_or_finish(g, K2, p)

    def test_more_peels_than_phi(self, monkeypatch):
        # a peel chain of singletons: with delta' = 1/4, phi(delta', eta') = 20
        # is below the 30 vertices left once the core of 10 is out
        monkeypatch.setattr(rpt.keypartition, "peel_chain", lambda sub, *rest: SimpleNamespace(
            peels=tuple(1 << v for v in range(sub.n)), leftover=0))
        g, p = self._prop16(delta_prime=QUARTER)
        assert p.params.phi_bound() == 20
        with pytest.raises(StepFailure, match=r"^peeling produced 30 > phi\(delta',eta'\) sets"):
            advance_or_finish(g, K2, p)

    def test_assembled_state(self, monkeypatch):
        monkeypatch.setattr(rpt.keypartition, "verify_mnt_partition",
                            lambda g, pat, p: Verdict(False, "shape", "refuted for the test"))
        g, p = self._prop16()
        with pytest.raises(StepFailure, match=r"-partition fails clause shape: refuted for the"):
            advance_or_finish(g, K2, p)


class TestRunKeyLemma:
    def test_edgeless_d0(self):
        g = Graph.empty(12)
        params = KeyParams.practical(K2, QUARTER)
        res = run_key_lemma(g, K2, params, 0)
        assert isinstance(res, KeyLemmaResult)
        assert res.removed == 0
        assert len(res.pairs) == 0
        assert len(res.singles) >= 1
        verify_key_result(g, K2, res)

    def test_complete_d0(self):
        g = Graph.complete(12)
        params = KeyParams.practical(K2, QUARTER)
        res = run_key_lemma(g, K2, params, 0)
        assert isinstance(res, KeyLemmaResult)
        assert res.removed == 0 and len(res.pairs) == 0

    def test_blowup_found_from_crafted_state(self):
        params = KeyParams.practical(K2, QUARTER)
        g, start = crafted_blowup_start(params)
        assert verify_mnt_partition(g, K2, start).ok
        res = run_key_lemma(g, K2, params, 0, start=start)
        assert isinstance(res, BlowupFound)
        assert res.copy_count >= res.copy_bound
        assert len(res.certificate.parts) == 2

    @pytest.mark.parametrize("pat, crafted_start",
                             [(K2, crafted_blowup_start), (K3, crafted_k3_start)],
                             ids=["K2", "K3"])
    def test_a_start_at_t_h_goes_straight_to_the_blowup(self, pat, crafted_start):
        params = KeyParams.practical(pat, QUARTER)
        g, start = crafted_start(params)
        at_h, _ = advance_or_finish(g, pat, start)
        assert isinstance(at_h, MNTPartition) and at_h.t == pat.size
        res = run_key_lemma(g, pat, params, 0, start=at_h)
        assert isinstance(res, BlowupFound) and res.transcript == ()
        assert res == replace(run_key_lemma(g, pat, params, 0, start=start), transcript=())

    def test_a_complete_join_blowup_counts_every_copy(self):
        # D_1, D_2 completely joined: all 16 copies, against the stated
        # (1 - xi)^2 xi 4^2 = 225/256
        params = KeyParams.practical(K2, QUARTER)
        g = Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)])
        parts = (mask_from_ids(range(4)), mask_from_ids(range(4, 8)))
        p = MNTPartition((), (), (), parts, 0, params, 1)
        found = rpt.keypartition._blowup_found(g, K2, params, p, [])
        assert (found.copy_count, found.copy_bound) == (16, Fraction(225, 256))
        assert verify_blowup_found(g, found).ok

    def test_blowup_found_goes_through_the_verifier(self, monkeypatch):
        monkeypatch.setattr(rpt.keypartition, "verify_blowup_found",
                            lambda g, found: Verdict(False, detail="refuted for the test"))
        params = KeyParams.practical(K2, QUARTER)
        g, start = crafted_blowup_start(params)
        with pytest.raises(AssertionError, match="refuted for the test"):
            run_key_lemma(g, K2, params, 0, start=start)

    @pytest.mark.parametrize("pat, crafted_start",
                             [(K2, crafted_blowup_start), (K3, crafted_k3_start)],
                             ids=["K2", "K3"])
    def test_blowup_found_passes_its_verifier(self, pat, crafted_start):
        params = KeyParams.practical(pat, QUARTER)
        g, start = crafted_start(params)
        res = run_key_lemma(g, pat, params, 0, start=start)
        assert isinstance(res, BlowupFound)
        sizes = [d.bit_count() for d in res.certificate.parts]
        # the (1 - xi)^h form: (1 - xi)^h xi^C(h,2) prod |D_i|
        assert res.copy_bound == (1 - params.xi) * blowup_copy_bound(pat.size, params.xi, sizes)
        assert res.copy_bound == (1 - params.xi) ** pat.size * params.xi ** comb(
            pat.size, 2) * prod(sizes)
        assert verify_blowup_found(g, res).ok

    def test_invalid_start_is_refused_naming_its_clause(self):
        params = KeyParams.practical(K2, QUARTER)
        g, start = crafted_blowup_start(params)
        start = replace(start, leftover=0)  # vertex 10 is now in no set
        with pytest.raises(StepFailure, match="input partition invalid at clause disjoint-union"):
            run_key_lemma(g, K2, params, 0, start=start)

    def test_each_assembled_state_is_verified_once(self, monkeypatch):
        # the trivial start needs no check, and a step does not re-check
        # the state the step before it assembled and verified
        calls = []
        verify = rpt.keypartition.verify_mnt_partition
        monkeypatch.setattr(rpt.keypartition, "verify_mnt_partition",
                            lambda g, pat, p: calls.append(p.t) or verify(g, pat, p))
        g = prop16_graph()
        params = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, 8))
        res = run_key_lemma(g, K2, params, 5)
        assembled = [rec.t + 1 for rec in res.transcript if not rec.finished]
        assert assembled and calls == assembled

    def test_blowup_over_budget_raises_rather_than_sampling(self, monkeypatch):
        # a fullness check too large to enumerate is no verdict at all
        params = KeyParams.practical(K3, QUARTER)
        g, start = crafted_k3_start(params)
        monkeypatch.setattr(rpt.predicates.is_full_pair, "__defaults__", ("exact", 1))
        with pytest.raises(EnumerationBudgetError):
            verify_mnt_partition(g, K3, start)

    def test_two_step_chain_reaches_h3_blowup(self):
        # the chain must run two densification steps and assemble a
        # verified 3-part blowup.
        params = KeyParams.practical(K3, QUARTER)
        g, start = crafted_k3_start(params)
        assert verify_mnt_partition(g, K3, start).ok
        res = run_key_lemma(g, K3, params, 0, start=start)
        assert isinstance(res, BlowupFound)
        assert len(res.certificate.parts) == 3
        assert res.copy_count >= res.copy_bound

    def test_structural_soundness_small_corpus(self):
        rng = random.Random(99)
        checked = 0
        for trial in range(12):
            n = rng.randint(6, 24)
            g = random_graph(n, rng.uniform(0.2, 0.8), trial)
            params = KeyParams.practical(
                K2, QUARTER, delta_prime=Fraction(1, max(8, n))
            )
            res = run_key_lemma(g, K2, params, rng.randint(1, 4))
            if isinstance(res, KeyLemmaResult):
                verify_key_result(g, K2, res)
                assert len(res.transcript) <= 2 + 1
                checked += 1
        assert checked >= 8

    def test_organic_nonzero_removal(self):
        # clique core + random bulk, with the leftover fraction tuned so
        # the peel chain genuinely strands a vertex: the iteration then
        # removes it through the |S| <= d branch rather than trivially
        rng = random.Random(2)
        n, core = 260, 70
        edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
        edges += [
            (u, v) for u in range(core, n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        edges += [
            (u, v) for u in range(core) for v in range(core, n) if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        params = KeyParams.practical(
            K2,
            QUARTER,
            delta_prime=Fraction(1, 8),
            lam=Fraction(1, 3),
            eta_prime=Fraction(1, 192),
        )
        res = run_key_lemma(g, K2, params, 3)
        assert isinstance(res, KeyLemmaResult)
        assert 1 <= res.removed.bit_count() <= 3
        verify_key_result(g, K2, res)


# _correct_adjacency_split as it was before it filtered whole sets with
# graph.with_at_least, kept verbatim (bar its name) as an oracle.
def correct_adjacency_split_loop(
    g: Graph, pat: Pattern, p: MNTPartition
) -> tuple[int, list[int]]:
    """S = leftover vertices adjacent 'correctly' to every D_i for label t+1;
    the rest lands in L_i for the least i whose condition it fails."""
    pr = p.params
    t = p.t
    s_mask = 0
    l_parts = [0] * t
    for u in mask_to_ids(p.leftover):
        fail_at = None
        for i in range(1, t + 1):
            di = p.d_sets[i - 1]
            ni = di.bit_count()
            deg = (g.adj[u] & di).bit_count()
            correct = deg if pat.label_edge(i, t + 1) else ni - deg
            if not correct >= 2 * pr.xi * ni:
                fail_at = i
                break
        if fail_at is None:
            s_mask |= 1 << u
        else:
            l_parts[fail_at - 1] |= 1 << u
    return s_mask, l_parts


@given(st.integers(0, 10**6), st.integers(2, 40), st.data())
@settings(max_examples=200, deadline=None)
def test_correct_adjacency_split_matches_loop(seed, n, data):
    g = random_graph(n, data.draw(st.floats(0.0, 1.0)), seed)
    pat = random_pattern(data.draw(st.integers(2, 5)), seed)
    t = data.draw(st.integers(1, pat.size - 1))
    # each vertex joins D_1..D_t, the leftover (label t) or no set (t + 1)
    labels = data.draw(st.lists(st.integers(0, t + 1), min_size=n, max_size=n))
    d_sets = tuple(mask_from_ids(v for v in range(n) if labels[v] == i) for i in range(t))
    leftover = mask_from_ids(v for v in range(n) if labels[v] == t)
    # 2 xi |D_i| = theta |D_i| / 2 is often an integer for small denominators
    theta = data.draw(st.fractions(Fraction(1, 12), Fraction(5, 12), max_denominator=12))
    params = KeyParams.practical(pat, QUARTER, theta=theta)
    p = MNTPartition((), (), (), d_sets, leftover, params, 0)
    assert rpt.keypartition._correct_adjacency_split(g, pat, p) == (
        correct_adjacency_split_loop(g, pat, p))
