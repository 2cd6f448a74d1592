import random
from fractions import Fraction

import pytest

from conftest import random_graph
from rpt.adversarial import (
    HardInstanceSpec,
    exact_n_restricted,
    generate_hard_graph,
    min_removal_oracle,
)
from rpt.assembly import (
    CopyBudgetExceeded,
    PartBoundViolation,
    PathPartition,
    PathPartitionError,
    RemovalResult,
    RestrictedPartition,
    base_partition,
    default_part_bound,
    lengthen,
    level_eps,
    part_count_target,
    path_length,
    run_main_theorem,
    verify_path_partition,
    verify_removal_result,
    verify_restricted_partition,
)
from rpt.graph import Graph, complement, mask_from_ids, named_pattern
from rpt.keypartition import KeyParams
from rpt.predicates import Verdict, is_restricted

QUARTER = Fraction(1, 4)
K2 = named_pattern("K2")


class TestVerifyPathPartition:
    def test_single_block_vacuous(self):
        g = random_graph(8, 0.5, 0)
        pp = PathPartition.trivial(g, Fraction(1, 1000))
        assert verify_path_partition(g, pp).ok

    def test_size_clause_11_fails(self):
        g = Graph.empty(48)
        ok = PathPartition(
            (mask_from_ids(range(24)), mask_from_ids(range(24, 48))), QUARTER
        )
        # 24 = 12 * 2: need the tail at most |W_0|/12
        assert verify_path_partition(
            g, PathPartition((mask_from_ids(range(46)), mask_from_ids([46, 47])), QUARTER)
        ).ok
        bad = PathPartition(
            (mask_from_ids(range(44)), mask_from_ids(range(44, 48))), QUARTER
        )
        rep = verify_path_partition(g, bad)
        assert not rep.ok and rep.clause == "size:0"

    def test_tightness_mutation_detected(self):
        # W_1 tight to W_0 except one injected high-degree vertex
        n = 26
        edges = [(24, i) for i in range(12)]  # vertex 24 sees half of W_0
        g = Graph.from_edges(n, edges)
        pp = PathPartition((mask_from_ids(range(24)), mask_from_ids([24, 25])), QUARTER)
        rep = verify_path_partition(g, pp)
        assert not rep.ok and rep.clause == "tail-tight:0"

    def test_restrictedness_clause(self):
        g = Graph.cycle(26)
        pp = PathPartition((mask_from_ids(range(24)), mask_from_ids([24, 25])), Fraction(1, 100))
        rep = verify_path_partition(g, pp)
        assert not rep.ok and rep.clause == "restricted:0"


class TestBasePartition:
    def test_single_restricted_block(self):
        g = Graph.empty(9)
        pp = PathPartition.trivial(g, QUARTER / 4)
        part = base_partition(g, pp, QUARTER)
        assert len(part.parts) == 1

    def test_clique_blocks(self):
        # 12 clique blocks joined by nothing: blocks themselves qualify
        blocks = []
        edges = []
        n = 0
        sizes = [13] * 11 + [1]
        for s in sizes:
            blocks.append(mask_from_ids(range(n, n + s)))
            edges += [(u, v) for u in range(n, n + s) for v in range(u + 1, n + s)]
            n += s
        g = Graph.from_edges(n, edges)
        pp = PathPartition(tuple(blocks), Fraction(1, 12))
        assert verify_path_partition(g, pp).ok
        part = base_partition(g, pp, Fraction(1, 3))
        assert len(part.parts) <= default_part_bound(Fraction(1, 3))
        v = verify_restricted_partition(g, part)
        assert v.ok, v.detail

    @pytest.mark.parametrize("eps", [Fraction(0), Fraction(-1, 4)], ids=["zero", "negative"])
    def test_nonpositive_eps_rejected(self, eps):
        # N = floor(2400/eps^2) is no bound at eps <= 0
        g = Graph.empty(4)
        pp = PathPartition.trivial(g, Fraction(0))
        with pytest.raises(ValueError, match=f"eps must be positive, got {eps}"):
            base_partition(g, pp, eps)

    def test_level_mismatch_rejected(self):
        g = Graph.empty(4)
        pp = PathPartition.trivial(g, Fraction(1, 2))
        with pytest.raises(PathPartitionError):
            base_partition(g, pp, QUARTER)

    def test_more_parts_than_the_bound_raises(self):
        # at eps = 50 every set is restricted, so the one block is one part,
        # and floor(2400/eps^2) = 0 admits none
        g = Graph.empty(3)
        pp = PathPartition.trivial(g, Fraction(50))
        with pytest.raises(PartBoundViolation, match="into 0 eps-restricted parts"):
            base_partition(g, pp, Fraction(50))

    def test_the_partition_goes_through_the_verifier(self, monkeypatch):
        import rpt.assembly

        g = random_graph(5, 0.5, 1)
        pp = PathPartition.trivial(g, Fraction(0))
        monkeypatch.setattr(rpt.assembly, "verify_restricted_partition",
                            lambda g, p, universe=None: Verdict(False, detail="refuted"))
        with pytest.raises(AssertionError, match="^base partition failed recheck: refuted$"):
            base_partition(g, pp, QUARTER)


class TestLengthen:
    def key_for(self, g, eps=QUARTER):
        return KeyParams.practical(K2, eps, delta_prime=Fraction(1, max(8, g.n)))

    def test_m0_direct_branch(self):
        g = Graph.empty(10)
        key = self.key_for(g)
        pp = PathPartition.trivial(g, level_eps(QUARTER, 2, 0))
        res = lengthen(g, K2, pp, QUARTER, key, Fraction(4), 0)
        assert res.removed == 0
        n_bound = key.part_bound()
        assert len(res.partition.parts) <= 0 + n_bound
        res.verify(g)

    def test_depth_budget_arithmetic(self):
        g = random_graph(9, 0.4, 2)
        key = self.key_for(g)
        pp = PathPartition.trivial(g, level_eps(QUARTER, 2, 0))
        res = lengthen(g, K2, pp, QUARTER, key, Fraction(8), 0)
        assert res.removed.bit_count() <= 8  # h^0 * d
        res.verify(g)

    def test_wrong_level_rejected(self):
        g = Graph.empty(10)
        key = self.key_for(g)
        pp = PathPartition.trivial(g, QUARTER)
        with pytest.raises(PathPartitionError):
            lengthen(g, K2, pp, QUARTER, key, Fraction(4), 0)

    def test_full_depth_base_case(self):
        # a full-length path-partition on an edgeless graph: lengthen at
        # k = K delegates to the bounded base partition with S empty
        g = Graph.empty(16 * 12 + 1)
        key = self.key_for(g)
        assert path_length(QUARTER) == 16
        blocks = [mask_from_ids(range(i * 12, (i + 1) * 12)) for i in range(16)]
        blocks.append(mask_from_ids([192]))
        pp = PathPartition(tuple(blocks), level_eps(QUARTER, 2, 16))
        assert verify_path_partition(g, pp).ok
        res = lengthen(g, K2, pp, QUARTER, key, Fraction(5), 16)
        assert res.removed == 0
        assert len(res.partition.parts) <= default_part_bound(QUARTER)
        res.verify(g)


    def test_full_depth_partition_is_verified_once(self, monkeypatch):
        # at k = K base_partition verifies the partition, and lengthen does
        # not verify it first; an invalid one gets base_partition's refusal
        import rpt.assembly

        calls = []
        verify = rpt.assembly.verify_path_partition
        monkeypatch.setattr(rpt.assembly, "verify_path_partition",
                            lambda g, p: calls.append(p) or verify(g, p))
        g = Graph.empty(4)
        pp = PathPartition.trivial(g, level_eps(QUARTER, 2, 16))
        lengthen(g, K2, pp, QUARTER, self.key_for(g), Fraction(0), 16)
        assert calls == [pp]
        with pytest.raises(PathPartitionError, match="^unverified path-partition: cover$"):
            lengthen(g, K2, PathPartition((0b0011,), pp.eps), QUARTER, self.key_for(g),
                     Fraction(0), 16)

class TestLengthenPairBranch:
    """The refined-path-partition recursion is unreachable on desk-scale
    random graphs (the working partition always ends with no pairs), so
    drive it with an injected key-lemma outcome and let the k=1 level run
    the real machinery."""

    def test_single_pair_recursion(self, monkeypatch):
        import rpt.assembly as assembly
        from rpt.keypartition import KeyLemmaResult

        # A_1: 24 isolated vertices; B_1: one edge, no contact with A_1;
        # T: one removed vertex
        edges = [(24, 25)]
        g = Graph.from_edges(27, edges)
        key = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, 8))
        a1 = mask_from_ids(range(24))
        b1 = mask_from_ids([24, 25])
        fake = KeyLemmaResult(
            removed=1 << 26, pairs=((a1, b1),), singles=(), params=key, d_budget=1
        )
        real = assembly.run_key_lemma

        def dispatch(sub, pat, key_params, budget, **kw):
            if sub.n == 27:
                return fake
            return real(sub, pat, key_params, budget, **kw)

        monkeypatch.setattr(assembly, "run_key_lemma", dispatch)
        pp = PathPartition.trivial(g, level_eps(QUARTER, 2, 0))
        res = assembly.lengthen(g, K2, pp, QUARTER, key, Fraction(16), 0)
        res.verify(g)
        assert res.removed & (1 << 26)
        assert res.removed.bit_count() <= 2  # (m+1) * h^-2 * d / ...

    def test_an_invalid_refined_path_partition_is_refused(self, monkeypatch):
        # |B_1| = 3 needs |A_1| >= 36, so the refined (A_1, B_1) fails its
        # size clause; the depth-1 call refuses it before running anything
        import rpt.assembly as assembly
        from rpt.keypartition import KeyLemmaResult

        g = Graph.from_edges(28, [(24, 25)])
        key = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, 8))
        fake = KeyLemmaResult(removed=1 << 27, pairs=((mask_from_ids(range(24)), 0b111 << 24),),
                              singles=(), params=key, d_budget=1)
        real = assembly.run_key_lemma
        monkeypatch.setattr(assembly, "run_key_lemma",
                            lambda sub, *a, **kw: fake if sub.n == 28 else real(sub, *a, **kw))
        pp = PathPartition.trivial(g, level_eps(QUARTER, 2, 0))
        with pytest.raises(PathPartitionError, match="^level-1 path-partition invalid: size:0$"):
            assembly.lengthen(g, K2, pp, QUARTER, key, Fraction(16), 0)

    def test_round_robin_split_floor(self):
        from rpt.assembly import _split_round_robin

        mask = mask_from_ids(range(50))
        parts = _split_round_robin(mask, 3)
        assert sum(p.bit_count() for p in parts) == 50
        assert max(p.bit_count() for p in parts) - min(p.bit_count() for p in parts) <= 1
        union = 0
        for p in parts:
            assert not p & union
            union |= p
        assert union == mask


class TestRunMainTheorem:
    def test_budget_dominates(self):
        g = random_graph(9, 0.5, 5)
        key = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, 9))
        res = run_main_theorem(g, K2, QUARTER, 9, key)
        assert res.removed.bit_count() <= 9
        res.verify(g)

    def test_h_free_graph_empty_removal(self):
        # K2-free means edgeless; d = 0 must succeed with S = empty
        g = Graph.empty(11)
        res = run_main_theorem(g, K2, QUARTER, 0)
        assert res.removed == 0
        res.verify(g)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_an_exact_schedule_bounds_the_parts_by_the_level_budget(self, n):
        # every schedule is exact, so an edgeless graph keeps the level-0
        # part budget h^(2K) * (2400 eps^-2 + N) - N as its bound
        key = KeyParams.practical(K2, QUARTER)
        g = Graph.empty(n)
        res = run_main_theorem(g, K2, QUARTER, 0, key)
        assert res.removed == 0
        assert res.partition.bound == part_count_target(QUARTER, key, 2, 0)
        assert verify_removal_result(g, res).ok

    def test_the_result_goes_through_the_verifier(self, monkeypatch):
        import rpt.assembly

        monkeypatch.setattr(rpt.assembly, "verify_removal_result",
                            lambda g, r: Verdict(False, detail="refuted"))
        with pytest.raises(AssertionError, match="^refuted$"):
            run_main_theorem(random_graph(9, 0.5, 5), K2, QUARTER, 9)

    def test_a_blowup_in_the_last_block_exceeds_the_copy_budget(self, monkeypatch):
        # the key lemma's other outcome: a verified full blowup, which no
        # removal of d vertices can follow, is handed to the caller
        import rpt.assembly
        from rpt.keypartition import BlowupFound, MNTPartition, run_key_lemma

        g = Graph.complete(11)
        key = KeyParams.practical(K2, QUARTER)
        start = MNTPartition((), (), (), (mask_from_ids(range(10)),), 1 << 10, key, 0)
        found = run_key_lemma(g, K2, key, 0, start=start)
        assert isinstance(found, BlowupFound)
        monkeypatch.setattr(rpt.assembly, "run_key_lemma", lambda *args: found)
        with pytest.raises(CopyBudgetExceeded, match="full pattern blowup at depth 0") as info:
            run_main_theorem(g, K2, QUARTER, 0, key)
        assert info.value.blowup is found

    def test_rejects_single_vertex_patterns(self):
        with pytest.raises(ValueError):
            run_main_theorem(Graph.empty(3), named_pattern("K1"), QUARTER, 0)

    def test_prop16_instance(self):
        spec = HardInstanceSpec(1, 20, 40, Fraction(1, 20), K2, seed=7)
        inst = generate_hard_graph(spec)
        key = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, 8))
        res = run_main_theorem(inst.graph, K2, QUARTER, 20, key)
        res.verify(inst.graph)

    def test_oracle_never_beaten(self):
        rng = random.Random(31)
        for trial in range(6):
            n = rng.randint(4, 9)
            g = random_graph(n, rng.uniform(0.2, 0.8), trial + 100)
            key = KeyParams.practical(K2, QUARTER, delta_prime=Fraction(1, max(8, n)))
            res = run_main_theorem(g, K2, QUARTER, rng.randint(1, n), key)
            res.verify(g)
            best, _, _ = min_removal_oracle(
                g, max(len(res.partition.parts), 1), QUARTER
            )
            assert res.removed.bit_count() >= best

    def test_complement_closure_of_restrictedness(self):
        rng = random.Random(77)
        for trial in range(8):
            g = random_graph(rng.randint(3, 7), rng.uniform(0.2, 0.8), trial + 500)
            for n_parts in (1, 2):
                lhs, _ = exact_n_restricted(g, n_parts, QUARTER)
                rhs, _ = exact_n_restricted(complement(g), n_parts, QUARTER)
                assert lhs == rhs
