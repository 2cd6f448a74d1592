"""Each argument and constructor check of the library that no pipeline
input reaches, driven by a direct call: the exception type and the
message, as the caller sees them.  The CLI's hostile inputs are in
test_cli.py, and the key lemma's refutations in test_keypartition.py."""

from dataclasses import replace
from fractions import Fraction

import pytest

from rpt.assembly import PathPartition, lengthen, level_eps
from rpt.embedding import EmbeddingParams, blowup_copy_bound_check, witness_or_count
from rpt.extraction import ExtractionBudget, extract_restricted_exact, trim_to_size
from rpt.fullpair import FullPairParams, find_full_pair
from rpt.graph import (
    Graph,
    GraphParseError,
    count_embeddings_into_parts,
    from_graph6,
    induced_subgraph,
    named_pattern,
    to_graph6,
)
from rpt.keypartition import InfeasibleAtScale, KeyParams, run_key_lemma
from rpt.predicates import (
    BlowupCertificate,
    CheckPreconditionError,
    extract_restricted_from_weak,
    is_tight_to,
)
from rpt.values import LogValue, log2_fraction, scalar_ceil_mul

QUARTER = Fraction(1, 4)
K2 = named_pattern("K2")
K3 = named_pattern("K3")


def _key() -> KeyParams:
    return KeyParams.practical(K2, QUARTER)


def _paper_k2() -> KeyParams:
    return KeyParams.paper(K2, QUARTER, QUARTER, QUARTER)


# (call, exception, message): each call trips exactly one check
REFUSALS = {
    # graph
    "cycle-below-3": (lambda: Graph.cycle(2), ValueError, "cycles need at least 3 vertices"),
    "edges-between-overlap": (lambda: Graph.empty(4).edges_between(0b11, 0b10), ValueError,
                              "edges_between requires disjoint sets"),
    "induced-out-of-range": (lambda: induced_subgraph(Graph.empty(3), 0b1000), ValueError,
                             "vertex set out of range"),
    "prefix-0": (lambda: K3.prefix(0), ValueError, "prefix length out of range"),
    "graph6-empty": (lambda: from_graph6(""), GraphParseError, "empty graph6 input"),
    "graph6-long-form": (lambda: to_graph6(Graph.empty(63)), ValueError,
                         "only short-form graph6 encoding is supported"),
    "parts-per-label": (lambda: count_embeddings_into_parts(Graph.empty(4), K2, [0b1]),
                        ValueError, "need exactly one part per pattern label"),
    # embedding
    "embedding-lengths": (lambda: EmbeddingParams((QUARTER,), ()), ValueError,
                          "eps and delta sequences must have equal length"),
    "embedding-domain": (lambda: EmbeddingParams((Fraction(1),), (QUARTER,)), ValueError,
                         "all parameters must lie in the open interval (0,1)"),
    "embedding-sequence-length": (
        lambda: witness_or_count(Graph.empty(6), K3, [0b11, 0b1100, 0b110000],
                                 EmbeddingParams.uniform(2, QUARTER, QUARTER)),
        ValueError, "parameter sequences must have length h-1"),
    "copy-bound-eps": (
        lambda: blowup_copy_bound_check(Graph.empty(2), K2,
                                        BlowupCertificate((1, 2), QUARTER, Fraction(1, 2), K2)),
        ValueError, "blowup bound check needs eps in (0, 1/2)"),
    "copy-bound-c": (
        lambda: blowup_copy_bound_check(Graph.empty(2), K2,
                                        BlowupCertificate((1, 2), Fraction(1, 2), QUARTER, K2)),
        ValueError, "certificate must be an (eps^h, eps)-blowup"),
    # extraction
    "budget-density": (lambda: ExtractionBudget(Fraction(0), QUARTER, 1), ValueError,
                       "density targets must lie in (0,1)"),
    "budget-depth": (lambda: ExtractionBudget(QUARTER, QUARTER, 0), ValueError,
                     "depth must be >= 1"),
    "trim-side": (lambda: trim_to_size(Graph.empty(4), 0b1111, 2, "middle"), ValueError,
                  "side must be 'low' or 'high'"),
    "extract-delta": (lambda: extract_restricted_exact(Graph.empty(4), K2, QUARTER,
                                                       Fraction(1, 2)),
                      ValueError, "delta must lie in (0, 1/4]"),
    # fullpair
    "fullpair-c": (lambda: FullPairParams(Fraction(0), Fraction(1, 8)), ValueError,
                   "c must lie in (0,1)"),
    "fullpair-eps": (lambda: FullPairParams(Fraction(1, 2), QUARTER), ValueError,
                     "eps must lie in (0,1/4)"),
    "fullpair-sides": (
        lambda: find_full_pair(Graph.empty(4), 0, 0b1, FullPairParams(Fraction(1, 2),
                                                                     Fraction(1, 8))),
        CheckPreconditionError, "sides must be nonempty and disjoint"),
    # keypartition
    "schedule-length": (lambda: replace(_key(), eps_schedule=_key().eps_schedule[:-1]),
                        ValueError, "eps_schedule must list eps_0..eps_h"),
    "schedule-top": (lambda: replace(_key(), eps_schedule=(*_key().eps_schedule[:-1],
                                                           Fraction(1, 2))),
                     ValueError, "eps_h must not exceed eps"),
    "schedule-order": (lambda: replace(_key(), eps_schedule=_key().eps_schedule[::-1]),
                       ValueError, "eps_schedule must be nondecreasing in t"),
    # at h = 1 the cap eta*delta'/2 does not involve lam, so eta' may exceed it
    "eta-prime-lam": (lambda: KeyParams.practical(named_pattern("K1"), QUARTER,
                                                  lam=Fraction(1, 1000),
                                                  eta_prime=Fraction(1, 100)),
                      ValueError, "eta_prime must be at most lam"),
    "delta-prime-scale": (
        lambda: replace(_paper_k2(), delta_prime=LogValue.of(Fraction(1, 8))).delta_prime_at(64),
        InfeasibleAtScale, "delta_prime not representable at this scale"),
    "paper-d0": (lambda: run_key_lemma(Graph.complete(3), K2, _paper_k2(), 0),
                 InfeasibleAtScale, "exact schedule needs ind(G) = 0 when d = 0"),
    # predicates
    "tightness-mode": (lambda: is_tight_to(Graph.empty(2), 0b1, 0b10, QUARTER, "loose"),
                       ValueError, "unknown tightness mode 'loose'"),
    "weak-empty": (lambda: extract_restricted_from_weak(Graph.empty(2), 0, QUARTER),
                   CheckPreconditionError, "cannot extract from an empty set"),
    # values
    "log2-nonpositive": (lambda: log2_fraction(Fraction(0)), ValueError,
                         "log2 of a nonpositive rational"),
    "ceil-k": (lambda: scalar_ceil_mul(QUARTER, 0), ValueError, "k must be positive"),
    # assembly
    "lengthen-depth": (
        lambda: lengthen(Graph.empty(4), K2,
                         PathPartition.trivial(Graph.empty(4), level_eps(QUARTER, 2, 0)),
                         QUARTER, _key(), Fraction(0), -1),
        ValueError, "depth k out of range"),
    "lengthen-negative-d": (
        lambda: lengthen(Graph.empty(4), K2,
                         PathPartition.trivial(Graph.empty(4), level_eps(QUARTER, 2, 0)),
                         QUARTER, _key(), Fraction(-1), 0),
        ValueError, "removal budget must be nonnegative"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_argument_check_refuses(case):
    call, exc, message = REFUSALS[case]
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message
