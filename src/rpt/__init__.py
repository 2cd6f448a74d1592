"""Induced-copy counting, epsilon-restricted partitions, and verified
removal certificates for graph decompositions."""

from .adversarial import (
    HardInstanceSpec,
    exact_n_restricted,
    generate_hard_graph,
    min_removal_oracle,
    naive_count,
    verify_hard_graph,
)
from .assembly import (
    PathPartition,
    RemovalResult,
    RestrictedPartition,
    base_partition,
    lengthen,
    run_main_theorem,
    verify_path_partition,
    verify_removal_result,
    verify_restricted_partition,
)
from .embedding import (
    EmbeddingParams,
    TightPairWitness,
    blowup_copy_bound_check,
    find_tight_pair,
    tight_pair_copy_threshold,
    witness_or_count,
)
from .extraction import (
    ExtractionBudget,
    PeelChain,
    extract_restricted_exact,
    find_low_or_high_density_subset,
    peel_chain,
    phi,
    trim_to_size,
)
from .fullpair import FullPairParams, find_full_pair, gamma
from .graph import (
    Graph,
    Pattern,
    complement,
    count_embeddings_into_parts,
    count_induced_copies,
    edge_density,
    from_edge_list,
    from_graph6,
    induced_subgraph,
    load_graph_text,
    mask_from_ids,
    mask_to_ids,
    named_pattern,
)
from .keypartition import (
    BlowupFound,
    KeyLemmaResult,
    KeyParams,
    MNTPartition,
    advance_or_finish,
    run_key_lemma,
    verify_mnt_partition,
)
from .ledger import ConstantsLedger, build_ledger
from .predicates import (
    BlowupCertificate,
    FullPairCertificate,
    Verdict,
    extract_restricted_from_weak,
    is_full_pair,
    is_restricted,
    is_tight_to,
    is_weakly_restricted,
    verify_blowup,
)

__all__ = [name for name in dir() if not name.startswith("_")]
