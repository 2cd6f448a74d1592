"""Induced-copy counting, epsilon-restricted partitions, and verified
removal certificates for graph decompositions.

The package loads lazily (PEP 562): ``import rpt`` compiles no submodule,
and a name below is imported from its module the first time it is read,
then cached here.  So a command compiles only the modules it runs.
"""

from importlib import import_module

# module -> the names the package re-exports from it; __all__ lists these
# names and the modules themselves
_EXPORTS = {
    "adversarial": ("HardInstanceSpec", "exact_n_restricted", "generate_hard_graph",
                    "min_removal_oracle", "naive_count", "verify_hard_graph"),
    "assembly": ("PathPartition", "RemovalResult", "RestrictedPartition", "base_partition",
                 "lengthen", "run_main_theorem", "verify_path_partition",
                 "verify_removal_result", "verify_restricted_partition"),
    "embedding": ("EmbeddingParams", "TightPairWitness", "blowup_copy_bound_check",
                  "find_tight_pair", "witness_or_count"),
    "extraction": ("ExtractionBudget", "PeelChain", "extract_restricted_exact",
                   "find_low_or_high_density_subset", "peel_chain", "trim_to_size"),
    "fullpair": ("FullPairParams", "find_full_pair"),
    "graph": ("Graph", "Pattern", "complement", "count_embeddings_into_parts",
              "count_induced_copies", "edge_density", "from_edge_list", "from_graph6",
              "induced_subgraph", "load_graph_text", "mask_from_ids", "mask_to_ids",
              "named_pattern"),
    "keypartition": ("BlowupFound", "KeyLemmaResult", "KeyParams", "MNTPartition",
                     "advance_or_finish", "run_key_lemma", "verify_mnt_partition"),
    "ledger": ("ConstantsLedger", "build_ledger", "gamma", "phi", "tight_pair_copy_threshold"),
    "predicates": ("BlowupCertificate", "FullPairCertificate", "Verdict",
                   "extract_restricted_from_weak", "is_full_pair", "is_restricted",
                   "is_tight_to", "is_weakly_restricted", "verify_blowup"),
    "values": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        # a submodule not imported yet (importing it binds it here)
        try:
            return import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
