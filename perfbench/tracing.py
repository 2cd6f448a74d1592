"""Per-layer spans and counters, recorded from outside the program.

Each listed public function of ``rpt`` is replaced, in every ``rpt`` module
namespace that holds it (``from .x import f`` binds the name early), by a
wrapper that records a ``perf_counter_ns`` span.  Self time is a span's
duration minus the time covered by its child spans.  Counters are derived
from return values and raised exceptions.  Wrappers are installed only for
traced passes, so untraced passes run the program unmodified.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "graph": ["count_induced_copies", "count_embeddings_into_parts", "induced_subgraph",
              "load_graph_text"],
    "embedding": ["find_tight_pair", "witness_or_count"],
    "extraction": ["find_low_or_high_density_subset", "extract_restricted_exact", "peel_chain",
                   "phi", "trim_to_size"],
    "fullpair": ["find_full_pair"],
    "predicates": ["is_full_pair", "verify_blowup", "is_restricted", "is_tight_to",
                   "extract_restricted_from_weak"],
    "keypartition": ["run_key_lemma", "advance_or_finish", "verify_mnt_partition",
                     "verify_key_result"],
    "assembly": ["run_main_theorem", "lengthen", "base_partition", "verify_restricted_partition",
                 "verify_path_partition"],
    "ledger": ["build_ledger"],
    "values": ["log2_fraction"],
    "adversarial": ["generate_hard_graph", "verify_hard_graph"],
    "serialize": ["dumps", "from_json"],  # from_json: every *_from_json, summed
    "cli": ["main"],
}

COUNTERS = [
    "graph.copies_counted",
    "embedding.tight_pair_ratio",
    "extraction.guaranteed_ratio",
    "extraction.peel_guaranteed_ratio",
    "extraction.infeasible",
    "fullpair.search_errors",
    "predicates.budget_errors",
    "keypartition.sampled_verdicts",
    "keypartition.blowups_found",
    "ledger.saturated_entries",
    "values.undecidable",
]

# Counters reported as a share of a function's calls: name -> (function, event)
RATIOS = {
    "embedding.tight_pair_ratio": ("embedding.find_tight_pair", "tight_pair"),
    "extraction.guaranteed_ratio": ("extraction.find_low_or_high_density_subset", "guaranteed"),
    "extraction.peel_guaranteed_ratio": ("extraction.peel_chain", "peel_guaranteed"),
}

# Raised exception class name -> counter; each exception object counts once.
EXCEPTION_COUNTERS = {
    "ExtractionInfeasible": "extraction.infeasible",
    "FullPairSearchError": "fullpair.search_errors",
    "EnumerationBudgetError": "predicates.budget_errors",
    "UndecidableAtScale": "values.undecidable",
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def metric_names() -> list[str]:
    names = []
    for name in span_names():
        names += [f"{name}.calls", f"{name}.self_share"]
    return names + COUNTERS + ["trace.overhead_ratio"]


def unit(name: str) -> str:
    """Shares of time or calls are unitless; everything else is per traced pass."""
    return "share" if name.endswith(("self_share", "_ratio")) else "1/pass"


def _on_return(name: str, result, events: dict) -> None:
    """Counters read from a wrapped function's return value."""
    def bump(key, k=1):
        events[key] = events.get(key, 0) + k

    if name in ("graph.count_induced_copies", "graph.count_embeddings_into_parts"):
        bump("graph.copies_counted", result)
    elif name == "embedding.find_tight_pair":
        bump("tight_pair", type(result).__name__ == "TightPairResult")
    elif name == "extraction.find_low_or_high_density_subset":
        bump("guaranteed", bool(result.guaranteed))
    elif name == "extraction.peel_chain":
        bump("peel_guaranteed", bool(result.guaranteed))
    elif name == "keypartition.verify_mnt_partition":
        bump("keypartition.sampled_verdicts", not result.exact)
    elif name == "keypartition.run_key_lemma":
        bump("keypartition.blowups_found", type(result).__name__ == "BlowupFound")
    elif name == "ledger.build_ledger":
        bump("ledger.saturated_entries", sum(e.saturated for e in result.entries.values()))


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self, rpt):
        self.rpt = rpt
        self.names = span_names()
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.events: dict[str, int] = {}
        # (request, function index, parent span id, start ns, end ns); list index = span id
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.op = -1
        self._stack: list[list[int]] = []  # [span index, start, child ns]
        self._seen_exc: list[BaseException] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    def _targets(self):
        """(span name, function) for every wrapped function."""
        for layer, fns in LAYERS.items():
            mod = getattr(self.rpt, layer)
            for fn in fns:
                if fn == "from_json":
                    for attr in sorted(vars(mod)):
                        if attr.endswith("_from_json"):
                            yield f"{layer}.from_json", getattr(mod, attr)
                else:
                    yield f"{layer}.{fn}", getattr(mod, fn)

    def _build_patches(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "rpt" or key.startswith("rpt."))]
        for name, original in self._targets():
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        idx = self.index[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(tracer.spans), time.perf_counter_ns(), 0]
            tracer.spans.append(None)  # placeholder keeps span ids in start order
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, frame)
                counter = EXCEPTION_COUNTERS.get(type(exc).__name__)
                if counter and not any(exc is seen for seen in tracer._seen_exc):
                    tracer._seen_exc.append(exc)
                    tracer.events[counter] = tracer.events.get(counter, 0) + 1
                raise
            tracer._close(idx, frame)
            _on_return(name, result, tracer.events)
            return result

        return wrapper

    def _close(self, idx: int, frame: list[int]) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        dur = end - frame[1]
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.calls[idx] += 1
        self.self_ns[idx] += dur - frame[2]
        self.spans[frame[0]] = (self.op, idx, -1 if parent is None else parent[0], frame[1], end)

    def install(self) -> None:
        for mod, attr, _original, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self._patches:
            setattr(mod, attr, original)
        self._seen_exc.clear()

    def metrics(self, passes: int, traced_ns: int, overhead_ratio: float) -> dict[str, float]:
        """Calls and counters per traced pass; self time as a share of the
        traced passes' operation time."""
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[i] / passes
            out[f"{name}.self_share"] = self.self_ns[i] / traced_ns
        for counter in COUNTERS:
            if counter in RATIOS:
                fn, event = RATIOS[counter]
                calls = self.calls[self.index[fn]]
                out[counter] = self.events.get(event, 0) / calls if calls else 0.0
            else:
                out[counter] = self.events.get(counter, 0) / passes
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path: str, op_ids: list[str]) -> None:
        """One JSON line per span: request (pass/op), span id, parent, name, ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "ops": op_ids}) + "\n")
            for span_id, (op, idx, parent, start, end) in enumerate(self.spans):
                fh.write(f"[{op},{span_id},{parent},{idx},{start},{end}]\n")
