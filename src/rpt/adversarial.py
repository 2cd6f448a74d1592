"""Hard-instance generator and brute-force oracles for differential testing.

The generator builds the counterexample family showing that a bounded
number of induced copies alone cannot force a bounded restricted
partition: a random core F on m vertices with no weakly 6*eps-restricted
subset of size >= m/N, plus n - m pairwise non-adjacent vertices each
joined to all of F.  Every copy of a connected pattern must then touch
F, so the copy count stays O(m * n^(h-1)) while no part of any
<=N-partition can stay restricted.

The core property is checked by enumeration only when the subsets are
few enough.  A larger core (m = 80, N = 2, say) gets a spot check of
2,000 random subsets instead, flagged by ``core_exactly_verified=False``;
it is not verified until a core with a proved property replaces it.

The oracles here are deliberately definition-direct (permutation
enumeration, set-partition backtracking, ascending removal search); the
fast implementations elsewhere are tested against them, never the other
way around.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graph import (
    Graph,
    Pattern,
    degree_range,
    induced_subgraph,
    lift,
    mask_from_ids,
)
from .predicates import is_restricted, is_weakly_restricted
from .values import ceil_frac, floor_frac


class OracleBudgetError(RuntimeError):
    """Instance too large for an exhaustive oracle."""


def naive_count(g: Graph, pat: Pattern, budget: int = 10**8) -> int:
    """Enumerate all injective maps and test the induced condition directly."""
    h = pat.size
    if g.n**h > budget:
        raise OracleBudgetError(f"{g.n}^{h} maps exceed the oracle budget")
    order = pat.order
    want = [
        [pat.graph.has_edge(order[i], order[j]) for j in range(h)] for i in range(h)
    ]
    total = 0
    for phi in itertools.permutations(range(g.n), h):
        ok = True
        for i in range(h):
            for j in range(i + 1, h):
                if g.has_edge(phi[i], phi[j]) != want[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            total += 1
    return total


def _block_can_become_restricted(g: Graph, block: int, eps: Fraction, n_total: int) -> bool:
    """Necessary condition for a partial block to extend to a restricted one.

    Degrees only grow as vertices join a block and the final size is at
    most n_total, so a side is dead once some current degree on it
    exceeds eps * n_total.
    """
    size = block.bit_count()
    if size <= 1:
        return True
    low, high = degree_range(g, block)
    cap = floor_frac(eps * n_total)  # a degree d has d > eps n_total iff d > cap
    return high <= cap or size - 1 - low <= cap


EXHAUSTIVE_LIMIT = 12  # default vertex budget of exact_n_restricted


def exact_n_restricted(
    g: Graph, n_parts: int, eps: Fraction, budget: int = EXHAUSTIVE_LIMIT
) -> tuple[bool, list[int] | None]:
    """Exact decision: can V(G) be partitioned into <= n_parts eps-restricted sets?

    Backtracking over restricted-growth assignments with a sound
    can-still-become-restricted prune.  Returns a witness partition
    (list of masks) on success.
    """
    if g.n > budget:
        raise OracleBudgetError(f"graph on {g.n} vertices exceeds the oracle budget {budget}")
    if n_parts <= 0:
        return (g.n == 0, [] if g.n == 0 else None)
    if g.n == 0:
        return True, []
    if n_parts >= g.n:
        return True, [1 << v for v in range(g.n)]
    blocks: list[int] = []

    def rec(v: int) -> bool:
        if v == g.n:
            return all(is_restricted(g, b, eps) for b in blocks)
        limit = len(blocks) + 1 if len(blocks) < n_parts else len(blocks)
        for idx in range(limit):
            if idx == len(blocks):
                blocks.append(0)
            old = blocks[idx]
            blocks[idx] = old | (1 << v)
            if _block_can_become_restricted(g, blocks[idx], eps, g.n) and rec(v + 1):
                return True
            if old == 0 and idx == len(blocks) - 1:
                blocks.pop()
            else:
                blocks[idx] = old
        return False

    if rec(0):
        return True, list(blocks)
    return False, None


def min_removal_oracle(
    g: Graph, n_parts: int, eps: Fraction, budget: int = 10
) -> tuple[int, int, list[int]]:
    """Smallest |S| such that G - S is (n_parts, eps)-restricted.

    Ascending-size search over all removal sets; returns (size, removed
    mask, witness partition in host ids).
    """
    if g.n > budget:
        raise OracleBudgetError(f"graph on {g.n} vertices exceeds the oracle budget {budget}")
    for r in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            removed = mask_from_ids(combo)
            sub, ids = induced_subgraph(g, g.full_mask & ~removed)
            ok, parts = exact_n_restricted(sub, n_parts, eps, budget=budget)
            if ok:
                host_parts = [lift(ids, p) for p in parts]
                return r, removed, host_parts
    raise AssertionError("unreachable: removing everything always succeeds")


@dataclass(frozen=True)
class HardInstanceSpec:
    restriction_budget: int  # N
    core_size: int  # m
    total_size: int  # n
    eps: Fraction
    pattern: Pattern
    seed: int
    allow_small_core: bool = False  # domain-relaxed test builds

    def __post_init__(self):
        n_, m_, big_n = self.total_size, self.core_size, self.restriction_budget
        if big_n < 1:
            raise ValueError("restriction budget must be >= 1")
        if not self.allow_small_core and m_ < 20 * big_n**2:
            raise ValueError("core size must be at least 20*N^2 (or set allow_small_core)")
        if n_ < m_:
            raise ValueError("total size must be at least the core size")
        if not Fraction(0) < self.eps < Fraction(1, 18):
            raise ValueError("eps must lie in (0, 1/18)")
        if self.pattern.size < 2:
            raise ValueError("pattern must have at least two vertices")


_SCAN_BUDGET = 5 * 10**6  # subsets an exhaustive core scan may test


def _subset_scan_budget(m: int, k0: int) -> int:
    return sum(comb(m, k) for k in range(k0, m + 1))


def _scan_core_subsets(f: Graph, holds, min_size: int, budget: int) -> tuple[bool, int | None]:
    """The first subset of F of size >= min_size (smallest size first, then
    lexicographic) on which ``holds`` is true; exhaustive, because neither
    predicate is monotone under taking subsets."""
    if _subset_scan_budget(f.n, min_size) > budget:
        raise OracleBudgetError("core subset scan exceeds budget")
    for k in range(min_size, f.n + 1):
        for combo in itertools.combinations(range(f.n), k):
            mask = mask_from_ids(combo)
            if holds(mask):
                return True, mask
    return False, None


def core_has_large_weak_subset(
    f: Graph, eps6: Fraction, min_size: int, budget: int = _SCAN_BUDGET
) -> tuple[bool, int | None]:
    """Does F contain a weakly eps6-restricted subset of size >= min_size?"""
    return _scan_core_subsets(f, lambda m: is_weakly_restricted(f, m, eps6), min_size, budget)


def core_has_large_restricted_subset(
    f: Graph, eps3: Fraction, min_size: int, budget: int = _SCAN_BUDGET
) -> tuple[bool, int | None]:
    """Does F contain an eps3-restricted subset of size >= min_size?"""
    return _scan_core_subsets(f, lambda m: is_restricted(f, m, eps3), min_size, budget)


@dataclass
class HardInstance:
    graph: Graph
    core: int  # mask of the core F inside the full graph
    spec: HardInstanceSpec
    resamples: int
    core_exactly_verified: bool


def _attach_dominating_independents(f: Graph, n: int) -> tuple[Graph, int]:
    m = f.n
    all_core = (1 << m) - 1
    added = ((1 << n) - 1) ^ all_core
    rows = [r | added for r in f.adj] + [all_core] * (n - m)
    return Graph(n, tuple(rows)), all_core


_MAX_RESAMPLES = 200
_CORE_SAMPLES = 2000  # random subsets the sampled acceptance tests


def _draw_subset(rng: random.Random, f: Graph, k: int) -> tuple[int, int]:
    """The set ``rng.sample(range(f.n), k)`` draws, as a mask, and the number
    of edges of F inside it; ``rng`` ends in the state ``rng.sample`` leaves.

    Where ``Random.sample`` surely takes its pool branch (m <= 21, or k > 5
    and m <= 21 + 3k, since it pools whenever m <= 21 + 4^ceil(log4(3k))
    for k > 5), its draws are made here with ``getrandbits`` directly: the
    pick for i = m, m-1, ..., m-k+1 is pool[j] for j below i by rejection
    on i.bit_length() bits, as ``Random._randbelow`` draws it, and
    pool[i-1] fills the hole.  Each pick adds its edges to the picks
    before it.  Otherwise ``rng.sample`` itself runs.
    """
    m, adj = f.n, f.adj
    if not (m <= 21 or (k > 5 and m <= 21 + 3 * k)):
        mask = mask_from_ids(rng.sample(range(m), k))
        return mask, f.edges_inside(mask)
    getrandbits = rng.getrandbits
    pool = list(range(m))
    mask = edges = 0
    for i in range(m, m - k, -1):
        bits = i.bit_length()
        j = getrandbits(bits)
        while j >= i:
            j = getrandbits(bits)
        x = pool[j]
        pool[j] = pool[i - 1]
        edges += (adj[x] & mask).bit_count()
        mask |= 1 << x
    return mask, edges


def _weak_edge_bounds(k: int, eps6: Fraction) -> tuple[int, int]:
    """(lo, hi) such that a k-set with e edges inside is weakly
    eps6-restricted iff e <= lo or e >= hi, as ``is_weakly_restricted``
    decides it (a set of at most one vertex has density 0)."""
    pairs = k * (k - 1) // 2
    return floor_frac(eps6 * pairs), ceil_frac((1 - eps6) * pairs)


def _sampled_core_ok(
    f: Graph, eps6: Fraction, min_size: int, rng: random.Random
) -> bool:
    """Spot check of F: True when none of ``_CORE_SAMPLES`` random subsets
    is weakly eps6-restricted.  Each subset has ``rng.randint(min_size, m)``
    vertices drawn by ``rng.sample(range(m), k)``, and ``rng`` is consumed
    exactly as those two calls consume it."""
    m = f.n
    bounds = [_weak_edge_bounds(k, eps6) for k in range(min_size, m + 1)]
    getrandbits = rng.getrandbits
    width = m - min_size + 1
    width_bits = width.bit_length()
    for _ in range(_CORE_SAMPLES):
        r = getrandbits(width_bits)  # randint(min_size, m), drawn as _randbelow does
        while r >= width:
            r = getrandbits(width_bits)
        _mask, edges = _draw_subset(rng, f, min_size + r)
        lo, hi = bounds[r]
        if edges <= lo or edges >= hi:
            return False
    return True


def generate_hard_graph(spec: HardInstanceSpec) -> HardInstance:
    """Sample the counterexample instance, resampling the core until it
    passes its check (a Chernoff-type argument makes resampling cheap).

    The check is an exhaustive scan of the core's subsets of size >= m/N
    when at most ``_SCAN_BUDGET`` of them exist.  Beyond that it is only a
    spot check of ``_CORE_SAMPLES`` random subsets, and the result carries
    ``core_exactly_verified=False``.

    Domain-relaxed builds (core below 20*N^2, test scale only) cannot
    satisfy the core subset property; they resample on the direct
    criterion instead: the assembled graph exhaustively fails to be
    (N, eps)-restricted.
    """
    m, n, big_n = spec.core_size, spec.total_size, spec.restriction_budget
    rng = random.Random(spec.seed)
    min_size = ceil_frac(Fraction(m, big_n))
    relaxed = m < 20 * big_n**2
    exact_possible = not relaxed and _subset_scan_budget(m, min_size) <= _SCAN_BUDGET
    for attempt in range(1, _MAX_RESAMPLES + 1):
        edges = [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < 0.5]
        f = Graph.from_edges(m, edges)
        if relaxed:
            g, all_core = _attach_dominating_independents(f, n)
            ok, _ = exact_n_restricted(g, big_n, spec.eps, budget=max(n, 12))
            if ok:
                continue
            return HardInstance(g, all_core, spec, attempt, core_exactly_verified=False)
        if exact_possible:
            bad, _witness = core_has_large_weak_subset(f, 6 * spec.eps, min_size)
            if bad:
                continue
            verified = True
        else:
            if not _sampled_core_ok(f, 6 * spec.eps, min_size, rng):
                continue
            verified = False
        g, all_core = _attach_dominating_independents(f, n)
        return HardInstance(
            graph=g,
            core=all_core,
            spec=spec,
            resamples=attempt,
            core_exactly_verified=verified,
        )
    raise RuntimeError(
        "resampling budget exhausted; raise the core size or lower the restriction budget"
    )


def check_partition_against_hard_instance(
    g: Graph, core: int, spec: HardInstanceSpec, parts: list[int]
) -> list[str]:
    """Proof-path check for a candidate <=N partition of a hard instance.

    Returns the list of failures (empty = the instance behaves as built):
    some part must meet the core in >= m/N vertices; every such part that
    also leaves the core must exceed both degree bounds, hence cannot be
    eps-restricted.
    """
    problems = []
    m, big_n, eps = spec.core_size, spec.restriction_budget, spec.eps
    min_core = Fraction(m, big_n)
    if len(parts) > big_n:
        problems.append(f"partition uses {len(parts)} > N = {big_n} parts")
    if not any((p & core).bit_count() >= min_core for p in parts):
        problems.append("pigeonhole failed: no part meets the core in m/N vertices")
    for idx, p in enumerate(parts):
        t_part = p & core
        s_part = p & ~core
        if t_part.bit_count() >= min_core and s_part:
            size = p.bit_count()
            low, gmax = degree_range(g, p)
            cmax = size - 1 - low  # the largest degree in the complement of G[p]
            if not gmax > eps * size:
                problems.append(f"part {idx}: graph-side degree bound not exceeded")
            if not cmax > eps * size:
                problems.append(f"part {idx}: complement-side degree bound not exceeded")
            if is_restricted(g, p, eps):
                problems.append(f"part {idx}: unexpectedly eps-restricted")
    return problems


def verify_hard_graph(inst: HardInstance, count_fn) -> dict:
    """Re-verify a generated instance from scratch.

    count_fn(graph, pattern) supplies the induced-copy counter (passed in
    so the oracle module never depends on the fast path).
    """
    spec = inst.spec
    g, core = inst.graph, inst.core
    m, n = spec.core_size, spec.total_size
    h = spec.pattern.size
    report: dict = {"clauses": [], "ok": True}

    def clause(name: str, ok: bool, detail: str = ""):
        report["clauses"].append({"name": name, "ok": ok, "detail": detail})
        report["ok"] = report["ok"] and ok

    count = count_fn(g, spec.pattern)
    bound = h * m * n ** (h - 1)
    clause("copy-count-bound", count <= bound, f"ind={count} bound={bound}")

    relaxed = m < 20 * spec.restriction_budget**2
    if not relaxed:
        f, _ = induced_subgraph(g, core)
        try:
            has, _w = core_has_large_restricted_subset(
                f, 3 * spec.eps, ceil_frac(Fraction(m, spec.restriction_budget))
            )
            clause("core-no-large-restricted-subset", not has)
        except OracleBudgetError:
            clause("core-no-large-restricted-subset", True, "skipped: over budget (flagged)")
            report["core_scan_skipped"] = True

    if n <= EXHAUSTIVE_LIMIT:
        ok, _parts = exact_n_restricted(g, spec.restriction_budget, spec.eps)
        clause("not-n-restricted-exhaustive", not ok)
    else:
        if spec.restriction_budget == 1:
            size = n
            low, gmax = degree_range(g, g.full_mask)
            cmax = size - 1 - low
            clause(
                "whole-graph-not-restricted",
                gmax > spec.eps * size and cmax > spec.eps * size,
                f"max degrees {gmax}/{cmax} vs eps*n = {float(spec.eps * size):.2f}",
            )
        else:
            report["proof_path_only"] = True
    return report
