"""Regularity-free extraction machinery.

The central routine finds an induced subgraph whose edge density is at
most eps1 or at least 1-eps2, by the recursive scheme: locate a tight
pair at min(eps1,eps2)/4, recurse into the sparse side at a relaxed
(3/2)*eps1 target, keep the vertices of the other side with few
neighbours in what came back, recurse again, and merge two equal-size
pieces whose union then meets the original target exactly (the merge
arithmetic is proved in ``_search``'s docstring).  A depth budget
replaces the extremal quantity the scheme implicitly optimizes: on the
exact schedule the targets' product grows by 3/2 per level, so after s =
ceil(log_{3/2} eps^-2) levels every graph qualifies outright and the
recursion cannot bottom out.  Whenever a step cannot honor the guarantee
(copy count too high, depth exhausted), the routine degrades to a
flagged best-effort subset that still satisfies the density claim.

On top of that sit: greedy density-monotone trimming to exact sizes, the
exact-size eps-restricted extractor (density subset -> trim -> weak-to-
strong conversion), and the peel chain that repeatedly removes
restricted sets until only an eta-fraction leftover remains.

Both degree-deletion greedies here (trimming, and the best-effort shrink
toward a density target) run on the one peeling, ``graph.peel_order``:
degrees are maintained, not rescanned, as bit-sliced counters (plane j
holds bit j of every degree), so a deletion costs O(log n) whole-mask
operations.  The shrink compares densities as integers (2e*den against
num*s(s-1)).  Ties go to the lowest vertex id.  The restricted chunks of
the peel chain and of ``assembly.base_partition`` come from one grower,
``greedy_restricted_chunk``, which keeps its chunk degrees on the same
counters and tests each pool vertex against integer thresholds.

The best-effort fallback also offers a maximum independent set and a
maximum clique, from one branch and bound (``_independent_set``, on G and
on its complement) for n <= 64.  The recursion's
per-vertex test (at most eps k / 2 neighbours in the trimmed piece) is one
``graph.with_at_least`` call, with its bound rounded once: a count c has
c <= x iff c <= floor(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import mpmath

from .embedding import ManyCopiesResult, find_tight_pair
from .graph import (
    Graph,
    Pattern,
    complement,
    count_up,
    edge_density,
    extreme_degree,
    induced_subgraph,
    lift,
    mask_to_ids,
    peel_order,
    with_at_least,
)
from .ledger import depth_for, phi, shrink_fraction
from .predicates import Verdict, extract_restricted_from_weak, is_restricted
from .values import ceil_frac, floor_frac, log2_fraction


class ExtractionInfeasible(RuntimeError):
    """Requested size/parameter combination cannot be met at this scale."""


@dataclass(frozen=True)
class ExtractionBudget:
    eps1: Fraction
    eps2: Fraction
    depth: int  # recursion budget s; the exact schedule's is depth_for(min(eps1, eps2))

    def __post_init__(self):
        if not (0 < self.eps1 < 1 and 0 < self.eps2 < 1):
            raise ValueError("density targets must lie in (0,1)")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


@dataclass(frozen=True)
class DensitySubsetResult:
    vertices: int  # host-graph mask
    side: str  # "low" | "high"
    guaranteed: bool  # exact-schedule preconditions confirmed AND size >= eta^s |G|


def trim_to_size(g: Graph, s: int, k: int, side: str) -> int:
    """Exact-size subset whose density moved only the promised way.

    side="low": delete maximum-degree vertices (density never increases);
    side="high": delete minimum-degree vertices (never decreases).
    Ties go to the lowest vertex id (the deletion order of ``peel_order``).

    The density is never re-measured: a maximum degree d among s >= 3
    vertices with e edges has d*s >= 2e, so deleting its vertex leaves
    2(e-d)/((s-1)(s-2)) <= 2e/(s(s-1)).  ``peel_order`` deletes such a
    vertex on the "low" side, and "high" is the same on the complement.
    """
    if s & ~g.full_mask:
        raise ValueError("vertex set out of range")
    size = s.bit_count()
    if not 0 <= k <= size:
        raise ValueError(f"cannot trim {size} vertices down to {k}")
    if side not in ("low", "high"):
        raise ValueError("side must be 'low' or 'high'")
    current = s
    for v, _ in islice(peel_order(g, s, side), size - k):
        current ^= 1 << v
    return current


def _greedy_shrink_to_density(g: Graph, target: Fraction) -> int:
    """Delete maximum-degree vertices until the density drops to target >= 0.

    The density 2e / (s(s-1)) is compared with target = num/den as the
    integers 2e*den and num*s(s-1), with e and s updated per deletion.
    """
    num, den = target.numerator, target.denominator
    size, twice_e = g.n, 2 * g.edge_count()
    cur = g.full_mask
    peeling = peel_order(g, cur, "low")
    while twice_e * den > num * size * (size - 1):
        v, d = next(peeling)
        cur ^= 1 << v
        size -= 1
        twice_e -= 2 * d
    return cur


def _greedy_independent(g: Graph) -> int:
    """Min-degree-first greedy independent set (lowest id breaks ties)."""
    order = sorted(range(g.n), key=lambda v: (g.adj[v].bit_count(), v))
    out = 0
    for v in order:
        if not g.adj[v] & out:
            out |= 1 << v
    return out


_INDEPENDENT_SET_NODES = 20_000


def _independent_set(g: Graph, floor: int = 0) -> int:
    """Branch-and-bound maximum independent set, seeded by the greedy one.

    Only a set of more than ``floor`` vertices counts as an improvement,
    so the caller can pass the size of an answer it already holds.  Each
    node is bounded by a greedy clique cover of its candidates, built the
    BBMC way on the complement (San Segundo et al. 2011; Tomita & Seki
    2003): take the lowest candidate left, keep only its neighbours, and
    repeat until none is left; that closes one clique.  An independent set
    meets each clique at most once, so the number of cliques bounds what
    the candidates can add, and counting stops once it exceeds the room
    above the incumbent max(|best|, floor).  The pivot is the candidate of
    highest degree within the candidates (lowest id on ties); its "take"
    branch is searched first.

    A pruned subtree holds no set larger than the incumbent, so the bound
    removes no strict improvement the plain size bound |cur| + |cand| would
    find, and it visits a subset of that search's nodes in the same order.
    Hence, whenever the plain search finishes within the node budget, this
    one returns its set if alpha(G) > floor, and otherwise a set of at most
    ``floor`` vertices (the greedy one).

    Deterministic; gives up (returning the best found so far) once the
    node budget is spent, so worst-case inputs degrade to the greedy
    answer instead of stalling.  Beyond desk scale the greedy answer is
    returned outright: per-node pivot scans on wide bitsets dominate and
    exactness there buys nothing.
    """
    best = _greedy_independent(g)
    if g.n > 64:
        return best
    adj = g.adj
    incumbent = max(best.bit_count(), floor)
    nodes = 0

    def bnb(cand: int, cur: int, cur_size: int):
        nonlocal best, incumbent, nodes
        if nodes >= _INDEPENDENT_SET_NODES:
            return
        nodes += 1
        room = incumbent - cur_size
        cover, rest = 0, cand
        while rest and cover <= room:
            cover += 1
            clique = rest
            while clique:
                low = clique & -clique
                rest ^= low
                clique &= adj[low.bit_length() - 1]
        if cover <= room:
            return
        if not cand:
            best, incumbent = cur, cur_size
            return
        # branch on the highest-degree candidate (within cand); max keeps the first
        pivot = max(mask_to_ids(cand), key=lambda v: (adj[v] & cand).bit_count())
        bit = 1 << pivot
        bnb(cand & ~bit & ~adj[pivot], cur | bit, cur_size + 1)
        bnb(cand & ~bit, cur, cur_size)

    bnb(g.full_mask, 0, 0)
    return best


def _greedy_best_effort(g: Graph, eps1: Fraction, eps2: Fraction) -> tuple[int, str]:
    """Largest qualifying set among four candidates, taken in this order
    with ties to the earlier: degree-deletion toward either density target,
    a maximum independent set (density 0) and a maximum clique (density 1).
    For n <= 64 the last two come from the exact branch and bound
    ``_independent_set`` (on G and on its complement), which stops at its
    node budget; beyond that they are the greedy min-degree answers.  Each
    search gets the size of the best candidate so far as its floor, since
    only a strictly larger set can replace it.

    Every candidate qualifies without a check.  Degree deletion stops only
    once the density is at most its target (on the complement for "high"),
    and an independent set or a clique of two or more vertices has density
    0 or 1.  A one-vertex set has density 0, which misses "high", but it
    never beats the first candidate, which is never empty on a graph with a
    vertex: deletion toward eps1 stops at one vertex at the latest.  The
    callers pass a graph of density strictly between eps1 and 1 - eps2, so
    n >= 2.
    """
    gc = complement(g)
    best, best_side = 0, "low"

    def offer(mask: int, side: str) -> None:
        nonlocal best, best_side
        if mask.bit_count() > best.bit_count():
            best, best_side = mask, side

    offer(_greedy_shrink_to_density(g, eps1), "low")
    offer(_greedy_shrink_to_density(gc, eps2), "high")
    offer(_independent_set(g, best.bit_count()), "low")
    offer(_independent_set(gc, best.bit_count()), "high")
    return best, best_side


_MAX_RESIZE_ROUNDS = 32


def _search(
    g: Graph, pat: Pattern, eps1: Fraction, eps2: Fraction, depth: int
) -> tuple[int, str, bool] | None:
    """(mask, side, flag) from the recursive scheme, or None when a step
    cannot honor the guarantee; the caller then falls back to
    ``_greedy_best_effort(g, eps1, eps2)`` with the flag cleared, so that
    fallback is built once per graph and not again by the caller.

    A "low" answer has density <= eps1 and a "high" one >= 1 - eps2 (by
    induction; find_low_or_high_density_subset checks its answer).  In
    ``work``, B is eps/4-sparse to A (validate_witness checked it inside
    find_tight_pair), with eps = min(eps1, eps2) <= we1, so two facts need
    no check:
    - more than |A|/2 vertices of A have at most eps k / 2 neighbours in
      B1, a k-subset of B: fewer than k eps|A|/4 edges join A to B1;
    - the merged A1 | B1 has density <= we1: |A1| = |B1| = k; each side
      has at most (3/2) we1 C(k, 2) edges (its call answered "low", and a
      low trim never raises density); at most eps k^2 / 2 edges cross (A1
      lies in the A0 of this B1 and k); and the sum is at most
      we1 (2k^2 - 3k/2) <= we1 C(2k, 2).
    So k >= 1 in every resize round: ``sub`` gets a nonempty set (B, or
    A0, which holds more than |A|/2 >= 1/2 vertices by the first fact) and
    never returns an empty one, since each answer of a nonempty graph is
    all of it, a nonempty answer of a recursion, a union with k >= 1 or a
    greedy set that is never empty.
    """
    d = edge_density(g)
    if d <= eps1:
        return g.full_mask, "low", True
    if d >= 1 - eps2:
        return g.full_mask, "high", True
    if depth <= 0 or g.n < pat.size:
        return None
    eps = min(eps1, eps2)
    found = find_tight_pair(g, pat, eps / 4)
    if isinstance(found, ManyCopiesResult):
        return None

    flipped = found.mode == "dense"
    if flipped:
        work = complement(g)
        we1, we2 = eps2, eps1
    else:
        work = g
        we1, we2 = eps1, eps2
    a_mask, b_mask = found.a, found.b

    def unflip(mask: int, side: str, flag: bool) -> tuple[int, str, bool]:
        if flipped:
            side = "high" if side == "low" else "low"
        return mask, side, flag

    def sub(mask: int, dep: int) -> tuple[int, str, bool]:
        """Recurse on the induced subgraph; result mapped to host ids."""
        sg, ids = induced_subgraph(work, mask)
        se1 = Fraction(3, 2) * we1
        res = _search(sg, pat, se1, we2, dep)
        if res is None:
            res = (*_greedy_best_effort(sg, se1, we2), False)
        sm, side, flag = res
        return lift(ids, sm), side, flag

    s_b, side_b, flag_b = sub(b_mask, depth - 1)
    if side_b == "high":
        return unflip(s_b, "high", flag_b)
    k = min(s_b.bit_count(), a_mask.bit_count() // 2)
    if k == 0:
        return None
    b1 = trim_to_size(work, s_b, k, "low")
    flag_a = True
    for _ in range(_MAX_RESIZE_ROUNDS):
        # the vertices of A with at most eps k / 2 neighbours in B1
        a0 = a_mask & ~with_at_least(work, a_mask, b1, floor_frac(eps * k / 2) + 1)
        s_a, side_a, fa = sub(a0, depth - 1)
        flag_a = flag_a and fa
        if side_a == "high":
            return unflip(s_a, "high", fa)
        if s_a.bit_count() >= k:
            a1 = trim_to_size(work, s_a, k, "low")
            return unflip(a1 | b1, "low", flag_b and flag_a)
        k = s_a.bit_count()
        b1 = trim_to_size(work, b1, k, "low")
    return None


def find_low_or_high_density_subset(
    g: Graph, pat: Pattern, budget: ExtractionBudget
) -> DensitySubsetResult:
    """Subset with density <= eps1 or >= 1-eps2, never empty.

    Returns the larger of the recursive search's answer and the cheap
    greedy candidates (the recursion certifies its own size only through
    the guarantee machinery; a plain greedy clique or independent set is
    sometimes bigger and equally valid).  Only a strictly larger greedy
    set replaces the search's answer, so the greedy candidates are not
    built when that answer is all of G.  The guarantee flag is set only
    when every recursion step confirmed its preconditions AND the final
    size meets eta^depth * |G|.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    found = _search(g, pat, budget.eps1, budget.eps2, budget.depth)
    # with no answer from the search, the greedy set (never empty) wins
    mask, side, flag = found if found is not None else (0, "low", False)
    if mask != g.full_mask:
        alt_mask, alt_side = _greedy_best_effort(g, budget.eps1, budget.eps2)
        if alt_mask.bit_count() > mask.bit_count():
            mask, side = alt_mask, alt_side
    dens = edge_density(g, mask)
    if side == "low" and dens > budget.eps1:
        raise AssertionError("low-side result misses its density claim")
    if side == "high" and dens < 1 - budget.eps2:
        raise AssertionError("high-side result misses its density claim")
    guaranteed = flag and _meets_size_floor(mask.bit_count(), pat.size, budget, g.n)
    return DensitySubsetResult(mask, side, guaranteed)


def _meets_size_floor(size: int, h: int, budget: ExtractionBudget, n: int) -> bool:
    """size >= eta^depth * n, with eta = shrink_fraction(h, min(eps1, eps2))
    the per-level shrink fraction, without materialising astronomical powers.

    When the floor is provably below one vertex (decided on the log
    scale) any nonempty result passes; otherwise compare exactly.
    """
    eta = shrink_fraction(h, min(budget.eps1, budget.eps2))
    floor_log2 = budget.depth * log2_fraction(eta) + mpmath.log(max(n, 1), 2)
    if floor_log2 < -1:
        return size >= 1
    return size >= eta**budget.depth * n


def extract_restricted_exact(
    g: Graph,
    pat: Pattern,
    eps: Fraction,
    delta: Fraction,
    depth: int | None = None,
) -> int:
    """An eps-restricted set of size exactly ceil(delta * |G|).

    Pipeline: density subset at eps/8 targets -> trim to ceil(2 delta |G|)
    -> weak-to-strong conversion (which halves the size and lands exactly
    on ceil(delta |G|)).  delta must be at most 1/4 so that the removal
    consequences hold: |T| = 1 when |G| = 1, and |G - T| >= |G|/2 when
    |G| >= 2.

    None of the three is re-checked, because each follows from the
    sizes.  The trim is exact, and ``extract_restricted_from_weak`` keeps
    ceil(|S|/2) of its S, so |T| = ceil(ceil(2 delta n)/2) = ceil(delta n).
    With 0 < delta <= 1/4 that is 1 at n = 1, and at most ceil(n/4) <= n/2
    at n >= 2.
    """
    if g.n < 1:
        raise ValueError("empty graph")
    if not 0 < delta <= Fraction(1, 4):
        raise ValueError("delta must lie in (0, 1/4]")
    target2 = ceil_frac(2 * delta * g.n)
    eighth = eps / 8
    budget = ExtractionBudget(eighth, eighth, depth if depth is not None else depth_for(eighth))
    res = find_low_or_high_density_subset(g, pat, budget)
    if res.vertices.bit_count() < target2:
        raise ExtractionInfeasible(
            f"density subset has {res.vertices.bit_count()} vertices, "
            f"need {target2}; lower delta or eps"
        )
    trimmed = trim_to_size(g, res.vertices, target2, res.side)
    return extract_restricted_from_weak(g, trimmed, eps)


def greedy_restricted_chunk(g: Graph, pool: int, eps: Fraction) -> int:
    """Grow a restricted subset of the pool greedily by ascending id.

    A pool vertex v joins when chunk + v is still eps-restricted: with
    k = |chunk| and t = floor(eps (k+1)), when its degrees are all at most
    t or all at least k - t.  The chunk degrees are bit-sliced counters
    (``graph.count_up``); their maximum hi and minimum lo, and the vertices
    at each (``graph.extreme_degree``), change only when a vertex joins.  So
    a test costs one row: in chunk + v the chunk vertices reach hi + 1 iff
    v meets one at hi, and stay above lo iff v meets all at lo.
    A singleton is restricted, so a nonempty pool always gives a nonempty
    chunk, and it holds the pool's lowest id."""
    if pool & ~g.full_mask:
        raise ValueError("vertex set out of range")
    adj = g.adj
    num, den = eps.numerator, eps.denominator
    planes: list[int] = []  # per pool vertex, its number of chunk neighbours
    chunk = k = 0
    for v in mask_to_ids(pool):
        row = adj[v]
        if k:
            dv = (row & chunk).bit_count()
            high = max(dv, hi + bool(row & at_hi))
            low = min(dv, lo + (at_lo & ~row == 0))
            if high > t and k - low > t:
                continue
        chunk |= 1 << v
        k += 1
        count_up(planes, row & pool)
        t = num * (k + 1) // den
        hi, at_hi = extreme_degree(planes, chunk, True)
        lo, at_lo = extreme_degree(planes, chunk, False)
    return chunk


@dataclass(frozen=True)
class PeelChain:
    peels: tuple[int, ...]  # host-graph masks, disjoint, all eps-restricted
    leftover: int  # final U_p with |U_p| <= eta * |U_0|
    eps: Fraction
    eta: Fraction
    delta: Fraction
    phi_bound: int
    guaranteed: bool  # every peel met the delta fraction

    @property
    def length(self) -> int:
        return len(self.peels)


def peel_chain(
    g: Graph,
    pat: Pattern,
    eps: Fraction,
    eta: Fraction,
    delta: Fraction,
) -> PeelChain:
    """Repeatedly peel eps-restricted sets of fractional size >= delta until
    at most an eta fraction of the vertices remains.

    Each peel is a greedy restricted chunk of the remaining set U.  The
    pipeline extractor returns exactly ceil(min(delta, 1/4) |U|) vertices
    or raises, and its set replaces the chunk only when strictly larger;
    so it is called only while the chunk is below that size.  When a peel
    falls short of the delta fraction the chain is flagged: its length may
    then exceed phi(delta, eta).
    """
    if not (0 < eta < 1 and 0 < delta < 1):
        raise ValueError("eta and delta must lie in (0,1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    u = g.full_mask
    total = g.n
    peels: list[int] = []
    guaranteed = True
    extract_delta = min(delta, Fraction(1, 4))
    while u.bit_count() > floor_frac(eta, total):  # c > eta n iff c > floor(eta n)
        need = ceil_frac(delta, u.bit_count())
        peel = greedy_restricted_chunk(g, u, eps)
        if peel.bit_count() < ceil_frac(extract_delta, u.bit_count()):
            sub, ids = induced_subgraph(g, u)
            try:
                local = extract_restricted_exact(sub, pat, eps, extract_delta)
                candidate = lift(ids, local)
                if candidate.bit_count() > peel.bit_count():
                    peel = candidate
            except ExtractionInfeasible:
                pass
        if peel.bit_count() < need:
            guaranteed = False
        peels.append(peel)
        u &= ~peel
    chain = PeelChain(tuple(peels), u, eps, eta, delta, phi(delta, eta), guaranteed)
    verify_peel_chain(g, chain).require()
    return chain


def verify_peel_chain(g: Graph, pc: PeelChain) -> Verdict:
    """Recheck every clause of a peel chain; the verdict names the first
    that fails.  Only a guaranteed chain claims the length bound
    phi(delta, eta)."""
    union = pc.leftover
    for idx, peel in enumerate(pc.peels):
        if peel & union or not is_restricted(g, peel, pc.eps):
            return Verdict(False, detail=f"peel {idx} overlaps or is not restricted")
        union |= peel
    if union != g.full_mask:
        return Verdict(False, detail="peels plus leftover do not cover V(G)")
    if pc.leftover.bit_count() > pc.eta * g.n:
        return Verdict(False, detail="leftover exceeds eta |G|")
    if pc.phi_bound != phi(pc.delta, pc.eta):
        return Verdict(False, detail="phi bound does not match its parameters")
    if pc.guaranteed and pc.length > pc.phi_bound:
        return Verdict(False, detail="more peels than phi(delta, eta)")
    return Verdict(True)
