"""Path-partitions and the removal pipeline.

A (k,eps)-path-partition is a sequence of disjoint nonempty blocks
W_0..W_k covering V(G) in which every block before the last is
eps-restricted, outweighs the last block twelvefold, and has the union
of all later blocks (eps/12)-tight to it.  Length-K partitions at level
eps/4 (K = ceil(4/eps)) admit a bounded eps-restricted partition; the
lengthening step below grows a shorter partition by one block at the
cost of removing a few vertices, and iterating from the trivial
single-block partition yields the headline removal result: a set S of at
most d vertices whose deletion leaves a partition into boundedly many
eps-restricted parts.

The bounded-partition step for full-length path-partitions is realized
as a verified greedy refinement: the cited bound 2400/eps^2 is used as
the alarm threshold, and failing it is reported as a hard diagnostic,
never absorbed.

Each result is checked by the verifier that ``rpt check`` runs for its
kind before it is returned: a base partition by
verify_restricted_partition, a removal result by verify_removal_result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .extraction import greedy_restricted_chunk
from .graph import Graph, Pattern, induced_subgraph, lift, mask_from_ids, mask_to_ids
from .keypartition import BlowupFound, KeyParams, run_key_lemma
from .predicates import Verdict, is_restricted, is_tight_to
from .values import ceil_frac, floor_frac


class PathPartitionError(ValueError):
    """Malformed or unverified path-partition input."""


class PartBoundViolation(RuntimeError):
    """A search failed a bound the underlying guarantee promises."""


class CopyBudgetExceeded(RuntimeError):
    """A practical run hit a full blowup: too many copies for this d."""

    def __init__(self, message: str, blowup: BlowupFound):
        super().__init__(message)
        self.blowup = blowup


@dataclass(frozen=True)
class PathPartition:
    blocks: tuple[int, ...]  # W_0..W_k
    eps: Fraction

    @property
    def k(self) -> int:
        return len(self.blocks) - 1

    @staticmethod
    def trivial(g: Graph, eps: Fraction) -> "PathPartition":
        return PathPartition((g.full_mask,), eps)


def verify_path_partition(g: Graph, p: PathPartition) -> Verdict:
    """All three invariant groups, exactly."""
    if not p.blocks:
        return Verdict(False, "shape", "no blocks")
    union = 0
    for idx, w in enumerate(p.blocks):
        if not w:
            return Verdict(False, f"nonempty:{idx}")
        if w & union:
            return Verdict(False, "disjoint", f"block {idx} overlaps")
        union |= w
    if union != g.full_mask:
        return Verdict(False, "cover", "blocks do not cover V(G)")
    k = p.k
    last = p.blocks[k]
    for i in range(k):
        w = p.blocks[i]
        if not is_restricted(g, w, p.eps):
            return Verdict(False, f"restricted:{i}")
        if w.bit_count() < 12 * last.bit_count():
            return Verdict(
                False,
                f"size:{i}",
                f"|W_{i}|={w.bit_count()} < 12*|W_k|={12 * last.bit_count()}",
            )
        tail = 0
        for j in range(i + 1, k + 1):
            tail |= p.blocks[j]
        if not is_tight_to(g, w, tail, p.eps / 12, "tight").ok:
            return Verdict(False, f"tail-tight:{i}")
    return Verdict(True)


@dataclass(frozen=True)
class RestrictedPartition:
    parts: tuple[int, ...]
    eps: Fraction
    bound: int  # configured N; verify_restricted_partition checks the count


def verify_restricted_partition(
    g: Graph, p: RestrictedPartition, universe: int | None = None
) -> Verdict:
    union = 0
    for idx, part in enumerate(p.parts):
        if not part:
            return Verdict(False, detail=f"empty part {idx}")
        if part & union:
            return Verdict(False, detail=f"part {idx} overlaps")
        union |= part
        if not is_restricted(g, part, p.eps):
            return Verdict(False, detail=f"part {idx} not restricted")
    target = g.full_mask if universe is None else universe
    if union != target:
        return Verdict(False, detail="parts do not cover the universe")
    if len(p.parts) > p.bound:
        return Verdict(False, detail="part count exceeds the bound")
    return Verdict(True)


def default_part_bound(eps: Fraction) -> int:
    return floor_frac(2400 / eps**2)


def base_partition(g: Graph, p: PathPartition, eps: Fraction) -> RestrictedPartition:
    """A verified partition of V(G) into at most N = floor(2400/eps^2)
    eps-restricted parts, from a path-partition.

    Strategy: the blocks before the last are already restricted at the
    partition's level (which must not exceed eps) and are kept whole; the
    last block is appended if restricted, otherwise split into greedy
    restricted chunks (``extraction.greedy_restricted_chunk``).  More than
    N parts contradicts the guarantee and raises PartBoundViolation.  The
    partition is checked by verify_restricted_partition, the verifier
    ``rpt check`` runs for it.

    An exhaustive search for at most N parts, feasible only on n <= 12
    vertices, could never turn that failure into a partition:
    - the parts are nonempty and disjoint, so there are at most n of them,
      and the search would need n <= 12 and more than N parts;
    - for 0 < eps < 1, N >= 2400 > 12;
    - for eps >= 1 every set is restricted, and a path-partition on at
      most 12 vertices has one block (a W_0 before the last block W_k
      would need 12|W_k| vertices of its own), so there is one part, and
      no partition of n >= 1 vertices into N = 0 parts exists.

    An eps <= 0 has no bound N and raises ValueError.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if p.eps > eps:
        raise PathPartitionError("path-partition level exceeds the target eps")
    rep = verify_path_partition(g, p)
    if not rep.ok:
        raise PathPartitionError(f"unverified path-partition: {rep.clause}")
    bound = default_part_bound(eps)
    parts = list(p.blocks[:-1])
    last = p.blocks[-1]
    if is_restricted(g, last, eps):
        parts.append(last)
    else:
        pool = last
        while pool:
            chunk = greedy_restricted_chunk(g, pool, eps)
            parts.append(chunk)
            pool &= ~chunk
    if len(parts) > bound:
        raise PartBoundViolation(
            f"could not partition into {bound} eps-restricted parts "
            f"(greedy reached {len(parts)}); this contradicts the guarantee"
        )
    result = RestrictedPartition(tuple(parts), eps, bound)
    verify_restricted_partition(g, result).require("base partition failed recheck: ")
    return result


@dataclass(frozen=True)
class RemovalResult:
    removed: int
    partition: RestrictedPartition
    d_budget: int

    def verify(self, g: Graph) -> None:
        """verify_removal_result, raising AssertionError on a failed verdict."""
        verify_removal_result(g, self).require()


def verify_removal_result(g: Graph, r: RemovalResult) -> Verdict:
    """At most d vertices removed, all inside V(G), and the rest split into
    at most N eps-restricted parts that avoid them."""
    if r.removed.bit_count() > r.d_budget:
        return Verdict(False, detail="removed more than the budget")
    if r.removed & ~g.full_mask:
        return Verdict(False, detail="removed set out of range")
    for part in r.partition.parts:
        if part & r.removed:
            return Verdict(False, detail="parts intersect the removed set")
    v = verify_restricted_partition(g, r.partition, universe=g.full_mask & ~r.removed)
    return v if v.ok else v._replace(detail=f"removal result failed recheck: {v.detail}")


def theorem_eps(eps: Fraction) -> Fraction:
    """eps itself, once checked to lie in (0, 1/3), the main theorem's
    domain: the one check for the pipeline and for removal certificates."""
    if not Fraction(0) < eps < Fraction(1, 3):
        raise ValueError("eps must lie in (0, 1/3)")
    return eps


def path_length(eps: Fraction) -> int:
    """K = ceil(4/eps), the length of a full path-partition for target eps."""
    return ceil_frac(4 / theorem_eps(eps))


def level_eps(eps: Fraction, h: int, k: int) -> Fraction:
    """Restrictedness level of a depth-k path-partition: h^(2(k-K)) * eps."""
    return Fraction(h ** (2 * k), h ** (2 * path_length(eps))) * eps


def _split_round_robin(mask: int, ways: int) -> list[int]:
    ids = mask_to_ids(mask)
    return [mask_from_ids(ids[i::ways]) for i in range(ways)]


def part_count_target(eps: Fraction, key: KeyParams, h: int, k: int) -> int:
    """h^(2(K-k)) * (2400 eps^-2 + N) - N, the level-k part budget."""
    n_bound = key.part_bound()
    scale = h ** (2 * (path_length(eps) - k))
    return scale * (default_part_bound(eps) + n_bound) - n_bound


def lengthen(
    g: Graph,
    pat: Pattern,
    p: PathPartition,
    eps: Fraction,
    key: KeyParams,
    d_budget: Fraction,
    k: int,
) -> RemovalResult:
    """Backward induction: remove at most h^(-2k) * d vertices so the rest
    splits into the level-k part budget of eps-restricted sets.

    The working-partition run on the last block either hands back a
    no-pairs row set (done: combine with the earlier blocks) or pairs
    (A_j, B_j) out of which m refined path-partitions one block longer
    are built and recursed into.  Each call verifies its own path-partition
    first, so every refined one is checked once, by the call it enters;
    the result goes through verify_removal_result on the way out.

    The bounds below need no check.  run_key_lemma's result passed
    verify_key_certificate: it removes at most floor(h^(-2(k+1)) d)
    vertices, and has at most N singles and m <= C(h, 2) nonempty disjoint
    pairs inside W_k.  So with no pairs there are at most k + N parts, and
    the level budget absorbs them: that branch has k < K = ceil(4/eps), so
    k < 4/eps <= 2400/eps^2 - 1 < F = floor(2400/eps^2) as eps < 1/3; for
    h >= 2 the budget is h^(2(K-k)) (F + N) - N >= 4F + 3N > k + N, and
    for h = 1 it is F > k with N = C(1, 2) + 0 = 0 (run_key_lemma returns
    a blowup at once for h = 0, where the trivial partition has t = h).
    With pairs, |W_i| >= 12|W_k| >= 24m, so each round-robin part has at
    least q = floor(|W_i|/m) >= 24 ids, and q h^2 >= 2qm >= qm + m > |W_i|.
    By induction on K - k a call removes at most h^(-2k) d vertices: none
    at depth K, the key lemma's set with no pairs, and with pairs that set
    and h^(-2(k+1)) d per recursive call, (m + 1) h^(-2(k+1)) d <= h^(-2k) d
    in all, since m + 1 <= C(h, 2) + 1 <= h^2.  With pairs the parts fit the
    level budget too: write X = h^(2(K-k-1)) (F + N), so the budgets are
    h^2 X - N at level k and X - N at level k + 1.  Each recursive result
    passed verify_removal_result against X - N parts and the singles number
    at most N, while m <= C(h, 2) <= h^2 - 1 and pairs need h >= 2, so there
    are at most m (X - N) + N <= (h^2 - 1)(X - N) + N
    = h^2 X - N - (X + (h^2 - 3) N) <= h^2 X - N parts.

    A depth-K partition goes straight to base_partition, which verifies it;
    verify_removal_result would add only "removed 0 <= floor(d)", which the
    refusal of a negative d above settles.
    """
    h = pat.size
    big_k = path_length(eps)
    if not 0 <= k <= big_k:
        raise ValueError("depth k out of range")
    if d_budget < 0:
        raise ValueError("removal budget must be nonnegative")
    if p.eps != level_eps(eps, h, k):
        raise PathPartitionError("path-partition level does not match its depth")
    if k == big_k:
        return RemovalResult(0, base_partition(g, p, eps), floor_frac(d_budget))
    rep = verify_path_partition(g, p)
    if not rep.ok:
        raise PathPartitionError(f"level-{k} path-partition invalid: {rep.clause}")
    target = part_count_target(eps, key, h, k)

    w_last = p.blocks[-1]
    sub, ids = induced_subgraph(g, w_last)
    sub_budget = d_budget / h ** (2 * (k + 1))
    key_res = run_key_lemma(sub, pat, key, floor_frac(sub_budget))
    if isinstance(key_res, BlowupFound):
        raise CopyBudgetExceeded(
            f"last block exhibits a full pattern blowup at depth {k}; "
            "the copy budget for this d is exceeded",
            key_res,
        )

    removed_core = lift(ids, key_res.removed)
    pairs = [(lift(ids, a), lift(ids, b)) for a, b in key_res.pairs]
    singles = [lift(ids, c) for c in key_res.singles]
    m = len(pairs)

    if m == 0:
        # at most k + N parts, within the level budget (see the docstring)
        parts = list(p.blocks[:-1]) + singles
        partition = RestrictedPartition(tuple(parts), eps, target)
        result = RemovalResult(removed_core, partition, floor_frac(d_budget))
        result.verify(g)
        return result

    # refined path-partitions, one per pair
    next_eps = level_eps(eps, h, k + 1)
    splits = [_split_round_robin(p.blocks[i], m) for i in range(k)]

    removed_total = removed_core
    all_parts: list[int] = []
    for j in range(m):
        a_j, b_j = pairs[j]
        blocks_j = tuple(splits[i][j] for i in range(k)) + (a_j, b_j)
        u_j = 0
        for blk in blocks_j:
            u_j |= blk
        sub_j, ids_j = induced_subgraph(g, u_j)
        pos = {v: i for i, v in enumerate(ids_j)}
        local_blocks = tuple(
            mask_from_ids(pos[v] for v in mask_to_ids(blk)) for blk in blocks_j
        )
        pp_j = PathPartition(local_blocks, next_eps)
        res_j = lengthen(sub_j, pat, pp_j, eps, key, d_budget, k + 1)
        removed_total |= lift(ids_j, res_j.removed)
        all_parts += [lift(ids_j, part) for part in res_j.partition.parts]
    all_parts += singles
    partition = RestrictedPartition(tuple(all_parts), eps, target)
    result = RemovalResult(removed_total, partition, floor_frac(d_budget))
    result.verify(g)
    return result


def run_main_theorem(
    g: Graph,
    pat: Pattern,
    eps: Fraction,
    d_budget: int,
    key: KeyParams | None = None,
) -> RemovalResult:
    """Remove at most d vertices so the rest is boundedly eps-restricted.

    Wraps the lengthening induction at depth 0 on the trivial one-block
    path-partition, which verifies the result before returning it.
    ``key`` defaults to KeyParams.practical(pat, eps).
    """
    theorem_eps(eps)  # checked before anything else
    if d_budget < 0:
        raise ValueError("removal budget must be nonnegative")
    h = pat.size
    if h < 2:
        raise ValueError("the pipeline needs patterns on at least two vertices")
    if g.n == 0:
        return RemovalResult(0, RestrictedPartition((), eps, 1), d_budget)
    if key is None:
        key = KeyParams.practical(pat, eps)
    pp = PathPartition.trivial(g, level_eps(eps, h, 0))
    return lengthen(g, pat, pp, eps, key, Fraction(d_budget), 0)
