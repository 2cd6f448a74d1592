"""Constructive counting dichotomy: many labeled copies or a tight-pair witness.

Given disjoint parts D_1..D_h, one per pattern label, either every label
pair is free of large sparse/dense sub-pairs — in which case the number
of copies phi with phi(v_i) in D_i is at least
prod_t (1-delta_t) * eps_t^t * prod_i |D_i| — or the recursion that
proves that bound trips over a concrete witness pair on the way and
returns it instead.  The recursion peels the last label: vertices of D_h
with too few correct neighbors into some D_i form the witness candidate
P_i; surviving vertices shrink every earlier part by at least a factor
eps_{h-1} and the argument repeats one label down.

Witness thresholds telescope across levels, so a witness found deep in
the recursion is re-validated against the ORIGINAL part sizes before it
is returned; the count arm always computes the exact count and asserts
the certified lower bound against it.

Note on parameters: a witness for the label pair (i, j) is sparse/dense
at eps_{j-1} — the parameter used when label j was peeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graph import (
    Graph,
    Pattern,
    count_embeddings_into_parts,
    iter_bits,
    mask_from_ids,
    with_at_least,
)
from .ledger import blowup_copy_bound, tight_pair_copy_threshold
from .predicates import is_tight_to
from .values import ceil_frac, floor_frac


@dataclass(frozen=True)
class EmbeddingParams:
    """Per-level shrink fractions eps_1..eps_{h-1} and slack delta_1..delta_{h-1}."""

    eps_seq: tuple[Fraction, ...]
    delta_seq: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.eps_seq) != len(self.delta_seq):
            raise ValueError("eps and delta sequences must have equal length")
        for x in (*self.eps_seq, *self.delta_seq):
            if not Fraction(0) < x < Fraction(1):
                raise ValueError("all parameters must lie in the open interval (0,1)")

    @staticmethod
    def uniform(h: int, eps: Fraction, delta: Fraction) -> "EmbeddingParams":
        return EmbeddingParams((eps,) * (h - 1), (delta,) * (h - 1))


@dataclass(frozen=True)
class TightPairWitness:
    """Pair (i,j) of labels, i<j, with b inside D_j sparse or dense to a inside D_i."""

    i: int  # 1-based labels
    j: int
    a: int  # host-graph masks
    b: int
    mode: str  # "sparse" | "dense"


@dataclass(frozen=True)
class CopyCount:
    count: int
    bound: Fraction


def witness_thresholds(
    params: EmbeddingParams, h: int, j: int, di_size: int, dj_size: int
) -> tuple[Fraction, Fraction]:
    """Size thresholds the hypothesis puts on a pair at labels (i, j)."""
    tail = Fraction(1)
    for t in range(j, h):  # eps_j .. eps_{h-1}, 1-based
        tail *= params.eps_seq[t - 1]
    a_min = tail * di_size
    b_min = Fraction(params.delta_seq[j - 2], j - 1) * tail * dj_size
    return a_min, b_min


def _witness_search(
    g: Graph, pat: Pattern, parts: list[int], params: EmbeddingParams, m: int
) -> TightPairWitness | None:
    """Run the peeling recursion on labels 1..m; None means the bound is certified.

    Two facts hold without a check.  Each P_i removed from D_m has
    |P_i| (m - 1) <= floor(delta n_last), or the search returns it, so
    the m - 1 of them hold at most floor(delta n_last) vertices and at
    least n_last - floor(delta n_last) survive.  A surviving u lies in no
    P_i, so it has at least need[i-1] correct vertices in every D_i (the
    parts are disjoint, so u is in none of them), and each shrunk part
    keeps at least that many.
    """
    if m <= 1:
        return None
    eps = params.eps_seq[m - 2]
    delta = params.delta_seq[m - 2]
    d_last = parts[m - 1]
    n_last = d_last.bit_count()
    surviving = d_last
    # an integer count c has c < eps |D_i| iff c < ceil(eps |D_i|)
    need = [ceil_frac(eps, di.bit_count()) for di in parts[: m - 1]]
    for i in range(1, m):
        di = parts[i - 1]
        ni = di.bit_count()
        edge = pat.label_edge(i, m)
        # P_i: the vertices of D_m with fewer than need correct vertices in D_i,
        # neighbours for a pattern edge and non-neighbours otherwise
        if edge:
            p_i = d_last & ~with_at_least(g, d_last, di, need[i - 1])
        else:
            p_i = with_at_least(g, d_last, di, ni - need[i - 1] + 1)
        if p_i.bit_count() * (m - 1) > floor_frac(delta, n_last):
            return TightPairWitness(
                i=i, j=m, a=di, b=p_i, mode="sparse" if edge else "dense"
            )
        surviving &= ~p_i
    for u in iter_bits(surviving):
        shrunk = []
        for i in range(1, m):
            di = parts[i - 1]
            shrunk.append(g.adj[u] & di if pat.label_edge(i, m) else di & ~g.adj[u])
        deep = _witness_search(g, pat, shrunk, params, m - 1)
        if deep is not None:
            return deep
    return None


def copy_count_bound(params: EmbeddingParams, sizes) -> Fraction:
    bound = Fraction(1)
    for t, (e, d) in enumerate(zip(params.eps_seq, params.delta_seq), start=1):
        bound *= (1 - d) * e**t
    for s in sizes:
        bound *= s
    return bound


def validate_witness(
    g: Graph,
    pat: Pattern,
    parts: list[int],
    params: EmbeddingParams,
    w: TightPairWitness,
) -> None:
    """Independent recheck of a witness against the ORIGINAL parts.

    Raises AssertionError on any failure; this is the contrapositive
    soundness gate, so a failure is an implementation bug.
    """
    h = pat.size
    if not (1 <= w.i < w.j <= h):
        raise AssertionError("witness labels out of order")
    if w.a & ~parts[w.i - 1] or w.b & ~parts[w.j - 1]:
        raise AssertionError("witness sets leak outside their parts")
    a_min, b_min = witness_thresholds(
        params, h, w.j, parts[w.i - 1].bit_count(), parts[w.j - 1].bit_count()
    )
    if w.a.bit_count() < a_min:
        raise AssertionError("witness a-side below threshold")
    if w.b.bit_count() < b_min:
        raise AssertionError("witness b-side below threshold")
    expected_mode = "sparse" if pat.label_edge(w.i, w.j) else "dense"
    if w.mode != expected_mode:
        raise AssertionError("witness mode contradicts the pattern edge")
    eps = params.eps_seq[w.j - 2]
    is_tight_to(g, w.a, w.b, eps, w.mode).require("witness pair fails its tightness recheck: ")


def witness_or_count(
    g: Graph, pat: Pattern, parts, params: EmbeddingParams
) -> TightPairWitness | CopyCount:
    """Either a verified TightPairWitness or the exact copy count with its
    certified lower bound (count >= bound always holds on that arm)."""
    parts = list(parts)
    h = pat.size
    if h == 0:
        raise ValueError("empty pattern")
    if len(parts) != h:
        raise ValueError("need one part per pattern label")
    if len(params.eps_seq) != max(h - 1, 0):
        raise ValueError("parameter sequences must have length h-1")
    union = 0
    for p in parts:
        if not p:
            raise ValueError("parts must be nonempty")
        if p & union:
            raise ValueError("parts must be disjoint")
        union |= p
    w = _witness_search(g, pat, parts, params, h)
    if w is not None:
        validate_witness(g, pat, parts, params, w)
        return w
    count = count_embeddings_into_parts(g, pat, parts)
    bound = copy_count_bound(params, [p.bit_count() for p in parts])
    if count < bound:
        raise AssertionError(
            "no witness found yet the certified lower bound fails; "
            "this contradicts the counting dichotomy"
        )
    return CopyCount(count, bound)


@dataclass(frozen=True)
class TightPairResult:
    a: int
    b: int
    mode: str
    witness: TightPairWitness


@dataclass(frozen=True)
class ManyCopiesResult:
    count: int  # exact embeddings into the deterministic part split
    threshold: Fraction  # tight_pair_copy_threshold * |G|^h
    exceeds: bool  # count > threshold (guaranteed once |G| >= 2h)


def split_into_label_parts(g: Graph, h: int) -> list[int]:
    """h parts of size floor(|G|/h) in id order; remainder unassigned."""
    size = g.n // h
    return [mask_from_ids(range(t * size, (t + 1) * size)) for t in range(h)]


def find_tight_pair(
    g: Graph, pat: Pattern, eps: Fraction
) -> TightPairResult | ManyCopiesResult:
    """Either disjoint (A,B), both of size >= (2h)^-2 eps^(h-1) |G|, with B
    eps-tight to A, or an exact copy count exceeding the kappa threshold.

    The sizes need no check.  validate_witness has shown |A| >= eps^(h-j) |D|
    and |B| >= eps^(h-j) |D| / (2(j-1)) for labels 2 <= j <= h, where
    |D| = floor(|G|/h) >= |G|/(2h) as |G| >= h.  With eps^(h-j) >= eps^(h-1)
    (eps < 1) and 2(j-1) < 2h, both sides hold at least
    eps^(h-1) (|G|/(2h)) / (2h) = (2h)^-2 eps^(h-1) |G| vertices.
    """
    h = pat.size
    if g.n < h:
        raise ValueError(f"graph on {g.n} vertices is smaller than the pattern ({h})")
    parts = split_into_label_parts(g, h)
    params = EmbeddingParams.uniform(h, eps, Fraction(1, 2))
    res = witness_or_count(g, pat, parts, params)
    if isinstance(res, TightPairWitness):
        return TightPairResult(res.a, res.b, res.mode, res)
    threshold = tight_pair_copy_threshold(h, eps) * Fraction(g.n) ** h
    exceeds = res.count > threshold
    if g.n >= 2 * h and not exceeds:
        raise AssertionError("count arm fails the kappa threshold despite |G| >= 2h")
    return ManyCopiesResult(res.count, threshold, exceeds)


def blowup_copy_bound_check(g: Graph, pat: Pattern, cert) -> bool:
    """An invariant the guarantee forces on verified (eps^h, eps)-blowups: the
    labeled copy count meets the product lower bound.  False indicates an
    implementation bug or an unverified certificate."""
    from .predicates import verify_blowup

    h = pat.size
    if not Fraction(0) < cert.eps < Fraction(1, 2):
        raise ValueError("blowup bound check needs eps in (0, 1/2)")
    if cert.c != cert.eps**h:
        raise ValueError("certificate must be an (eps^h, eps)-blowup")
    chk = verify_blowup(g, cert)
    if not chk.ok:
        raise ValueError(f"unverified blowup certificate (pair {chk.witness})")
    count = count_embeddings_into_parts(g, pat, cert.parts)
    bound = blowup_copy_bound(h, cert.eps, [p.bit_count() for p in cert.parts])
    return count >= bound
