"""Decidable checkers for restrictedness, tightness, fullness, and blowups.

Conventions pinned here once and relied on everywhere else:

* sparseness/denseness to a set is STRICT: every vertex of B has fewer
  than eps*|A| neighbors (resp. non-neighbors) in A;
* restrictedness is non-strict: max degree at most eps*|S| in the graph
  or its complement; empty and singleton sets are restricted;
* tightness to an empty A is a precondition error (eps*|A| = 0 makes
  "fewer than 0" unsatisfiable);
* a pair is (c,eps)-full when every subpair of fractional size >= c on
  both sides spans at least eps*|A1|*|B1| edges, and (c,eps)-empty when
  it is full in the complement.

The exact fullness check only examines subpairs at the minimum sizes
ceil(c|A|) x ceil(c|B|); docs/fullness-reduction.md proves this
equivalent to the all-sizes definition by an averaging argument.  It
enumerates one side by a depth-first search in lexicographic order that
prunes on a lower bound over every completion; the same document proves
that the bound holds and that a failed check's witness is the
lexicographically first violating subpair, as with the unpruned
enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, comb
from typing import Any, NamedTuple

from .graph import (
    Graph,
    Pattern,
    complement,
    degree_range,
    edge_density,
    mask_from_ids,
    mask_to_ids,
    peel_order,
    with_at_least,
)
from .values import ceil_frac, floor_frac

TIGHTNESS_MODES = ("sparse", "dense", "tight")


class CheckPreconditionError(ValueError):
    """A checker was called outside its contract."""


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the configured budget."""


class Verdict(NamedTuple):
    """What every certificate verifier returns.

    ``clause`` names the first violated clause where the verifier has
    clause names, ``detail`` says what went wrong, ``exact`` is False when
    the verdict rests on sampling rather than a complete check, and
    ``witness`` carries the object that refutes the certificate (a
    violating subpair, a failing label pair) where there is one.
    """

    ok: bool
    clause: str | None = None
    detail: str = ""
    exact: bool = True
    witness: Any = None

    def __bool__(self):
        # a non-empty tuple is truthy, so `if verdict:` would pass a failure
        raise TypeError("a Verdict has no truth value; read .ok")

    def require(self, prefix: str = "") -> None:
        """Raise AssertionError(prefix + detail) unless the verdict holds:
        how a producer refuses to return a result its verifier rejects."""
        if not self.ok:
            raise AssertionError(prefix + self.detail)


def is_tight_to(g: Graph, a: int, b: int, eps: Fraction, mode: str) -> Verdict:
    """Is B eps-sparse / eps-dense / eps-tight to A (strict bounds)?

    A failed verdict's witness is a vertex of B that breaks the mode's
    bound; under "tight", one that breaks both bounds if there is one,
    else the first that breaks the sparse bound.
    """
    if mode not in TIGHTNESS_MODES:
        raise ValueError(f"unknown tightness mode {mode!r}")
    if not a:
        raise CheckPreconditionError("tightness target A must be nonempty")
    if a & b:
        raise CheckPreconditionError("A and B must be disjoint")
    na = a.bit_count()
    need = ceil_frac(eps, na)  # a count c has c < eps |A| iff c < need
    sparse_bad = with_at_least(g, b, a, need)
    dense_bad = b & ~with_at_least(g, b, a, na - need + 1)  # na - c >= need
    if mode == "tight":  # fails only when both fail; witness breaks both if any vertex does
        bad = sparse_bad and dense_bad and ((sparse_bad & dense_bad) or sparse_bad)
    else:
        bad = sparse_bad if mode == "sparse" else dense_bad
    if not bad:
        return Verdict(True)
    v = (bad & -bad).bit_length() - 1
    return Verdict(False, detail=f"vertex {v} of B breaks the {mode} bound", witness=v)


def is_restricted(g: Graph, s: int, eps: Fraction) -> bool:
    """Max degree at most eps*|S| in G[S] or in its complement."""
    size = s.bit_count()
    if size <= 1:
        return True
    low, high = degree_range(g, s)
    most = floor_frac(eps, size)  # a degree d has d <= eps |S| iff d <= most
    return high <= most or size - 1 - low <= most


def is_weakly_restricted(g: Graph, s: int, eps: Fraction) -> bool:
    """Edge density of G[S] at most eps or at least 1-eps."""
    d = edge_density(g, s)
    return d <= eps or d >= 1 - eps


def extract_restricted_from_weak(g: Graph, s: int, eps: Fraction) -> int:
    """From a weakly (eps/4)-restricted S, return an eps-restricted subset
    of size exactly ceil(|S|/2).

    Works on whichever side has density at most eps/4 and deletes the
    first floor(|S|/2) vertices of ``peel_order`` (a maximum-degree vertex
    of that side each time, ties to the lowest id): the density never
    increases, and once every remaining degree is at most eps*ceil(|S|/2)
    it can never rise again.  On the dense side this peels G itself on its
    "high" side, without building the complement: a vertex's degree in the
    complement of what is left is |left| - 1 minus its degree in G, so a
    minimum-degree vertex of G is a maximum-degree one of the complement.
    The postcondition is rechecked before returning.
    """
    size = s.bit_count()
    if size == 0:
        raise CheckPreconditionError("cannot extract from an empty set")
    quarter = eps / 4
    dens = edge_density(g, s)
    if dens <= quarter:
        side = "low"
    elif dens >= 1 - quarter:
        side = "high"
    else:
        raise CheckPreconditionError(
            f"set is not weakly {quarter}-restricted (density {dens})"
        )
    current = s
    for v, _ in islice(peel_order(g, s, side), size // 2):
        current ^= 1 << v
    if not is_restricted(g, current, eps):
        raise AssertionError("greedy extraction missed its postcondition")
    return current


@dataclass(frozen=True)
class FullPairCertificate:
    a: int
    b: int
    c: Fraction
    eps: Fraction
    polarity: str  # "full" | "empty"

    def __post_init__(self):
        if self.polarity not in ("full", "empty"):
            raise ValueError("polarity must be 'full' or 'empty'")
        if not (0 < self.c <= 1):
            raise ValueError("c must lie in (0,1]")
        if not (0 < self.eps < 1):
            raise ValueError("eps must lie in (0,1)")
        if not self.a or not self.b:
            raise ValueError("both sides must be nonempty")
        if self.a & self.b:
            raise ValueError("sides must be disjoint")


def min_subpair_sizes(cert: FullPairCertificate) -> tuple[int, int]:
    return ceil_frac(cert.c * cert.a.bit_count()), ceil_frac(cert.c * cert.b.bit_count())


def _refuted(a1: int, b1: int) -> Verdict:
    return Verdict(
        False,
        detail=f"violating subpair a={mask_to_ids(a1)} b={mask_to_ids(b1)}",
        witness=(a1, b1),
    )


def _violating_subpair(
    work: Graph, a: int, b: int, ka: int, kb: int, eps: Fraction
) -> tuple[int, int] | None:
    """Find A1 (|A1|=ka), B1 (|B1|=kb) spanning fewer than eps*ka*kb edges.

    Enumerates subsets of one side only, the side with fewer
    combinations: for a fixed B1 the minimum edge count over all A1 is the
    sum of the ka smallest per-vertex counts, so the other side never
    needs explicit enumeration.  The enumeration is a depth-first search
    in lexicographic order that prunes a partial subset once a lower bound
    on every completion reaches the threshold (docs/fullness-reduction.md),
    so the subpair returned is the lexicographically first violating one.
    """
    a_ids = mask_to_ids(a)
    b_ids = mask_to_ids(b)
    if comb(len(b_ids), kb) <= comb(len(a_ids), ka):
        found = _first_violation(work, b_ids, a_ids, kb, ka, eps)
        return None if found is None else (found[1], found[0])
    return _first_violation(work, a_ids, b_ids, ka, kb, eps)


def _first_violation(
    work: Graph,
    outer_ids: list[int],
    inner_ids: list[int],
    outer_k: int,
    inner_k: int,
    eps: Fraction,
) -> tuple[int, int] | None:
    """The lexicographically first outer_k-subset of outer_ids whose
    inner_k least-joined inner vertices span fewer than eps*outer_k*inner_k
    edges to it, with those inner vertices, as (outer mask, inner mask).

    A node is a chosen set P of outer vertices plus the suffix R of
    outer_ids from which the `need` remaining vertices must come.  Every
    inner vertex u ends with at least |N(u)&P| + max(0, need - |R - N(u)|)
    edges, so the inner_k smallest such bounds add up to a lower bound on
    every leaf below; at or above the threshold the node is pruned.  When
    need is 0 or |R|, the node has one leaf and the bound is its count.
    """
    m = len(outer_ids)
    bits = [1 << v for v in outer_ids]
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | bits[i]
    rows = [work.adj[u] & suffix[0] for u in inner_ids]
    # the edge counts are integers: count < eps*k*k iff count < ceil(eps*k*k)
    threshold = ceil(eps * outer_k * inner_k)
    stack = [(0, 0, outer_k)]  # (P, index where R starts, need)
    while stack:
        chosen, start, need = stack.pop()
        rest = suffix[start]
        slack = need - (m - start)  # need - |R|
        bounds = sorted(
            (r & chosen).bit_count() + max(0, slack + (r & rest).bit_count()) for r in rows
        )
        if sum(bounds[:inner_k]) >= threshold:
            continue
        if need and slack:
            stack.extend(
                (chosen | bits[i], i + 1, need - 1) for i in range(m - need, start - 1, -1)
            )
            continue
        # a single leaf, and it violates: recover the inner vertices realizing the minimum
        combo_mask = chosen | rest if need else chosen
        scored = sorted(inner_ids, key=lambda u: ((work.adj[u] & combo_mask).bit_count(), u))
        return combo_mask, mask_from_ids(scored[:inner_k])
    return None


_FULLNESS_SAMPLES = 2000


def is_full_pair(
    g: Graph,
    cert: FullPairCertificate,
    method: str = "exact",
    budget: int = 10**7,
) -> Verdict:
    """Check a fullness certificate.

    exact: decides the (c,eps)-full property (via the minimum-size
    reduction); a failed verdict's witness is a violating subpair (A1, B1).
    sampled: probabilistic refutation only; a failure carries a verified
    violating subpair, a pass is not exact.
    """
    work = g if cert.polarity == "full" else complement(g)
    ka, kb = min_subpair_sizes(cert)
    na, nb = cert.a.bit_count(), cert.b.bit_count()
    if method == "exact":
        if min(comb(na, ka), comb(nb, kb)) > budget:
            raise EnumerationBudgetError(
                f"exact fullness check needs more than {budget} subset evaluations"
            )
        bad = _violating_subpair(work, cert.a, cert.b, ka, kb, cert.eps)
        return Verdict(True) if bad is None else _refuted(*bad)
    if method == "sampled":
        rng = random.Random(0)
        a_ids = mask_to_ids(cert.a)
        b_ids = mask_to_ids(cert.b)
        for _ in range(_FULLNESS_SAMPLES):
            a1 = rng.sample(a_ids, ka)
            b1 = rng.sample(b_ids, kb)
            am = mask_from_ids(a1)
            bm = mask_from_ids(b1)
            if work.edges_between(am, bm) < cert.eps * ka * kb:
                return _refuted(am, bm)
        return Verdict(True, exact=False)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class BlowupCertificate:
    parts: tuple[int, ...]
    c: Fraction
    eps: Fraction
    pattern: Pattern  # prefix pattern on len(parts) labels, identity order

    def __post_init__(self):
        if self.pattern.size != len(self.parts):
            raise ValueError("pattern size must match the number of parts")
        union = 0
        for p in self.parts:
            if not p:
                raise ValueError("blowup parts must be nonempty")
            if p & union:
                raise ValueError("blowup parts must be disjoint")
            union |= p


def verify_blowup(g: Graph, cert: BlowupCertificate, method: str = "exact") -> Verdict:
    """Every label pair must be full where the pattern has an edge, empty
    where not; a failed verdict's witness is the first failing label pair
    (1-based)."""
    t = len(cert.parts)
    exact = True
    for i in range(1, t + 1):
        for j in range(i + 1, t + 1):
            polarity = "full" if cert.pattern.label_edge(i, j) else "empty"
            pair = FullPairCertificate(
                cert.parts[i - 1], cert.parts[j - 1], cert.c, cert.eps, polarity
            )
            res = is_full_pair(g, pair, method=method)
            exact = exact and res.exact
            if not res.ok:
                detail = f"failing pair {(i, j)}"
                return Verdict(False, detail=detail, exact=res.exact, witness=(i, j))
    return Verdict(True, exact=exact)
