"""Verified search for full subpairs inside dense pairs.

A pair carrying at least 2*eps*|A|*|B| edges always contains a
(c,eps)-full subpair on fractional sizes gamma(c,eps) = (1/2)(2 eps)^(12/c)
of each side.  The existence proof is external to this package; the
search below only uses gamma as a size target and feasibility alarm, and
every candidate it returns is certified by the exact fullness checker
before anyone sees it.  Failure above the gamma floors is reported as a
hard diagnostic, never silently.

Strategy: exact-check the pair itself; while a violating sparse subpair
exists, move to the complementary residual pair; if that stalls, fall
back to exhaustive enumeration by descending subpair size within a work
budget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graph import Graph, complement, mask_from_ids, mask_to_ids, with_at_least
from .predicates import (
    CheckPreconditionError,
    EnumerationBudgetError,
    FullPairCertificate,
    is_full_pair,
)
from .ledger import gamma
from .values import ceil_frac, scalar_ceil_mul


class FullPairSearchError(RuntimeError):
    """Search budget exhausted without a certified subpair."""


class FullPairGuaranteeViolation(RuntimeError):
    """No subpair at the guaranteed sizes: impossible for valid inputs."""


@dataclass(frozen=True)
class FullPairParams:
    c: Fraction
    eps: Fraction
    min_frac: Fraction | None = None  # practical override of the gamma size floor

    def __post_init__(self):
        if not Fraction(0) < self.c < 1:
            raise ValueError("c must lie in (0,1)")
        if not Fraction(0) < self.eps < Fraction(1, 4):
            raise ValueError("eps must lie in (0,1/4)")

    def size_floor(self, side: int) -> int:
        """max(1, ceil(frac * side)) with frac = min_frac or gamma(c,eps)."""
        frac = gamma(self.c, self.eps) if self.min_frac is None else self.min_frac
        return max(1, scalar_ceil_mul(frac, side))


_WORK_BUDGET = 400_000  # subpair candidates the exhaustive phase may try


def _certify(
    g: Graph, a: int, b: int, params: FullPairParams, polarity: str
) -> FullPairCertificate | None:
    cert = FullPairCertificate(a, b, params.c, params.eps, polarity)
    if is_full_pair(g, cert).ok:
        return cert
    return None


def find_full_pair(
    g: Graph,
    a: int,
    b: int,
    params: FullPairParams,
    polarity: str = "full",
) -> FullPairCertificate:
    """A subpair (A' of a, B' of b) certified (c,eps)-full (or -empty).

    Precondition: the pair spans at least 2*eps*|a|*|b| edges (in the
    complement for polarity="empty").  Returned sizes respect the gamma
    floor (or the practical min_frac override); exhausting the search
    below those sizes raises a hard diagnostic.
    """
    if not a or not b or a & b:
        raise CheckPreconditionError("sides must be nonempty and disjoint")
    work = g if polarity == "full" else complement(g)
    na, nb = a.bit_count(), b.bit_count()
    if work.edges_between(a, b) < 2 * params.eps * na * nb:
        raise CheckPreconditionError(
            "pair is not dense enough: fewer than 2*eps*|A|*|B| edges"
        )
    floor_a = params.size_floor(na)
    floor_b = params.size_floor(nb)

    # Phase 1: densification — drop violating subpairs while we can.
    cur_a, cur_b = a, b
    while cur_a and cur_b:
        cert = FullPairCertificate(cur_a, cur_b, params.c, params.eps, polarity)
        res = is_full_pair(g, cert)
        if res.ok:
            return cert
        cur_a &= ~res.witness[0]
        cur_b &= ~res.witness[1]
        if cur_a.bit_count() < floor_a or cur_b.bit_count() < floor_b:
            break

    # Phase 1.5: alternating high-degree cores — keep only vertices well
    # connected across the pair (at least (1 - eps)|other side| neighbours
    # there), then re-check.  Catches the common case where one side is
    # small and the other should shrink to its joint neighborhood.
    cur_a, cur_b = a, b
    for _ in range(4):
        keep_b = with_at_least(work, cur_b, cur_a, ceil_frac((1 - params.eps) * cur_a.bit_count()))
        if keep_b.bit_count() >= floor_b:
            cur_b = keep_b
        keep_a = with_at_least(work, cur_a, cur_b, ceil_frac((1 - params.eps) * cur_b.bit_count()))
        if keep_a.bit_count() >= floor_a:
            cur_a = keep_a
        if cur_a.bit_count() >= floor_a and cur_b.bit_count() >= floor_b:
            cert = _certify(g, cur_a, cur_b, params, polarity)
            if cert is not None:
                return cert

    # Phase 2: exhaustive by descending size within the work budget.
    a_ids = mask_to_ids(a)
    b_ids = mask_to_ids(b)
    spent = 0
    skipped_any = False
    sizes = sorted(
        (
            (sa, sb)
            for sa in range(na, floor_a - 1, -1)
            for sb in range(nb, floor_b - 1, -1)
        ),
        key=lambda p: (-(p[0] + p[1]), -p[0]),
    )
    for sa, sb in sizes:
        cost = comb(na, sa) * comb(nb, sb)
        if spent + cost > _WORK_BUDGET:
            skipped_any = True
            continue
        spent += cost
        for combo_a in itertools.combinations(a_ids, sa):
            am = mask_from_ids(combo_a)
            for combo_b in itertools.combinations(b_ids, sb):
                bm = mask_from_ids(combo_b)
                try:
                    cert = _certify(g, am, bm, params, polarity)
                except EnumerationBudgetError:
                    cert = None
                if cert is not None:
                    return cert
    if skipped_any:
        raise FullPairSearchError(
            f"work budget {_WORK_BUDGET} exhausted without a certified subpair"
        )
    raise FullPairGuaranteeViolation(
        f"no ({params.c},{params.eps})-{polarity} subpair at sizes >= "
        f"({floor_a},{floor_b}); the input contradicts the guarantee "
        "or the floors were overridden too aggressively"
    )
