"""The working-partition iteration: grow a blowup or split off a small vertex set.

State is an (m,n,t)-partition of V(G): m pairs (A_i,B_i) with A_i
eps-restricted and B_i a tiny theta-tight companion, n eps-restricted
singles C_j, a t-part blowup D_1..D_t of the first t pattern labels, and
a leftover set L dominated by every D_i.  One step computes the set S of
leftover vertices with the correct adjacencies into every D_i; if S is
small (<= d) the partition is rearranged into the final rows, otherwise
a restricted core of S is densified against each D_i in turn, producing
a (t+1)-part blowup plus freshly peeled singles, and t increases.  Since
t is capped by the pattern size, either the rearrangement happens within
h steps or the graph exhibits a full blowup of the pattern, which forces
many copies; under the exact constant schedule that contradicts the copy
budget, and in practical runs it is a legitimate reported outcome.

Each partition is verified clause by clause, exactly and once: a
caller's start when the run begins (the trivial start holds every clause
by construction), and each assembled partition before the iteration
continues.  Every result is checked by the verifier that ``rpt check``
runs for its kind: key-lemma rows by verify_key_certificate (through
verify_key_result), a blowup found by verify_blowup_found.  No check
samples: exact=False marks only a clause not checked, and nothing
downstream trusts the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import islice
from math import comb

import mpmath

from .extraction import ExtractionInfeasible, extract_restricted_exact, peel_chain
from .fullpair import FullPairParams, find_full_pair
from .graph import (
    Graph,
    Pattern,
    count_embeddings_into_parts,
    induced_subgraph,
    iter_bits,
    lift,
    mask_from_ids,
    with_at_least,
)
from .ledger import (
    ConstantsLedger,
    blowup_copy_bound,
    build_ledger,
    part_bound,
    phi,
    phi_lower_bound,
)
from .predicates import (
    BlowupCertificate,
    Verdict,
    is_restricted,
    is_tight_to,
    verify_blowup,
)
from .values import Scalar, ceil_frac


class InfeasibleAtScale(RuntimeError):
    """Exact-schedule constants cannot drive a run at this graph scale."""


class StepFailure(RuntimeError):
    """A sub-procedure failed during one iteration; carries step context."""


class _PartBound:
    """The single-count bound N = C(h,2) + (h-1)*phi(delta', eta'), decided
    soundly also when delta'/eta' are known only on the log scale.  Mixed
    into the frozen dataclasses with fields h, delta_prime and eta_prime."""

    def phi_bound(self) -> int | None:
        """phi(delta', eta') when exactly computable, else None (astronomical)."""
        if isinstance(self.delta_prime, Fraction) and isinstance(self.eta_prime, Fraction):
            return phi(self.delta_prime, self.eta_prime)
        return None

    def part_bound(self) -> int | None:
        """N = C(h,2) + (h-1)*phi(delta', eta') when exactly computable, else None."""
        p = self.phi_bound()
        return None if p is None else part_bound(self.h, p)

    def n_bound_holds(self, n: int, multiplier: int) -> bool:
        """Decide n <= multiplier * phi(delta', eta') soundly."""
        if multiplier == 0:
            return n == 0
        exact = self.phi_bound()
        if exact is not None:
            return n <= multiplier * exact
        # with tiny delta' this lower bound dwarfs any desk-scale n
        lower = phi_lower_bound(self.delta_prime, self.eta_prime)
        return mpmath.log(max(n, 1), 2) <= lower.log2 + mpmath.log(multiplier, 2)

    def part_bound_holds(self, n: int) -> bool:
        """Decide n <= N = C(h,2) + (h-1)*phi(delta', eta')."""
        slack = comb(self.h, 2)
        if n <= slack:
            return True
        return self.n_bound_holds(n - slack, self.h - 1)


def _eta_prime_cap(h: int, eta: Fraction, delta_prime: Fraction, lam: Fraction) -> Fraction:
    """eta*delta'*lam^(h-1)/2: the largest leftover fraction eta' may be."""
    return Fraction(1, 2) * eta * delta_prime * lam ** (h - 1)


def key_domain(
    eps: Fraction,
    eta: Fraction,
    theta: Fraction,
    delta_prime: Scalar | None,
    eta_prime: Scalar | None,
) -> None:
    """Reject key-lemma parameters outside the lemma's domain: eps, eta and
    theta in (0, 1/2), an exact delta' in (0, 1/4] and an exact eta' in
    (0, 1).  The one check for KeyParams and for key-lemma certificates."""
    for name, val in (("eps", eps), ("eta", eta), ("theta", theta)):
        if not Fraction(0) < val < Fraction(1, 2):
            raise ValueError(f"{name} must lie in (0, 1/2)")
    if isinstance(delta_prime, Fraction) and not Fraction(0) < delta_prime <= Fraction(1, 4):
        raise ValueError("delta_prime must lie in (0, 1/4]")
    if isinstance(eta_prime, Fraction) and not Fraction(0) < eta_prime < 1:
        raise ValueError("eta_prime must lie in (0, 1)")


@dataclass(frozen=True)
class KeyParams(_PartBound):
    """Parameter schedule for the iteration.

    eps/eta/theta bound the output rows; xi = theta/4 is the blowup
    density; eps_schedule[t] is the restrictedness level of the
    t-part blowup row; lam is the per-step size fraction the chain must
    achieve; delta_prime sizes the restricted core pulled out of S;
    eta_prime caps the peel leftover.  Coherence conditions validated
    here are exactly the ones the assembled-partition verification
    leans on.
    """

    h: int
    eps: Fraction
    eta: Fraction
    theta: Fraction
    eps_schedule: tuple[Fraction, ...]  # index t = 0..h
    lam: Fraction
    delta_prime: Scalar
    eta_prime: Scalar
    ledger: ConstantsLedger | None = field(default=None, compare=False)  # set in paper mode

    def __post_init__(self):
        key_domain(self.eps, self.eta, self.theta, self.delta_prime, self.eta_prime)
        if len(self.eps_schedule) != self.h + 1:
            raise ValueError("eps_schedule must list eps_0..eps_h")
        if self.eps_schedule[self.h] > self.eps:
            raise ValueError("eps_h must not exceed eps")
        for t in range(self.h):
            if self.eps_schedule[t] > self.eps_schedule[t + 1]:
                raise ValueError("eps_schedule must be nondecreasing in t")
        if not Fraction(0) < self.lam <= Fraction(1, 3):
            raise ValueError("lam must lie in (0, 1/3]")
        if isinstance(self.eta_prime, Fraction) and isinstance(self.delta_prime, Fraction):
            cap = _eta_prime_cap(self.h, self.eta, self.delta_prime, self.lam)
            if self.eta_prime > cap:
                raise ValueError(
                    f"eta_prime must be at most eta*delta_prime*lam^(h-1)/2 = {cap}"
                )
            if self.eta_prime > self.lam:
                raise ValueError("eta_prime must be at most lam")

    @property
    def xi(self) -> Fraction:
        return self.theta / 4

    @staticmethod
    def practical(
        pat: Pattern,
        eps: Fraction,
        eta: Fraction = Fraction(1, 4),
        theta: Fraction = Fraction(1, 4),
        lam: Fraction | None = None,
        delta_prime: Fraction = Fraction(1, 8),
        eta_prime: Fraction | None = None,
    ) -> "KeyParams":
        h = pat.size
        xi = theta / 4
        if lam is None:
            # the chain's b-side is only guaranteed a 2*xi fraction of
            # correct neighbors, so the floor must not exceed that
            lam = min(Fraction(1, 3), 2 * xi)
        schedule = [min(eps, xi**h)]
        for _ in range(h):
            schedule.append(schedule[-1] * lam)
        schedule.reverse()
        if eta_prime is None:
            eta_prime = _eta_prime_cap(h, eta, delta_prime, lam)
        return KeyParams(h, eps, eta, theta, tuple(schedule), lam, delta_prime, eta_prime)

    @staticmethod
    def paper(
        pat: Pattern, eps: Fraction, eta: Fraction, theta: Fraction
    ) -> "KeyParams":
        """Exact-schedule parameters, materialised from the ledger.

        Raises InfeasibleAtScale when the schedule cannot be represented
        exactly even with surrogates; the diagnostic names the first
        constant that failed.
        """
        h = pat.size
        led = build_ledger(h, eps, eta, theta)
        schedule = []
        for t in range(h + 1):
            entry = led.get(f"eps[{t}]")
            if entry.exact is None:
                raise InfeasibleAtScale(
                    f"eps[{t}] is not exactly representable at this scale "
                    f"({entry.describe()}); use practical parameters"
                )
            schedule.append(entry.exact)
        dp = led.get("delta_prime")
        ep = led.get("eta_prime")
        delta_prime: Scalar = dp.exact if dp.exact is not None else dp
        eta_prime: Scalar = ep.exact if ep.exact is not None else ep
        # the realized chain fractions only matter through size floors;
        # a saturated lambda row means floor 1, which Fraction(0+) below
        # cannot express, so pass the smallest representable row value or
        # a scale surrogate at run time.
        rows = (led.get(f"lambda[{t},{i}]").exact for t in range(h) for i in range(t + 1))
        lam = min((x for x in rows if x is not None), default=Fraction(1, 3))
        return KeyParams(
            h,
            eps,
            eta,
            theta,
            tuple(schedule),
            min(lam, Fraction(1, 3)),
            delta_prime,
            eta_prime,
            ledger=led,
        )

    # -- scale-aware accessors -------------------------------------------

    def delta_prime_at(self, scale: int) -> Fraction:
        """delta' as an exact fraction, or a surrogate equivalent at sizes <= scale."""
        return _at_scale("delta_prime", self.delta_prime, scale)

    def eta_prime_at(self, scale: int) -> Fraction:
        """eta' as an exact fraction, or a surrogate equivalent at sizes <= scale."""
        return _at_scale("eta_prime", self.eta_prime, scale)

    def gamma_chain(self, t: int, i: int) -> Fraction:
        """Gamma(t,i) = lam^(t-i): required shrink of S_t relative to S_i."""
        return self.lam ** (t - i)

    def step_c(self, t: int, i: int) -> Fraction:
        """Fullness parameter for chain step i at level t -> t+1."""
        return Fraction(1, 3) * self.eps_schedule[t + 1] * self.gamma_chain(t, i)

    def big_lambda(self, t: int) -> Scalar:
        """Lambda(t,i), one value for every i: each D_i must exceed it times d.

        With a uniform per-step fraction the table collapses:
        Lambda(i,i) = delta' * lam^(i-1) and each later level multiplies
        by lam once, so Lambda(t,i) = delta' * lam^(t-1) for every i.
        """
        return self.delta_prime * self.lam ** (t - 1)

    def eps_prime(self) -> Fraction:
        """Restrictedness level of the extracted core: min_t eps_{t+1}*Gamma(t,0)."""
        return min(
            self.eps_schedule[t + 1] * self.gamma_chain(t, 0) for t in range(self.h)
        )


def _at_scale(name: str, value: Scalar, scale: int) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if value * scale < 1:  # LogValue comparison, sound
        return Fraction(1, 4 * scale)
    raise InfeasibleAtScale(f"{name} not representable at this scale")


@dataclass(frozen=True)
class MNTPartition:
    """The invariant-laden working partition; see module docstring."""

    a_sets: tuple[int, ...]
    b_sets: tuple[int, ...]  # same length as a_sets; entries may be empty
    c_sets: tuple[int, ...]
    d_sets: tuple[int, ...]
    leftover: int
    params: KeyParams
    d_budget: int

    @property
    def m(self) -> int:
        return len(self.a_sets)

    @property
    def n(self) -> int:
        return len(self.c_sets)

    @property
    def t(self) -> int:
        return len(self.d_sets)

    @staticmethod
    def trivial(g: Graph, params: KeyParams, d_budget: int) -> "MNTPartition":
        return MNTPartition((), (), (), (), g.full_mask, params, d_budget)


def verify_mnt_partition(g: Graph, pat: Pattern, p: MNTPartition) -> Verdict:
    """Check all six invariant groups; returns the first violated clause.
    Every clause is checked exactly, so the verdict is always exact; a
    blowup whose fullness check would exceed its enumeration budget raises
    EnumerationBudgetError, as ``rpt check`` does on the same blowup."""
    pr = p.params
    if len(p.b_sets) != len(p.a_sets):
        return Verdict(False, "shape", "one B per A required")
    if p.t > pat.size:
        return Verdict(False, "shape", "more blowup parts than pattern labels")

    union = p.leftover
    for mask in (*p.a_sets, *p.b_sets, *p.c_sets, *p.d_sets):
        if mask & union:
            return Verdict(False, "disjoint-union", "sets overlap")
        union |= mask
    if union != g.full_mask:
        return Verdict(False, "disjoint-union", "sets do not cover V(G)")

    if p.m > comb(p.t, 2):
        return Verdict(False, "counts", f"m={p.m} exceeds C(t,2)={comb(p.t, 2)}")
    if not pr.n_bound_holds(p.n, p.t):
        return Verdict(False, "counts", f"n={p.n} exceeds t*phi(delta',eta')")

    for i, a in enumerate(p.a_sets, start=1):
        if not a:
            return Verdict(False, f"a-nonempty:{i}")
        if not is_restricted(g, a, pr.eps):
            return Verdict(False, f"a-restricted:{i}")
    for j, c in enumerate(p.c_sets, start=1):
        if not c:
            return Verdict(False, f"c-nonempty:{j}")
        if not is_restricted(g, c, pr.eps):
            return Verdict(False, f"c-restricted:{j}")

    for i, (a, b) in enumerate(zip(p.a_sets, p.b_sets), start=1):
        if b.bit_count() > pr.eta * a.bit_count():
            return Verdict(False, f"b-size:{i}")
        if b and not is_tight_to(g, a, b, pr.theta, "tight").ok:
            return Verdict(False, f"b-tight:{i}")

    if p.t > 0:
        eps_t = pr.eps_schedule[p.t]
        chk = verify_blowup(g, BlowupCertificate(p.d_sets, eps_t, pr.xi, pat.prefix(p.t)))
        if not chk.ok:
            return Verdict(False, f"blowup:{chk.witness}")
        ell = p.leftover.bit_count()
        lam = pr.big_lambda(p.t)
        for i, dset in enumerate(p.d_sets, start=1):
            size = dset.bit_count()
            # exact for a Fraction; a LogValue raises UndecidableAtScale when too close
            if p.d_budget and not lam * p.d_budget < size:
                return Verdict(False, f"d-threshold:{i}", "Lambda*d bound")
            if not size * pr.eta > 2 * ell:
                return Verdict(False, f"d-threshold:{i}", "2/eta * |L| bound")
            if not is_restricted(g, dset, eps_t):
                return Verdict(False, f"d-restricted:{i}")
    return Verdict(True)


@dataclass(frozen=True)
class StepRecord:
    """One iteration's intermediate objects, in host-graph ids."""

    t: int
    correct_set: int  # S
    finished: bool
    l_parts: tuple[int, ...] = ()
    core: int = 0  # S_0
    chain: tuple[int, ...] = ()  # S_1..S_t
    d_primes: tuple[int, ...] = ()
    p_sets: tuple[int, ...] = ()
    peel_sets: tuple[int, ...] = ()
    peel_leftover: int = 0


@dataclass(frozen=True)
class KeyLemmaResult:
    removed: int
    pairs: tuple[tuple[int, int], ...]  # (A_i, B_i), B_i nonempty
    singles: tuple[int, ...]
    params: KeyParams
    d_budget: int
    transcript: tuple[StepRecord, ...] = ()


@dataclass(frozen=True)
class KeyCertificate(_PartBound):
    """A key-lemma result as exported: the rows plus the values their check
    reads.  delta_prime/eta_prime are None when not stated (paper-mode
    exports omit them); the single-count clause is then not checked, and
    the verdict says so."""

    removed: int
    a_sets: tuple[int, ...]
    b_sets: tuple[int, ...]
    singles: tuple[int, ...]
    d_budget: int
    h: int
    eps: Fraction
    eta: Fraction
    theta: Fraction
    delta_prime: Scalar | None
    eta_prime: Scalar | None


@dataclass(frozen=True)
class BlowupFound:
    certificate: BlowupCertificate
    copy_count: int
    copy_bound: Fraction
    contradiction_checked: bool
    transcript: tuple[StepRecord, ...] = ()


def _correct_adjacency_split(
    g: Graph, pat: Pattern, p: MNTPartition
) -> tuple[int, list[int]]:
    """S = leftover vertices adjacent 'correctly' to every D_i for label t+1
    (at least 2 xi |D_i| neighbours in D_i for a pattern edge, non-neighbours
    otherwise); the rest lands in L_i for the least i whose condition it
    fails.  The parts are tried in label order, each on what is left."""
    rest = p.leftover
    l_parts = []
    for i, di in enumerate(p.d_sets, start=1):
        ni = di.bit_count()
        need = ceil_frac(2 * p.params.xi * ni)
        if pat.label_edge(i, p.t + 1):
            ok = with_at_least(g, rest, di, need)
        else:
            ok = rest & ~with_at_least(g, rest, di, ni - need + 1)
        l_parts.append(rest & ~ok)
        rest = ok
    return rest, l_parts


def _finish(
    g: Graph, pat: Pattern, p: MNTPartition, s_mask: int, l_parts: list[int]
) -> KeyLemmaResult:
    pr = p.params
    pairs = [(a, b) for a, b in zip(p.a_sets, p.b_sets) if b]
    pairs += [(d, l) for d, l in zip(p.d_sets, l_parts) if l]
    singles = [a for a, b in zip(p.a_sets, p.b_sets) if not b]
    singles += [d for d, l in zip(p.d_sets, l_parts) if not l]
    singles += list(p.c_sets)
    result = KeyLemmaResult(s_mask, tuple(pairs), tuple(singles), pr, p.d_budget)
    verify_key_result(g, pat, result)
    return result


def advance_or_finish(
    g: Graph, pat: Pattern, p: MNTPartition
) -> tuple[KeyLemmaResult | MNTPartition, StepRecord]:
    """One iteration: finish (|S| <= d) or assemble the (m+t, n+s, t+1)-partition.
    The input is not re-checked (run_key_lemma verifies a caller's start);
    the assembled partition goes through verify_mnt_partition, and a
    finished result through verify_key_result."""
    pr = p.params
    t = p.t
    if t >= pat.size:
        raise ValueError("cannot advance a partition that already reached t = h")

    s_mask, l_parts = _correct_adjacency_split(g, pat, p)
    s_size = s_mask.bit_count()
    if s_size <= p.d_budget:
        for i, (dset, l) in enumerate(zip(p.d_sets, l_parts), start=1):
            if l:
                is_tight_to(g, dset, l, 2 * pr.xi, "tight").require(
                    f"leftover residue not 2xi-tight to D_{i}: "
                )
        rec = StepRecord(t=t, correct_set=s_mask, finished=True, l_parts=tuple(l_parts))
        return _finish(g, pat, p, s_mask, l_parts), rec

    # -- full step: extract a restricted core of S and densify it against
    #    each D_i in turn.
    sub_s, ids_s = induced_subgraph(g, s_mask)
    try:
        core_local = extract_restricted_exact(
            sub_s, pat, pr.eps_prime(), pr.delta_prime_at(s_size)
        )
    except ExtractionInfeasible as exc:
        raise StepFailure(f"core extraction failed at t={t}: {exc}") from exc
    s0 = lift(ids_s, core_local)

    chain = []
    d_primes = []
    p_sets = []
    s_prev = s0
    for i in range(1, t + 1):
        di = p.d_sets[i - 1]
        polarity = "full" if pat.label_edge(i, t + 1) else "empty"
        fp = FullPairParams(pr.step_c(t, i), pr.xi, min_frac=pr.lam)
        try:
            cert = find_full_pair(g, s_prev, di, fp, polarity=polarity)
        except Exception as exc:
            raise StepFailure(f"chain step {i} at t={t} failed: {exc}") from exc
        s_i, d_i_prime = cert.a, cert.b
        if s_i.bit_count() < pr.lam * s_prev.bit_count():
            raise StepFailure(f"chain step {i}: core shrank below lam fraction")
        if d_i_prime.bit_count() < pr.lam * di.bit_count():
            raise StepFailure(f"chain step {i}: D side shrank below lam fraction")
        p_i = mask_from_ids(islice(iter_bits(d_i_prime), di.bit_count() // 2))
        if not p_i or 2 * (di & ~p_i).bit_count() < di.bit_count():
            raise AssertionError("P_i must leave at least half of D_i")
        # the next level's blowup scaling needs both of these
        if p_i.bit_count() < pr.lam * di.bit_count():
            raise AssertionError("P_i fell below the lam fraction of D_i")
        if 3 * p_i.bit_count() < d_i_prime.bit_count():
            raise AssertionError("P_i fell below a third of the certified side")
        chain.append(s_i)
        d_primes.append(d_i_prime)
        p_sets.append(p_i)
        s_prev = s_i
    s_t = s_prev

    rest = s_mask & ~s_t
    if s_size == 1:
        peels: tuple[int, ...] = ()
        new_leftover = 0
    else:
        sub_r, ids_r = induced_subgraph(g, rest)
        eta_p = pr.eta_prime_at(rest.bit_count())
        delta_p = pr.delta_prime_at(rest.bit_count())
        try:
            pc = peel_chain(sub_r, pat, pr.eps, eta_p, delta_p)
        except Exception as exc:
            raise StepFailure(f"peeling failed at t={t}: {exc}") from exc
        peels = tuple(lift(ids_r, q) for q in pc.peels)
        new_leftover = lift(ids_r, pc.leftover)
        if not pr.n_bound_holds(len(peels), 1):
            raise StepFailure(
                f"peeling produced {len(peels)} > phi(delta',eta') sets at t={t}"
            )

    new_pairs_a = list(p.a_sets) + [d & ~pi for d, pi in zip(p.d_sets, p_sets)]
    new_pairs_b = list(p.b_sets) + list(l_parts)
    new_c = list(p.c_sets) + list(peels)
    new_d = p_sets + [s_t]
    nxt = MNTPartition(
        tuple(new_pairs_a),
        tuple(new_pairs_b),
        tuple(new_c),
        tuple(new_d),
        new_leftover,
        pr,
        p.d_budget,
    )
    rec = StepRecord(
        t=t,
        correct_set=s_mask,
        finished=False,
        l_parts=tuple(l_parts),
        core=s0,
        chain=tuple(chain),
        d_primes=tuple(d_primes),
        p_sets=tuple(p_sets),
        peel_sets=peels,
        peel_leftover=new_leftover,
    )
    rep = verify_mnt_partition(g, pat, nxt)
    if not rep.ok:
        raise StepFailure(
            f"assembled (m={nxt.m},n={nxt.n},t={nxt.t})-partition fails "
            f"clause {rep.clause}: {rep.detail}"
        )
    return nxt, rec


def verify_key_result(g: Graph, pat: Pattern, res: KeyLemmaResult) -> None:
    """verify_key_certificate on a run's result, raising AssertionError on
    a failed verdict."""
    pr, pairs = res.params, res.pairs
    a_sets, b_sets = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
    rows = (res.removed, a_sets, b_sets, res.singles, res.d_budget, pat.size)
    bounds = (pr.eps, pr.eta, pr.theta, pr.delta_prime, pr.eta_prime)
    verify_key_certificate(g, KeyCertificate(*rows, *bounds)).require()


def verify_key_certificate(g: Graph, c: KeyCertificate) -> Verdict:
    """Every clause of a key-lemma result, in order; the verdict names the
    first that fails (pairs and singles indexed from 0)."""
    if c.removed.bit_count() > c.d_budget:
        return Verdict(False, detail="removed set exceeds d")
    if len(c.a_sets) != len(c.b_sets):
        return Verdict(False, detail="pair rows have unequal lengths")
    if len(c.a_sets) > comb(c.h, 2):
        return Verdict(False, detail="more pairs than C(h,2)")
    union = c.removed
    for idx, (a, b) in enumerate(zip(c.a_sets, c.b_sets)):
        if not a or not b:
            return Verdict(False, detail=f"pair {idx} has an empty side")
        if (a | b) & union or a & b:
            return Verdict(False, detail=f"pair {idx} overlaps earlier sets")
        union |= a | b
        if not is_restricted(g, a, c.eps):
            return Verdict(False, detail=f"pair {idx}: A not eps-restricted")
        if b.bit_count() > c.eta * a.bit_count():
            return Verdict(False, detail=f"pair {idx}: B larger than eta*|A|")
        if not is_tight_to(g, a, b, c.theta, "tight").ok:
            return Verdict(False, detail=f"pair {idx}: B not theta-tight to A")
    for idx, single in enumerate(c.singles):
        if not single or single & union:
            return Verdict(False, detail=f"single {idx} empty or overlapping")
        union |= single
        if not is_restricted(g, single, c.eps):
            return Verdict(False, detail=f"single {idx} not eps-restricted")
    if union != g.full_mask:
        return Verdict(False, detail="sets do not cover V(G)")
    if c.delta_prime is None:
        detail = "single-count clause not checked: delta_prime and eta_prime not stated"
        return Verdict(True, detail=detail, exact=False)
    if not c.part_bound_holds(len(c.singles)):
        n_bound = c.part_bound()
        bound = "" if n_bound is None else f" = {n_bound}"
        return Verdict(False, detail=f"single count exceeds N{bound}")
    return Verdict(True)


def verify_blowup_found(g: Graph, found: BlowupFound) -> Verdict:
    """Recheck a reported blowup and its copy count.  A claimed
    contradiction with the copy budget kappa * d^h is not re-checked: the
    certificate carries no kappa and no d, and the verdict says so."""
    cert = found.certificate
    chk = verify_blowup(g, cert)
    if not chk.ok:
        return chk
    count = count_embeddings_into_parts(g, cert.pattern, cert.parts)
    if count != found.copy_count:
        return Verdict(False, detail="copy count does not match a recount")
    if count < found.copy_bound:
        return Verdict(False, detail="copy count below the stated bound")
    if found.contradiction_checked:
        detail = "contradiction not re-checked: the certificate carries no kappa and no d"
        return Verdict(True, detail=detail, exact=False)
    return Verdict(True)


def run_key_lemma(
    g: Graph,
    pat: Pattern,
    params: KeyParams,
    d_budget: int,
    start: MNTPartition | None = None,
) -> KeyLemmaResult | BlowupFound:
    """Iterate from the trivial partition or a caller's start; see module
    docstring.

    A caller's start is verified once, here, and refused with StepFailure
    naming the failed clause, unless t = h: that one goes straight to the
    blowup check.  The trivial start needs no check: it has no A, B, C
    or D sets and t = 0, so the shape, count (m = n = 0), restrictedness,
    tightness and blowup clauses hold vacuously, and its leftover is V(G),
    so the disjoint-union clause holds.

    Exact-schedule runs first check the copy budget ind <= kappa * d^h
    and refuse when the constants cannot decide it at this scale.
    """
    if d_budget < 0:
        raise ValueError("removal budget must be nonnegative")
    h = pat.size
    if params.ledger is not None:
        _paper_precheck(g, pat, params, d_budget)
    p = start if start is not None else MNTPartition.trivial(g, params, d_budget)
    transcript: list[StepRecord] = []
    if p.t == h:
        return _blowup_found(g, pat, params, p, d_budget, transcript)
    if start is not None:
        rep = verify_mnt_partition(g, pat, p)
        if not rep.ok:
            raise StepFailure(f"input partition invalid at clause {rep.clause}")
    for _ in range(h + 1):
        outcome, rec = advance_or_finish(g, pat, p)
        transcript.append(rec)
        if isinstance(outcome, KeyLemmaResult):
            return replace(outcome, transcript=tuple(transcript))
        p = outcome
        if p.t == h:
            return _blowup_found(g, pat, params, p, d_budget, transcript)
    raise AssertionError("iteration exceeded h steps without finishing")


def _blowup_found(
    g: Graph,
    pat: Pattern,
    params: KeyParams,
    p: MNTPartition,
    d_budget: int,
    transcript: list[StepRecord],
) -> BlowupFound:
    """The t = h partition's blowup row as a result, checked by
    verify_blowup_found; exact-schedule runs also show that its copies
    exceed the budget kappa * d^h."""
    h = pat.size
    cert = BlowupCertificate(p.d_sets, params.eps_schedule[h], params.xi, pat.prefix(h))
    count = count_embeddings_into_parts(g, pat, p.d_sets)
    sizes = [d.bit_count() for d in p.d_sets]
    bound = blowup_copy_bound(h, params.xi, sizes, exponent_form="h")
    contradiction = params.ledger is not None
    found = BlowupFound(cert, count, bound, contradiction, tuple(transcript))
    verify_blowup_found(g, found).require()
    if contradiction and d_budget:
        lhs, rhs = _log2_count_and_budget(count, params, h, d_budget)
        if lhs <= rhs:
            raise AssertionError("exact-schedule contradiction failed: count within kappa*d^h")
    return found


def _log2_count_and_budget(
    count: int, params: KeyParams, h: int, d_budget: int
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """log2 of a copy count, and the upper bound log2 kappa + h*log2 d on
    log2 of the copy budget kappa * d^h."""
    kap = params.ledger.get("kappa")
    return mpmath.log(max(count, 1), 2), kap.log2 + h * mpmath.log(max(d_budget, 1), 2)


def _paper_precheck(g: Graph, pat: Pattern, params: KeyParams, d_budget: int) -> None:
    from .graph import count_induced_copies

    ind = count_induced_copies(g, pat)
    if ind == 0:
        return
    # need ind <= kappa * d^h; kappa's log2 is an upper bound, so this
    # refusal errs on the safe side.
    if d_budget == 0:
        raise InfeasibleAtScale("exact schedule needs ind(G) = 0 when d = 0")
    lhs, rhs = _log2_count_and_budget(ind, params, pat.size, d_budget)
    if lhs > rhs:
        raise InfeasibleAtScale(
            "constants infeasible at this scale: ind(G) exceeds kappa*d^h "
            f"(log2 ind = {mpmath.nstr(lhs, 8)}, log2 kappa*d^h <= {mpmath.nstr(rhs, 8)})"
        )
