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
many copies.  Under the paper's constants that contradicts the copy budget
kappa * d^h, but those constants are towers: for K2 the largest kappa is
about 2^-479,417,090, and for three or more vertices eps_0 has no exact
value.  So every run takes practical parameters (``rpt constants`` reports
the paper's), and a full blowup is a reported outcome, checked like any
other.

Each partition is verified clause by clause, exactly and once: a
caller's start when the run begins (the trivial start holds every clause
by construction), and each assembled partition before the iteration
continues.  Every result is checked by the verifier that ``rpt check``
runs for its kind: key-lemma rows by verify_key_certificate (through
verify_key_result), a blowup found by verify_blowup_found.  No check
samples or skips a clause, and nothing downstream trusts the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .extraction import ExtractionInfeasible, extract_restricted_exact, peel_chain
from .fullpair import FullPairParams, find_full_pair
from .graph import (
    Graph,
    Pattern,
    count_embeddings_into_parts,
    induced_subgraph,
    lift,
    mask_from_ids,
    mask_to_ids,
    with_at_least,
)
from .ledger import blowup_copy_bound, key_domain, part_bound, phi
from .predicates import (
    BlowupCertificate,
    Verdict,
    is_restricted,
    is_tight_to,
    verify_blowup,
)
from .values import ceil_frac


class StepFailure(RuntimeError):
    """A sub-procedure failed during one iteration; carries step context."""


class _PartBound:
    """The single-count bound N = C(h,2) + (h-1)*phi(delta', eta').  Mixed
    into the frozen dataclasses with fields h, delta_prime and eta_prime."""

    def phi_bound(self) -> int:
        """phi(delta', eta')."""
        return phi(self.delta_prime, self.eta_prime)

    def part_bound(self) -> int:
        """N = C(h,2) + (h-1)*phi(delta', eta')."""
        return part_bound(self.h, self.phi_bound())

    def n_bound_holds(self, n: int, multiplier: int) -> bool:
        """Decide n <= multiplier * phi(delta', eta')."""
        return n <= multiplier * self.phi_bound()

    def part_bound_holds(self, n: int) -> bool:
        """Decide n <= N = C(h,2) + (h-1)*phi(delta', eta')."""
        return n <= self.part_bound()


def _eta_prime_cap(h: int, eta: Fraction, delta_prime: Fraction, lam: Fraction) -> Fraction:
    """eta*delta'*lam^(h-1)/2: the largest leftover fraction eta' may be."""
    return Fraction(1, 2) * eta * delta_prime * lam ** (h - 1)


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
    delta_prime: Fraction
    eta_prime: Fraction

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
        cap = _eta_prime_cap(self.h, self.eta, self.delta_prime, self.lam)
        if self.eta_prime > cap:
            raise ValueError(f"eta_prime must be at most eta*delta_prime*lam^(h-1)/2 = {cap}")
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

    def gamma_chain(self, t: int, i: int) -> Fraction:
        """Gamma(t,i) = lam^(t-i): required shrink of S_t relative to S_i."""
        return self.lam ** (t - i)

    def step_c(self, t: int, i: int) -> Fraction:
        """Fullness parameter for chain step i at level t -> t+1."""
        return Fraction(1, 3) * self.eps_schedule[t + 1] * self.gamma_chain(t, i)

    def big_lambda(self, t: int) -> Fraction:
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
    reads."""

    removed: int
    a_sets: tuple[int, ...]
    b_sets: tuple[int, ...]
    singles: tuple[int, ...]
    d_budget: int
    h: int
    eps: Fraction
    eta: Fraction
    theta: Fraction
    delta_prime: Fraction
    eta_prime: Fraction


@dataclass(frozen=True)
class BlowupFound:
    certificate: BlowupCertificate
    copy_count: int
    copy_bound: Fraction
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
    finished result through verify_key_result.

    Each P_i of a full step is nonempty, leaves half of D_i, and holds at
    least lam |D_i| and a third of D'_i, without a check.  A full step has
    |S| > d >= 0 (run_key_lemma refuses d < 0) with S inside L, so the
    input's verified clause |D_i| eta > 2|L| >= 2, with eta < 1/2, gives
    |D_i| >= 5.  D'_i lies in D_i (``find_full_pair`` returns a subpair),
    |D'_i| >= lam |D_i| > 0 (proved next), and P_i is the first
    min(|D'_i|, floor(|D_i|/2)) ids of D'_i; floor(|D_i|/2) >= |D_i|/3 >=
    lam |D_i| (lam <= 1/3) and 3 floor(|D_i|/2) >= |D_i| >= |D'_i|.

    Each chain step keeps a lam fraction of both sides, without a check.
    ``find_full_pair`` runs with min_frac = lam, so its floors are
    max(1, ceil(lam |S_(i-1)|)) and max(1, ceil(lam |D_i|)), and it returns
    only a pair at or above both: phase 1 certifies the whole pair or a
    pair its last round left at or above the floors (it breaks before
    certifying below one), phase 1.5 certifies only at or above both, and
    phase 2 enumerates sizes from the floors up.  Its sides are subsets of
    S_(i-1) and D_i, so |S_i| >= lam |S_(i-1)| and |D'_i| >= lam |D_i|.

    A finished step's L_i is 2 xi-tight to D_i without a check:
    ``_correct_adjacency_split`` puts a vertex in L_i only when it has
    fewer than ceil(2 xi |D_i|) neighbours in D_i (a pattern edge), so all
    of L_i is 2 xi-sparse to D_i, or more than |D_i| - ceil(2 xi |D_i|)
    (a non-edge), so all of it is 2 xi-dense; is_tight_to rounds its bound
    to the same ceil(2 xi |D_i|).
    """
    pr = p.params
    t = p.t
    if t >= pat.size:
        raise ValueError("cannot advance a partition that already reached t = h")

    s_mask, l_parts = _correct_adjacency_split(g, pat, p)
    s_size = s_mask.bit_count()
    if s_size <= p.d_budget:
        rec = StepRecord(t=t, correct_set=s_mask, finished=True, l_parts=tuple(l_parts))
        return _finish(g, pat, p, s_mask, l_parts), rec

    # -- full step: extract a restricted core of S and densify it against
    #    each D_i in turn.
    sub_s, ids_s = induced_subgraph(g, s_mask)
    try:
        core_local = extract_restricted_exact(
            sub_s, pat, pr.eps_prime(), pr.delta_prime
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
        p_i = mask_from_ids(mask_to_ids(d_i_prime)[: di.bit_count() // 2])
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
        try:
            pc = peel_chain(sub_r, pat, pr.eps, pr.eta_prime, pr.delta_prime)
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
    if not c.part_bound_holds(len(c.singles)):
        return Verdict(False, detail=f"single count exceeds N = {c.part_bound()}")
    return Verdict(True)


def verify_blowup_found(g: Graph, found: BlowupFound) -> Verdict:
    """Recheck a reported blowup and its copy count."""
    cert = found.certificate
    chk = verify_blowup(g, cert)
    if not chk.ok:
        return chk
    count = count_embeddings_into_parts(g, cert.pattern, cert.parts)
    if count != found.copy_count:
        return Verdict(False, detail="copy count does not match a recount")
    if count < found.copy_bound:
        return Verdict(False, detail="copy count below the stated bound")
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
    """
    if d_budget < 0:
        raise ValueError("removal budget must be nonnegative")
    h = pat.size
    p = start if start is not None else MNTPartition.trivial(g, params, d_budget)
    transcript: list[StepRecord] = []
    if p.t == h:
        return _blowup_found(g, pat, params, p, transcript)
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
            return _blowup_found(g, pat, params, p, transcript)
    raise AssertionError("iteration exceeded h steps without finishing")


def _blowup_found(
    g: Graph, pat: Pattern, params: KeyParams, p: MNTPartition, transcript: list[StepRecord]
) -> BlowupFound:
    """The t = h partition's blowup row as a result, checked by
    verify_blowup_found.  The stated bound is (1 - xi)^h xi^C(h,2)
    prod |D_i|, blowup_copy_bound's (1 - xi)^(h-1) form times one more
    (1 - xi).  No contradiction with the copy budget kappa * d^h is claimed:
    that needs the paper's kappa, which no run uses (see the module
    docstring)."""
    h = pat.size
    cert = BlowupCertificate(p.d_sets, params.eps_schedule[h], params.xi, pat.prefix(h))
    count = count_embeddings_into_parts(g, pat, p.d_sets)
    sizes = [d.bit_count() for d in p.d_sets]
    bound = (1 - params.xi) * blowup_copy_bound(h, params.xi, sizes)
    found = BlowupFound(cert, count, bound, tuple(transcript))
    verify_blowup_found(g, found).require()
    return found
