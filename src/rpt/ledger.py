"""Log-scale evaluation of every constant recursion in the pipeline.

The guarantee constants are towers of exponentials: each row of the
lambda/Gamma recursion feeds the previous row's product through
gamma(c, xi) = (1/2)(2 xi)^(12/c), which exponentiates the running
logarithm.  Values are therefore tracked as base-2 logarithms (mpmath,
240-bit mantissas); exact rationals are kept alongside whenever the
binary representation stays below a size cap.  Once even the logarithm's
exponent would stop fitting in memory the entry saturates: its ``log2``
becomes an upper bound and ``saturated`` is set.  Upper bounds are sound
for every use the runtime makes of these constants (all are of the form
"is v * size below 1").
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import mpmath

from .extraction import depth_for
from .values import log2_fraction

# An entry's exact Fraction is kept only below this many bits.
_EXACT_BITS_CAP = 300_000
# Decimal p/q emission is capped separately: int->str is quadratic.
_EXACT_PRINT_BITS = 20_000
# |log2 c| above this would make the *next* gamma's logarithm exponent
# unrepresentable; saturate instead.
_LOG_INPUT_CAP = mpmath.mpf(2) ** 46
_SATURATED_LOG2 = -(mpmath.mpf(2) ** 46)


@dataclass(frozen=True)
class LedgerEntry:
    exact: Fraction | None
    log2: mpmath.mpf  # upper bound on log2(value) when saturated
    saturated: bool = False

    @property
    def printable_exact(self) -> Fraction | None:
        if self.exact is None:
            return None
        bits = self.exact.numerator.bit_length() + self.exact.denominator.bit_length()
        return self.exact if bits <= _EXACT_PRINT_BITS else None

    def describe(self) -> str:
        x = self.printable_exact
        if x is not None:
            return str(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        prefix = "<= " if self.saturated else ""
        return f"{prefix}2^{mpmath.nstr(self.log2, 17)}"


def entry_from_fraction(x: Fraction) -> LedgerEntry:
    bits = x.numerator.bit_length() + x.denominator.bit_length()
    return LedgerEntry(x if bits <= _EXACT_BITS_CAP else None, log2_fraction(x))


def entry_mul(a: LedgerEntry, b: LedgerEntry) -> LedgerEntry:
    exact = None
    if a.exact is not None and b.exact is not None:
        prod = a.exact * b.exact
        if prod.numerator.bit_length() + prod.denominator.bit_length() <= _EXACT_BITS_CAP:
            exact = prod
    return LedgerEntry(exact, a.log2 + b.log2, a.saturated or b.saturated)


def entry_pow(a: LedgerEntry, k: int) -> LedgerEntry:
    exact = None
    if a.exact is not None:
        bits = k * (a.exact.numerator.bit_length() + a.exact.denominator.bit_length())
        if bits <= _EXACT_BITS_CAP:
            exact = a.exact**k
    return LedgerEntry(exact, a.log2 * k, a.saturated)


def entry_min(*entries: LedgerEntry) -> LedgerEntry:
    best = entries[0]
    for e in entries[1:]:
        if e.log2 < best.log2:
            best = e
    return best


def gamma_entry(c: LedgerEntry, eps: Fraction) -> LedgerEntry:
    """gamma(c, eps) = (1/2)(2 eps)^(12/c) with saturation on tower overflow."""
    log2_base = log2_fraction(2 * eps)  # negative for eps < 1/2
    if c.saturated or -c.log2 > _LOG_INPUT_CAP:
        return LedgerEntry(None, _SATURATED_LOG2, True)
    ratio = mpmath.mpf(12) * mpmath.power(2, -c.log2)
    log2 = mpmath.mpf(-1) + ratio * log2_base
    exact = None
    if c.exact is not None:
        exponent = 12 / c.exact
        if exponent.denominator == 1:
            base = 2 * eps
            bits = exponent.numerator * max(
                base.numerator.bit_length(), base.denominator.bit_length()
            )
            if bits <= _EXACT_BITS_CAP:
                exact = base**exponent.numerator / 2
    return LedgerEntry(exact, log2, False)


def phi_entry(delta: LedgerEntry, eta: LedgerEntry) -> LedgerEntry:
    """phi(delta, eta): least p >= 1 with (1-delta)^p <= eta.

    Exact iteration when delta is a tame rational; otherwise the analytic
    value ln(1/eta)/(-ln(1-delta)) rounded up, which for the tiny deltas
    that reach this path is accurate far beyond the ledger's tolerance.
    """
    if (
        delta.exact is not None
        and eta.exact is not None
        and delta.exact >= Fraction(1, 10**6)
    ):
        from .extraction import phi

        value = phi(delta.exact, eta.exact)
        return LedgerEntry(Fraction(value), log2_fraction(Fraction(value)))
    if delta.saturated or eta.saturated:
        # phi >= ln(1/eta)/delta; an upper-bound delta gives a lower-bound
        # phi, which is what the count comparisons need.
        log2_phi = mpmath.log(-eta.log2 * mpmath.log(2), 2) - delta.log2
        return LedgerEntry(None, log2_phi, True)
    # -ln(1-delta) ~= delta * ln 2 adjustments; compute via log1p at mpf scale
    d = mpmath.power(2, delta.log2)
    denom = -mpmath.log1p(-d)
    log_eta = eta.log2 * mpmath.log(2)
    value = -log_eta / denom
    return LedgerEntry(None, mpmath.log(value, 2), False)


@dataclass
class ConstantsLedger:
    h: int
    eps: Fraction
    eta: Fraction
    theta: Fraction
    entries: dict[str, LedgerEntry]

    def get(self, name: str) -> LedgerEntry:
        return self.entries[name]

    def as_dict(self) -> dict:
        out = {}
        for name, e in self.entries.items():
            x = e.printable_exact
            out[name] = {
                "exact": None if x is None else f"{x.numerator}/{x.denominator}",
                "log2": mpmath.nstr(e.log2, 17),
                "saturated": e.saturated,
            }
        return out


def tight_copy_threshold_entry(h: int, eps: Fraction) -> LedgerEntry:
    return entry_from_fraction(Fraction(1, (4 * h) ** h) * eps ** comb(h, 2))


def weak_restricted_entries(h: int, eps: LedgerEntry) -> tuple[LedgerEntry, LedgerEntry, int, LedgerEntry]:
    """(shrink eta, per-run delta = eta^s, depth s, copy threshold kappa)
    for the density-subset extractor run at targets (eps, eps)."""
    quarter = LedgerEntry(
        None if eps.exact is None else eps.exact / 4, eps.log2 - 2, eps.saturated
    )
    # eta = 1/2 (2h)^-2 (eps/4)^(h-1)
    lead = entry_from_fraction(Fraction(1, 2 * (2 * h) ** 2))
    eta = entry_mul(lead, entry_pow(quarter, h - 1))
    if eps.exact is not None:
        s = depth_for(eps.exact)
    else:
        s = max(int(mpmath.ceil(-2 * eps.log2 / mpmath.log(mpmath.mpf(3) / 2, 2))), 1)
    delta = entry_pow(eta, s)
    if eps.exact is not None and not eps.saturated:
        kappa_tail = tight_copy_threshold_entry(h, eps.exact / 4)
    else:
        # (4h)^-h (eps/4)^C(h,2) via logs
        kappa_tail = LedgerEntry(
            None,
            log2_fraction(Fraction(1, (4 * h) ** h)) + comb(h, 2) * quarter.log2,
            eps.saturated,
        )
    kappa = entry_mul(entry_pow(eta, s * h), kappa_tail)
    return eta, delta, s, kappa


def build_ledger(h: int, eps: Fraction, eta: Fraction, theta: Fraction) -> ConstantsLedger:
    """Evaluate the full constant recursion for an h-vertex pattern.

    Row order matches the defining recursion: xi and eps_h first, then
    for t = h-1 .. 0 the Gamma/lambda row (i = t-1 .. 0) and eps_t, then
    the derived eps', delta', eta', N, the Lambda table, and kappa; the
    section-2 and section-4 constants the surrounding pipeline quotes are
    appended under role names.
    """
    for name, val in (("eps", eps), ("eta", eta), ("theta", theta)):
        if not Fraction(0) < val < Fraction(1, 2):
            raise ValueError(f"{name} must lie in (0, 1/2)")
    e: dict[str, LedgerEntry] = {}
    xi = theta / 4
    e["xi"] = entry_from_fraction(xi)
    eps_t: dict[int, LedgerEntry] = {h: entry_from_fraction(min(eps, xi**h))}
    e[f"eps[{h}]"] = eps_t[h]
    lam: dict[tuple[int, int], LedgerEntry] = {}
    gam: dict[tuple[int, int], LedgerEntry] = {}
    one = entry_from_fraction(Fraction(1))
    third = entry_from_fraction(Fraction(1, 3))
    for t in range(h - 1, -1, -1):
        lam[(t, t)] = one
        gam[(t, t)] = one
        e[f"lambda[{t},{t}]"] = one
        e[f"Gamma[{t},{t}]"] = one
        for i in range(t - 1, -1, -1):
            gam[(t, i)] = entry_mul(lam[(t, i + 1)], gam[(t, i + 1)])
            c = entry_mul(third, entry_mul(eps_t[t + 1], gam[(t, i + 1)]))
            lam[(t, i)] = gamma_entry(c, xi)
            e[f"Gamma[{t},{i}]"] = gam[(t, i)]
            e[f"lambda[{t},{i}]"] = lam[(t, i)]
        eps_t[t] = entry_mul(eps_t[t + 1], lam[(t, 0)])
        e[f"eps[{t}]"] = eps_t[t]
    eps_prime = entry_min(*(entry_mul(eps_t[t + 1], gam[(t, 0)]) for t in range(h)))
    e["eps_prime"] = eps_prime

    # delta' = 1/4 * (weak-restricted fraction at eps'/8); kappa' likewise
    eps_prime_8 = LedgerEntry(
        None if eps_prime.exact is None else eps_prime.exact / 8,
        eps_prime.log2 - 3,
        eps_prime.saturated,
    )
    w_eta, w_delta, w_s, w_kappa = weak_restricted_entries(h, eps_prime_8)
    e["exact_restricted_shrink"] = w_eta
    e["exact_restricted_depth"] = entry_from_fraction(Fraction(w_s))
    delta_prime = entry_mul(entry_from_fraction(Fraction(1, 4)), w_delta)
    e["delta_prime"] = delta_prime
    e["exact_restricted_copy_threshold"] = w_kappa

    gamma_min = entry_min(*(gam[(t, 0)] for t in range(h)))
    eta_prime = entry_mul(
        entry_from_fraction(Fraction(1, 2) * eta), entry_mul(delta_prime, gamma_min)
    )
    e["eta_prime"] = eta_prime

    phi_val = phi_entry(delta_prime, eta_prime)
    e["phi(delta_prime,eta_prime)"] = phi_val
    if phi_val.exact is not None:
        n_val = entry_from_fraction(Fraction(comb(h, 2)) + (h - 1) * phi_val.exact)
    elif phi_val.log2 < 40:
        approx = comb(h, 2) + (h - 1) * mpmath.power(2, phi_val.log2)
        n_val = LedgerEntry(None, mpmath.log(approx, 2), phi_val.saturated)
    else:
        n_val = LedgerEntry(None, log2_fraction(Fraction(h - 1)) + phi_val.log2, phi_val.saturated)
    e["N"] = n_val

    big_lam: dict[tuple[int, int], LedgerEntry] = {}
    for i in range(1, h + 1):
        big_lam[(i, i)] = entry_mul(delta_prime, gam[(i - 1, 0)])
        e[f"Lambda[{i},{i}]"] = big_lam[(i, i)]
        for t in range(i, h):
            big_lam[(t + 1, i)] = entry_mul(lam[(t, i)], big_lam[(t, i)])
            e[f"Lambda[{t + 1},{i}]"] = big_lam[(t + 1, i)]

    blowup_product = entry_from_fraction((1 - xi) ** (h - 1) * xi ** comb(h, 2))
    kappa_first = blowup_product
    for i in range(1, h + 1):
        kappa_first = entry_mul(kappa_first, big_lam[(h, i)])

    # section-2 constants at the ledger's own (h, eps)
    e["tight_copy_threshold"] = tight_copy_threshold_entry(h, eps)
    s2_eta, s2_delta, s2_s, s2_kappa = weak_restricted_entries(h, entry_from_fraction(eps))
    e["density_shrink"] = s2_eta
    e["density_depth"] = entry_from_fraction(Fraction(s2_s))
    e["weak_restricted_fraction"] = s2_delta
    e["weak_restricted_copy_threshold"] = s2_kappa

    # peel-stage copy threshold: eta'^h * (weak-restricted threshold at eps)
    e["peel_fraction"] = s2_delta  # per-peel size fraction at eps
    kappa_peel = entry_mul(entry_pow(eta_prime, h), s2_kappa)
    kappa = entry_min(
        kappa_first,
        w_kappa,
        entry_mul(entry_from_fraction(Fraction(1, 2**h)), kappa_peel),
    )
    e["kappa"] = kappa

    # section-4 constants as functions of (h, eps) alone
    from .values import ceil_frac

    big_k = ceil_frac(4 / eps)
    e["path_length"] = entry_from_fraction(Fraction(big_k))
    level_eps = entry_from_fraction(Fraction(1, h ** (2 * big_k)) * eps)
    e["level_eps"] = level_eps
    e["level_eta"] = entry_from_fraction(Fraction(1, h**2))
    e["level_theta"] = entry_from_fraction(Fraction(1, 12 * h ** (2 * big_k)) * eps)
    # the lengthen-stage thresholds reuse this ledger's kappa/N shape at
    # the level parameters; at tower scale only their logs are reported
    e["lengthen_copy_scale"] = entry_from_fraction(Fraction(1, h ** (2 * big_k * h)))
    base_parts = entry_from_fraction(2400 / eps**2)
    e["base_part_bound"] = base_parts
    main_n = entry_mul(entry_from_fraction(Fraction(h ** (2 * big_k))), base_parts)
    e["main_part_bound_scale"] = main_n

    return ConstantsLedger(h, eps, eta, theta, e)
