"""Log-scale evaluation of every constant recursion in the pipeline.

The guarantee constants are towers of exponentials: each row of the
lambda/Gamma recursion feeds the previous row's product through
gamma(c, xi) = (1/2)(2 xi)^(12/c), which exponentiates the running
logarithm.  Every entry is a :class:`~rpt.values.LogValue`: a base-2
logarithm (mpmath, 240-bit mantissas) with the exact rational kept
alongside while its binary representation stays within the size cap.
Each entry comes from the runtime's own function for its constant
(``gamma``, ``shrink_fraction``, ``depth_for``, ``phi``, ``phi_lower_bound``,
``part_bound``, ``tight_pair_copy_threshold``, ``blowup_copy_bound``)
called with LogValue arguments.  Once even the logarithm's exponent would
stop fitting in memory an entry saturates: its ``log2`` becomes an upper
bound and ``saturated`` is set.  Upper bounds are sound for every use the
runtime makes of these constants (all are of the form "is v * size below
1").  phi(delta', eta') and N are the exceptions: without an exact value
their ``log2`` is a lower bound, which is what count comparisons need.
phi's denominator -ln(1-delta') skips log1p when delta' < 2^-(prec+2): the
series' tail is then below rounding, so the answer is delta' itself,
exactly (see :func:`phi_entry`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .embedding import blowup_copy_bound, tight_pair_copy_threshold
from .extraction import depth_for, part_bound, phi, phi_lower_bound, shrink_fraction
from .fullpair import gamma
from .values import LogValue, ceil_frac, scalar_min


def _minus_ln_one_minus(log2: mpmath.mpf) -> mpmath.mpf:
    """-ln(1 - 2^log2) at the working precision (see :func:`phi_entry`)."""
    x = mpmath.power(2, log2)
    return x if log2 < -(mpmath.mp.prec + 2) else -mpmath.log1p(-x)


def phi_entry(delta: LogValue, eta: LogValue) -> LogValue:
    """phi(delta, eta): least p >= 1 with (1-delta)^p <= eta.

    Exact when delta is a tame rational.  Otherwise a lower bound: the
    analytic value ln(1/eta)/(-ln(1-delta)), which for the tiny deltas
    that reach this path is accurate far beyond the ledger's tolerance, or,
    when delta or eta is saturated (only an upper bound), phi_lower_bound.
    Neither is marked saturated, since neither is an upper bound.

    The denominator -ln(1-delta) is x(1 + x/2 + x^2/3 + ...) for
    x = 2^delta.log2.  Once x < 2^-(prec+2) the tail is below a quarter of
    a unit in the last place of x, so the result rounds to x itself and
    x is used without calling log1p: the same mpf, not an approximation.
    """
    if delta.exact is not None and eta.exact is not None and delta.exact >= Fraction(1, 10**6):
        return LogValue.of(phi(delta.exact, eta.exact))
    if delta.saturated or eta.saturated:
        return phi_lower_bound(delta, eta)
    denom = _minus_ln_one_minus(delta.log2)
    return LogValue(mpmath.log(-eta.log2 * mpmath.log(2) / denom, 2))


@dataclass
class ConstantsLedger:
    h: int
    eps: Fraction
    eta: Fraction
    theta: Fraction
    entries: dict[str, LogValue]

    def get(self, name: str) -> LogValue:
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


def weak_restricted_entries(h: int, eps: LogValue) -> tuple[LogValue, LogValue, int, LogValue]:
    """(shrink eta, per-run delta = eta^s, depth s, copy threshold kappa)
    for the density-subset extractor run at targets (eps, eps)."""
    eta = shrink_fraction(h, eps)
    s = depth_for(eps)
    kappa = eta ** (s * h) * tight_pair_copy_threshold(h, eps / 4)
    return eta, eta**s, s, kappa


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
    e: dict[str, LogValue] = {}
    xi = theta / 4
    e["xi"] = LogValue.of(xi)
    eps_t: dict[int, LogValue] = {h: LogValue.of(min(eps, xi**h))}
    e[f"eps[{h}]"] = eps_t[h]
    lam: dict[tuple[int, int], LogValue] = {}
    gam: dict[tuple[int, int], LogValue] = {}
    one = LogValue.of(1)
    third = LogValue.of(Fraction(1, 3))
    for t in range(h - 1, -1, -1):
        lam[(t, t)] = one
        gam[(t, t)] = one
        e[f"lambda[{t},{t}]"] = one
        e[f"Gamma[{t},{t}]"] = one
        for i in range(t - 1, -1, -1):
            gam[(t, i)] = lam[(t, i + 1)] * gam[(t, i + 1)]
            c = third * (eps_t[t + 1] * gam[(t, i + 1)])
            lam[(t, i)] = gamma(c, xi)
            e[f"Gamma[{t},{i}]"] = gam[(t, i)]
            e[f"lambda[{t},{i}]"] = lam[(t, i)]
        eps_t[t] = eps_t[t + 1] * lam[(t, 0)]
        e[f"eps[{t}]"] = eps_t[t]
    eps_prime = scalar_min(*(eps_t[t + 1] * gam[(t, 0)] for t in range(h)))
    e["eps_prime"] = eps_prime

    # delta' = 1/4 * (weak-restricted fraction at eps'/8); kappa' likewise
    w_eta, w_delta, w_s, w_kappa = weak_restricted_entries(h, eps_prime / 8)
    e["exact_restricted_shrink"] = w_eta
    e["exact_restricted_depth"] = LogValue.of(w_s)
    delta_prime = LogValue.of(Fraction(1, 4)) * w_delta
    e["delta_prime"] = delta_prime
    e["exact_restricted_copy_threshold"] = w_kappa

    gamma_min = scalar_min(*(gam[(t, 0)] for t in range(h)))
    eta_prime = LogValue.of(eta / 2) * (delta_prime * gamma_min)
    e["eta_prime"] = eta_prime

    phi_val = phi_entry(delta_prime, eta_prime)
    e["phi(delta_prime,eta_prime)"] = phi_val
    e["N"] = part_bound(h, phi_val)

    big_lam: dict[tuple[int, int], LogValue] = {}
    for i in range(1, h + 1):
        big_lam[(i, i)] = delta_prime * gam[(i - 1, 0)]
        e[f"Lambda[{i},{i}]"] = big_lam[(i, i)]
        for t in range(i, h):
            big_lam[(t + 1, i)] = lam[(t, i)] * big_lam[(t, i)]
            e[f"Lambda[{t + 1},{i}]"] = big_lam[(t + 1, i)]

    kappa_first = blowup_copy_bound(h, xi, [big_lam[(h, i)] for i in range(1, h + 1)])

    # section-2 constants at the ledger's own (h, eps)
    e["tight_copy_threshold"] = tight_pair_copy_threshold(h, LogValue.of(eps))
    s2_eta, s2_delta, s2_s, s2_kappa = weak_restricted_entries(h, LogValue.of(eps))
    e["density_shrink"] = s2_eta
    e["density_depth"] = LogValue.of(s2_s)
    e["weak_restricted_fraction"] = s2_delta
    e["weak_restricted_copy_threshold"] = s2_kappa

    # peel-stage copy threshold: eta'^h * (weak-restricted threshold at eps)
    e["peel_fraction"] = s2_delta  # per-peel size fraction at eps
    kappa_peel = eta_prime**h * s2_kappa
    e["kappa"] = scalar_min(kappa_first, w_kappa, LogValue.of(Fraction(1, 2**h)) * kappa_peel)

    # section-4 constants as functions of (h, eps) alone
    big_k = ceil_frac(4 / eps)
    e["path_length"] = LogValue.of(big_k)
    e["level_eps"] = LogValue.of(Fraction(1, h ** (2 * big_k)) * eps)
    e["level_eta"] = LogValue.of(Fraction(1, h**2))
    e["level_theta"] = LogValue.of(Fraction(1, 12 * h ** (2 * big_k)) * eps)
    # the lengthen-stage thresholds reuse this ledger's kappa/N shape at
    # the level parameters; at tower scale only their logs are reported
    e["lengthen_copy_scale"] = LogValue.of(Fraction(1, h ** (2 * big_k * h)))
    base_parts = LogValue.of(2400 / eps**2)
    e["base_part_bound"] = base_parts
    e["main_part_bound_scale"] = LogValue.of(h ** (2 * big_k)) * base_parts

    return ConstantsLedger(h, eps, eta, theta, e)
