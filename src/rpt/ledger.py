"""The paper's constant formulas, and their log-scale evaluation.

This module owns every constant formula the pipeline uses: phi(delta, eta)
(cached, with its log-scale lower bound ``phi_lower_bound``), the part bound
N = C(h,2) + (h-1) phi, the extractor's depth ``depth_for`` and shrink
``shrink_fraction``, the copy thresholds ``tight_pair_copy_threshold`` and
``blowup_copy_bound``, and gamma(c, xi) = (1/2)(2 xi)^(12/c).  The algorithm
modules (``extraction``, ``embedding``, ``fullpair``, ``keypartition``)
import them from here, and ``ledger`` itself imports only ``values``, so
building a ledger (``rpt constants``) compiles none of the algorithm
modules.

The guarantee constants are towers of exponentials: each row of the
lambda/Gamma recursion feeds the previous row's product through gamma,
which exponentiates the running logarithm.  Every entry of
:func:`build_ledger` is a :class:`~rpt.values.LogValue`: a base-2
logarithm (mpmath, 240-bit mantissas) with the exact rational kept
alongside while its binary representation stays within the size cap.
Each entry comes from the runtime's own function for its constant, the
one defined here, called with LogValue arguments.  Once even the
logarithm's exponent would stop fitting in memory an entry saturates: its
``log2`` becomes an upper bound and ``saturated`` is set.  Upper bounds
are sound for every use the runtime makes of these constants (all are of
the form "is v * size below 1").  phi(delta', eta') and N are the
exceptions: their ``log2`` is a lower bound, which is what count
comparisons need.  phi's denominator -ln(1-delta') skips
log1p when delta' < 2^-(prec+2): the series' tail is then below rounding,
so the answer is delta' itself, exactly (see :func:`phi_entry`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import mpmath

from .values import (
    EXACT_BITS_CAP,
    LogValue,
    Scalar,
    UndecidableAtScale,
    ceil_frac,
    least_power,
    log2_fraction,
    scalar_log2,
    scalar_min,
)

# |log2 c| above this would make gamma's logarithm exponent
# unrepresentable; saturate instead.
_LOG_INPUT_CAP = mpmath.mpf(2) ** 46
_SATURATED_LOG2 = -(mpmath.mpf(2) ** 46)
# An extraction depth past this many bits is refused, not built.
_DEPTH_BITS_CAP = 2**26


@lru_cache(maxsize=16)
def phi(delta: Fraction, eta: Fraction) -> int:
    """Least integer p >= 1 with (1-delta)^p <= eta, decided exactly.

    Cached: one run asks for the same (delta', eta') in the peel chain, its
    self-check and each key-lemma bound."""
    if not (0 < delta < 1 and 0 < eta < 1):
        raise ValueError("phi needs delta, eta in (0,1)")
    return least_power(1 - delta, eta)


def phi_lower_bound(delta: Scalar, eta: Scalar) -> LogValue:
    """A lower bound on phi(delta, eta) from upper bounds on delta <= 1/2
    and eta: phi >= ln(1/eta) / -ln(1-delta) >= ln(1/eta) / (delta (1+delta)),
    and 1 + delta <= 2 costs one bit."""
    return LogValue(
        mpmath.log(-scalar_log2(eta) * mpmath.log(2), 2) - scalar_log2(delta) - 1
    )


def part_bound(h: int, p: int | LogValue) -> int | LogValue:
    """N = C(h,2) + (h-1) * p for p = phi(delta', eta'), an int or a LogValue."""
    return comb(h, 2) + (h - 1) * p


@lru_cache(maxsize=16)
def depth_for(eps: Scalar) -> int:
    """ceil(log_{3/2}(eps^-2)): least s >= 1 with (3/2)^s >= eps^-2.

    Cached, as phi is: a run asks for the same eps's depth several times.

    Exact for a rational eps or a LogValue that keeps one; otherwise the
    log-scale quotient rounded up, which on an exact power of 2/3 may
    exceed the exact answer by one.  A quotient of more than
    ``_DEPTH_BITS_CAP`` bits raises UndecidableAtScale instead of building
    the integer: the ledger would go on to take 2^(delta'.log2), whose
    exponent has about twice as many bits.
    """
    if isinstance(eps, LogValue):
        if eps.exact is None:
            depth = -2 * eps.log2 / mpmath.log(mpmath.mpf(3) / 2, 2)
            if mpmath.mag(depth) > _DEPTH_BITS_CAP:
                raise UndecidableAtScale(
                    f"the extraction depth s = ceil(log_(3/2) eps^-2) at eps = {eps} "
                    f"has more than {_DEPTH_BITS_CAP} bits"
                )
            return max(int(mpmath.ceil(depth)), 1)
        eps = eps.exact
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    return least_power(Fraction(2, 3), eps**2)


def shrink_fraction(h: int, eps: Scalar) -> Scalar:
    """Per-level size shrink at density target eps: 1/2 * (2h)^-2 * (eps/4)^(h-1)."""
    return Fraction(1, 2) * Fraction(1, (2 * h) ** 2) * (eps / 4) ** (h - 1)


def tight_pair_copy_threshold(h: int, eps: Scalar) -> Scalar:
    """(4h)^-h * eps^C(h,2): the copy density below which a tight pair must
    exist.  A LogValue eps (as in the constants ledger) gives a LogValue."""
    return Fraction(1, (4 * h) ** h) * eps ** comb(h, 2)


def blowup_copy_bound(h: int, eps: Fraction, sizes) -> Scalar:
    """(1-eps)^(h-1) * eps^C(h,2) * prod |D_i|.  Sizes may be LogValues, as
    the constants ledger's Lambda rows are; the bound is then one too."""
    bound = (1 - eps) ** (h - 1) * eps ** comb(h, 2)
    for s in sizes:
        bound *= s
    return bound


def gamma(c: Scalar, eps: Fraction) -> LogValue:
    """gamma(c, eps) = (1/2) * (2*eps)^(12/c) on the log scale.

    Exact when c is exact and 12/c is an integer, within the exactness
    cap.  A saturated c, or one so small that the result's logarithm would
    overflow, gives a saturated value whose log2 is only an upper bound.
    """
    if not (c.log2 < 0 if isinstance(c, LogValue) else 0 < c < 1):
        raise ValueError("c must lie in (0,1)")
    if not Fraction(0) < eps < Fraction(1, 4):
        raise ValueError("eps must lie in (0,1/4)")
    c = LogValue.of(c)
    if c.saturated or -c.log2 > _LOG_INPUT_CAP:
        return LogValue(_SATURATED_LOG2, saturated=True)
    base = 2 * eps
    log2 = mpmath.mpf(-1) + mpmath.mpf(12) * mpmath.power(2, -c.log2) * log2_fraction(base)
    exact = None
    exponent = None if c.exact is None else 12 / c.exact
    if exponent is not None and exponent.denominator == 1:
        k = exponent.numerator
        if k * max(base.numerator.bit_length(), base.denominator.bit_length()) <= EXACT_BITS_CAP:
            exact = base**k / 2
    return LogValue(log2, exact)


def _minus_ln_one_minus(log2: mpmath.mpf) -> mpmath.mpf:
    """-ln(1 - 2^log2) at the working precision (see :func:`phi_entry`)."""
    x = mpmath.power(2, log2)
    return x if log2 < -(mpmath.mp.prec + 2) else -mpmath.log1p(-x)


def phi_entry(delta: LogValue, eta: LogValue) -> LogValue:
    """phi(delta, eta): least p >= 1 with (1-delta)^p <= eta, as a lower bound.

    The analytic value ln(1/eta)/(-ln(1-delta)), which for the tiny deltas
    that reach it is accurate far beyond the ledger's tolerance, or, when
    delta or eta is saturated (only an upper bound), phi_lower_bound.
    Neither is marked saturated, since neither is an upper bound.

    No exact branch is needed: the one caller, build_ledger, passes
    delta' = eta_w^s / 4 with eta_w = shrink_fraction(h, eps'/8) and
    s = depth_for(eps'/8).  As eps' <= eps_h <= xi^h < 2^-6, eta_w <=
    2^-5 (eps'/32)^(h-1) < 2^-16 and s >= log_{3/2} 2^18 > 30, so delta' <
    2^-498 and phi > ln(1/eta') 2^497 has no affordable exact value.

    The denominator -ln(1-delta) is x(1 + x/2 + x^2/3 + ...) for
    x = 2^delta.log2.  Once x < 2^-(prec+2) the tail is below a quarter of
    a unit in the last place of x, so the result rounds to x itself and
    x is used without calling log1p: the same mpf, not an approximation.
    """
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


def key_domain(
    eps: Fraction,
    eta: Fraction,
    theta: Fraction,
    delta_prime: Fraction | None,
    eta_prime: Fraction | None,
) -> None:
    """Reject key-lemma parameters outside the lemma's domain: eps, eta and
    theta in (0, 1/2), delta' in (0, 1/4] and eta' in (0, 1).  The one
    check for the ledger (which passes no delta' and eta'), for KeyParams
    and for key-lemma certificates."""
    for name, val in (("eps", eps), ("eta", eta), ("theta", theta)):
        if not Fraction(0) < val < Fraction(1, 2):
            raise ValueError(f"{name} must lie in (0, 1/2)")
    if delta_prime is not None and not Fraction(0) < delta_prime <= Fraction(1, 4):
        raise ValueError("delta_prime must lie in (0, 1/4]")
    if eta_prime is not None and not Fraction(0) < eta_prime < 1:
        raise ValueError("eta_prime must lie in (0, 1)")


def build_ledger(h: int, eps: Fraction, eta: Fraction, theta: Fraction) -> ConstantsLedger:
    """Evaluate the full constant recursion for an h-vertex pattern.

    Row order matches the defining recursion: xi and eps_h first, then
    for t = h-1 .. 0 the Gamma/lambda row (i = t-1 .. 0) and eps_t, then
    the derived eps', delta', eta', N, the Lambda table, and kappa; the
    section-2 and section-4 constants the surrounding pipeline quotes are
    appended under role names.  The recursion needs h >= 2.
    """
    if h < 2:
        raise ValueError(f"h must be at least 2, got {h}")
    key_domain(eps, eta, theta, None, None)
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
