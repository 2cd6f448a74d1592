"""Exact-rational and log-scale numeric plumbing.

All run-time thresholds in this package are exact ``fractions.Fraction``
values; floats never enter a comparison that decides a verification
outcome.  Constant recursions whose values are towers of exponentials
cannot be materialised as rationals, so they are tracked on a base-2
logarithmic scale with high-precision mpmath floats instead.
:class:`LogValue` is the one log-scale number type: its ``log2`` always
holds, an exact rational rides along while it stays below a size cap, and
a saturation flag marks a ``log2`` that is only an upper bound.  The few
decisions that must be made about one (is ``v * k`` below 1, what is
``ceil(v * k)``) are only answered when the log-scale bound makes the
answer unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

# Enough head-room that the ledger's 1e-12 relative-error acceptance
# check is nowhere near the working precision.
mpmath.mp.prec = 240

# A LogValue keeps its exact rational only while it takes at most this many bits.
EXACT_BITS_CAP = 300_000
# Decimal p/q emission is capped separately: int->str is quadratic.
_EXACT_PRINT_BITS = 20_000


class UndecidableAtScale(Exception):
    """A log-scale bound was too coarse to decide an exact comparison."""


def parse_fraction(text: str) -> Fraction:
    """Parse 'p/q', an integer, or a decimal string into an exact Fraction.

    Decimal strings are expanded in base 10 (Fraction('0.3') == 3/10),
    never routed through binary floats.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def floor_frac(x: Fraction) -> int:
    return x.numerator // x.denominator


def log2_fraction(x: Fraction) -> mpmath.mpf:
    if x <= 0:
        raise ValueError("log2 of a nonpositive rational")
    # Split into exponent + mantissa so huge numerators/denominators
    # (tens of thousands of bits) do not overflow the mpf conversion.
    num, den = x.numerator, x.denominator
    shift = num.bit_length() - den.bit_length()
    if shift > 0:
        den <<= shift
    else:
        num <<= -shift
    # Both now have the same bit length.  Converting an integer of 10^5+
    # bits to mpf is quadratic in pure-Python mpmath, so drop the same
    # number of low bits from each, keeping a sticky 1 when any dropped bit
    # is set.  The kept 4*prec bits hold every bit down to well past the
    # rounding position, and the sticky bit tells "exactly on a rounding
    # boundary" from "just above it", so each mpf, and hence the quotient
    # and the logarithm, is bit-for-bit the one the full integers give.
    drop = num.bit_length() - 4 * mpmath.mp.prec
    if drop > 0:
        low = (1 << drop) - 1
        num = (num >> drop) | bool(num & low)
        den = (den >> drop) | bool(den & low)
    return mpmath.mpf(shift) + mpmath.log(mpmath.mpf(num) / mpmath.mpf(den), 2)


def _bits(x: Fraction) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _tame(x: Fraction) -> Fraction | None:
    """x while its binary size stays within the exactness cap, else None."""
    return x if _bits(x) <= EXACT_BITS_CAP else None


@dataclass(frozen=True)
class LogValue:
    """A positive real represented by its base-2 logarithm.

    ``exact`` is the value as a rational while that takes at most
    ``EXACT_BITS_CAP`` bits, else None.  ``saturated`` means ``log2`` is
    only an upper bound: the value is too small for its own logarithm to
    be represented.  Arithmetic keeps ``exact`` under the cap and carries
    ``saturated`` along; comparisons look at ``log2`` alone.
    """

    log2: mpmath.mpf
    exact: Fraction | None = None
    saturated: bool = False

    @staticmethod
    def of(x: "Fraction | int | LogValue") -> "LogValue":
        if isinstance(x, LogValue):
            return x
        x = Fraction(x)
        return LogValue(log2_fraction(x), _tame(x))

    def __mul__(self, other: "Fraction | int | LogValue") -> "LogValue":
        o = LogValue.of(other)
        exact = None if self.exact is None or o.exact is None else _tame(self.exact * o.exact)
        return LogValue(self.log2 + o.log2, exact, self.saturated or o.saturated)

    __rmul__ = __mul__

    def __add__(self, other: "Fraction | int | LogValue") -> "LogValue":
        o = LogValue.of(other)
        if self.exact is not None and o.exact is not None:
            return LogValue.of(self.exact + o.exact)
        lo, hi = sorted((self.log2, o.log2))
        # 2^lo is lost in 2^hi once the gap exceeds the working precision
        tail = mpmath.log(1 + mpmath.power(2, lo - hi), 2) if hi - lo <= mpmath.mp.prec else 0
        return LogValue(hi + tail, None, self.saturated or o.saturated)

    __radd__ = __add__

    def __truediv__(self, other: "Fraction | int | LogValue") -> "LogValue":
        o = LogValue.of(other)
        if o.saturated:
            raise ValueError("dividing by a saturated value leaves no upper bound")
        exact = None if self.exact is None or o.exact is None else _tame(self.exact / o.exact)
        return LogValue(self.log2 - o.log2, exact, self.saturated)

    def __pow__(self, k: int) -> "LogValue":
        exact = None
        if self.exact is not None and abs(k) * _bits(self.exact) <= EXACT_BITS_CAP:
            exact = self.exact**k
        return LogValue(self.log2 * k, exact, self.saturated)

    # Comparisons against exact rationals go through the log scale with a
    # small guard band; refusing to answer beats answering wrongly.
    _GUARD = mpmath.mpf("1e-30")

    def _cmp(self, other: "Fraction | int | LogValue") -> int:
        o = LogValue.of(other).log2
        if self.log2 < o - self._GUARD:
            return -1
        if self.log2 > o + self._GUARD:
            return 1
        raise UndecidableAtScale(
            f"log-scale values too close to compare: {self.log2} vs {o}"
        )

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) < 0  # equality is undecidable on this scale

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) > 0

    def __str__(self) -> str:
        return f"2^{mpmath.nstr(self.log2, 17)}"

    @property
    def printable_exact(self) -> Fraction | None:
        """The exact value when it is small enough to print in decimal."""
        x = self.exact
        return x if x is not None and _bits(x) <= _EXACT_PRINT_BITS else None

    def describe(self) -> str:
        x = self.printable_exact
        if x is not None:
            return str(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
        prefix = "<= " if self.saturated else ""
        return f"{prefix}{self}"


Scalar = Fraction | LogValue


def scalar_log2(x: Scalar) -> mpmath.mpf:
    return x.log2 if isinstance(x, LogValue) else log2_fraction(x)


def scalar_min(*xs: Scalar) -> Scalar:
    return min(xs, key=scalar_log2)  # ties keep the first


def scalar_ceil_mul(x: Scalar, k: int) -> int:
    """ceil(x * k) for positive x and k >= 1, decided exactly.

    A LogValue is decided by its ``exact`` when it has one; otherwise the
    answer is only returned when the bound pins it to 1 (x * k <= 1/2
    suffices since the product is positive).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if isinstance(x, LogValue) and x.exact is not None:
        x = x.exact
    if isinstance(x, Fraction):
        return ceil_frac(x * k)
    if x.log2 + mpmath.log(k, 2) < -1:
        return 1
    raise UndecidableAtScale(f"cannot take ceil of {x} * {k} from logs alone")


def least_power(q: Fraction, x: Fraction) -> int:
    """Least integer p >= 1 with q^p <= x, for q and x in (0, 1).

    The log-scale quotient log(x)/log(q) is only a guess; the exact
    rational comparisons that adjust it decide the answer, so it never
    depends on rounding.  One power per step keeps the cost near that of
    the final power, where a factor-at-a-time product would be quadratic.
    """
    if not (0 < q < 1 and 0 < x < 1):
        raise ValueError("least_power needs q, x in (0,1)")
    p = max(int(mpmath.ceil(log2_fraction(x) / log2_fraction(q))), 1)
    while q**p > x:
        p += 1
    while p > 1 and q ** (p - 1) <= x:
        p -= 1
    return p
