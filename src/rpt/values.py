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
answer unambiguous.  :func:`least_power` decides each test q^p <= x with
integer brackets of the two sides at a precision that doubles while they
overlap, and builds the exact powers only once that precision would hold
them whole.
"""

from __future__ import annotations

import re
import sys
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
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        digits = max(map(len, re.findall("[0-9]+", text)), default=0)
        if limit and digits > limit:
            raise ValueError(
                f"an integer of {digits} digits exceeds Python's limit of {limit} integer digits"
            ) from None
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ceil(x * k) and floor(x * k), on integers: no Fraction is built for the product
def ceil_frac(x: Fraction, k: int = 1) -> int:
    return -((-x.numerator * k) // x.denominator)


def floor_frac(x: Fraction, k: int = 1) -> int:
    return x.numerator * k // x.denominator


def _top_bits_ratio(x: Fraction) -> tuple[int, mpmath.mpf]:
    """(shift, r) with x = 2^shift * r and r in (1/2, 2), r rounded to an mpf
    from the top bits of the aligned numerator and denominator."""
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
    return shift, mpmath.mpf(num) / mpmath.mpf(den)


def log2_fraction(x: Fraction) -> mpmath.mpf:
    if x <= 0:
        raise ValueError("log2 of a nonpositive rational")
    shift, r = _top_bits_ratio(x)
    return mpmath.mpf(shift) + mpmath.log(r, 2)


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
    # small guard band; refusing to answer beats answering wrongly.  Only
    # the strict ones exist: equality is undecidable on this scale.
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

    def __gt__(self, other) -> bool:
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

    The log-scale quotient ln(x)/ln(q) is only a guess; exact integer
    tests of q^p <= x adjust it and decide the answer, so it never
    depends on rounding.  Each test brackets both sides with fixed-precision
    powers (:func:`_power_bracket`) and doubles the precision while the
    brackets overlap; the exact powers are built only once that precision
    would hold them whole.  A tie q^p = x can only be decided by exact
    values; any other test is settled by brackets of about
    log2(p) + log2(1/gap) bits, gap being the relative distance of q^p from x.
    """
    if not (0 < q < 1 and 0 < x < 1):
        raise ValueError("least_power needs q, x in (0,1)")
    a, b, c, d = q.numerator, q.denominator, x.numerator, x.denominator
    p = _guess_power(q, x)
    if _power_le(a, b, c, d, p):
        while p > 1 and _power_le(a, b, c, d, p - 1):
            p -= 1
        return p
    p += 1
    while not _power_le(a, b, c, d, p):
        p += 1
    return p


def _guess_power(q: Fraction, x: Fraction) -> int:
    """ceil(ln(x) / ln(q)) on the log scale, at least 1.

    A guess too long for the working precision is recomputed with enough
    bits to land within one of the least power.
    """
    prec = mpmath.mp.prec
    while True:
        with mpmath.workprec(prec):
            guess = max(int(mpmath.ceil(_ln(x) / _ln(q))), 1)
        if guess.bit_length() + 64 <= prec:
            return guess
        prec = guess.bit_length() + 64


def _ln(y: Fraction) -> mpmath.mpf:
    """ln(y) for y in (0, 1).  Above 1/2 it is log1p(-(1-y)), which stays
    nonzero and accurate when y is closer to 1 than the working precision."""
    if y <= Fraction(1, 2):
        return log2_fraction(y) * mpmath.ln2
    shift, r = _top_bits_ratio(1 - y)
    return mpmath.log1p(-mpmath.ldexp(r, shift))


def _power_le(a: int, b: int, c: int, d: int, p: int) -> bool:
    """a^p * d <= c * b^p for positive integers with a < b, decided exactly.

    Fixed-precision brackets decide it while they do not overlap, starting
    at twice p's bit length plus a margin and doubling.  Once the precision
    would hold every factor uncut, the exact integers decide instead.
    """
    exact_bits = max(p * b.bit_length(), c.bit_length(), d.bit_length())
    k = 2 * p.bit_length() + 64
    while k < exact_bits:
        a_lo, a_hi, a_e = _power_bracket(a, p, k)
        b_lo, b_hi, b_e = _power_bracket(b, p, k)
        c_lo, c_hi, c_e = _cut(c, c, 0, k)
        d_lo, d_hi, d_e = _cut(d, d, 0, k)
        if _scaled_le(a_hi * d_hi, a_e + d_e, c_lo * b_lo, c_e + b_e):
            return True
        if not _scaled_le(a_lo * d_lo, a_e + d_e, c_hi * b_hi, c_e + b_e):
            return False
        k *= 2
    return _exact_power_le(a, b, c, d, p)


def _exact_power_le(a: int, b: int, c: int, d: int, p: int) -> bool:
    return a**p * d <= c * b**p


def _power_bracket(n: int, p: int, k: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2^e <= n^p <= hi * 2^e, for n >= 1 and p >= 1.

    Exponentiation by squaring on mantissas cut to k bits after every
    product, lo rounded down and hi rounded up, so the bracket's relative
    width grows about linearly in p * 2^-k.  No cut happens while n^p fits
    in k bits, so then lo == hi == n^p.
    """
    lo, hi, e = 1, 1, 0
    base_lo, base_hi, base_e = _cut(n, n, 0, k)
    while True:
        if p & 1:
            lo, hi, e = _cut(lo * base_lo, hi * base_hi, e + base_e, k)
        p >>= 1
        if not p:
            return lo, hi, e
        base_lo, base_hi, base_e = _cut(base_lo * base_lo, base_hi * base_hi, 2 * base_e, k)


def _cut(lo: int, hi: int, e: int, k: int) -> tuple[int, int, int]:
    """The bracket [lo, hi] * 2^e with hi cut to k bits: lo floored, hi ceiled."""
    s = hi.bit_length() - k
    if s <= 0:
        return lo, hi, e
    return lo >> s, -(-hi >> s), e + s


def _scaled_le(m1: int, e1: int, m2: int, e2: int) -> bool:
    """m1 * 2^e1 <= m2 * 2^e2 for positive integers m1, m2."""
    top1, top2 = m1.bit_length() + e1, m2.bit_length() + e2
    if top1 != top2:
        return top1 < top2
    # equal tops: the shift is at most the longer mantissa's length
    if e1 >= e2:
        return m1 << (e1 - e2) <= m2
    return m1 <= m2 << (e2 - e1)
