import random
from fractions import Fraction

import mpmath
import pytest

from rpt.values import (
    EXACT_BITS_CAP,
    LogValue,
    UndecidableAtScale,
    ceil_frac,
    floor_frac,
    format_fraction,
    least_power,
    log2_fraction,
    parse_fraction,
    scalar_ceil_mul,
    scalar_min,
)


class TestParse:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("1/4", Fraction(1, 4)),
            ("0.25", Fraction(1, 4)),
            ("3", Fraction(3)),
            (" 1/18 ", Fraction(1, 18)),
            ("0.3", Fraction(3, 10)),  # exact base-10, not binary float
        ],
    )
    def test_exact(self, text, expect):
        assert parse_fraction(text) == expect

    @pytest.mark.parametrize("text", ["", "x", "1/0", "1.2.3"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)

    def test_format_round_trip(self):
        x = Fraction(22, 7)
        assert parse_fraction(format_fraction(x)) == x


class TestRounding:
    @pytest.mark.parametrize(
        "x,c,f",
        [
            (Fraction(5, 2), 3, 2),
            (Fraction(-5, 2), -2, -3),
            (Fraction(4), 4, 4),
        ],
    )
    def test_ceil_floor(self, x, c, f):
        assert ceil_frac(x) == c and floor_frac(x) == f


class TestLogValue:
    def test_huge_fraction_log(self):
        x = Fraction(1, 2**100000)
        assert abs(log2_fraction(x) + 100000) < 1e-20

    def test_ordering(self):
        a = LogValue.of(Fraction(1, 8))
        b = LogValue.of(Fraction(1, 4))
        assert a < b and b > a
        assert a < Fraction(1, 4)

    def test_near_equal_is_undecidable(self):
        a = LogValue.of(Fraction(1, 3))
        with pytest.raises(UndecidableAtScale):
            _ = a < Fraction(1, 3)

    def test_arithmetic(self):
        a = LogValue.of(Fraction(1, 2))
        assert abs((a * Fraction(1, 2)).log2 + 2) < 1e-20
        assert abs((a**3).log2 + 3) < 1e-20
        assert abs((a / Fraction(1, 4)).log2 - 1) < 1e-20

    def test_scalar_helpers(self):
        tiny = LogValue.of(Fraction(1, 2**500))
        assert scalar_min(Fraction(1, 4), tiny) is tiny
        assert scalar_ceil_mul(tiny, 1000) == 1
        assert scalar_ceil_mul(Fraction(5, 2), 2) == 5
        assert scalar_ceil_mul(LogValue.of(Fraction(3)), 7) == 21
        with pytest.raises(UndecidableAtScale):
            scalar_ceil_mul(LogValue(LogValue.of(Fraction(3)).log2), 7)

    def test_log2_matches_untruncated_conversion(self):
        # log2_fraction drops low bits before the mpf conversion; the result
        # must be bit-identical to converting the full integers.
        def untruncated(x):
            num, den = x.numerator, x.denominator
            shift = num.bit_length() - den.bit_length()
            if shift > 0:
                den <<= shift
            else:
                num <<= -shift
            return mpmath.mpf(shift) + mpmath.log(mpmath.mpf(num) / mpmath.mpf(den), 2)

        rng = random.Random(3)
        cases = []
        for _ in range(100):
            cases.append(Fraction(rng.getrandbits(rng.randint(1, 6000)) + 1,
                                  rng.getrandbits(rng.randint(1, 6000)) + 1))
        for bits in (1000, 3000):
            top = 1 << bits
            for below in (240, 241, 242, 960, 961):  # near and on rounding ties
                for low in (0, 1):
                    cases.append(Fraction(top + (1 << (bits - below)) + low, 3))
                    cases.append(Fraction(7, top - (1 << (bits - below)) - low))
        for x in cases:
            assert log2_fraction(x) == untruncated(x)


class TestLogValueExactness:
    def test_of_keeps_exact_up_to_the_cap(self):
        at_cap = Fraction(1, 2 ** (EXACT_BITS_CAP - 2))  # 1 + (cap - 1) bits
        assert LogValue.of(at_cap).exact == at_cap
        assert LogValue.of(at_cap / 2).exact is None
        assert LogValue.of(at_cap / 2).log2 == -(EXACT_BITS_CAP - 1)

    def test_mul_and_div_keep_exact_up_to_the_cap(self):
        k = EXACT_BITS_CAP // 2
        a = LogValue.of(Fraction(1, 2**k))
        b = LogValue.of(Fraction(1, 2 ** (EXACT_BITS_CAP - k - 2)))
        assert (a * b).exact == Fraction(1, 2 ** (EXACT_BITS_CAP - 2))
        assert (a * b * Fraction(1, 2)).exact is None
        assert (Fraction(1, 2) * (a * b)).exact is None
        assert (a / LogValue.of(2 ** (EXACT_BITS_CAP - k - 2))).exact == (a * b).exact
        assert (a / LogValue.of(2 ** (EXACT_BITS_CAP - k - 1))).exact is None

    def test_pow_keeps_exact_up_to_the_cap(self):
        x = LogValue.of(Fraction(1, 2**99))  # 101 bits
        k = EXACT_BITS_CAP // 101
        assert (x**k).exact == Fraction(1, 2 ** (99 * k))
        assert (x ** (k + 1)).exact is None
        assert (x ** (k + 1)).log2 == -99 * (k + 1)

    def test_saturated_propagates(self):
        sat = LogValue(mpmath.mpf(-10), saturated=True)
        half = LogValue.of(Fraction(1, 2))
        assert not (half * half).saturated and not (half**3).saturated
        for v in (sat * half, half * sat, sat * Fraction(1, 2), Fraction(1, 2) * sat,
                  sat**3, sat / 4):
            assert v.saturated and v.exact is None
        assert (sat * half).log2 == -11 and (sat**3).log2 == -30
        with pytest.raises(ValueError):
            _ = half / sat

    def test_add(self):
        # exact operands give the exact sum and its own log2
        total = 3 + 2 * LogValue.of(Fraction(5, 7))
        assert total.exact == Fraction(31, 7) and total.log2 == LogValue.of(Fraction(31, 7)).log2
        # log-scale operands: log2(2^a + 2^b) to working precision
        for a, b in ((0, 0), (10, 3), (-5, 40), (100, 100 - 200)):
            v = LogValue(mpmath.mpf(a)) + LogValue(mpmath.mpf(b))
            want = mpmath.log(mpmath.power(2, a) + mpmath.power(2, b), 2)
            assert v.exact is None and abs(v.log2 - want) < mpmath.mpf(2) ** -200, (a, b)
        # past the working precision the smaller term is dropped outright
        huge = LogValue(mpmath.mpf("1e30"))
        assert (huge + 3).log2 == huge.log2 and (3 + huge).log2 == huge.log2
        sat = LogValue(mpmath.mpf(-10), saturated=True)
        assert (sat + LogValue(mpmath.mpf(-12))).saturated

    def test_describe(self):
        assert LogValue.of(Fraction(3, 8)).describe() == "3/8"
        assert LogValue.of(5).describe() == "5"
        assert LogValue(mpmath.mpf(-3)).describe() == "2^-3.0"
        assert LogValue(mpmath.mpf(-3), saturated=True).describe() == "<= 2^-3.0"


def _least_power_by_iteration(q: Fraction, x: Fraction) -> int:
    p, power = 1, q
    while power > x:
        p += 1
        power *= q
    return p


class TestLeastPower:
    def test_matches_iteration(self):
        for q in (Fraction(1, 2), Fraction(2, 3), Fraction(119, 120), Fraction(999, 1000)):
            for x in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 1000), q, q**7, q**7 * (1 + Fraction(1, 10**9))):
                assert least_power(q, x) == _least_power_by_iteration(q, x), (q, x)

    @pytest.mark.parametrize("q,x", [(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)),
                                     (Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1))])
    def test_rejects_bad_domain(self, q, x):
        with pytest.raises(ValueError):
            least_power(q, x)
