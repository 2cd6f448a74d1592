import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rpt import ledger, values
from rpt.ledger import build_ledger
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

    @pytest.mark.parametrize("low", [1, 2, 3])
    def test_a_low_guess_walks_up(self, monkeypatch, low):
        # the log-scale guess is only a guess; one below the answer (here
        # 1, 2 or 3 below) is corrected by the exact tests, one step at a time
        cases = [(q, x) for q in (Fraction(1, 2), Fraction(2, 3), Fraction(119, 120))
                 for x in (Fraction(1, 1000), q**7, q**7 * (1 + Fraction(1, 10**9)))]
        want = [_least_power_by_iteration(q, x) for q, x in cases]
        monkeypatch.setattr(values, "_guess_power", lambda q, x: max(
            _least_power_by_iteration(q, x) - low, 1))
        assert [least_power(q, x) for q, x in cases] == want

    @pytest.mark.parametrize("q,x", [(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2)),
                                     (Fraction(1, 2), Fraction(0)), (Fraction(1, 2), Fraction(1))])
    def test_rejects_bad_domain(self, q, x):
        with pytest.raises(ValueError):
            least_power(q, x)


def _least_power_exact(q: Fraction, x: Fraction) -> int:
    """The exact-power least_power that the bracketed one replaced, kept verbatim."""
    if not (0 < q < 1 and 0 < x < 1):
        raise ValueError("least_power needs q, x in (0,1)")
    p = max(int(mpmath.ceil(log2_fraction(x) / log2_fraction(q))), 1)
    while q**p > x:
        p += 1
    while p > 1 and q ** (p - 1) <= x:
        p -= 1
    return p


def _oracle_affordable(q: Fraction, x: Fraction) -> bool:
    """The exact oracle builds q^p, so keep the answer p in the thousands."""
    return float(log2_fraction(x)) * math.log(2) / math.log1p(-float(1 - q)) < 5000


@st.composite
def unit_fractions(draw, max_bits: int = 40) -> Fraction:
    den = draw(st.integers(2, 2**max_bits))
    return Fraction(draw(st.integers(1, den - 1)), den)


def _ledger_scale_pair() -> tuple[Fraction, Fraction]:
    """The largest least_power call of build_ledger(2, 1/4, 1/4, 1/8): depth_for(eps'/8)."""
    seen = []

    def recording(q, x):
        p = least_power(q, x)
        seen.append((p, q, x))
        return p

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ledger, "least_power", recording)
        # depth_for is cached: an earlier ledger would leave nothing to record
        ledger.depth_for.cache_clear()
        build_ledger(2, Fraction(1, 4), Fraction(1, 4), Fraction(1, 8))
    p, q, x = max(seen, key=lambda t: t[0])
    assert p == 504_204 and q == Fraction(2, 3)
    return q, x


class TestLeastPowerMatchesExactPowers:
    """The bracketed least_power against the exact-power one it replaced."""

    @given(unit_fractions(), unit_fractions(60))
    @settings(max_examples=300)
    @example(Fraction(119, 120), Fraction(1, 61440))
    @example(Fraction(1, 2**40), Fraction(1, 2**2000))
    def test_random(self, q, x):
        assume(_oracle_affordable(q, x))
        assert least_power(q, x) == _least_power_exact(q, x)

    @given(unit_fractions(30), st.integers(1, 80))
    @settings(max_examples=200)
    def test_exact_ties(self, q, p):
        assert least_power(q, q**p) == _least_power_exact(q, q**p) == p

    @given(unit_fractions(30), st.integers(1, 80), st.integers(1, 600), st.sampled_from([1, -1]))
    @settings(max_examples=300)
    def test_near_ties(self, q, p, k, sign):
        # a relative gap of 2^-k: past the starting precision the brackets
        # overlap and escalate, and ties end on the exact comparison
        x = q**p * (1 + sign * Fraction(1, 2**k))
        assume(x < 1 and _oracle_affordable(q, x))
        assert least_power(q, x) == _least_power_exact(q, x)

    def test_ledger_scale(self):
        q, x = _ledger_scale_pair()
        assert x.denominator.bit_length() > 290_000
        assert least_power(q, x) == _least_power_exact(q, x) == 504_204


class TestPowerBracket:
    @given(st.integers(1, 2**200), st.integers(1, 400), st.integers(1, 300))
    @settings(max_examples=300)
    @example(3, 1000, 2)
    @example(3, 3, 3)  # 27 = 0b11011: the ceiling of 0b110 carries to 0b1000
    def test_brackets_the_exact_power(self, n, p, k):
        lo, hi, e = values._power_bracket(n, p, k)
        exact = n**p
        assert lo << e <= exact <= hi << e
        assert hi.bit_length() <= k + 1  # rounding up can carry into one more bit
        if exact.bit_length() <= k:
            assert (lo, hi, e) == (exact, exact, 0)


class _Spy:
    """Counts the tests least_power makes, its brackets and its exact
    comparisons."""

    def __init__(self, monkeypatch):
        self.tests = self.exact = self.brackets = 0
        power_le, exact_le, bracket = values._power_le, values._exact_power_le, values._power_bracket

        def counting_power_le(*args):
            self.tests += 1
            return power_le(*args)

        def counting_exact_le(*args):
            self.exact += 1
            return exact_le(*args)

        def counting_bracket(*args):
            self.brackets += 1
            return bracket(*args)

        monkeypatch.setattr(values, "_power_le", counting_power_le)
        monkeypatch.setattr(values, "_exact_power_le", counting_exact_le)
        monkeypatch.setattr(values, "_power_bracket", counting_bracket)

    @property
    def escalated(self) -> bool:
        # two brackets (q's numerator and denominator) per precision tried
        return self.brackets > 2 * (self.tests - self.exact)


class TestLeastPowerWork:
    def test_exact_tie_ends_on_the_exact_comparison(self, monkeypatch):
        q = Fraction(2, 3)
        spy = _Spy(monkeypatch)
        assert least_power(q, q**50) == 50
        assert spy.exact >= 1

    def test_ledger_scale_builds_no_exact_power(self, monkeypatch):
        q, x = _ledger_scale_pair()
        spy = _Spy(monkeypatch)
        assert least_power(q, x) == 504_204
        assert spy.exact == 0 and not spy.escalated
        assert spy.tests == 2  # the guess, then the power below it

    def test_near_tie_escalates_without_an_exact_power(self, monkeypatch):
        q = Fraction(2, 3)
        x = q**1000 * (1 + Fraction(1, 2**300))
        spy = _Spy(monkeypatch)
        assert least_power(q, x) == 1000
        assert spy.escalated and spy.exact == 0

    def test_starting_precision_grows_with_p(self, monkeypatch):
        # 1 - q = 10^-30: consecutive powers differ by about 2^-100 at
        # p ~ 2^99, which a fixed 128-bit bracket cannot separate
        spy = _Spy(monkeypatch)
        assert least_power(1 - Fraction(1, 10**30), Fraction(1, 2)) == 693147180559945309417232121458
        assert spy.exact == 0 and not spy.escalated and spy.tests == 2

    @pytest.mark.parametrize("q,x,p", [
        (Fraction(2, 3), None, 504_204),
        (1 - Fraction(1, 10**30), Fraction(1, 2), 693147180559945309417232121458),
        (Fraction(119, 120), Fraction(1, 61440), 1318),
    ])
    def test_guess_is_the_answer_away_from_ties(self, q, x, p):
        if x is None:
            q, x = _ledger_scale_pair()
        assert values._guess_power(q, x) == p

    def test_q_within_working_precision_of_one(self):
        # log2(q) rounds to 0 at 240 bits here; the guess must not divide by it
        q = 1 - Fraction(1, 2**300)
        with mpmath.workprec(600):
            expected = int(mpmath.ceil(mpmath.log(4) / -mpmath.log1p(-mpmath.mpf(2) ** -300)))
        # a 302-bit guess needs more than the 240-bit working precision
        assert values._guess_power(q, Fraction(1, 4)) == expected
        assert least_power(q, Fraction(1, 4)) == expected

    def test_x_within_working_precision_of_one(self):
        # ln(x) must not round to 0 either, or the guess lands at 1 and the
        # search walks up to 2^300
        q, x = 1 - Fraction(1, 2**600), 1 - Fraction(1, 2**300)
        with mpmath.workprec(900):
            expected = int(mpmath.ceil(mpmath.log1p(-mpmath.mpf(2) ** -300)
                                       / mpmath.log1p(-mpmath.mpf(2) ** -600)))
        assert values._guess_power(q, x) == expected
        assert least_power(q, x) == expected
