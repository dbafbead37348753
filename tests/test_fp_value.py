"""Unit + property tests for repro.fp.value (FPValue)."""

import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import normal_doubles
from repro.fp import (BINARY32, BINARY64, EXTENDED75, FpClass, FPValue,
                      RoundingMode, fp_to_word, word_to_fp)


class TestFromToFloat:
    @given(normal_doubles())
    def test_roundtrip_normals_exact(self, x):
        assert FPValue.from_float(x).to_float() == x

    def test_specials(self):
        assert FPValue.from_float(math.inf).is_inf
        assert FPValue.from_float(-math.inf).sign == 1
        assert FPValue.from_float(math.nan).is_nan
        assert FPValue.from_float(0.0).is_zero
        assert FPValue.from_float(-0.0).sign == 1

    def test_subnormals_flush_to_zero(self):
        tiny = 5e-324  # smallest subnormal double
        v = FPValue.from_float(tiny)
        assert v.is_zero
        v = FPValue.from_float(-tiny)
        assert v.is_zero and v.sign == 1

    def test_smallest_normal_survives(self):
        x = math.ldexp(1.0, -1022)
        assert FPValue.from_float(x).to_float() == x

    @given(normal_doubles())
    def test_to_fraction_is_exact(self, x):
        assert float(FPValue.from_float(x).to_fraction()) == x


class TestFromFraction:
    @given(normal_doubles())
    def test_agrees_with_float_conversion(self, x):
        direct = FPValue.from_float(x)
        via_fraction = FPValue.from_fraction(Fraction(x), BINARY64)
        assert direct == via_fraction

    @given(st.fractions(min_value=Fraction(1, 10**9),
                        max_value=Fraction(10**9)))
    def test_matches_python_float_rounding(self, q):
        # Python's float() rounds to nearest-even, like from_fraction.
        assert FPValue.from_fraction(q, BINARY64).to_float() == float(q)

    def test_overflow_to_inf(self):
        v = FPValue.from_fraction(Fraction(2) ** 2000, BINARY64)
        assert v.is_inf and v.sign == 0
        v = FPValue.from_fraction(-Fraction(2) ** 2000, BINARY64)
        assert v.is_inf and v.sign == 1

    def test_underflow_flushes(self):
        v = FPValue.from_fraction(Fraction(1, 2 ** 2000), BINARY64)
        assert v.is_zero

    def test_rounding_overflow_renormalizes(self):
        # 1.111...1 (53 ones) + half an ulp rounds up into the next binade
        q = Fraction((1 << 53) - 1, 1 << 52) + Fraction(1, 1 << 53)
        v = FPValue.from_fraction(q, BINARY64)
        assert v.to_float() == 2.0

    def test_zero(self):
        assert FPValue.from_fraction(Fraction(0), BINARY64).is_zero

    @given(normal_doubles(), st.sampled_from(list(RoundingMode)))
    def test_exactly_representable_unchanged_by_mode(self, x, mode):
        v = FPValue.from_fraction(Fraction(x), BINARY64, mode)
        assert v.to_float() == x


class TestPacking:
    @given(normal_doubles())
    def test_pack_unpack_roundtrip(self, x):
        v = FPValue.from_float(x)
        assert FPValue.unpack(v.pack(), BINARY64) == v

    def test_specials_roundtrip(self):
        for v in (FPValue.zero(BINARY64, 1), FPValue.inf(BINARY64),
                  FPValue.inf(BINARY64, 1), FPValue.nan(BINARY64)):
            assert FPValue.unpack(v.pack(), BINARY64).cls == v.cls

    def test_packed_width_is_flopoco_convention(self):
        # FloPoCo word = 2 exception bits + sign + exponent + fraction
        v = FPValue.from_float(1.0)
        assert v.packed_width == 66
        assert v.pack() < (1 << 66)


class TestFieldValidation:
    def test_exponent_range_enforced(self):
        with pytest.raises(ValueError):
            FPValue.from_parts(BINARY64, 0, 0, 0)     # biased exp 0
        with pytest.raises(ValueError):
            FPValue.from_parts(BINARY64, 0, 2047, 0)  # all-ones exponent

    def test_fraction_range_enforced(self):
        with pytest.raises(ValueError):
            FPValue.from_parts(BINARY64, 0, 1, 1 << 52)

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            FPValue(BINARY64, FpClass.ZERO, sign=2)

    def test_significand_of_zero_raises(self):
        with pytest.raises(ValueError):
            _ = FPValue.zero(BINARY64).significand


class TestWiderFormats:
    @given(normal_doubles())
    def test_widening_is_exact(self, x):
        v75 = FPValue.from_float(x, EXTENDED75)
        assert v75.to_fraction() == Fraction(x)

    @given(normal_doubles(min_exp=-100, max_exp=100))
    def test_narrowing_rounds(self, x):
        q = Fraction(x) + Fraction(1, 10**40)
        v32 = FPValue.from_fraction(q, BINARY32)
        # correct rounding: error at most half an ulp of the result
        assert v32.is_normal
        ulp = Fraction(2) ** (v32.unbiased_exponent - 23)
        assert abs(v32.to_fraction() - q) <= ulp / 2

    def test_binary32_flushes_small_doubles(self):
        assert FPValue.from_fraction(Fraction(1, 2**200), BINARY32).is_zero


class TestWordCodec:
    """The one binary64 word codec (``repro.fp``; ``repro.serve.protocol``
    re-exports it)."""

    @given(st.integers(0, (1 << 64) - 1))
    def test_word_roundtrip(self, word):
        x = word_to_fp(word)
        be, frac = (word >> 52) & 0x7FF, word & ((1 << 52) - 1)
        if be == 0x7FF and frac:
            assert x.is_nan and fp_to_word(x) == 0x7FF8000000000000
        elif be == 0:      # zero or subnormal: flushes to signed zero
            assert x.is_zero and fp_to_word(x) == word & (1 << 63)
        else:
            assert fp_to_word(x) == word

    @given(normal_doubles())
    def test_matches_the_float_bits(self, x):
        v = FPValue.from_float(x)
        assert fp_to_word(v) == struct.unpack("<Q", struct.pack("<d", x))[0]

    def test_serve_protocol_reexports_it(self):
        from repro.serve import protocol

        assert protocol.fp_to_word is fp_to_word
        assert protocol.word_to_fp is word_to_fp
