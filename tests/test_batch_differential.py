"""Differential harness: the batched fast path vs the faithful models.

Every component of :mod:`repro.batch` claims *bit-identical* results to
a scalar reference; these tests are the pin holding that claim.  Each
comparison is on full result structure -- class, sign, exponent and the
raw carry-save mantissa/round words (or every IEEE field) -- never on
rounded floats.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import normal_doubles, normal_fpvalues
from repro.batch import (FastCSFmaEngine, accelerate_engine,
                         accumulate_batch, as_format_fast, bit_positions,
                         dot_batch, fma_batch, fp_add_fast, fp_fma_fast,
                         fp_mul_fast, kernel_for)
from repro.batch.cskernel import CS_INF, CS_NAN, CS_NORMAL, CS_ZERO
from repro.batch.engines import BACKEND_ENV
from repro.cs.csa import reduce_rows
from repro.cs.csnumber import CSNumber
from repro.fma import (CSFmaEngine, CSFmaUnit, DiscreteMulAddEngine,
                       FcsFmaUnit, FusedIeeeEngine, PcsFmaUnit, cs_to_ieee,
                       ieee_to_cs, run_recurrence)
from repro.fma.accumulator import AccumulatorOverflow, PcsAccumulator
from repro.fma.dotprod import FusedDotProductUnit
from repro.fma.formats import (FCS_PARAMS, PCS_PARAMS, CSFloat,
                                chunk_carry_mask)
from repro.fp import (BINARY32, BINARY64, EXTENDED68, EXTENDED75, FPValue,
                      FpClass, double)
from repro.fp.ops import as_format, fp_add, fp_fma, fp_mul, fp_neg
from repro.fp.rounding import RoundingMode
from repro.guard import GuardConfig, guarding
from repro.serve.protocol import word_to_fp
from test_fma_parametrized import SINGLE_PCS, VARIANTS, WIDE_FCS

PCS = PcsFmaUnit()
FCS = FcsFmaUnit()
UNITS = [PCS, FCS]
unit_ids = lambda u: u.name  # noqa: E731

#: the paper's units plus the non-default geometries of
#: ``test_fma_parametrized`` (a binary32-class PCS, a four-block FCS)
GEOMETRIES = UNITS + [
    CSFmaUnit(SINGLE_PCS, selector="zd", use_carry_reduce=True),
    CSFmaUnit(WIDE_FCS, selector="lza", use_carry_reduce=False),
]
geometry_ids = lambda u: u.params.name  # noqa: E731

VECTORS = Path(__file__).parent / "vectors" / "fma_hard_cases.json"

FORMATS = [BINARY32, BINARY64, EXTENDED68, EXTENDED75]
MODES = list(RoundingMode)


def assert_same_value(x: FPValue, y: FPValue) -> None:
    """Full-field IEEE comparison (sign of zero and NaN class included)."""
    assert x.fmt == y.fmt
    assert x.cls == y.cls
    assert x.sign == y.sign
    if x.is_normal:
        assert x.biased_exponent == y.biased_exponent
        assert x.fraction == y.fraction


def assert_same_cs(x, y) -> None:
    """Full-structure CSFloat comparison (CS words, not collapsed sums)."""
    assert x.cls == y.cls
    assert x.exp == y.exp
    assert x.sign_hint == y.sign_hint
    assert x.mant.sum == y.mant.sum
    assert x.mant.carry == y.mant.carry
    assert x.round_data.sum == y.round_data.sum
    assert x.round_data.carry == y.round_data.carry


# ---------------------------------------------------------------------------
# the CS kernel vs the faithful PCS/FCS unit


class TestKernelVsUnit:
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(a=normal_doubles(-300, 300), b=normal_doubles(-300, 300),
           c=normal_doubles(-300, 300))
    def test_single_fma(self, unit, a, b, c):
        ref = unit.fma(ieee_to_cs(double(a), unit.params), double(b),
                       ieee_to_cs(double(c), unit.params))
        (fast,) = fma_batch([double(a)], [double(b)], [double(c)],
                            unit=unit)
        assert_same_cs(fast, ref)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(a=normal_doubles(-40, 40), b=normal_doubles(-40, 40))
    def test_massive_cancellation(self, unit, a, b):
        # A + B*C with A ~ -B*C: the leading-zero stress case
        c = -a / b
        ref = unit.fma(ieee_to_cs(double(a), unit.params), double(b),
                       ieee_to_cs(double(c), unit.params))
        (fast,) = fma_batch([double(a)], [double(b)], [double(c)],
                            unit=unit)
        assert_same_cs(fast, ref)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_special_class_combinations(self, unit):
        specials = [FPValue.zero(BINARY64), FPValue.zero(BINARY64, 1),
                    FPValue.inf(BINARY64), FPValue.inf(BINARY64, 1),
                    FPValue.nan(BINARY64), double(1.5), double(-2.0),
                    double(2.0 ** -1000), double(2.0 ** 1000)]
        for a in specials:
            for b in specials:
                for c in specials:
                    ref = unit.fma(ieee_to_cs(a, unit.params), b,
                                   ieee_to_cs(c, unit.params))
                    (fast,) = fma_batch([a], [b], [c], unit=unit)
                    assert_same_cs(fast, ref)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(data=st.lists(st.tuples(normal_doubles(-80, 80),
                                   normal_doubles(-80, 80)),
                         min_size=1, max_size=40),
           seeds=st.tuples(normal_doubles(-10, 10), normal_doubles(-10, 10),
                           normal_doubles(-10, 10)))
    def test_dependent_chain(self, unit, data, seeds):
        """Chained FMAs: carry-save results feed the next A/C operands,
        exercising the redundant-operand decode paths."""
        kernel = kernel_for(unit)
        ref = ieee_to_cs(double(seeds[0]), unit.params)
        ref2 = ieee_to_cs(double(seeds[1]), unit.params)
        fast = kernel.lift_cs(ref)
        fast2 = kernel.lift_cs(ref2)
        for b, _ in data:
            ref = unit.fma(ref, double(b), ref2)
            fast = kernel.fma(fast, kernel.lift_b(double(b)), fast2)
            ref, ref2 = ref2, ref
            fast, fast2 = fast2, fast
            assert_same_cs(kernel.lower(fast2), ref2)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(vals=st.lists(st.tuples(normal_doubles(-300, 300),
                                   normal_doubles(-300, 300),
                                   normal_doubles(-300, 300)),
                         min_size=0, max_size=8))
    def test_fma_batch_matches_scalar_loop(self, unit, vals):
        a = [double(v[0]) for v in vals]
        b = [double(v[1]) for v in vals]
        c = [double(v[2]) for v in vals]
        ref = fma_batch(a, b, c, unit=unit, use_batch=False)
        fast = fma_batch(a, b, c, unit=unit, use_batch=True)
        for r, f in zip(ref, fast):
            assert_same_cs(f, r)


# ---------------------------------------------------------------------------
# dot_batch vs the fused dot-product unit


class TestDotBatch:
    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    @given(pairs=st.lists(st.tuples(normal_doubles(-80, 80),
                                    normal_doubles(-80, 80)),
                          min_size=0, max_size=50))
    def test_matches_fused_unit(self, unit, pairs):
        a = [double(p[0]) for p in pairs]
        b = [double(p[1]) for p in pairs]
        ref = FusedDotProductUnit(unit).dot(a, b)
        assert_same_value(dot_batch(a, b, unit=unit), ref)

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_cancelling_vector(self, unit):
        a = [double(v) for v in [1e30, 1.0, -1e30, 3.5, -3.5]]
        b = [double(v) for v in [1.25, 1.0, 1.25, 1.0, 1.0]]
        ref = FusedDotProductUnit(unit).dot(a, b)
        assert_same_value(dot_batch(a, b, unit=unit), ref)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot_batch([double(1.0)], [])


# ---------------------------------------------------------------------------
# accumulate_batch vs the [12] MAC


class TestAccumulateBatch:
    @given(pairs=st.lists(st.tuples(normal_doubles(-25, 25),
                                    normal_doubles(-25, 25)),
                          min_size=0, max_size=60))
    def test_matches_scalar_accumulator(self, pairs):
        a = [double(p[0]) for p in pairs]
        b = [double(p[1]) for p in pairs]
        ref = PcsAccumulator()
        for ai, bi in zip(a, b):
            ref.accumulate(ai, bi)
        fast = accumulate_batch(a, b)
        assert fast._state.sum == ref._state.sum
        assert fast._state.carry == ref._state.carry
        assert fast.operations == ref.operations
        assert_same_value(fast.result(), ref.result())

    @pytest.mark.parametrize("backend, env, faithful", [
        (None, None, False), ("auto", "faithful", False),
        ("vector", None, False), ("tuple", None, False),
        ("faithful", None, True), (None, "faithful", True)])
    def test_backend_resolution(self, monkeypatch, backend, env, faithful):
        """The MAC has no lane engine: ``faithful`` -- passed, or the
        ``REPRO_BATCH_BACKEND`` default -- runs the scalar model, any
        other backend the integer path."""
        if env is None:
            monkeypatch.delenv(BACKEND_ENV, raising=False)
        else:
            monkeypatch.setenv(BACKEND_ENV, env)
        calls = []
        accumulate = PcsAccumulator.accumulate
        monkeypatch.setattr(
            PcsAccumulator, "accumulate",
            lambda acc, a, b: calls.append(1) or accumulate(acc, a, b))
        a = [double(1.5), double(-0.25)]
        acc = accumulate_batch(a, a, backend=backend)
        assert acc.result().to_float() == 2.3125
        assert len(calls) == (2 if faithful else 0)

    @pytest.mark.parametrize("backend, env", [("simd", None),
                                              (None, "vectr")])
    def test_unknown_backend_rejected(self, monkeypatch, backend, env):
        if env is not None:
            monkeypatch.setenv(BACKEND_ENV, env)
        with pytest.raises(ValueError, match="unknown backend"):
            accumulate_batch([double(1.0)], [double(1.0)], backend=backend)

    def test_zero_products_count_as_operations(self):
        acc = accumulate_batch([double(0.0), double(2.0)],
                               [double(5.0), double(0.5)])
        assert acc.operations == 2
        assert acc.result().to_float() == 1.0

    def test_overflow_preserves_partial_progress(self):
        a = [double(v) for v in [1.0, 2.0 ** 40, 1.0]]
        b = [double(v) for v in [1.0, 2.0 ** 40, 1.0]]
        ref = PcsAccumulator()
        with pytest.raises(AccumulatorOverflow):
            for ai, bi in zip(a, b):
                ref.accumulate(ai, bi)
        fast = PcsAccumulator()
        with pytest.raises(AccumulatorOverflow):
            accumulate_batch(a, b, fast)
        assert fast._state.sum == ref._state.sum
        assert fast._state.carry == ref._state.carry
        assert fast.operations == ref.operations


# ---------------------------------------------------------------------------
# the integer IEEE kernels vs the Fraction-based reference operators


class TestIeeeFast:
    @pytest.mark.parametrize("fmt", FORMATS, ids=lambda f: f.name)
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @given(a=normal_fpvalues(-300, 300), b=normal_fpvalues(-300, 300),
           c=normal_fpvalues(-300, 300))
    @settings(max_examples=25)
    def test_ops_match_reference(self, fmt, mode, a, b, c):
        assert_same_value(fp_add_fast(a, b, fmt=fmt, mode=mode),
                          fp_add(a, b, fmt=fmt, mode=mode))
        assert_same_value(fp_mul_fast(a, b, fmt=fmt, mode=mode),
                          fp_mul(a, b, fmt=fmt, mode=mode))
        assert_same_value(fp_fma_fast(a, b, c, fmt=fmt, mode=mode),
                          fp_fma(a, b, c, fmt=fmt, mode=mode))
        assert_same_value(as_format_fast(a, fmt, mode),
                          as_format(a, fmt, mode))

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    def test_specials_and_zero_signs(self, mode):
        specials = [FPValue.zero(BINARY64), FPValue.zero(BINARY64, 1),
                    FPValue.inf(BINARY64), FPValue.inf(BINARY64, 1),
                    FPValue.nan(BINARY64), double(1.0), double(-1.0)]
        for a in specials:
            for b in specials:
                assert_same_value(fp_add_fast(a, b, mode=mode),
                                  fp_add(a, b, mode=mode))
                assert_same_value(fp_mul_fast(a, b, mode=mode),
                                  fp_mul(a, b, mode=mode))
                for c in specials:
                    assert_same_value(fp_fma_fast(a, b, c, mode=mode),
                                      fp_fma(a, b, c, mode=mode))

    @given(a=normal_fpvalues(-40, 40), b=normal_fpvalues(-40, 40))
    def test_exact_cancellation_zero_sign(self, a, b):
        from repro.fp.ops import fp_neg

        for mode in MODES:
            assert_same_value(fp_add_fast(a, fp_neg(a), mode=mode),
                              fp_add(a, fp_neg(a), mode=mode))
            assert_same_value(
                fp_fma_fast(fp_mul(a, b), fp_neg(a), b, mode=mode),
                fp_fma(fp_mul(a, b), fp_neg(a), b, mode=mode))

    @given(a=normal_fpvalues(-1020, 1020), b=normal_fpvalues(-1020, 1020))
    def test_overflow_and_flush_edges(self, a, b):
        # products that overflow binary64 or flush to zero must take the
        # same saturation path in both implementations
        assert_same_value(fp_mul_fast(a, b), fp_mul(a, b))
        assert_same_value(fp_add_fast(a, b), fp_add(a, b))

    @pytest.mark.parametrize("fast", [False, True],
                             ids=["reference", "fast"])
    def test_directed_rounding_of_negative_results(self, fast):
        """Toward +inf shrinks a negative result's magnitude, toward
        -inf grows it (IEEE 754 roundTowardPositive/Negative)."""
        add, mul, fma, conv = ((fp_add_fast, fp_mul_fast, fp_fma_fast,
                                as_format_fast) if fast
                               else (fp_add, fp_mul, fp_fma, as_format))
        up, down = RoundingMode.TO_POS_INF, RoundingMode.TO_NEG_INF
        ulp = 2.0 ** -52
        # -1 - 2**-60
        a, b = double(-1.0), double(-2.0 ** -60)
        assert add(a, b, mode=up) == double(-1.0)
        assert add(a, b, mode=down) == double(-1.0 - ulp)
        # -(1 + 2**-52) * (1 + 2**-52) = -(1 + 2**-51 + 2**-104)
        a, b = double(-1.0 - ulp), double(1.0 + ulp)
        assert mul(a, b, mode=up) == double(-1.0 - 2 * ulp)
        assert mul(a, b, mode=down) == double(-1.0 - 3 * ulp)
        # -1 + 2**-30 * -2**-30 = -1 - 2**-60
        a, b, c = double(-1.0), double(2.0 ** -30), double(-2.0 ** -30)
        assert fma(a, b, c, mode=up) == double(-1.0)
        assert fma(a, b, c, mode=down) == double(-1.0 - ulp)
        # binary64 -(1 + 2**-52) to binary32
        x = double(-1.0 - ulp)
        assert conv(x, BINARY32, up) == FPValue.from_float(-1.0, BINARY32)
        assert conv(x, BINARY32, down) == FPValue.from_float(
            -1.0 - 2.0 ** -23, BINARY32)

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
    @given(a=normal_fpvalues(-60, 60), b=normal_fpvalues(-60, 60),
           c=normal_fpvalues(-60, 60))
    @settings(max_examples=30)
    def test_negation_mirrors_rounding(self, mode, a, b, c):
        """``op(-x) == -op(x)`` with the directed modes swapped, for
        every non-zero result, in both implementations."""
        mirror = {RoundingMode.TO_POS_INF: RoundingMode.TO_NEG_INF,
                  RoundingMode.TO_NEG_INF: RoundingMode.TO_POS_INF
                  }.get(mode, mode)
        cases = [
            (fp_add, fp_add_fast, (fp_neg(a), fp_neg(b)), (a, b)),
            (fp_mul, fp_mul_fast, (fp_neg(a), b), (a, b)),
            (fp_fma, fp_fma_fast, (fp_neg(a), fp_neg(b), c), (a, b, c)),
            (as_format, as_format_fast, (fp_neg(a), BINARY32),
             (a, BINARY32)),
        ]
        for ref_op, fast_op, neg_args, args in cases:
            for op in (ref_op, fast_op):
                want = op(*args, mode=mirror)
                if not want.is_zero:
                    assert_same_value(op(*neg_args, mode=mode),
                                      fp_neg(want))


# ---------------------------------------------------------------------------
# the kernel's integer CS -> binary64 lowering vs the faithful converter


def _lower_ref(kernel, t) -> FPValue:
    return cs_to_ieee(kernel.lower(t))


def _corpus_operands(unit):
    """The 298 golden cases as IEEE operands the unit accepts (binary64,
    or rounded to binary32 for a binary32-class B port)."""
    fmt = BINARY32 if unit.params.b_sig_bits < 53 else BINARY64
    for case in json.loads(VECTORS.read_text())["cases"]:
        yield tuple(as_format(word_to_fp(int(case[k], 16)), fmt)
                    for k in "abc")


def _at(kernel, n: int, top: int) -> tuple:
    """NORMAL tuple of the signed integer ``n`` scaled so its leading
    bit weighs ``2**top``; the low ``block`` bits of ``n`` land in the
    rounding-data block."""
    exp = top - (abs(n).bit_length() - 1) + kernel.frac + kernel.block
    assert kernel.emin <= exp <= kernel.emax
    return (CS_NORMAL, exp, (n >> kernel.block) & kernel.mmask, 0,
            n & kernel.bmask, 0, 0)


def _edge_cases(kernel) -> list:
    """``(label, tuple, expected binary64 or None)`` for the lowering's
    edge cases that the kernel's geometry can represent."""
    fmask = (1 << 52) - 1

    def normal(sign, top, sig):
        return FPValue(BINARY64, FpClass.NORMAL, sign, top + 1023,
                       sig & fmask)

    mm, bm = kernel.mmask, kernel.bmask
    out = [
        # mantissa and rounding block both wrap to 0: +0 whatever the
        # sign hint
        ("collapse-to-zero", (CS_NORMAL, 0, mm, 1, bm, 1, 0),
         FPValue.zero(BINARY64)),
        ("collapse-to-zero-hint", (CS_NORMAL, 0, mm, 1, bm, 1, 1),
         FPValue.zero(BINARY64)),
        # mantissa 0 or -1, the rounding block alone carries the value
        ("round-block-only", (CS_NORMAL, 0, 0, 0, 1, 0, 0), None),
        ("minus-one-plus-round", (CS_NORMAL, 0, mm, 0, 1, 0, 0), None),
    ]
    # every legal carry position set in both planes, positive and
    # negative collapses
    for label, m_sum in (("carries-pos", kernel.msign >> 1),
                         ("carries-neg", mm ^ (kernel.msign >> 1)),
                         ("carries-wrap", mm)):
        out.append((label, (CS_NORMAL, 3, m_sum, kernel.mcmask,
                            bm >> 1, kernel.rcmask, 0), None))
    for cls in (CS_ZERO, CS_INF, CS_NAN):
        for hint in (0, 1):
            out.append((f"class{cls}-hint{hint}",
                        (cls, 0, 0, 0, 0, 0, hint), None))
    # rounding at binary64's 53 bits: only geometries whose tuples hold
    # more than 53 significant bits (8 extra bits below the LSB here)
    if kernel.mw - 1 + kernel.block < 53 + 8:
        return out
    half = 1 << 7
    even = (1 << 52) | 0x5A5A5A5A5A5A4
    odd = even | 1
    ones = (1 << 53) - 1
    for sign in (0, 1):
        sg = -1 if sign else 1
        out += [
            (f"tie-even-{sign}", _at(kernel, sg * ((even << 8) | half), 0),
             normal(sign, 0, even)),
            (f"tie-odd-{sign}", _at(kernel, sg * ((odd << 8) | half), 0),
             normal(sign, 0, odd + 1)),
            (f"above-tie-{sign}",
             _at(kernel, sg * ((even << 8) | half | 1), 0),
             normal(sign, 0, even + 1)),
            (f"binade-carry-{sign}",
             _at(kernel, sg * ((ones << 8) | half), 5),
             normal(sign, 6, 0)),
            (f"max-finite-{sign}", _at(kernel, sg * (ones << 8), 1023),
             normal(sign, 1023, ones)),
            (f"overflow-{sign}", _at(kernel, sg * (even << 8), 1024),
             FPValue.inf(BINARY64, sign)),
            (f"overflow-by-rounding-{sign}",
             _at(kernel, sg * ((ones << 8) | half), 1023),
             FPValue.inf(BINARY64, sign)),
            (f"min-normal-{sign}", _at(kernel, sg * (1 << 60), -1022),
             normal(sign, -1022, 0)),
            (f"flush-{sign}", _at(kernel, sg * (even << 8), -1023),
             FPValue.zero(BINARY64, sign)),
            (f"min-normal-by-rounding-{sign}",
             _at(kernel, sg * ((ones << 8) | half), -1023),
             normal(sign, -1022, 0)),
        ]
    return out


@st.composite
def cs_tuples(draw, kernel):
    """Arbitrary legal kernel tuples: any class, exponent, mantissa and
    rounding words, carries restricted to the legal positions."""
    cls = draw(st.sampled_from([CS_NORMAL] * 5 + [CS_ZERO, CS_INF,
                                                   CS_NAN]))
    hint = draw(st.integers(0, 1))
    if cls != CS_NORMAL:
        return (cls, 0, 0, 0, 0, 0, hint)
    lo, hi = kernel.emin, kernel.emax
    edges = [e for e in (*range(-1090, -1010), *range(1010, 1090))
             if lo <= e <= hi] or [0]
    exp = draw(st.one_of(st.integers(lo, hi), st.sampled_from(edges)))
    small = st.integers(0, min(1 << 60, kernel.mmask))
    m_sum = draw(st.one_of(st.integers(0, kernel.mmask), small,
                           small.map(lambda v: kernel.mmask - v)))
    m_carry = draw(st.integers(0, kernel.mmask)) & kernel.mcmask
    r_sum = draw(st.integers(0, kernel.bmask))
    r_carry = draw(st.integers(0, kernel.bmask)) & kernel.rcmask
    return (CS_NORMAL, exp, m_sum, m_carry, r_sum, r_carry, hint)


class TestToIeee:
    """``FastCSKernel.to_ieee(t) == cs_to_ieee(kernel.lower(t))``."""

    @pytest.mark.parametrize("unit", GEOMETRIES, ids=geometry_ids)
    def test_corpus_chains(self, unit):
        """Results of chained kernel FMAs over the golden corpus: each
        case's product, that result fed back as both A and C, and a
        running accumulator across the whole corpus."""
        k = kernel_for(unit)
        acc = (CS_ZERO, 0, 0, 0, 0, 0, 0)
        seen = 0
        for a, b, c in _corpus_operands(unit):
            bt = k.lift_b(b)
            r1 = k.fma(k.lift_ieee(a), bt, k.lift_ieee(c))
            r2 = k.fma(r1, bt, r1)
            acc = k.fma(acc, bt, r2)
            if acc[0] != CS_NORMAL:
                acc = (CS_ZERO, 0, 0, 0, 0, 0, 0)
            for t in (r1, r2, acc):
                assert_same_value(k.to_ieee(t), _lower_ref(k, t))
                seen += t[0] == CS_NORMAL
        assert seen > 500

    @pytest.mark.parametrize("unit", GEOMETRIES, ids=geometry_ids)
    @seed(20260806)
    @given(data=st.data())
    @settings(max_examples=150)
    def test_hypothesis_tuples(self, unit, data):
        k = kernel_for(unit)
        t = data.draw(cs_tuples(k))
        assert_same_value(k.to_ieee(t), _lower_ref(k, t))

    @pytest.mark.parametrize("unit", GEOMETRIES, ids=geometry_ids)
    def test_constructed_edges(self, unit):
        k = kernel_for(unit)
        for label, t, want in _edge_cases(k):
            got = k.to_ieee(t)
            assert got == _lower_ref(k, t), label
            if want is not None:
                assert_same_value(got, want)

    def test_fast_engine_lowers_with_it(self):
        engine = FastCSFmaEngine(PCS)
        t = engine.fma(engine.lift(double(1.0)), double(3.0),
                       engine.lift(double(2.0 ** -70)))
        assert_same_value(engine.lower(t), engine.kernel.to_ieee(t))
        assert engine.lower(t) == double(1.0 + 3 * 2.0 ** -70)


def _bit_positions_loop(word: int) -> tuple:
    """The per-bit loop ``bit_positions`` replaced (the reference)."""
    out = []
    while word:
        low = word & -word
        out.append(low.bit_length() - 1)
        word &= word - 1
    return tuple(out)


#: the geometries the one Wallace tree is checked on: the paper's units
#: and the two off-paper ones whose fraction holds a binary64 significand
TREE_UNITS = UNITS + [CSFmaUnit(p, selector=sel, use_carry_reduce=red)
                      for p, sel, red in VARIANTS
                      if p.name in ("fcs-wide", "pcs-dense")]


@st.composite
def product_cases(draw, kernel):
    """``(cv, sig, width)`` as the kernel's stage 3 passes them: a signed
    multiplicand of up to ``mant_width - 2`` bits, a ``B`` significand,
    and the product width or an in-window width ``W - p_pos``."""
    lim = 1 << (kernel.mw - 2)
    cv = draw(st.integers(-lim + 1, lim - 1))
    sig = draw(st.integers(1, (1 << kernel.bsig) - 1))
    width = draw(st.one_of(st.just(kernel.pw),
                           st.integers(kernel.W - kernel.plsb, kernel.W)))
    return cv, sig, width


class TestMultiplierRows:
    @pytest.mark.parametrize("unit", TREE_UNITS, ids=geometry_ids)
    @given(data=st.data())
    def test_product_is_the_masked_faithful_tree(self, unit, data):
        """The one tree per row count, run unmasked on ``cv & mask`` and
        masked once, equals the faithful tree masked at every level --
        for a negative multiplicand too -- and the armed residue guard
        checks the pair without flagging or changing it."""
        k = kernel_for(unit)
        cv, sig, width = data.draw(product_cases(k))
        pos = bit_positions(sig)
        mask = (1 << width) - 1
        red = reduce_rows([((cv & mask) << p) & mask for p in pos],
                          width=width)
        want = (red.sum, red.carry)
        assert k.product(cv, pos, width, mask) == want
        with guarding(GuardConfig(record_only=True)) as state:
            assert k.product(cv, pos, width, mask) == want
        assert state.checks == {"product": 1}
        assert state.mismatches == {}

    def test_bit_positions_matches_bit_loop(self):
        words = [0]
        words += [1 << i for i in range(130)]
        words += [(1 << w) - 1 for w in range(1, 131)]
        rng = random.Random(20260806)
        for w in range(1, 131):
            for _ in range(8):
                words.append(rng.getrandbits(w) | (1 << (w - 1)))
        for word in words:
            assert bit_positions(word) == _bit_positions_loop(word), word

    def test_table_growth_under_threads(self, monkeypatch):
        """Threads growing the byte table concurrently from empty never
        see a short or mixed table."""
        import sys
        import threading

        from repro.batch import cskernel

        monkeypatch.setattr(cskernel, "_BYTE_ROWS", ())
        rng = random.Random(7)
        words = [rng.getrandbits(rng.randint(1, 130)) for _ in range(400)]
        want = [_bit_positions_loop(w) for w in words]
        bad = []

        def work(offset):
            for i in range(len(words)):
                j = (i + offset) % len(words)
                if bit_positions(words[j]) != want[j]:
                    bad.append(words[j])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(37 * k,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not bad

    def test_carry_masks_cached(self):
        narrow = dataclasses.replace(PCS_PARAMS, name="pcs-5",
                                     carry_spacing=5)
        for p in (PCS_PARAMS, FCS_PARAMS, narrow):
            assert p.mant_carry_mask == chunk_carry_mask(p.mant_width,
                                                         p.carry_spacing)
            assert p.round_carry_mask == chunk_carry_mask(p.block,
                                                          p.carry_spacing)
            # computed once per params object, not per access
            assert p.mant_carry_mask is p.mant_carry_mask
            assert p.round_carry_mask is p.round_carry_mask
        assert narrow.mant_carry_mask != PCS_PARAMS.mant_carry_mask


# ---------------------------------------------------------------------------
# the checked batch lowering vs the CSFloat/CSNumber constructors


def _constructed(kernel, t):
    """What lowering ``t`` must give: the CSFloat that constructing it
    from the tuple's fields builds (the per-lane ``lower`` that
    ``lower_batch`` replaced), or the ValueError construction raises."""
    p = kernel.params
    try:
        if t[0] == CS_NORMAL:
            return CSFloat(
                p, FpClass.NORMAL, t[1],
                CSNumber(t[2], t[3], p.mant_width, p.mant_carry_mask),
                CSNumber(t[4], t[5], p.block, p.round_carry_mask))
        return CSFloat(p, FpClass(t[0]), sign_hint=t[6])
    except ValueError as exc:
        return exc


def _off_mask(width: int, mask: int) -> int:
    """The lowest carry position at or below ``width`` that ``mask``
    forbids (``width`` itself for full carry save)."""
    return next(i for i in range(width + 1) if not mask >> i & 1)


def _violations(kernel) -> list:
    """``(label, tuple, message fragment)``: tuples that each break one
    condition of the CSNumber/CSFloat constructors."""
    base = (CS_NORMAL, 3, kernel.msign >> 1, kernel.mcmask, 1,
            kernel.rcmask, 0)

    def lane(i, v):
        """``base`` with field ``i`` set to ``v``."""
        return base[:i] + (v,) + base[i + 1:]

    out = []
    for plane, width, mask, si in (("mant", kernel.mw, kernel.mcmask, 2),
                                   ("round", kernel.block, kernel.rcmask,
                                    4)):
        ci = si + 1
        out += [
            (f"{plane}-sum-too-wide", lane(si, 1 << width),
             f"wider than declared width {width}"),
            (f"{plane}-sum-negative", lane(si, -1), "non-negative"),
            (f"{plane}-carry-negative", lane(ci, -1), "non-negative"),
            (f"{plane}-carry-off-mask",
             lane(ci, 1 << _off_mask(width, mask)), "outside carry_mask"),
            (f"{plane}-carry-beyond-guard", lane(ci, 1 << (width + 1)),
             "width+1 guard"),
        ]
    out += [
        ("exp-below", lane(1, kernel.emin - 1), "outside representable"),
        ("exp-above", lane(1, kernel.emax + 1), "outside representable"),
        ("class-4", (4, 0, 0, 0, 0, 0, 0), "not a valid FpClass"),
        ("class-minus-1", (-1, 0, 0, 0, 0, 0, 0), "not a valid FpClass"),
    ]
    return out


def _legal_tuples(kernel, n: int, seed: int = 0) -> list:
    """``n`` seeded legal tuples, every 8th one a ZERO/INF/NAN."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        if i % 8 == 7:
            out.append((rng.choice((CS_ZERO, CS_INF, CS_NAN)), 0, 0, 0, 0,
                        0, rng.getrandbits(1)))
            continue
        out.append((CS_NORMAL, rng.randint(kernel.emin, kernel.emax),
                    rng.getrandbits(kernel.mw),
                    rng.getrandbits(kernel.mw) & kernel.mcmask,
                    rng.getrandbits(kernel.block),
                    rng.getrandbits(kernel.block) & kernel.rcmask, 0))
    return out


class TestLowerBatchChecks:
    """``FastCSKernel.lower_batch`` (and ``lower``, its one-lane case)
    checks what the constructors check: it raises their ValueError,
    message included, on exactly the tuples they reject, and builds
    ``==`` objects from the rest."""

    @pytest.mark.parametrize("unit", GEOMETRIES, ids=geometry_ids)
    def test_each_violation_raises_as_constructed(self, unit):
        k = kernel_for(unit)
        for label, t, fragment in _violations(k):
            want = _constructed(k, t)
            assert isinstance(want, ValueError), label
            assert fragment in str(want), label
            for lower in (k.lower, lambda t: k.lower_batch([t])):
                with pytest.raises(ValueError) as got:
                    lower(t)
                assert str(got.value) == str(want), label

    @pytest.mark.parametrize("unit", GEOMETRIES, ids=geometry_ids)
    def test_one_bad_lane_in_a_wide_batch(self, unit):
        k = kernel_for(unit)
        good = _legal_tuples(k, 1024)
        assert k.lower_batch(good) == [_constructed(k, t) for t in good]
        violations = _violations(k)
        for label, t, _fragment in violations:
            ts = good[:512] + [t] + good[513:]
            with pytest.raises(ValueError) as got:
                k.lower_batch(ts)
            assert str(got.value) == str(_constructed(k, t)), label
        # the first bad lane raises, as a per-lane loop would
        first, last = violations[0][1], violations[-1][1]
        ts = good[:300] + [first] + good[301:700] + [last] + good[701:]
        with pytest.raises(ValueError) as got:
            k.lower_batch(ts)
        assert str(got.value) == str(_constructed(k, first))

    @pytest.mark.parametrize("unit", GEOMETRIES, ids=geometry_ids)
    def test_legal_edges_build_as_constructed(self, unit):
        """Every legal bit set, both exponent limits, and the fields the
        constructors drop: a NORMAL lane's sign hint, and everything but
        class and hint of a non-NORMAL lane (never checked)."""
        k = kernel_for(unit)
        edges = [
            (CS_NORMAL, k.emin, k.mmask, k.mcmask, k.bmask, k.rcmask, 0),
            (CS_NORMAL, k.emax, 0, 0, 0, 0, 1),
            (CS_ZERO, k.emax + 1, -1, -1, 1 << 200, -5, 1),
            (CS_INF, k.emin - 1, 1 << 300, 0, 0, 0, 0),
            (CS_NAN, 0, 0, -1, 0, 0, 1),
        ]
        got = k.lower_batch(edges)
        assert got == [_constructed(k, t) for t in edges]
        assert [k.lower(t) for t in edges] == got
        assert k.lower_batch([]) == []

    @pytest.mark.parametrize("unit", GEOMETRIES, ids=geometry_ids)
    @seed(20260806)
    @given(data=st.data())
    @settings(max_examples=60)
    def test_hypothesis_batches(self, unit, data):
        k = kernel_for(unit)
        ts = data.draw(st.lists(cs_tuples(k), max_size=12))
        assert k.lower_batch(ts) == [_constructed(k, t) for t in ts]


# ---------------------------------------------------------------------------
# accelerated engines, HLS wiring, fig14, LDL


class TestEngineAcceleration:
    @pytest.mark.parametrize("stock", [
        CSFmaEngine(PCS), CSFmaEngine(FCS), FusedIeeeEngine(),
        DiscreteMulAddEngine(BINARY64), DiscreteMulAddEngine(EXTENDED68),
        DiscreteMulAddEngine(EXTENDED75),
    ], ids=lambda e: e.name)
    @given(data=st.lists(st.tuples(normal_doubles(-8, 8),
                                   normal_doubles(-8, 8)),
                         min_size=1, max_size=12),
           seeds=st.tuples(normal_doubles(-2, 2), normal_doubles(-2, 2),
                           normal_doubles(-2, 2)))
    @settings(max_examples=20)
    def test_recurrence_identical(self, stock, data, seeds):
        fast = accelerate_engine(stock)
        assert fast is not stock
        assert fast.name == stock.name
        b1 = [double(d[0]) for d in data]
        b2 = [double(d[1]) for d in data]
        x0 = [double(s) for s in seeds]
        ref = run_recurrence(stock, b1, b2, x0, len(data))
        out = run_recurrence(fast, b1, b2, x0, len(data))
        assert out.engine == ref.engine
        for r, f in zip(ref.values, out.values):
            assert_same_value(f, r)

    def test_passthroughs(self):
        assert accelerate_engine(None) is None

        class MyEngine(FusedIeeeEngine):
            pass

        custom = MyEngine()
        assert accelerate_engine(custom) is custom


class TestConsumerWiring:
    SRC = ("t1 = b2 * x2; t2 = x3 + t1; t3 = b1 * x1; y = t2 + t3; "
           "z = y * y; w = z + t2;")
    INPUTS = {"b1": 3.7, "b2": -0.25, "x1": 1.5, "x2": -2.25, "x3": 0.875}

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_simulate_use_batch(self, unit):
        from repro.hls import (default_library, parse_program,
                               run_fma_insertion, simulate)

        graph = parse_program(self.SRC, outputs=["y", "w"])
        library = default_library(fma_flavor=unit.params.name)
        run_fma_insertion(graph, library)
        ref = simulate(graph, self.INPUTS, engine=CSFmaEngine(unit),
                       use_batch=False)
        fast = simulate(graph, self.INPUTS, engine=CSFmaEngine(unit))
        assert fast == ref

    @pytest.mark.parametrize("unit", UNITS, ids=unit_ids)
    def test_execute_schedule_use_batch(self, unit):
        from repro.hls import (default_library, list_schedule,
                               parse_program, run_fma_insertion,
                               execute_schedule)

        graph = parse_program(self.SRC, outputs=["y", "w"])
        library = default_library(fma_flavor=unit.params.name)
        run_fma_insertion(graph, library)
        schedule = list_schedule(graph, library)
        ref = execute_schedule(graph, schedule, library, self.INPUTS,
                               engine=CSFmaEngine(unit), use_batch=False)
        fast = execute_schedule(graph, schedule, library, self.INPUTS,
                                engine=CSFmaEngine(unit))
        assert fast.outputs == ref.outputs
        assert fast.cycles == ref.cycles

    def test_fig14_identical(self):
        from repro.experiments import fig14

        assert fig14.run(runs=2) == fig14.run(runs=2, use_batch=False)

    def test_kkt_solve_convenience(self):
        from repro.solvers.kkt import (assemble_kkt, kkt_solve,
                                       kkt_sparsity)
        from repro.solvers.ldl import ldl_solve, numeric_ldl, symbolic_ldl
        from repro.solvers.qp import QPProblem

        rng = np.random.default_rng(3)
        n, m, p = 4, 2, 3
        M = rng.normal(size=(n, n))
        prob = QPProblem(P=M @ M.T + np.eye(n), q=rng.normal(size=n),
                         A=rng.normal(size=(m, n)), b=rng.normal(size=m),
                         G=rng.normal(size=(p, n)), h=rng.normal(size=p))
        w = np.abs(rng.normal(size=p)) + 0.5
        rhs = rng.normal(size=n + m + p)
        sym = symbolic_ldl(kkt_sparsity(prob))
        K = assemble_kkt(prob, w)
        L, D = numeric_ldl(K, sym)
        ref = ldl_solve(L, D, sym, rhs)
        assert np.array_equal(kkt_solve(prob, w, rhs, sym), ref)
        assert np.array_equal(kkt_solve(prob, w, rhs), ref)


# ---------------------------------------------------------------------------
# the zero-detect closed form vs the block-wise ground truth


class TestZeroDetectClosedForm:
    @given(block=st.integers(2, 29), nblocks=st.integers(2, 12),
           data=st.data())
    def test_matches_count_skippable_blocks(self, block, nblocks, data):
        """The kernel replaces the block-wise ZD search with a closed
        form over the collapsed window value; it must agree with the
        semantic ground truth for every (sum, carry) pair."""
        from repro.cs.zero_detect import count_skippable_blocks

        width = block * nblocks
        s = data.draw(st.integers(0, (1 << width) - 1))
        c = data.draw(st.integers(0, (1 << width) - 1))
        max_skip = data.draw(st.integers(1, nblocks - 1))
        value = (s + c) & ((1 << width) - 1)
        if value == 0:
            return
        ref = count_skippable_blocks(CSNumber(s, c, width), block,
                                     max_skip=max_skip)
        if value >> (width - 1):
            inv = (~value) & ((1 << width) - 1)
            rsb = width if inv == 0 else width - inv.bit_length()
        else:
            rsb = width - value.bit_length()
        skipped = max(0, min((rsb - 1) // block, max_skip))
        assert skipped == ref
