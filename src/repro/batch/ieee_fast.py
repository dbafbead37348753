"""Integer fast path for the discrete IEEE operators.

:mod:`repro.fp.ops` computes every result through exact ``Fraction``
arithmetic -- a clean specification, but each operation pays for
numerator/denominator gcd normalization.  Every finite operand is
``+- sig * 2^e`` with an integer significand, so the exact sum/product
is itself an integer scaled by a power of two; these kernels do the
whole computation on machine integers and round with the same decision
procedure as :func:`repro.fp.rounding.round_scaled`.

Bit-identical by construction and by differential test
(``tests/test_batch_differential.py``): special-value handling is copied
branch-for-branch from the reference operators, and rounding reproduces
``_round_nonneg_q`` for every :class:`RoundingMode`, including the
overflow-to-infinity and flush-to-zero edges of
:meth:`FPValue.from_fraction`.
"""

from __future__ import annotations

from ..fp.formats import FloatFormat
from ..fp.rounding import RoundingMode
from ..fp.value import FpClass, FPValue

__all__ = ["fp_add_fast", "fp_mul_fast", "fp_fma_fast", "as_format_fast",
           "round_to_format"]

_NORMAL = FpClass.NORMAL
_NEAREST = RoundingMode.NEAREST_EVEN
_HALF_AWAY = RoundingMode.HALF_AWAY
_TRUNC = RoundingMode.TRUNCATE
_TO_POS = RoundingMode.TO_POS_INF
_TO_NEG = RoundingMode.TO_NEG_INF


def round_to_format(sign: int, mag: int, e2: int, fmt: FloatFormat,
                    mode: RoundingMode) -> FPValue:
    """Round the exact value ``(-1)^sign * mag * 2^e2`` (``mag > 0``).

    Matches ``FPValue.from_fraction(Fraction(mag) * 2**e2, fmt, mode)``
    bit for bit: one correct rounding to ``fmt.significand_bits``, then
    overflow saturation to infinity and flush-to-zero below the normal
    range.
    """
    bl = mag.bit_length()
    e = bl - 1 + e2
    drop = bl - 1 - fmt.fraction_bits
    if drop <= 0:
        sig = mag << (-drop)
    else:
        sig = mag >> drop
        rem = mag & ((1 << drop) - 1)
        if rem:
            if mode is _NEAREST:
                half = 1 << (drop - 1)
                if rem > half or (rem == half and (sig & 1)):
                    sig += 1
            elif mode is _HALF_AWAY:
                if rem >> (drop - 1):
                    sig += 1
            elif mode is (_TO_NEG if sign else _TO_POS):
                # toward the value's own infinity: away from zero
                sig += 1
            # TRUNCATE, or toward the other infinity: nothing
        if sig >> fmt.significand_bits:
            sig >>= 1
            e += 1
    be = e + fmt.bias
    if be > fmt.max_biased_exponent:
        return FPValue.inf(fmt, sign)
    if be < 1:
        return FPValue.zero(fmt, sign)   # flush-to-zero
    return FPValue(fmt, _NORMAL, sign, be, sig & fmt.fraction_mask)


def _sig_exp(x: FPValue) -> tuple[int, int]:
    """Finite ``x`` as ``(signed_sig, e2)`` with value ``sig * 2^e2``."""
    fmt = x.fmt
    sig = x.fraction | (1 << fmt.fraction_bits)
    if x.sign:
        sig = -sig
    return sig, x.biased_exponent - fmt.bias - fmt.fraction_bits


def fp_add_fast(a: FPValue, b: FPValue, *, fmt: FloatFormat | None = None,
                mode: RoundingMode = _NEAREST) -> FPValue:
    """Integer twin of :func:`repro.fp.ops.fp_add`."""
    out = fmt if fmt is not None else a.fmt
    acls = a.cls
    bcls = b.cls
    if acls is FpClass.NAN or bcls is FpClass.NAN:
        return FPValue.nan(out)
    if acls is FpClass.INF or bcls is FpClass.INF:
        if acls is FpClass.INF and bcls is FpClass.INF:
            if a.sign != b.sign:
                return FPValue.nan(out)
            return FPValue.inf(out, a.sign)
        return FPValue.inf(out, a.sign if acls is FpClass.INF else b.sign)
    sa, ea = _sig_exp(a) if acls is _NORMAL else (0, 0)
    sb, eb = _sig_exp(b) if bcls is _NORMAL else (0, 0)
    if sa == 0 and sb == 0:
        if a.sign == b.sign:           # both zero here
            return FPValue.zero(out, a.sign)
        return FPValue.zero(out, 1 if mode is _TO_NEG else 0)
    if sa == 0:
        m, e2 = sb, eb
    elif sb == 0:
        m, e2 = sa, ea
    else:
        e2 = ea if ea < eb else eb
        m = (sa << (ea - e2)) + (sb << (eb - e2))
    if m == 0:
        # exact cancellation of two non-zero values: the reference
        # takes the zero-sum sign rule (not the both-zero branch)
        return FPValue.zero(out, 1 if mode is _TO_NEG else 0)
    if m < 0:
        return round_to_format(1, -m, e2, out, mode)
    return round_to_format(0, m, e2, out, mode)


def fp_mul_fast(a: FPValue, b: FPValue, *, fmt: FloatFormat | None = None,
                mode: RoundingMode = _NEAREST) -> FPValue:
    """Integer twin of :func:`repro.fp.ops.fp_mul`."""
    out = fmt if fmt is not None else a.fmt
    acls = a.cls
    bcls = b.cls
    if acls is FpClass.NAN or bcls is FpClass.NAN:
        return FPValue.nan(out)
    sign = a.sign ^ b.sign
    if acls is FpClass.INF or bcls is FpClass.INF:
        if acls is FpClass.ZERO or bcls is FpClass.ZERO:
            return FPValue.nan(out)    # 0 * inf
        return FPValue.inf(out, sign)
    if acls is FpClass.ZERO or bcls is FpClass.ZERO:
        return FPValue.zero(out, sign)
    afmt = a.fmt
    bfmt = b.fmt
    mag = ((a.fraction | (1 << afmt.fraction_bits))
           * (b.fraction | (1 << bfmt.fraction_bits)))
    e2 = ((a.biased_exponent - afmt.bias - afmt.fraction_bits)
          + (b.biased_exponent - bfmt.bias - bfmt.fraction_bits))
    return round_to_format(sign, mag, e2, out, mode)


def fp_fma_fast(a: FPValue, b: FPValue, c: FPValue, *,
                fmt: FloatFormat | None = None,
                mode: RoundingMode = _NEAREST) -> FPValue:
    """Integer twin of :func:`repro.fp.ops.fp_fma` (``a + b * c``)."""
    out = fmt if fmt is not None else a.fmt
    acls = a.cls
    bcls = b.cls
    ccls = c.cls
    if (acls is FpClass.NAN or bcls is FpClass.NAN
            or ccls is FpClass.NAN):
        return FPValue.nan(out)
    psign = b.sign ^ c.sign
    if bcls is FpClass.INF or ccls is FpClass.INF:
        if bcls is FpClass.ZERO or ccls is FpClass.ZERO:
            return FPValue.nan(out)
        if acls is FpClass.INF and a.sign != psign:
            return FPValue.nan(out)
        return FPValue.inf(out, psign)
    if acls is FpClass.INF:
        return FPValue.inf(out, a.sign)
    sa, ea = _sig_exp(a) if acls is _NORMAL else (0, 0)
    if bcls is _NORMAL and ccls is _NORMAL:
        sb, eb = _sig_exp(b)
        sc, ec = _sig_exp(c)
        sp, ep = sb * sc, eb + ec
    else:
        sp, ep = 0, 0
    if sa == 0 and sp == 0:
        # exact zero result with a zero addend and a zero product
        if a.sign == psign:
            return FPValue.zero(out, a.sign)
        return FPValue.zero(out, 1 if mode is _TO_NEG else 0)
    if sa == 0:
        m, e2 = sp, ep
    elif sp == 0:
        m, e2 = sa, ea
    else:
        e2 = ea if ea < ep else ep
        m = (sa << (ea - e2)) + (sp << (ep - e2))
    if m == 0:
        return FPValue.zero(out, 1 if mode is _TO_NEG else 0)
    if m < 0:
        return round_to_format(1, -m, e2, out, mode)
    return round_to_format(0, m, e2, out, mode)


def as_format_fast(x: FPValue, fmt: FloatFormat,
                   mode: RoundingMode = _NEAREST) -> FPValue:
    """Integer twin of :func:`repro.fp.ops.as_format`."""
    cls = x.cls
    if cls is FpClass.NAN:
        return FPValue.nan(fmt)
    if cls is FpClass.INF:
        return FPValue.inf(fmt, x.sign)
    if cls is FpClass.ZERO:
        return FPValue.zero(fmt, x.sign)
    if x.fmt is fmt or x.fmt == fmt:
        return x
    mag = x.fraction | (1 << x.fmt.fraction_bits)
    e2 = x.biased_exponent - x.fmt.bias - x.fmt.fraction_bits
    return round_to_format(x.sign, mag, e2, fmt, mode)
