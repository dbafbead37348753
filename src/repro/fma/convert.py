"""IEEE 754 <-> carry-save format converters.

These are the conversion blocks the HLS pass wraps around every inserted
FMA unit (Sec. III-I, Fig. 12): cheap in the IEEE -> CS direction (a
fixed shift, exact) and expensive in the CS -> IEEE direction (a full
carry-propagating add, a variable-distance normalizer and a rounder --
which is precisely why the pass removes redundant back-to-back
conversions between chained FMA units).

These are the reference converters.  The batched fast path lowers its
kernel tuples with the integer twin
:meth:`repro.batch.cskernel.FastCSKernel.to_ieee`, which is
bit-identical to ``cs_to_ieee(kernel.lower(t))`` and pinned to it by
``tests/test_batch_differential.py``.
"""

from __future__ import annotations

from ..fp.formats import BINARY64, FloatFormat
from ..fp.rounding import RoundingMode
from ..fp.value import FPValue
from ..telemetry import core as _tm
from .formats import CSFloat, CSFmaParams

__all__ = ["ieee_to_cs", "cs_to_ieee"]


def ieee_to_cs(x: FPValue, params: CSFmaParams) -> CSFloat:
    """Convert an IEEE value to the CS operand format (exact).

    Hardware cost: a constant re-wiring of the significand into the top
    mantissa block plus two's-complement negation for negative values --
    one adder of ``mant_width`` bits in the worst case, no rounding.
    """
    if _tm.ACTIVE is not None:
        _tm.ACTIVE.count("fma.convert.ieee_to_cs")
    return CSFloat.from_ieee(x, params)


def cs_to_ieee(x: CSFloat, fmt: FloatFormat = BINARY64,
               mode: RoundingMode = RoundingMode.NEAREST_EVEN) -> FPValue:
    """Convert a CS operand back to an IEEE format.

    The converter sees the mantissa CS pair and the rounding-data block;
    it collapses the carries (full addition), normalizes with a true
    variable-distance shifter and performs one correct rounding of the
    information it has.  The bounded rounding-data inspection means the
    value being rounded may already deviate from the exact result by the
    documented misrounding (Sec. III-E); no *additional* error is
    introduced here.
    """
    if _tm.ACTIVE is not None:
        # the expensive direction: full carry collapse + true
        # variable-distance normalization (the "slow normalize" path)
        _tm.ACTIVE.count("fma.convert.cs_to_ieee")
    if x.is_nan:
        return FPValue.nan(fmt)
    if x.is_inf:
        return FPValue.inf(fmt, x.sign)
    if x.is_zero:
        return FPValue.zero(fmt, x.sign)
    v = x.to_fraction(unrounded=True)
    if v == 0:
        return FPValue.zero(fmt)
    return FPValue.from_fraction(v, fmt, mode)
