"""The classic FMA baseline (Hokenek/Montoye/Cook 1990, Fig. 4).

IEEE-compliant operands and result; internally the multiplier output
stays in carry-save form, the addend is pre-shifted in parallel with the
multiplication, a wide (161b for binary64) adder collapses the sum, an
LZA steers the variable-distance normalization shifter, and a final
rounding (+ conditional post-normalization right shift) produces the
IEEE result.

Because the internal datapath is wide enough to be exact, the classic
unit returns the *correctly rounded* fused result -- functionally
identical to :func:`repro.fp.ops.fp_fma`.  The value of this module is
(a) the architectural constants the synthesis model needs and (b) the
datapath trace (shift distance, LZA output) for the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..fp.formats import BINARY64, FloatFormat
from ..fp.ops import fp_fma
from ..fp.rounding import RoundingMode
from ..fp.value import FPValue
from ..guard import residue as _gd
from ..telemetry import core as _tm

__all__ = ["ClassicFmaUnit", "ClassicTrace"]


@dataclass
class ClassicTrace:
    """Internal signals of one classic-FMA evaluation."""

    align_shift: int = 0
    lza_shift: int = 0
    post_normalize: bool = False


class ClassicFmaUnit:
    """Classic fused multiply-add, ``R = A + B * C``, IEEE in / IEEE out.

    Architectural constants (binary64 instance):

    * multiplier: 53x53 partial products in CS form,
    * addend pre-shifter: 161 positions (3 * 53 + 2),
    * main adder: 161 bits followed by conditional complement,
    * LZA + variable-distance left shifter over 161 bits,
    * rounder + 1-bit post-normalization shift.
    """

    #: adder width for a given significand width s: 3*s + 2
    @staticmethod
    def adder_width(significand_bits: int) -> int:
        return 3 * significand_bits + 2

    def __init__(self, fmt: FloatFormat = BINARY64,
                 mode: RoundingMode = RoundingMode.NEAREST_EVEN):
        self.fmt = fmt
        self.mode = mode

    def fma(self, a: FPValue, b: FPValue, c: FPValue,
            trace: ClassicTrace | None = None) -> FPValue:
        """Correctly rounded ``a + b * c``."""
        if _tm.ACTIVE is not None:
            _tm.ACTIVE.count("fma.scalar.call.classic")
        r = fp_fma(a, b, c, fmt=self.fmt, mode=self.mode)
        g = _gd.ACTIVE
        if g is not None and (g := g.state) is not None:
            # The classic unit's exact rational datapath has no wrapped
            # CS stages for a residue checker to shadow; its guard mode
            # is duplicate-and-compare (time redundancy).
            g.check_equal("classic",
                          fp_fma(a, b, c, fmt=self.fmt, mode=self.mode), r)
        if trace is not None and a.is_normal and b.is_normal \
                and c.is_normal:
            e_prod = b.unbiased_exponent + c.unbiased_exponent
            trace.align_shift = max(
                min(e_prod - a.unbiased_exponent
                    + 2 * self.fmt.significand_bits,
                    self.adder_width(self.fmt.significand_bits)), 0)
            if r.is_normal:
                trace.lza_shift = max(e_prod + 1 - r.unbiased_exponent, 0)
                trace.post_normalize = r.unbiased_exponent == e_prod + 2
        return r

    @property
    def name(self) -> str:
        return "classic-fma"
