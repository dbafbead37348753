"""Carry-save floating-point operand formats (Fig. 8, Sec. III-E/III-H).

The time-critical FMA operands ``A`` and ``C`` (and the result ``R``)
travel between fused operators in a non-standard format:

* **PCS operand (192 bits total)** -- 12b exponent in excess-2047
  notation, 110b two's-complement mantissa with 10 explicit carry bits
  (one per 11-bit chunk), and 55b+5b of *rounding data*: the unrounded
  trailing block the successor needs for its deferred rounding decision.
* **FCS operand** -- 12b exponent, 87-digit full-carry-save mantissa
  (87b sum + 87b carry), 29 digits of rounding data.

Chunk-carry convention
----------------------
Each ``spacing``-bit chunk stores its *carry-in* explicitly at its least
significant position: carry bits live at positions ``{0, s, 2s, ...}``.
The mantissa LSB's carry-in (position 0) is exactly the carry that
rippled out of the rounding block below it in the adder window, so no
information is lost at the mantissa/rounding-data boundary; a carry
rippling out of the *rounding block itself* (all 55 bits, Sec. III-E) is
the paper's documented misrounding source and is dropped by
:func:`round_decision`.

The numeric value of a finite operand is::

    value = M_signed * 2^(E - bias - frac_bits)

with ``M_signed`` the two's-complement collapse of the mantissa CS pair
and ``frac_bits = mantissa_width - 3`` (explicit leading 1, sign bit and
overflow guard occupy the top three digit positions of a block-normalized
mantissa, Sec. III-D).  The rounding data contributes
``round_value / 2^block`` ULPs of additional (unrounded) precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ..cs.csnumber import CSNumber
from ..fp.formats import BINARY64
from ..fp.value import FpClass, FPValue

__all__ = [
    "CSFmaParams",
    "PCS_PARAMS",
    "FCS_PARAMS",
    "CSFloat",
    "chunk_carry_mask",
    "exponent_error",
    "round_decision",
]


def chunk_carry_mask(width: int, spacing: int) -> int:
    """Carry-in positions ``{0, spacing, 2*spacing, ...}`` below ``width``."""
    mask = 0
    pos = 0
    while pos < width:
        mask |= 1 << pos
        pos += spacing
    return mask


@dataclass(frozen=True)
class CSFmaParams:
    """Architecture parameters shared by an FMA unit and its operand format.

    The two instances used in the paper are :data:`PCS_PARAMS`
    (Sec. III-F) and :data:`FCS_PARAMS` (Sec. III-H); both are freely
    parameterizable ("our architectures are freely parametrizable",
    Sec. III).
    """

    name: str
    block: int             # digits per normalization block
    mant_blocks: int       # blocks in the operand mantissa
    window_blocks: int     # blocks in the adder window
    right_blocks: int      # blocks right of the product (for A shifted low)
    carry_spacing: int     # explicit-carry spacing (1 = full carry save)
    exp_bits: int = 12
    exp_bias: int = 2047
    b_sig_bits: int = 53   # significand width of the IEEE-format B input

    # -- derived ------------------------------------------------------

    @property
    def mant_width(self) -> int:
        return self.block * self.mant_blocks

    @property
    def frac_bits(self) -> int:
        """Fraction bits below the nominal leading-1 position (guard +
        sign occupy the two digits above it)."""
        return self.mant_width - 3

    @property
    def window_width(self) -> int:
        return self.block * self.window_blocks

    @property
    def product_lsb(self) -> int:
        """Window position of the product's least significant bit."""
        return self.block * self.right_blocks

    @property
    def product_width(self) -> int:
        """Signed width of ``B_M * (C_M + 1)``."""
        return self.b_sig_bits + self.mant_width + 1

    @property
    def addend_max_pos(self) -> int:
        """Highest window position of the addend's LSB."""
        return self.window_width - self.mant_width

    @property
    def mux_positions(self) -> int:
        """Number of result positions of the final block multiplexer
        (6 for the PCS unit, 11 for the FCS unit)."""
        return self.window_blocks - self.mant_blocks + 1

    # the carry masks are read by every CSFloat construction, so each
    # params object computes them once (the fields are frozen)
    @cached_property
    def mant_carry_mask(self) -> int:
        return chunk_carry_mask(self.mant_width, self.carry_spacing)

    @cached_property
    def round_carry_mask(self) -> int:
        return chunk_carry_mask(self.block, self.carry_spacing)

    @property
    def mant_carry_bits(self) -> int:
        return bin(self.mant_carry_mask).count("1")

    @property
    def round_carry_bits(self) -> int:
        return bin(self.round_carry_mask).count("1")

    @property
    def operand_bits(self) -> int:
        """Total operand word width (exponent + mantissa + carries +
        rounding data + its carries).

        For the paper's PCS parameters this is the quoted 192 bits:
        12 + 110 + 10 + 55 + 5.
        """
        return (self.exp_bits + self.mant_width + self.mant_carry_bits
                + self.block + self.round_carry_bits)

    @property
    def exp_min(self) -> int:
        """Smallest representable unbiased exponent."""
        return 1 - self.exp_bias

    @property
    def exp_max(self) -> int:
        """Largest representable unbiased exponent."""
        return ((1 << self.exp_bits) - 2) - self.exp_bias


#: Parameters of the PCS-FMA (Sec. III-F): 55b blocks, two-block (110b)
#: mantissa, 7-block (385b) adder window, carries every 11th bit, 6-to-1
#: result multiplexer.  Operand word: 192 bits.
PCS_PARAMS = CSFmaParams(
    name="pcs",
    block=55,
    mant_blocks=2,
    window_blocks=7,
    right_blocks=2,
    carry_spacing=11,
)

#: Parameters of the FCS-FMA (Sec. III-H): 29-digit blocks, three-block
#: (87c) mantissa, 13-block (377c) window, full carry save, 11-to-1
#: result multiplexer.
FCS_PARAMS = CSFmaParams(
    name="fcs",
    block=29,
    mant_blocks=3,
    window_blocks=13,
    right_blocks=3,
    carry_spacing=1,
)


def exponent_error(params: CSFmaParams, exp: int) -> str | None:
    """Why ``exp`` is not the exponent of a NORMAL :class:`CSFloat` under
    ``params``, or ``None``: the one statement of the range
    ``[exp_min, exp_max]``, which :meth:`CSFloat.__post_init__` and the
    fast kernel's batch lowering both check.  An interval, so many
    exponents pass exactly when their minimum and maximum do."""
    if not params.exp_min <= exp <= params.exp_max:
        return (f"exponent {exp} outside representable range "
                f"[{params.exp_min}, {params.exp_max}]")
    return None


def round_decision(round_data: CSNumber, block: int) -> int:
    """The deferred round-half-away decision of Sec. III-C/III-E.

    Inspects only the single rounding-data block: the block's CS digits
    are summed *within* the block (modulo ``2^block``); the decision is
    its top bit, i.e. whether the truncated trailing fraction is >= 1/2
    ULP.  A carry that would ripple out of the whole block is lost --
    exactly the bounded misrounding the paper accepts ("the largest
    number that would be erroneously rounded down is
    0.50000000000000083d", Sec. III-E).
    """
    local = (round_data.sum + round_data.carry) & ((1 << block) - 1)
    return (local >> (block - 1)) & 1


@dataclass(frozen=True)
class CSFloat:
    """A floating-point value in PCS/FCS operand format.

    Attributes
    ----------
    params:
        The architecture parameters (block size, widths, ...).
    cls:
        FloPoCo-style exception class on side wires.
    exp:
        *Unbiased* exponent (the stored field is ``exp + params.exp_bias``
        in excess notation); meaningful for NORMAL values only.
    mant:
        Two's-complement carry-save mantissa (``params.mant_width`` digits,
        carries restricted to the chunk carry-in mask).
    round_data:
        The unrounded trailing block (``params.block`` digits).
    sign_hint:
        Sign for ZERO/INF classes (NORMAL values carry their sign in the
        two's-complement mantissa).
    """

    params: CSFmaParams
    cls: FpClass
    exp: int = 0
    mant: CSNumber = None  # type: ignore[assignment]
    round_data: CSNumber = None  # type: ignore[assignment]
    sign_hint: int = 0

    def __post_init__(self) -> None:
        p = self.params
        if self.mant is None:
            object.__setattr__(
                self, "mant",
                CSNumber.zero(p.mant_width, p.mant_carry_mask))
        if self.round_data is None:
            object.__setattr__(
                self, "round_data",
                CSNumber.zero(p.block, p.round_carry_mask))
        if self.mant.width != p.mant_width:
            raise ValueError("mantissa width mismatch")
        if self.round_data.width != p.block:
            raise ValueError("rounding-data width mismatch")
        if self.cls is FpClass.NORMAL:
            err = exponent_error(p, self.exp)
            if err is not None:
                raise ValueError(err)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, params: CSFmaParams, sign: int = 0) -> "CSFloat":
        return cls(params, FpClass.ZERO, sign_hint=sign)

    @classmethod
    def inf(cls, params: CSFmaParams, sign: int = 0) -> "CSFloat":
        return cls(params, FpClass.INF, sign_hint=sign)

    @classmethod
    def nan(cls, params: CSFmaParams) -> "CSFloat":
        return cls(params, FpClass.NAN)

    @classmethod
    def from_ieee(cls, x: FPValue, params: CSFmaParams) -> "CSFloat":
        """Exact IEEE -> CS conversion (the cheap converter direction).

        The significand (with explicit leading 1) is placed so the
        leading 1 sits at digit position ``frac_bits`` -- inside the top
        block, below the sign and guard digits; negative values are
        two's-complement encoded.  No rounding data, no carry bits.
        """
        p = params
        if x.is_nan:
            return cls.nan(p)
        if x.is_inf:
            return cls.inf(p, x.sign)
        if x.is_zero:
            return cls.zero(p, x.sign)
        if x.fmt.significand_bits > p.frac_bits + 1:
            raise ValueError(
                f"{x.fmt.name} significand too wide for {p.name} operand")
        shift = p.frac_bits - x.fmt.fraction_bits
        m = x.significand << shift
        if x.sign:
            m = -m
        mant = CSNumber(m & ((1 << p.mant_width) - 1), 0, p.mant_width,
                        p.mant_carry_mask)
        return cls(p, FpClass.NORMAL, x.unbiased_exponent, mant,
                   CSNumber.zero(p.block, p.round_carry_mask))

    @classmethod
    def from_float(cls, x: float, params: CSFmaParams) -> "CSFloat":
        return cls.from_ieee(FPValue.from_float(x, BINARY64), params)

    # -- observers --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.cls is FpClass.ZERO

    @property
    def is_normal(self) -> bool:
        return self.cls is FpClass.NORMAL

    @property
    def is_nan(self) -> bool:
        return self.cls is FpClass.NAN

    @property
    def is_inf(self) -> bool:
        return self.cls is FpClass.INF

    @property
    def biased_exponent(self) -> int:
        """The stored excess-``bias`` exponent field."""
        return self.exp + self.params.exp_bias

    def mant_signed(self) -> int:
        """Two's-complement collapse of the mantissa CS pair."""
        return self.mant.signed_value()

    def rounded_mantissa(self) -> int:
        """Mantissa with the deferred rounding decision applied -- the
        value a successor FMA (or the output converter) actually uses."""
        return self.mant_signed() + round_decision(self.round_data,
                                                   self.params.block)

    def to_fraction(self, *, unrounded: bool = True) -> Fraction:
        """Exact value of the operand.

        With ``unrounded=True`` (default) the rounding-data block
        contributes its sub-ULP fraction (modulo the block, matching the
        hardware's bounded inspection); with ``False`` the deferred
        rounding decision is applied instead.
        """
        if self.is_zero:
            return Fraction(0)
        if not self.is_normal:
            raise ValueError(f"no finite value for {self.cls}")
        p = self.params
        if unrounded:
            frac = (self.round_data.sum + self.round_data.carry) & (
                (1 << p.block) - 1)
            m = Fraction(self.mant_signed()) + Fraction(frac, 1 << p.block)
        else:
            m = Fraction(self.rounded_mantissa())
        scale = self.exp - p.frac_bits
        if scale >= 0:
            return m * (1 << scale)
        return m / (1 << (-scale))

    @property
    def sign(self) -> int:
        """Effective sign bit (from the mantissa for NORMAL values)."""
        if self.is_normal:
            return 1 if self.mant_signed() < 0 else 0
        return self.sign_hint

    # -- operand-word packing (the 192-bit PCS words of Sec. III-F) -----

    def pack(self) -> int:
        """Pack into the operand word the units exchange.

        Layout, MSB first: 2 exception-class bits, the excess-``bias``
        exponent field, the mantissa sum bits, the mantissa carry bits
        (compacted to their legal positions), the rounding-data sum
        bits, and its carry bits.  For the paper's PCS parameters the
        payload below the exception wires is exactly 192 bits.
        """
        p = self.params
        word = self.cls.value
        word = (word << p.exp_bits) | (self.biased_exponent
                                       if self.is_normal else 0)
        word = (word << p.mant_width) | self.mant.sum
        word = (word << p.mant_carry_bits) | _compact(
            self.mant.carry, p.mant_carry_mask)
        word = (word << p.block) | self.round_data.sum
        word = (word << p.round_carry_bits) | _compact(
            self.round_data.carry, p.round_carry_mask)
        return word

    @classmethod
    def unpack(cls, word: int, params: CSFmaParams) -> "CSFloat":
        """Inverse of :meth:`pack`."""
        p = params
        rc = _expand(word & ((1 << p.round_carry_bits) - 1),
                     p.round_carry_mask)
        word >>= p.round_carry_bits
        rs = word & ((1 << p.block) - 1)
        word >>= p.block
        mc = _expand(word & ((1 << p.mant_carry_bits) - 1),
                     p.mant_carry_mask)
        word >>= p.mant_carry_bits
        ms = word & ((1 << p.mant_width) - 1)
        word >>= p.mant_width
        biased = word & ((1 << p.exp_bits) - 1)
        word >>= p.exp_bits
        fpclass = FpClass(word & 3)
        if fpclass is not FpClass.NORMAL:
            return cls(p, fpclass)
        return cls(p, FpClass.NORMAL, biased - p.exp_bias,
                   CSNumber(ms, mc, p.mant_width, p.mant_carry_mask),
                   CSNumber(rs, rc, p.block, p.round_carry_mask))

    @property
    def packed_width(self) -> int:
        """Width of the packed word: operand bits + 2 exception wires."""
        return self.params.operand_bits + 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_normal:
            return (f"CSFloat[{self.params.name}](m={self.mant_signed()}, "
                    f"e={self.exp})")
        return f"CSFloat[{self.params.name}]({self.cls.name})"


def _compact(bits: int, mask: int) -> int:
    """Gather the bits at the mask's positions into a dense word."""
    out = 0
    idx = 0
    pos = 0
    m = mask
    while m:
        if m & 1:
            out |= ((bits >> pos) & 1) << idx
            idx += 1
        m >>= 1
        pos += 1
    return out


def _expand(dense: int, mask: int) -> int:
    """Inverse of :func:`_compact`."""
    out = 0
    idx = 0
    pos = 0
    m = mask
    while m:
        if m & 1:
            out |= ((dense >> idx) & 1) << pos
            idx += 1
        m >>= 1
        pos += 1
    return out
