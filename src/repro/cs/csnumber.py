"""Carry-save (CS) numbers: digits in {0, 1, 2} stored as two bit words.

A carry-save number is a pair of bit vectors ``(sum, carry)``; the digit
at position ``i`` is ``sum_i + carry_i`` and has weight ``2^i``, so the
numeric value is simply ``sum + carry``.  The format trades non-unique
representations (Sec. II / Sec. III-E of the paper: ``0.5d`` can be
``0.0200cs`` *or* ``0.0120cs``) for carry-propagation-free addition.

*Partial* carry save (PCS, Sec. III-E) restricts the positions where
carry bits may be non-zero: one explicit carry bit every ``k``-th digit
(the paper evaluates k = 5, 11, 55 and picks 11).  *Full* carry save
(FCS, Sec. III-H) allows a carry bit at every digit.

The class is deliberately immutable and value-semantic; the mutating
datapath steps live in :mod:`repro.cs.adders` and
:mod:`repro.cs.multiplier`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CSNumber", "cs_word_error", "pcs_carry_mask", "FULL_CARRY",
           "NO_CARRY"]


def pcs_carry_mask(width: int, spacing: int) -> int:
    """Mask of legal carry-bit positions for PCS with the given spacing.

    A carry bit at position ``i`` stores the carry *into* digit ``i``
    (i.e. the carry-out of the chunk below), so position 0 never carries;
    legal positions are ``spacing, 2*spacing, ...`` up to ``width``
    inclusive -- the top position acts as the overflow guard the paper
    allots when rounding 383 bits up to 385 (Sec. III-D).
    """
    if spacing < 1:
        raise ValueError("carry spacing must be >= 1")
    mask = 0
    pos = spacing
    while pos <= width:
        mask |= 1 << pos
        pos += spacing
    return mask


def cs_word_error(sum_: int, carry: int, width: int,
                  carry_mask: int | None = None) -> str | None:
    """Why ``(sum_, carry)`` is not a valid :class:`CSNumber` of ``width``
    digits, or ``None``: the one statement of its invariants, which
    :meth:`CSNumber.__post_init__` and the fast kernel's batch lowering
    (:meth:`repro.batch.cskernel.FastCSKernel.lower_batch`) both check.

    Both words must be non-negative; ``sum_`` must fit in ``width`` bits;
    ``carry`` may use the guard position ``width`` but nothing above it,
    and no position outside ``carry_mask``.  Each condition forbids a set
    of bits (a negative word sets every high bit), so the words of many
    numbers pass exactly when their bitwise ORs do; the batch lowering
    relies on that, and any new condition must keep that form.
    """
    if sum_ < 0 or carry < 0:
        return "CS words must be non-negative bit vectors"
    if sum_ >> width:
        return f"sum word wider than declared width {width}"
    if carry >> (width + 1):
        return "carry word exceeds width+1 guard position"
    if carry_mask is not None and carry & ~carry_mask:
        return "carry bit at a position outside carry_mask"
    return None


#: Sentinel spacing constants for :class:`CSNumber` construction helpers.
FULL_CARRY = 1
NO_CARRY = 0


@dataclass(frozen=True)
class CSNumber:
    """An immutable carry-save number.

    Attributes
    ----------
    sum:
        The partial-sum bit word (non-negative int).
    carry:
        The carry bit word (non-negative int).  For PCS formats only the
        positions in ``carry_mask`` may be set.
    width:
        Digit-vector width.  ``sum`` must fit in ``width`` bits; ``carry``
        may use one extra position (``width``) as the overflow guard.
    carry_mask:
        Mask of positions where carry bits are allowed, or ``None`` for
        unrestricted (full) carry save.
    """

    sum: int
    carry: int
    width: int
    carry_mask: int | None = None

    def __post_init__(self) -> None:
        err = cs_word_error(self.sum, self.carry, self.width,
                            self.carry_mask)
        if err is not None:
            raise ValueError(err)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_int(cls, value: int, width: int,
                 carry_mask: int | None = None) -> "CSNumber":
        """Represent a plain binary (non-negative) value: all carries 0."""
        if value < 0:
            raise ValueError(
                "use from_signed for negative values (two's complement)")
        if value >> width:
            raise ValueError(f"value does not fit in {width} bits")
        return cls(value, 0, width, carry_mask)

    @classmethod
    def from_signed(cls, value: int, width: int,
                    carry_mask: int | None = None) -> "CSNumber":
        """Represent a signed value in ``width``-bit two's complement."""
        lo, hi = -(1 << (width - 1)), 1 << (width - 1)
        if not (lo <= value < hi):
            raise ValueError(
                f"value {value} outside two's-complement range of "
                f"{width} bits")
        return cls(value & ((1 << width) - 1), 0, width, carry_mask)

    @classmethod
    def zero(cls, width: int, carry_mask: int | None = None) -> "CSNumber":
        return cls(0, 0, width, carry_mask)

    # -- observers -------------------------------------------------------

    @property
    def value(self) -> int:
        """Unsigned numeric value ``sum + carry`` (may use the guard bit)."""
        return self.sum + self.carry

    def signed_value(self) -> int:
        """Two's-complement value over ``width`` bits.

        The CS words are added, the result reduced mod ``2^width`` (a
        carry out of the top is discarded, as in hardware), and the sign
        taken from the top bit.
        """
        m = (1 << self.width) - 1
        v = (self.sum + self.carry) & m
        if v >> (self.width - 1):
            v -= 1 << self.width
        return v

    def digit(self, i: int) -> int:
        """Digit value in {0, 1, 2} at position ``i``."""
        return ((self.sum >> i) & 1) + ((self.carry >> i) & 1)

    def digits(self) -> list[int]:
        """All digits, LSB first."""
        return [self.digit(i) for i in range(self.width)]

    @property
    def is_plain_binary(self) -> bool:
        """True when no carry bits are set (unique representation)."""
        return self.carry == 0

    @property
    def carry_bit_count(self) -> int:
        return bin(self.carry).count("1")

    # -- structural transforms --------------------------------------------

    def truncated(self, new_width: int) -> "CSNumber":
        """Drop digits above ``new_width`` (modular truncation, as a
        hardware bit-slice would)."""
        m = (1 << new_width) - 1
        cm = None
        if self.carry_mask is not None:
            cm = self.carry_mask & ((1 << (new_width + 1)) - 1)
        return CSNumber(self.sum & m, self.carry & m, new_width, cm)

    def shifted_left(self, n: int, new_width: int | None = None,
                     ) -> "CSNumber":
        """Shift digits towards the MSB, widening unless truncated."""
        w = new_width if new_width is not None else self.width + n
        m = (1 << w) - 1
        return CSNumber((self.sum << n) & m, (self.carry << n) & m, w,
                        None if self.carry_mask is None else
                        ((self.carry_mask << n) & ((1 << (w + 1)) - 1)))

    def with_mask(self, carry_mask: int | None) -> "CSNumber":
        """Reinterpret with a different carry-position constraint (the
        carries must already satisfy it)."""
        return CSNumber(self.sum, self.carry, self.width, carry_mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ds = "".join(str(d) for d in reversed(self.digits()))
        return f"CS[{self.width}]({ds})"
